"""Read and write the MATPOWER v2 case-file text format plus sidecar data.

Only the declarative subset of the format is accepted: scalar assignments
(``mpc.version``, a positive ``mpc.baseMVA``), numeric matrix literals
(``mpc.<name> = [ ... ];``, cells separated by a blank, ``;`` or newline,
rows ended by ``;`` or newline), an optional ``mpc.bus_name`` cell list,
and ``%`` comments.  Anything executable is rejected.  Unknown
``mpc.<name>`` tables are kept so they survive a parse/emit round trip.

A :class:`CaseDocument` holds each table as one 2-D float64 array (an
empty table has shape (0, 0)), and the reader, the writer and the model
conversion work on it one column at a time.  Tables assigned as lists of
rows are accepted wherever a document is read.

Tap-changer data has no home in the MATPOWER tables, so it travels in a
sidecar CSV (``<case>.oltc.csv``) whose columns are the fields of
:class:`~tdsynth.netmodel.OltcTransformer` in order:
``branch_index,controlled_bus,v_set,deadband,tap,tap_min,tap_max,tap_step``.
``branch_index`` is the file's name for ``branch_ref``, the 0-based row in
the branch table.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NoReturn, get_type_hints

import numpy as np

from .netmodel import (BUS_CODES, GEN_CODES, _MEMBERS, BusKind, GenKind, NetworkCase,
                       OltcTransformer, _lookup)

# MATPOWER v2 column positions.
BUS_I, BUS_TYPE, PD, QD, GS, BS, BUS_AREA, VM, VA, BASE_KV, ZONE, VMAX, VMIN = range(13)
GEN_BUS, PG, QG, QMAX, QMIN, VG, MBASE, GEN_STATUS, PMAX, PMIN = range(10)
F_BUS, T_BUS, BR_R, BR_X, BR_B, RATE_A, RATE_B, RATE_C, TAP, SHIFT, BR_STATUS, ANGMIN, ANGMAX = range(13)
COST_MODEL, STARTUP, SHUTDOWN, NCOST, COST_C2, COST_C1, COST_C0 = range(7)

BUS_COLS = 13
GEN_COLS = 21
BRANCH_COLS = 13

_OLTC_FIELDS = [f.name for f in fields(OltcTransformer)]
_OLTC_TYPES = [get_type_hints(OltcTransformer)[name] for name in _OLTC_FIELDS]
OLTC_CSV_HEADER = ["branch_index"] + _OLTC_FIELDS[1:]


class CaseParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class StructuralError(ValueError):
    """A syntactically fine document that violates the table contracts."""


class ExporterError(KeyError):
    pass


@dataclass
class CaseDocument:
    version: str = "2"
    base_mva: float = 100.0
    # each table as one (rows, columns) float64 array
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    bus_name: list[str] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseDocument):
            return NotImplemented
        return (
            (self.version, self.base_mva, self.bus_name)
            == (other.version, other.base_mva, other.bus_name)
            and self.matrices.keys() == other.matrices.keys()
            and all(np.array_equal(_table(t), _table(other.matrices[name]))
                    for name, t in self.matrices.items())
        )


def _table(rows, width: int = 0) -> np.ndarray:
    """A table, given as an array or a list of rows, as a 2-D float64
    array; an empty table has shape (0, ``width``)."""
    table = np.asarray(rows, dtype=float)
    return table if table.size else np.empty((0, width))


# ---------------------------------------------------------------------------
# reader

_BLANK = r"[ \t\r\n]*"
_BLANK_RE = re.compile(_BLANK)
# ASCII digits only: \d would also take digits such as "\u0661"
_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(_NUMBER)
# a quoted string stays as it is; a % comment becomes blanks of its length,
# so every offset still points at the same line and column
_COMMENT_RE = re.compile(r"'[^'\n]*'|(%[^\n]*)")
_STATEMENT_RE = re.compile(
    rf"mpc\.(?P<name>[A-Za-z_][A-Za-z0-9_]*){_BLANK}={_BLANK}"
    rf"(?P<value>'(?P<string>[^'\n]*)'|(?P<number>{_NUMBER})"
    r"|\[(?P<matrix>[^\]]*)\]|\{(?P<cells>[^}']*(?:'[^'\n]*'[^}']*)*)\})"
    rf"{_BLANK};"
)
# a matrix body holds only these ASCII characters; the converter rejects
# or splits the malformed cells they can spell, such as "1-2" or "1.5.5"
_MATRIX_CHARS = b" \t\r\n;0123456789eE+.-"
_CELL_RE = re.compile(r"[^ \t\r]+")
_NAME_OR_FAULT_RE = re.compile(r"'([^'\n]*)'|[^ \t\r\n;]")
# statements whose value is not a matrix: (value group, what it must be)
_SCALARS = {
    "version": ("string", "a quoted version string"),
    "baseMVA": ("number", "a number"),
    "bus_name": ("cells", "'{'"),
}


def _fail(text: str, pos: int, message: str) -> NoReturn:
    line_start = text.rfind("\n", 0, pos) + 1
    raise CaseParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _matrix(text: str, start: int, body: str, name: str) -> np.ndarray:
    """The table of a matrix body found at ``text[start:]``; ``;`` or a
    newline ends a row, and empty rows are dropped."""
    # loadtxt splits at ASCII blanks and reads ASCII numbers only as the
    # grammar does; a body of other characters goes to the error walk
    if body.isascii() and not body.encode().translate(None, _MATRIX_CHARS):
        if not body.strip(" \t\r\n;"):
            return np.empty((0, 0))
        try:
            return np.loadtxt(io.StringIO(body.replace(";", "\n").replace("\r", " ")),
                              ndmin=2, comments=None)
        except ValueError:   # a malformed cell or a ragged row
            pass
    # the error path: walk the rows again to name and place the first fault
    width, pos = None, start
    for line in body.replace(";", "\n").split("\n"):
        cells = list(_CELL_RE.finditer(line))
        for cell in cells:
            if not _NUMBER_RE.fullmatch(cell[0]):
                _fail(text, pos + cell.start(), f"non-numeric cell {cell[0]!r} in mpc.{name}")
        if cells and width is None:
            width = len(cells)
        elif cells and len(cells) != width:
            _fail(text, pos + len(line),
                  f"ragged row in mpc.{name}: {len(cells)} cells, expected {width}")
        pos += len(line) + 1
    raise AssertionError(f"mpc.{name} failed to parse but has no fault")


def parse_case(text: str) -> CaseDocument:
    """Read the document one ``mpc.<name> = <value>;`` statement at a time."""
    if "%" in text:
        text = _COMMENT_RE.sub(lambda m: " " * len(m[1]) if m[1] else m[0], text)
    doc = CaseDocument()
    seen: set[str] = set()
    pos = 0
    while (pos := _BLANK_RE.match(text, pos).end()) < len(text):
        m = _STATEMENT_RE.match(text, pos)
        if m is None:
            found = text[pos : pos + 40].split("\n", 1)[0]
            _fail(text, pos, f"expected 'mpc.<name> = <value>;', found {found!r}")
        name = m["name"]
        if name in seen:
            _fail(text, pos, f"duplicate assignment to mpc.{name}")
        seen.add(name)
        group, what = _SCALARS.get(name, ("matrix", "'['"))
        if m[group] is None:
            _fail(text, m.start("value"), f"expected {what} for mpc.{name}")
        if name == "version":
            doc.version = m[group]
        elif name == "baseMVA":
            doc.base_mva = float(m[group])
        elif name == "bus_name":
            doc.bus_name = []
            for cell in _NAME_OR_FAULT_RE.finditer(m[group]):
                if cell[1] is None:
                    _fail(text, m.start(group) + cell.start(),
                          f"expected quoted name in mpc.bus_name, found {cell[0]!r}")
                doc.bus_name.append(cell[1])
        else:
            doc.matrices[name] = _matrix(text, m.start(group), m[group], name)
        pos = m.end()
    _check_document(doc)
    return doc


def _check_document(doc: CaseDocument) -> dict[str, np.ndarray]:
    """Check the table contracts; returns the tables as arrays."""
    for table in ("bus", "gen", "branch"):
        if table not in doc.matrices:
            raise StructuralError(f"missing required table mpc.{table}")
    tables = {name: _table(rows) for name, rows in doc.matrices.items()}
    minima = {"bus": BUS_COLS, "gen": GEN_COLS, "branch": BRANCH_COLS}
    for table, want in minima.items():
        rows, width = tables[table].shape
        if rows and width < want:
            raise StructuralError(f"mpc.{table} row 0 has {width} columns, needs at least {want}")
    if not 0 < doc.base_mva < math.inf:
        raise StructuralError("baseMVA must be finite and positive")
    for name, table in tables.items():
        finite = np.isfinite(table)
        if not finite.all():
            i = np.flatnonzero(~finite.all(axis=1))[0]
            raise StructuralError(f"non-finite cell in mpc.{name} row {i}")
    if doc.bus_name is not None:
        if len(doc.bus_name) != len(tables["bus"]):
            raise StructuralError(
                f"bus_name has {len(doc.bus_name)} entries for {len(tables['bus'])} buses")
        for n in doc.bus_name:
            if "'" in n or "\n" in n:
                raise StructuralError(f"bus name {n!r} contains a quote or newline")
    return tables


# ---------------------------------------------------------------------------
# emitter


def _formatted(values: np.ndarray) -> np.ndarray:
    """The text of every cell, as an object array of the same shape: the
    shortest decimal that round-trips the binary value, an integral value
    below 1e16 written bare.  Each distinct value is formatted once, the
    integral ones as int64 (``-0.0`` and ``0.0`` are one value, ``0``), and
    found by binary search, which costs less than ``np.unique``'s inverse."""
    distinct = np.unique(values)
    whole = (distinct == np.trunc(distinct)) & (np.abs(distinct) < 1e16)
    text = np.empty(len(distinct), dtype=object)
    text[whole] = [str(v) for v in distinct[whole].astype(np.int64).tolist()]
    text[~whole] = [repr(v) for v in distinct[~whole].tolist()]
    return text[np.searchsorted(distinct, values)]


def _fmt(v: float) -> str:
    """:func:`_formatted` of one value."""
    return _formatted(np.array([v], dtype=float))[0]


def emit_case(doc: CaseDocument) -> str:
    """Deterministic text for a document; equal documents emit equal bytes."""
    tables = _check_document(doc)
    out = [f"mpc.version = '{doc.version}';\n", f"mpc.baseMVA = {_fmt(doc.base_mva)};\n"]
    known = ("bus", "gen", "branch", "gencost")
    order = [t for t in known if t in tables]
    order += sorted(t for t in tables if t not in known)
    for name in order:
        out.append(f"\nmpc.{name} = [\n")
        cells = _formatted(tables[name])
        if cells.size:
            # one join over the table: a row is "\t" + its cells + ";\n"
            cells[:, -1] += ";\n"
            out.append("\t" + "\t".join(cells.ravel().tolist()))
        out.append("];\n")
    if doc.bus_name is not None:
        out.append("\nmpc.bus_name = {\n")
        out.extend(f"\t'{name}';\n" for name in doc.bus_name)
        out.append("};\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# document <-> network model


def _ints(columns: np.ndarray) -> np.ndarray:
    """Whole-number cells as int64, truncated toward zero as ``int`` does."""
    if np.abs(columns).max(initial=0.0) >= 2.0**63:
        raise StructuralError("an id, code or flag cell does not fit in 64 bits")
    return columns.astype(np.int64)


def to_network(doc: CaseDocument, oltcs: list[OltcTransformer] | None = None) -> NetworkCase:
    """Build the per-unit model, one column at a time; MW quantities are
    divided by baseMVA here.  The case holds copies of ``oltcs``."""
    base = doc.base_mva
    case = NetworkCase(base_mva=base)

    bus, buses = _table(doc.matrices["bus"], BUS_COLS).T, case.buses
    buses.id, codes, buses.area = _ints(bus[[BUS_I, BUS_TYPE, BUS_AREA]])
    bad = np.flatnonzero((codes[:, None] != list(BUS_CODES.values())).all(axis=1))
    if bad.size:
        i = bad[0]
        raise StructuralError(f"bus {buses.id[i]}: unsupported type code {codes[i]}")
    buses.kind = codes.astype(np.int8)
    buses.p_load, buses.q_load, buses.g_shunt, buses.b_shunt = bus[[PD, QD, GS, BS]] / base
    buses.v_mag, buses.base_kv, buses.v_max, buses.v_min = bus[[VM, BASE_KV, VMAX, VMIN]]
    buses.v_ang = np.radians(bus[VA])
    buses.name = list(doc.bus_name or (f"bus{i}" for i in buses.id.tolist()))

    gen, gens = _table(doc.matrices["gen"], GEN_COLS).T, case.generators
    gen_bus, status = _ints(gen[[GEN_BUS, GEN_STATUS]])
    gencost, genkind = (_table(doc.matrices[t]) if t in doc.matrices else None
                        for t in ("gencost", "gen_kind"))
    n_gen = gen.shape[1]
    if gencost is not None and len(gencost) < n_gen:
        raise StructuralError(f"mpc.gencost has {len(gencost)} rows for {n_gen} generators")
    if genkind is not None and len(genkind) != n_gen:
        raise StructuralError(f"mpc.gen_kind has {len(genkind)} rows for {n_gen} generators")
    cost, cost_bad = np.zeros((3, n_gen)), np.zeros(n_gen, bool)
    if gencost is not None and n_gen:
        crows = gencost[:n_gen].T
        if len(crows) <= COST_C0:
            cost_bad[:] = True
        else:
            model, ncost = _ints(crows[[COST_MODEL, NCOST]])
            cost_bad = (model != 2) | (ncost != 3)
            cost = crows[[COST_C2, COST_C1, COST_C0]]
    kinds, flags, kind_bad = np.zeros(n_gen, np.int64), np.ones(n_gen), np.zeros(n_gen, bool)
    if genkind is not None and n_gen:
        if genkind.shape[1] < 2:
            kind_bad[:] = True
        else:
            kinds, flags = _ints(genkind.T[:2])
            kind_bad = (kinds[:, None] != list(GEN_CODES.values())).all(axis=1)
    faults = [
        # the model has no generator status, and a dropped unit would
        # vanish from every bundle saved from this case
        (status == 0, "gen row {}: out-of-service generators are not supported"),
        (cost_bad, f"gencost row {{}}: only 3-coefficient polynomial costs "
                   f"({COST_C0 + 1} columns) are supported"),
        (kind_bad, f"gen_kind row {{}}: needs a kind code in {sorted(GEN_CODES.values())} "
                   f"and a controllable flag"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))
    if bad.size:
        i = int(bad[0])
        raise StructuralError(next(message for mask, message in faults if mask[i]).format(i))
    gens.bus_id, gens.kind, gens.controllable = gen_bus, kinds.astype(np.int8), flags != 0
    gens.p, gens.q, gens.p_min, gens.p_max, gens.q_min, gens.q_max = (
        gen[[PG, QG, PMIN, PMAX, QMIN, QMAX]] / base)
    (gens.v_set,) = gen[[VG]]
    gens.cost = np.ascontiguousarray(cost.T)

    br, branches = _table(doc.matrices["branch"], BRANCH_COLS).T, case.branches
    branches.from_bus, branches.to_bus, status = _ints(br[[F_BUS, T_BUS, BR_STATUS]])
    branches.r, branches.x, branches.b_charging = br[[BR_R, BR_X, BR_B]]
    # MATPOWER convention: ratio 0 marks a plain line
    branches.ratio = np.where(br[TAP] != 0.0, br[TAP], 1.0)
    branches.phase_shift = np.radians(br[SHIFT])
    branches.rate_a = br[RATE_A] / base
    branches.status = status != 0

    case.oltcs = oltcs or []
    t = case.oltcs
    absent_branch = ~((0 <= t.branch_ref) & (t.branch_ref < len(branches)))
    bad = np.flatnonzero(absent_branch | ~_lookup(buses.id, t.controlled_bus)[1])
    if bad.size:
        i = bad[0]
        if absent_branch[i]:
            raise StructuralError(f"oltc references absent branch {t.branch_ref[i]}")
        raise StructuralError(f"oltc controls absent bus {t.controlled_bus[i]}")
    case.sync_ratios()   # the tap, not the file ratio, is authoritative
    return case


def from_network(case: NetworkCase) -> tuple[CaseDocument, list[OltcTransformer]]:
    """Inverse of :func:`to_network` up to the column defaults listed below
    (:func:`_document`); the tap changers are copies of ``case.oltcs``."""
    return _document(case), [t._record() for t in case.oltcs]


def _document(case: NetworkCase) -> CaseDocument:
    """The MATPOWER tables of a case, one column at a time."""
    base = case.base_mva
    buses, gens, branches = case.buses, case.generators, case.branches
    zeros, ones = np.zeros(len(buses)), np.ones(len(buses))
    bus = np.column_stack([
        buses.id, buses.kind, buses.p_load * base, buses.q_load * base, buses.g_shunt * base,
        buses.b_shunt * base, buses.area, buses.v_mag, np.degrees(buses.v_ang), buses.base_kv,
        ones, buses.v_max, buses.v_min,
    ])

    zeros, ones = np.zeros(len(gens)), np.ones(len(gens))
    gen = np.column_stack([
        gens.bus_id, gens.p * base, gens.q * base, gens.q_max * base, gens.q_min * base,
        gens.v_set, base * ones, ones, gens.p_max * base, gens.p_min * base,
        np.zeros((len(gens), GEN_COLS - PMIN - 1)),
    ])
    # model 2 (polynomial), no start-up or shut-down cost, 3 coefficients
    gencost = np.column_stack([2.0 * ones, zeros, zeros, 3.0 * ones, gens.cost])
    gen_kind = np.column_stack([gens.kind, gens.controllable]).astype(float)

    zeros, ones = np.zeros(len(branches)), np.ones(len(branches))
    branch = np.column_stack([
        branches.from_bus, branches.to_bus, branches.r, branches.x, branches.b_charging,
        branches.rate_a * base, zeros, zeros, branches.ratio, np.degrees(branches.phase_shift),
        branches.status, -360.0 * ones, 360.0 * ones,
    ])

    tables = {"bus": bus, "gen": gen, "gencost": gencost, "gen_kind": gen_kind, "branch": branch}
    names = [name or f"bus{i}" for name, i in zip(buses.name, buses.id.tolist())]
    return CaseDocument("2", base, tables, names)


# ---------------------------------------------------------------------------
# sidecar CSV


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_oltc_csv(path: Path, oltcs) -> None:
    """Write a case's ``oltcs`` table, a row per tap changer."""
    values = np.column_stack([oltcs.__dict__[f] for f in _OLTC_FIELDS]).astype(float)
    _write_csv(path, OLTC_CSV_HEADER, _formatted(values).tolist())


def read_oltc_csv(path: Path) -> list[OltcTransformer]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != OLTC_CSV_HEADER:
        raise StructuralError(f"{path.name}: header must be {','.join(OLTC_CSV_HEADER)}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(OLTC_CSV_HEADER):
            raise StructuralError(
                f"{path.name} row {i} has {len(row)} cells, needs {len(OLTC_CSV_HEADER)}"
            )
    if len(rows) == 1:
        return []
    # one field at a time, each cell read as its field's type into its column
    try:
        columns = [np.array(list(map(kind, cells)), dtype=kind)
                   for kind, cells in zip(_OLTC_TYPES, zip(*rows[1:]))]
    except (ValueError, OverflowError):   # walk the rows again to name the first bad cell
        for i, row in enumerate(rows[1:], start=1):
            for name, kind, cell in zip(OLTC_CSV_HEADER, _OLTC_TYPES, row):
                try:
                    np.array(kind(cell), dtype=kind)
                except (ValueError, OverflowError) as exc:
                    what = ("out of range" if isinstance(exc, OverflowError)
                            else "not an integer" if kind is int else "not a number")
                    raise StructuralError(
                        f"{path.name} row {i}: {name} {cell!r} is {what}") from None
        raise
    finite = np.isfinite(np.array(columns, dtype=float))
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=0))[0])
        bad = [n for n, ok in zip(OLTC_CSV_HEADER, finite[:, i]) if not ok]
        raise StructuralError(f"{path.name} row {i + 1}: non-finite {', '.join(bad)}")
    return list(map(OltcTransformer, *(column.tolist() for column in columns)))


def load_case_dir(path: Path | str) -> NetworkCase:
    """Load ``case.m`` (+ optional ``case.oltc.csv``) from a bundle directory."""
    path = Path(path)
    doc = parse_case((path / "case.m").read_text())
    sidecar = path / "case.oltc.csv"
    return to_network(doc, read_oltc_csv(sidecar) if sidecar.exists() else [])


def save_case_dir(case: NetworkCase, path: Path | str) -> list[Path]:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    case_m = path / "case.m"
    case_m.write_text(emit_case(_document(case)))
    sidecar = path / "case.oltc.csv"
    write_oltc_csv(sidecar, case.oltcs)
    return [case_m, sidecar]


# ---------------------------------------------------------------------------
# export formats


def _export_flat(case: NetworkCase, sink: Path) -> list[Path]:
    """Four plain CSVs in SI units (MW, Mvar, kV); one row per element.
    The numbers are the columns of the MATPOWER tables."""
    doc = _document(case)
    bus, gen, branch = (doc.matrices[t] for t in ("bus", "gen", "branch"))
    written = []

    def table(name: str, header: list[str], numbers: np.ndarray, text=()):
        # each (position, column) of ``text`` goes between the numbers as it is
        columns = list(_formatted(numbers).T)
        for pos, column in text:
            columns.insert(pos, column)
        _write_csv(sink / name, header, zip(*columns))
        written.append(sink / name)

    table(
        "buses.csv",
        ["id", "name", "kind", "area", "base_kv", "p_load_mw", "q_load_mvar",
         "g_shunt_mw", "b_shunt_mvar", "v_mag_pu", "v_ang_deg", "v_min_pu", "v_max_pu"],
        bus[:, [BUS_I, BUS_AREA, BASE_KV, PD, QD, GS, BS, VM, VA, VMIN, VMAX]],
        [(1, case.buses.name), (2, [_MEMBERS[BusKind][c].value for c in case.buses.kind.tolist()])],
    )
    table(
        "branches.csv",
        ["from_bus", "to_bus", "r_pu", "x_pu", "b_pu", "ratio",
         "phase_shift_deg", "rate_mva", "status"],
        branch[:, [F_BUS, T_BUS, BR_R, BR_X, BR_B, TAP, SHIFT, RATE_A, BR_STATUS]],
    )
    table(
        "generators.csv",
        ["bus", "kind", "controllable", "p_mw", "q_mvar", "p_min_mw", "p_max_mw",
         "q_min_mvar", "q_max_mvar", "v_set_pu", "cost_c2", "cost_c1", "cost_c0"],
        np.column_stack([gen[:, [GEN_BUS]], doc.matrices["gen_kind"][:, [1]],
                         gen[:, [PG, QG, PMIN, PMAX, QMIN, QMAX, VG]],
                         doc.matrices["gencost"][:, COST_C2:]]),
        [(1, [_MEMBERS[GenKind][c].value for c in case.generators.kind.tolist()])],
    )
    write_oltc_csv(sink / "oltc.csv", case.oltcs)
    written.append(sink / "oltc.csv")
    return written


# each export format and the writer of its files under a directory
EXPORTERS = {"matpower": save_case_dir, "flat": _export_flat}


def export(case: NetworkCase, name: str, sink: Path | str) -> list[Path]:
    """Write ``case`` in export format ``name`` under ``sink``."""
    try:
        exporter = EXPORTERS[name]
    except KeyError:
        raise ExporterError(
            f"unknown exporter {name!r}; formats: {', '.join(EXPORTERS)}") from None
    sink = Path(sink)
    sink.mkdir(parents=True, exist_ok=True)
    return exporter(case, sink)
