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
import math
import re
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, NoReturn, get_type_hints

import numpy as np

from .netmodel import (
    Branch,
    Bus,
    BusKind,
    Generator,
    GenKind,
    NetworkCase,
    OltcTransformer,
)

# MATPOWER v2 column positions.
BUS_I, BUS_TYPE, PD, QD, GS, BS, BUS_AREA, VM, VA, BASE_KV, ZONE, VMAX, VMIN = range(13)
GEN_BUS, PG, QG, QMAX, QMIN, VG, MBASE, GEN_STATUS, PMAX, PMIN = range(10)
F_BUS, T_BUS, BR_R, BR_X, BR_B, RATE_A, RATE_B, RATE_C, TAP, SHIFT, BR_STATUS, ANGMIN, ANGMAX = range(13)
COST_MODEL, STARTUP, SHUTDOWN, NCOST, COST_C2, COST_C1, COST_C0 = range(7)

BUS_COLS = 13
GEN_COLS = 21
BRANCH_COLS = 13

_KIND_CODE = {GenKind.TN_UNIT: 0, GenKind.DN_CONTROLLABLE: 1, GenKind.DN_PV: 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

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
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
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
# a matrix body holds only these characters; the converter rejects or
# splits the malformed cells they can spell, such as "1-2" or "1.5.5"
_NON_MATRIX_RE = re.compile(r"[^ \t\r\n;\deE+.\-]")
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
    lines = body.replace(";", "\n").split("\n")
    widths = [w for w in map(len, map(str.split, lines)) if w]
    if not widths:
        return np.empty((0, 0))
    if _NON_MATRIX_RE.search(body) is None and widths.count(widths[0]) == len(widths):
        # fromstring can read a malformed cell partway ("1.5.5" as 1.5 and
        # .5) and then warn or raise, so a warning, an error or a value
        # count other than rows x width sends the body to the error walk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.fromstring(body.replace(";", " "), sep=" ")
            except (ValueError, DeprecationWarning):
                values = ()
        if len(values) == len(widths) * widths[0]:
            return values.reshape(len(widths), widths[0])
    # the error path: walk the rows again to name and place the first fault
    width, pos = None, start
    for line in lines:
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


def _fmt(v: float) -> str:
    # shortest decimal that round-trips the binary value; integral values
    # are written bare for readability
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _formatted(values: np.ndarray) -> np.ndarray:
    """:func:`_fmt` of every cell, as an object array of the same shape;
    each distinct value is formatted once (``-0.0`` and ``0.0`` are one
    value, and both are written ``0``)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = np.array([_fmt(v) for v in distinct.tolist()], dtype=object)
    return text[inverse].reshape(values.shape)


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


def _gather(records: list, names: list[str]) -> np.ndarray:
    """The named attributes of each record, as a (records, names) float64 array."""
    values = chain.from_iterable(map(attrgetter(*names), records))
    return np.fromiter(values, float, len(records) * len(names)).reshape(len(records), len(names))


def to_network(doc: CaseDocument, oltcs: list[OltcTransformer] | None = None) -> NetworkCase:
    """Build the per-unit model; MW quantities are divided by baseMVA here.
    The case holds copies of ``oltcs``."""
    base = doc.base_mva
    kinds = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}
    case = NetworkCase(base_mva=base)

    bus = _table(doc.matrices["bus"], BUS_COLS).T
    ids, codes, areas = _ints(bus[[BUS_I, BUS_TYPE, BUS_AREA]]).tolist()
    bus_kinds = [kinds.get(code) for code in codes]
    if None in bus_kinds:
        i = bus_kinds.index(None)
        raise StructuralError(f"bus {ids[i]}: unsupported type code {codes[i]}")
    volts = bus[[VM, VA, BASE_KV, VMAX, VMIN]]
    volts[1] = np.radians(volts[1])
    case.buses = list(map(
        Bus, ids, bus_kinds, *(bus[[PD, QD, GS, BS]] / base).tolist(), *volts.tolist(), areas,
        doc.bus_name or [f"bus{i}" for i in ids],
    ))

    gen = _table(doc.matrices["gen"], GEN_COLS).T
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
    gen_kinds, controllable = [GenKind.TN_UNIT] * n_gen, [True] * n_gen
    if genkind is not None and n_gen:
        if genkind.shape[1] < 2:
            gen_kinds = [None] * n_gen
        else:
            codes, flags = _ints(genkind.T[:2]).tolist()
            gen_kinds = [_CODE_KIND.get(code) for code in codes]
            controllable = [flag != 0 for flag in flags]
    faults = [
        # the model has no generator status, and a dropped unit would
        # vanish from every bundle saved from this case
        (status == 0, "gen row {}: out-of-service generators are not supported"),
        (cost_bad, f"gencost row {{}}: only 3-coefficient polynomial costs "
                   f"({COST_C0 + 1} columns) are supported"),
        (np.array([kind is None for kind in gen_kinds], dtype=bool),
         f"gen_kind row {{}}: needs a kind code in {sorted(_CODE_KIND)} and a controllable flag"),
    ]
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in faults]))
    if bad.size:
        i = int(bad[0])
        raise StructuralError(next(message for mask, message in faults if mask[i]).format(i))
    case.generators = list(map(
        Generator, gen_bus.tolist(),
        *(gen[[PG, QG, PMIN, PMAX, QMIN, QMAX]] / base).tolist(), gen[VG].tolist(),
        controllable, gen_kinds, list(zip(*cost.tolist())),
    ))

    br = _table(doc.matrices["branch"], BRANCH_COLS).T
    from_bus, to_bus, status = _ints(br[[F_BUS, T_BUS, BR_STATUS]])
    case.branches = list(map(
        Branch, from_bus.tolist(), to_bus.tolist(), *br[[BR_R, BR_X, BR_B]].tolist(),
        # MATPOWER convention: ratio 0 marks a plain line
        np.where(br[TAP] != 0.0, br[TAP], 1.0).tolist(),
        np.radians(br[SHIFT]).tolist(), (br[RATE_A] / base).tolist(), (status != 0).tolist(),
    ))

    bus_ids = set(ids)
    for spec in oltcs or []:
        if not 0 <= spec.branch_ref < len(case.branches):
            raise StructuralError(f"oltc references absent branch {spec.branch_ref}")
        if spec.controlled_bus not in bus_ids:
            raise StructuralError(f"oltc controls absent bus {spec.controlled_bus}")
        t = replace(spec)
        t.sync_branch(case)  # the tap, not the file ratio, is authoritative
        case.oltcs.append(t)

    return case


def from_network(case: NetworkCase) -> tuple[CaseDocument, list[OltcTransformer]]:
    """Inverse of :func:`to_network` up to the column defaults listed below;
    the tap changers are copies of ``case.oltcs``."""
    base = case.base_mva
    codes = {BusKind.PQ: 1, BusKind.PV: 2, BusKind.SLACK: 3}

    bus = np.zeros((len(case.buses), BUS_COLS))
    bus[:, [BUS_I, PD, QD, GS, BS, BUS_AREA, VM, VA, BASE_KV, VMAX, VMIN]] = _gather(
        case.buses, ["id", "p_load", "q_load", "g_shunt", "b_shunt", "area",
                     "v_mag", "v_ang", "base_kv", "v_max", "v_min"])
    bus[:, [PD, QD, GS, BS]] *= base
    bus[:, VA] = np.degrees(bus[:, VA])
    bus[:, BUS_TYPE] = [codes[b.kind] for b in case.buses]
    bus[:, ZONE] = 1.0

    gens = case.generators
    gen = np.zeros((len(gens), GEN_COLS))
    gen[:, [GEN_BUS, PG, QG, QMAX, QMIN, VG, PMAX, PMIN]] = _gather(
        gens, ["bus_id", "p", "q", "q_max", "q_min", "v_set", "p_max", "p_min"])
    gen[:, [PG, QG, QMAX, QMIN, PMAX, PMIN]] *= base
    gen[:, [MBASE, GEN_STATUS]] = base, 1.0
    # model 2 (polynomial), no start-up or shut-down cost, 3 coefficients
    gencost = np.zeros((len(gens), COST_C0 + 1)) + [2.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]
    gencost[:, COST_C2:] = np.reshape([g.cost for g in gens], (-1, 3))
    gen_kind = np.array([(_KIND_CODE[g.kind], g.controllable) for g in gens], float).reshape(-1, 2)

    branch = np.zeros((len(case.branches), BRANCH_COLS))
    branch[:, [F_BUS, T_BUS, BR_R, BR_X, BR_B, TAP, SHIFT, RATE_A, BR_STATUS]] = _gather(
        case.branches, ["from_bus", "to_bus", "r", "x", "b_charging",
                        "ratio", "phase_shift", "rate_a", "status"])
    branch[:, SHIFT] = np.degrees(branch[:, SHIFT])
    branch[:, RATE_A] *= base
    branch[:, [ANGMIN, ANGMAX]] = -360.0, 360.0

    tables = {"bus": bus, "gen": gen, "gencost": gencost, "gen_kind": gen_kind, "branch": branch}
    doc = CaseDocument("2", base, tables, [b.name or f"bus{b.id}" for b in case.buses])
    return doc, [replace(t) for t in case.oltcs]


# ---------------------------------------------------------------------------
# sidecar CSV


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_oltc_csv(path: Path, oltcs: list[OltcTransformer]) -> None:
    _write_csv(path, OLTC_CSV_HEADER, _formatted(_gather(oltcs, _OLTC_FIELDS)).tolist())


def read_oltc_csv(path: Path) -> list[OltcTransformer]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or rows[0] != OLTC_CSV_HEADER:
        raise StructuralError(f"{path.name}: header must be {','.join(OLTC_CSV_HEADER)}")
    out = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(OLTC_CSV_HEADER):
            raise StructuralError(
                f"{path.name} row {i} has {len(row)} cells, needs {len(OLTC_CSV_HEADER)}"
            )
        values = [kind(cell) for kind, cell in zip(_OLTC_TYPES, row)]
        bad = [n for n, v in zip(OLTC_CSV_HEADER, values) if not math.isfinite(v)]
        if bad:
            raise StructuralError(f"{path.name} row {i}: non-finite {', '.join(bad)}")
        out.append(OltcTransformer(*values))
    return out


def load_case_dir(path: Path | str) -> NetworkCase:
    """Load ``case.m`` (+ optional ``case.oltc.csv``) from a bundle directory."""
    path = Path(path)
    doc = parse_case((path / "case.m").read_text())
    sidecar = path / "case.oltc.csv"
    return to_network(doc, read_oltc_csv(sidecar) if sidecar.exists() else [])


def save_case_dir(case: NetworkCase, path: Path | str) -> list[Path]:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    doc, oltcs = from_network(case)
    case_m = path / "case.m"
    case_m.write_text(emit_case(doc))
    sidecar = path / "case.oltc.csv"
    write_oltc_csv(sidecar, oltcs)
    return [case_m, sidecar]


# ---------------------------------------------------------------------------
# exporter registry

Exporter = Callable[[NetworkCase, Path], list[Path]]

_EXPORTERS: dict[str, Exporter] = {}


def register_exporter(name: str, exporter: Exporter) -> None:
    _EXPORTERS[name] = exporter


def registered_exporters() -> list[str]:
    return sorted(_EXPORTERS)


def export(case: NetworkCase, name: str, sink: Path | str) -> list[Path]:
    """Run a registered exporter, writing its files under ``sink``."""
    try:
        exporter = _EXPORTERS[name]
    except KeyError:
        raise ExporterError(
            f"unknown exporter {name!r}; registered: {', '.join(registered_exporters())}"
        ) from None
    sink = Path(sink)
    sink.mkdir(parents=True, exist_ok=True)
    return exporter(case, sink)


def _export_flat(case: NetworkCase, sink: Path) -> list[Path]:
    """Four plain CSVs in SI units (MW, Mvar, kV); one row per element.
    The numbers are the columns of the MATPOWER tables."""
    doc, oltcs = from_network(case)
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
        [(1, [b.name for b in case.buses]), (2, [b.kind.value for b in case.buses])],
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
        [(1, [g.kind.value for g in case.generators])],
    )
    write_oltc_csv(sink / "oltc.csv", oltcs)
    written.append(sink / "oltc.csv")
    return written


register_exporter("matpower", save_case_dir)
register_exporter("flat", _export_flat)
