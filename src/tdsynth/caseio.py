"""Read and write the MATPOWER v2 case-file text format plus sidecar data.

Only the declarative subset of the format is accepted: scalar assignments
(``mpc.version``, a positive ``mpc.baseMVA``), numeric matrix literals
(``mpc.<name> = [ ... ];``, cells separated by a blank, ``;`` or newline,
rows ended by ``;`` or newline), an optional ``mpc.bus_name`` cell list,
and ``%`` comments.  Anything executable is rejected.  Unknown
``mpc.<name>`` tables are kept so they survive a parse/emit round trip.

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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NoReturn, get_type_hints

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
    matrices: dict[str, list[list[float]]] = field(default_factory=dict)
    bus_name: list[str] | None = None


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
# a matrix body holds only these characters; float() rejects the
# malformed cells they can spell, such as "1-2" or "1.5.5"
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


def _matrix(text: str, start: int, body: str, name: str) -> list[list[float]]:
    """The rows of a matrix body found at ``text[start:]``; ``;`` or a
    newline ends a row, and empty rows are dropped."""
    lines = body.replace(";", "\n").split("\n")
    if _NON_MATRIX_RE.search(body) is None:
        try:
            rows = [list(map(float, cells)) for cells in map(str.split, lines) if cells]
        except ValueError:
            pass
        else:
            if all(len(row) == len(rows[0]) for row in rows):
                return rows
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


def _check_document(doc: CaseDocument) -> None:
    for table in ("bus", "gen", "branch"):
        if table not in doc.matrices:
            raise StructuralError(f"missing required table mpc.{table}")
    minima = {"bus": BUS_COLS, "gen": GEN_COLS, "branch": BRANCH_COLS}
    for table, want in minima.items():
        for i, row in enumerate(doc.matrices[table]):
            if len(row) < want:
                raise StructuralError(
                    f"mpc.{table} row {i} has {len(row)} columns, needs at least {want}"
                )
    if not 0 < doc.base_mva < math.inf:
        raise StructuralError("baseMVA must be finite and positive")
    for name, rows in doc.matrices.items():
        for i, row in enumerate(rows):
            for v in row:
                if not math.isfinite(v):
                    raise StructuralError(f"non-finite cell in mpc.{name} row {i}")
    if doc.bus_name is not None:
        if len(doc.bus_name) != len(doc.matrices["bus"]):
            raise StructuralError(
                f"bus_name has {len(doc.bus_name)} entries for "
                f"{len(doc.matrices['bus'])} buses"
            )
        for n in doc.bus_name:
            if "'" in n or "\n" in n:
                raise StructuralError(f"bus name {n!r} contains a quote or newline")


# ---------------------------------------------------------------------------
# emitter


def _fmt(v: float) -> str:
    # shortest decimal that round-trips the binary value; integral values
    # are written bare for readability
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def emit_case(doc: CaseDocument) -> str:
    """Deterministic text for a document; equal documents emit equal bytes."""
    _check_document(doc)
    out = io.StringIO()
    out.write(f"mpc.version = '{doc.version}';\n")
    out.write(f"mpc.baseMVA = {_fmt(doc.base_mva)};\n")
    known = ("bus", "gen", "branch", "gencost")
    order = [t for t in known if t in doc.matrices]
    order += sorted(t for t in doc.matrices if t not in known)
    for table in order:
        out.write(f"\nmpc.{table} = [\n")
        for row in doc.matrices[table]:
            out.write("\t" + "\t".join(_fmt(v) for v in row) + ";\n")
        out.write("];\n")
    if doc.bus_name is not None:
        out.write("\nmpc.bus_name = {\n")
        for name in doc.bus_name:
            out.write(f"\t'{name}';\n")
        out.write("};\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# document <-> network model


def to_network(doc: CaseDocument, oltcs: list[OltcTransformer] | None = None) -> NetworkCase:
    """Build the per-unit model; MW quantities are divided by baseMVA here.
    The case holds copies of ``oltcs``."""
    base = doc.base_mva
    kinds = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}
    case = NetworkCase(base_mva=base)

    names = doc.bus_name or [f"bus{int(row[BUS_I])}" for row in doc.matrices["bus"]]
    for row, name in zip(doc.matrices["bus"], names):
        code = int(row[BUS_TYPE])
        if code not in kinds:
            raise StructuralError(f"bus {int(row[BUS_I])}: unsupported type code {code}")
        case.buses.append(
            Bus(
                id=int(row[BUS_I]),
                kind=kinds[code],
                p_load=row[PD] / base,
                q_load=row[QD] / base,
                g_shunt=row[GS] / base,
                b_shunt=row[BS] / base,
                v_mag=row[VM],
                v_ang=math.radians(row[VA]),
                base_kv=row[BASE_KV],
                v_max=row[VMAX],
                v_min=row[VMIN],
                area=int(row[BUS_AREA]),
                name=name,
            )
        )

    gencost = doc.matrices.get("gencost")
    genkind = doc.matrices.get("gen_kind")
    n_gen = len(doc.matrices["gen"])
    if gencost is not None and len(gencost) < n_gen:
        raise StructuralError(f"mpc.gencost has {len(gencost)} rows for {n_gen} generators")
    if genkind is not None and len(genkind) != n_gen:
        raise StructuralError(f"mpc.gen_kind has {len(genkind)} rows for {n_gen} generators")
    for i, row in enumerate(doc.matrices["gen"]):
        if int(row[GEN_STATUS]) == 0:
            # the model has no generator status, and a dropped unit would
            # vanish from every bundle saved from this case
            raise StructuralError(f"gen row {i}: out-of-service generators are not supported")
        cost = (0.0, 0.0, 0.0)
        if gencost is not None:
            crow = gencost[i]
            if len(crow) <= COST_C0 or int(crow[COST_MODEL]) != 2 or int(crow[NCOST]) != 3:
                raise StructuralError(
                    f"gencost row {i}: only 3-coefficient polynomial costs "
                    f"({COST_C0 + 1} columns) are supported"
                )
            cost = (crow[COST_C2], crow[COST_C1], crow[COST_C0])
        kind, controllable = GenKind.TN_UNIT, True
        if genkind is not None:
            krow = genkind[i]
            if len(krow) < 2 or int(krow[0]) not in _CODE_KIND:
                raise StructuralError(
                    f"gen_kind row {i}: needs a kind code in {sorted(_CODE_KIND)} "
                    "and a controllable flag"
                )
            kind = _CODE_KIND[int(krow[0])]
            controllable = bool(int(krow[1]))
        case.generators.append(
            Generator(
                bus_id=int(row[GEN_BUS]),
                p=row[PG] / base,
                q=row[QG] / base,
                p_min=row[PMIN] / base,
                p_max=row[PMAX] / base,
                q_min=row[QMIN] / base,
                q_max=row[QMAX] / base,
                v_set=row[VG],
                controllable=controllable,
                kind=kind,
                cost=cost,
            )
        )

    for row in doc.matrices["branch"]:
        case.branches.append(
            Branch(
                from_bus=int(row[F_BUS]),
                to_bus=int(row[T_BUS]),
                r=row[BR_R],
                x=row[BR_X],
                b_charging=row[BR_B],
                # MATPOWER convention: ratio 0 marks a plain line
                ratio=row[TAP] if row[TAP] != 0.0 else 1.0,
                phase_shift=math.radians(row[SHIFT]),
                rate_a=row[RATE_A] / base,
                status=bool(int(row[BR_STATUS])),
            )
        )

    bus_ids = {b.id for b in case.buses}
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
    doc = CaseDocument(version="2", base_mva=base, matrices={}, bus_name=None)

    doc.matrices["bus"] = [
        [
            float(b.id),
            float(codes[b.kind]),
            b.p_load * base,
            b.q_load * base,
            b.g_shunt * base,
            b.b_shunt * base,
            float(b.area),
            b.v_mag,
            math.degrees(b.v_ang),
            b.base_kv,
            1.0,
            b.v_max,
            b.v_min,
        ]
        for b in case.buses
    ]
    doc.bus_name = [b.name or f"bus{b.id}" for b in case.buses]

    doc.matrices["gen"] = [
        [
            float(g.bus_id),
            g.p * base,
            g.q * base,
            g.q_max * base,
            g.q_min * base,
            g.v_set,
            base,
            1.0,
            g.p_max * base,
            g.p_min * base,
        ]
        + [0.0] * 11
        for g in case.generators
    ]
    doc.matrices["gencost"] = [
        [2.0, 0.0, 0.0, 3.0, g.cost[0], g.cost[1], g.cost[2]] for g in case.generators
    ]
    doc.matrices["gen_kind"] = [
        [float(_KIND_CODE[g.kind]), 1.0 if g.controllable else 0.0]
        for g in case.generators
    ]

    doc.matrices["branch"] = [
        [
            float(br.from_bus),
            float(br.to_bus),
            br.r,
            br.x,
            br.b_charging,
            br.rate_a * base,
            0.0,
            0.0,
            br.ratio,
            math.degrees(br.phase_shift),
            1.0 if br.status else 0.0,
            -360.0,
            360.0,
        ]
        for br in case.branches
    ]

    return doc, [replace(t) for t in case.oltcs]


# ---------------------------------------------------------------------------
# sidecar CSV


def write_oltc_csv(path: Path, oltcs: list[OltcTransformer]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(OLTC_CSV_HEADER)
        w.writerows([_fmt(getattr(t, name)) for name in _OLTC_FIELDS] for t in oltcs)


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
    """Four plain CSVs in SI units (MW, Mvar, kV); one row per element."""
    base = case.base_mva
    written = []

    def table(name: str, header: list[str], rows):
        p = sink / name
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        written.append(p)

    table(
        "buses.csv",
        ["id", "name", "kind", "area", "base_kv", "p_load_mw", "q_load_mvar",
         "g_shunt_mw", "b_shunt_mvar", "v_mag_pu", "v_ang_deg", "v_min_pu", "v_max_pu"],
        [
            [b.id, b.name, b.kind.value, b.area, _fmt(b.base_kv),
             _fmt(b.p_load * base), _fmt(b.q_load * base),
             _fmt(b.g_shunt * base), _fmt(b.b_shunt * base),
             _fmt(b.v_mag), _fmt(math.degrees(b.v_ang)), _fmt(b.v_min), _fmt(b.v_max)]
            for b in case.buses
        ],
    )
    table(
        "branches.csv",
        ["from_bus", "to_bus", "r_pu", "x_pu", "b_pu", "ratio",
         "phase_shift_deg", "rate_mva", "status"],
        [
            [br.from_bus, br.to_bus, _fmt(br.r), _fmt(br.x), _fmt(br.b_charging),
             _fmt(br.ratio), _fmt(math.degrees(br.phase_shift)),
             _fmt(br.rate_a * base), int(br.status)]
            for br in case.branches
        ],
    )
    table(
        "generators.csv",
        ["bus", "kind", "controllable", "p_mw", "q_mvar", "p_min_mw", "p_max_mw",
         "q_min_mvar", "q_max_mvar", "v_set_pu", "cost_c2", "cost_c1", "cost_c0"],
        [
            [g.bus_id, g.kind.value, int(g.controllable),
             _fmt(g.p * base), _fmt(g.q * base),
             _fmt(g.p_min * base), _fmt(g.p_max * base),
             _fmt(g.q_min * base), _fmt(g.q_max * base),
             _fmt(g.v_set), _fmt(g.cost[0]), _fmt(g.cost[1]), _fmt(g.cost[2])]
            for g in case.generators
        ],
    )
    write_oltc_csv(sink / "oltc.csv", case.oltcs)
    written.append(sink / "oltc.csv")
    return written


register_exporter("matpower", save_case_dir)
register_exporter("flat", _export_flat)
