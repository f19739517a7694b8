"""Per-unit steady-state network model shared by the solver, synthesis and I/O layers.

Every quantity is expressed in per-unit on the case MVA base (``base_mva``);
angles are radians.  Conversion to MW/Mvar happens only at I/O boundaries.
A case is mutable, but by convention it is never touched while a solver call
is in flight: mutation happens between solves.

The model is columnar, after pandapower's tables (Thurner et al., IEEE
TPWRS 2018): each table of a case holds one numpy array per field of its
record class, so ``case.buses.p_load`` is the demand of every bus; kinds are
integer codes (``BUS_CODES``, ``GEN_CODES``), names one list and generator
cost an (n, 3) array.  For convenience a table also reads as a list of
write-through record views (``case.buses[0].p_load *= 2`` changes the
column), and takes records in ``append`` and list assignment.  Library code
works on the columns: a view is a Python object per access.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


class GenKind(enum.Enum):
    TN_UNIT = "tn_unit"                  # large transmission-connected unit
    DN_CONTROLLABLE = "dn_controllable"  # dispatchable distributed generator
    DN_PV = "dn_pv"                      # aggregate rooftop PV, unity power factor


# the distributed-generation classes: what penetration counts and replicas size
DG_KINDS = (GenKind.DN_CONTROLLABLE, GenKind.DN_PV)

# the codes kinds are stored as: MATPOWER's bus types and the gen_kind codes of case.m
BUS_CODES = {BusKind.PQ: 1, BusKind.PV: 2, BusKind.SLACK: 3}
GEN_CODES = {GenKind.TN_UNIT: 0, GenKind.DN_CONTROLLABLE: 1, GenKind.DN_PV: 2}
PQ, PV, SLACK = (BUS_CODES[k] for k in (BusKind.PQ, BusKind.PV, BusKind.SLACK))
DG_CODES = [GEN_CODES[k] for k in DG_KINDS]
IS_DG = np.isin(np.arange(max(GEN_CODES.values()) + 1), DG_CODES)   # by kind code
_CODES = {BusKind: BUS_CODES, GenKind: GEN_CODES}
_MEMBERS = {kind: {c: m for m, c in codes.items()} for kind, codes in _CODES.items()}


@dataclass
class Bus:
    id: int
    kind: BusKind = BusKind.PQ
    p_load: float = 0.0
    q_load: float = 0.0
    g_shunt: float = 0.0
    b_shunt: float = 0.0
    v_mag: float = 1.0
    v_ang: float = 0.0
    base_kv: float = 1.0
    v_max: float = 1.1
    v_min: float = 0.9
    area: int = 1
    name: str = ""


@dataclass
class Generator:
    bus_id: int
    p: float = 0.0
    q: float = 0.0
    p_min: float = 0.0
    p_max: float = 0.0
    q_min: float = 0.0
    q_max: float = 0.0
    v_set: float = 1.0
    controllable: bool = True
    kind: GenKind = GenKind.TN_UNIT
    # quadratic cost (c2, c1, c0) against output in MW, not per-unit
    cost: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class Branch:
    from_bus: int
    to_bus: int
    r: float = 0.0
    x: float = 0.0
    b_charging: float = 0.0
    ratio: float = 1.0        # off-nominal turns ratio on the from (HV) side; 1.0 = plain line
    phase_shift: float = 0.0  # radians
    rate_a: float = 0.0       # MVA flow limit in pu; 0 = unlimited
    status: bool = True


@dataclass
class OltcTransformer:
    """Discrete tap changer riding on an existing branch.

    The branch ratio is derived state, :func:`tap_ratios`, pushed onto the
    branch by :meth:`NetworkCase.sync_ratios` whenever the tap moves.
    """

    branch_ref: int      # index into NetworkCase.branches
    controlled_bus: int  # bus id on the low-voltage side
    v_set: float = 1.03
    deadband: float = 0.02
    tap: int = 0
    tap_min: int = -16
    tap_max: int = 16
    tap_step: float = 0.00625


def tap_ratios(oltcs) -> np.ndarray:
    """The branch ratio of every tap changer, ``1 + tap * tap_step``: of a
    case's ``oltcs`` table, or of a stack's (B, taps) columns."""
    return 1.0 + oltcs.tap * oltcs.tap_step


def _column(kind, values: list):
    """The column of a field of type ``kind`` holding ``values``."""
    if kind is str:
        return list(values)
    if kind in _CODES:
        return np.array([_CODES[kind][v] for v in values], dtype=np.int8)
    if kind in (int, float, bool):
        return np.array(values, dtype=kind)
    return np.array(values, dtype=float).reshape(-1, 3)   # the cost triple


def _field(name: str, kind) -> property:
    """A view's read and write of one field: a Python value from the column
    (a member for a kind code, a tuple for the cost row)."""
    codes, members = _CODES.get(kind), _MEMBERS.get(kind)

    def get(self):
        value = self._table.__dict__[name][self._i]
        if kind is str:
            return value
        value = value.tolist()
        return members[value] if members else tuple(value) if isinstance(value, list) else value

    def put(self, value):
        self._table.__dict__[name][self._i] = codes[value] if codes else value

    return property(get, put)


class _Row:
    """Write-through view of one row of a table."""

    __slots__ = ("_table", "_i")

    def __init__(self, table: "_Table", i: int):
        self._table, self._i = table, i

    def _record(self):
        return self._table.record(*(getattr(self, f) for f, _ in self._table.schema))

    def __eq__(self, other):
        return self._record() == (other._record() if isinstance(other, _Row) else other)

    def __repr__(self) -> str:
        return repr(self._record())


class _Table:
    """One table of a case: a column per field of ``record`` (``schema``
    lists them in order), read as a list of write-through ``view``s."""

    def __init_subclass__(cls, record: type):
        cls.record = record
        cls.schema = list(get_type_hints(record).items())
        cls._empty = {f: _column(kind, []) for f, kind in cls.schema}
        fields = {f: _field(f, kind) for f, kind in cls.schema}
        cls.view = type(f"{record.__name__}View", (_Row,), {"__slots__": (), **fields})

    def __init__(self, records=()):
        records = list(records)
        self.__dict__.update({f: _column(kind, [getattr(r, f) for r in records])
                              for f, kind in self.schema} if records else
                             {f: c.copy() for f, c in self._empty.items()})

    def __len__(self) -> int:
        return len(self.__dict__[self.schema[0][0]])

    def __getitem__(self, i):
        rows = range(len(self))
        if isinstance(i, slice):
            return [self.view(self, k) for k in rows[i]]
        return self.view(self, rows[i])

    def __iter__(self):
        return map(self.view, [self] * len(self), range(len(self)))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((self.__dict__[f], other.__dict__[f]) for f, _ in self.schema)
        return all(a == b if isinstance(a, list) else np.array_equal(a, b) for a, b in pairs)

    def append(self, record) -> None:
        self.__dict__.update(self._concat([self, type(self)([record])]).__dict__)

    def copy(self) -> "_Table":
        new = object.__new__(type(self))
        new.__dict__.update({f: c.copy() for f, c in self.__dict__.items()})
        return new

    def take(self, mask: np.ndarray) -> "_Table":
        """A new table of the rows where ``mask`` holds."""
        new = object.__new__(type(self))
        new.__dict__.update({f: list(compress(c, mask)) if isinstance(c, list) else c[mask]
                             for f, c in self.__dict__.items()})
        return new

    @classmethod
    def _concat(cls, tables: list) -> "_Table":
        if not tables:
            return cls()
        new = object.__new__(cls)
        for f, kind in cls.schema:
            columns = [t.__dict__[f] for t in tables]
            new.__dict__[f] = (list(chain.from_iterable(columns)) if kind is str
                               else np.concatenate(columns))
        return new


# a case's tables, each a subclass of _Table for its record class
_TABLES = {name: type(f"{record.__name__}Table", (_Table,), {}, record=record)
           for name, record in (("buses", Bus), ("generators", Generator),
                                ("branches", Branch), ("oltcs", OltcTransformer))}


@dataclass
class NetworkCase:
    """A case: ``base_mva`` and its four tables.  Assigning a list of
    records (or views) to a table attribute builds the table from it."""

    base_mva: float = 100.0
    buses: _Table = ()
    generators: _Table = ()
    branches: _Table = ()
    oltcs: _Table = ()

    def __setattr__(self, name, value):
        table = _TABLES.get(name)
        if table is not None and type(value) is not table:
            value = table(value)
        object.__setattr__(self, name, value)

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in ``buses``."""
        return dict(zip(self.buses.id.tolist(), range(len(self.buses))))

    def bus(self, bus_id: int):
        at = np.flatnonzero(self.buses.id == bus_id)
        if not at.size:
            raise KeyError(f"no bus with id {bus_id}")
        return self.buses[at[0]]

    def sync_ratios(self) -> None:
        """Push every tap changer's ratio (:func:`tap_ratios`) onto its branch."""
        self.branches.ratio[self.oltcs.branch_ref] = tap_ratios(self.oltcs)

    def clone(self) -> "NetworkCase":
        """Independent copy: every column is copied."""
        new = object.__new__(NetworkCase)
        new.__dict__.update(base_mva=self.base_mva,
                            **{name: getattr(self, name).copy() for name in _TABLES})
        return new


# the columns a stack holds per copy: what the copies of one feeder may differ in
STACKED = {"buses": ("p_load", "q_load", "v_mag", "v_ang"), "generators": ("p", "q", "v_set"),
           "branches": ("ratio",),
           "oltcs": ("v_set", "deadband", "tap", "tap_min", "tap_max", "tap_step")}


class CaseStack:
    """B copies of one case as one table, such as the probes of a capacity
    search or the replicas of a feeder: ``template`` holds what the copies
    share, and each column of ``STACKED`` is one (B, rows) array, a row per
    copy, under its table's name (``stack.buses.p_load``).  The power flow
    and the tap changers read and write these arrays; a copy becomes a
    :class:`NetworkCase` only when asked (:meth:`cases`), and a case's
    one-copy stack (:meth:`of`) is a view of it; :meth:`take` copies."""

    def __init__(self, template: NetworkCase, columns: dict[str, dict[str, np.ndarray]]):
        self.template = template
        for name, cols in columns.items():
            setattr(self, name, SimpleNamespace(**cols))

    @classmethod
    def of(cls, case: NetworkCase) -> "CaseStack":
        """The one-copy stack of ``case``, its template: each column is a
        (1, rows) view of the case's own, so what moves the copy moves the case."""
        return cls(case, {name: {f: getattr(getattr(case, name), f)[None] for f in fields}
                          for name, fields in STACKED.items()})

    def __len__(self) -> int:
        return len(self.buses.p_load)

    def take(self, rows) -> "CaseStack":
        """A new stack of the copies ``rows`` (repeats make new copies)."""
        return CaseStack(self.template, {
            name: {f: a[rows] for f, a in vars(getattr(self, name)).items()} for name in STACKED})

    def put(self, rows, other: "CaseStack") -> None:
        """Write ``other``'s copies over the copies ``rows``."""
        for name in STACKED:
            for f, a in vars(getattr(self, name)).items():
                a[rows] = getattr(getattr(other, name), f)

    def table(self, name: str, rows) -> _Table:
        """Table ``name`` of the copies ``rows``, copy after copy: each
        stacked column taken by row and raveled, the template's other
        columns repeated."""
        own, new = vars(getattr(self, name)), object.__new__(_TABLES[name])
        for f, c in vars(getattr(self.template, name)).items():
            new.__dict__[f] = (own[f][rows].ravel() if f in own else c * len(rows)
                               if isinstance(c, list) else
                               np.repeat(c[None], len(rows), axis=0).reshape(-1, *c.shape[1:]))
        return new

    def cases(self) -> list[NetworkCase]:
        """One independent case per copy: the tables of its row (:meth:`table`)."""
        return [NetworkCase(self.template.base_mva,
                            **{name: self.table(name, [k]) for name in _TABLES})
                for k in range(len(self))]


def _lookup(keys: np.ndarray, wanted) -> tuple[np.ndarray, np.ndarray]:
    """The position in ``keys`` of each of ``wanted`` (the last one where a
    key repeats), and whether it is there at all."""
    if not len(keys):
        return np.zeros(np.shape(wanted), dtype=int), np.zeros(np.shape(wanted), dtype=bool)
    order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys[order], wanted, side="right") - 1
    pos = order[at]
    return pos, (at >= 0) & (keys[pos] == wanted)


def _find(keys: np.ndarray, wanted) -> np.ndarray:
    """:func:`_lookup` of keys that must be there, such as the bus ids a
    case refers to: raises KeyError for one that is absent."""
    pos, found = _lookup(keys, wanted)
    if not found.all():
        raise KeyError(f"no bus with id {np.asarray(wanted)[~found][0]}")
    return pos


@dataclass
class ValidationReport:
    entries: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries


def _edges(case: NetworkCase) -> tuple[int, np.ndarray, np.ndarray]:
    """The bus count and the edges (from, to positions) that join buses
    into islands: in-service branches between known buses, and each bus to
    the last bus of its id, so buses that share an id are one node."""
    ids, br = case.buses.id, case.branches
    n, m = len(ids), len(br)
    at, found = _lookup(ids, np.concatenate([br.from_bus, br.to_bus, ids]))
    on = br.status & found[:m] & found[m : 2 * m]
    same = np.flatnonzero(at[2 * m :] != np.arange(n))
    return (n, np.concatenate([at[:m][on], same]),
            np.concatenate([at[m : 2 * m][on], at[2 * m :][same]]))


def _island_of(n: int, f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The island of each of n nodes joined by the edges (f, t), islands
    numbered in order of first appearance.  Min-label propagation with
    pointer jumping: each round gives every node the lowest label of its
    edges' ends, then jumps twice; once no edge joins two labels, each node
    holds the first node of its island."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[f], label[t])
        np.minimum.at(label, f, low)
        np.minimum.at(label, t, low)
        label = label[label]
        label = label[label]
        if (label[f] == label[t]).all():
            return (np.cumsum(label == np.arange(n)) - 1)[label]


def islands(case: NetworkCase) -> list[set[int]]:
    """Connected components (sets of bus ids) over in-service branches."""
    if not len(case.buses):
        return []
    island = _island_of(*_edges(case))
    if not island.any():
        return [set(case.buses.id.tolist())]
    order = np.argsort(island, kind="stable")
    cuts = np.flatnonzero(np.diff(island[order])) + 1
    return [set(part.tolist()) for part in np.split(case.buses.id[order], cuts)]


def _report(out: list[str], table: _Table, checks, **columns) -> None:
    """The messages of the (mask, message) checks, row by row and each
    row's in check order; a message is formatted with the row's view ``r``,
    its position ``i`` and its value of each of ``columns``."""
    for i in np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks])).tolist():
        row = {name: values[i] for name, values in columns.items()}
        out.extend(message.format(r=table[i], i=i, **row) for mask, message in checks if mask[i])


def validate(case: NetworkCase) -> ValidationReport:
    """Structural audit.  Reports every violation, never raises."""
    out: list[str] = []
    if case.base_mva <= 0:
        out.append(f"base_mva must be positive, got {case.base_mva}")

    buses, branches, gens, oltcs = case.buses, case.branches, case.generators, case.oltcs
    repeat = np.ones(len(buses), dtype=bool)
    repeat[np.unique(buses.id, return_index=True)[1]] = False
    # every bus reference at once: branch ends, generator buses, controlled buses
    m, g = len(branches), len(gens)
    found = _lookup(buses.id, np.concatenate(
        [branches.from_bus, branches.to_bus, gens.bus_id, oltcs.controlled_bus]))[1]
    from_ok, to_ok = found[:m], found[m : 2 * m]
    gen_ok, ctrl_ok = found[2 * m : 2 * m + g], found[2 * m + g :]
    _report(out, buses, [
        (repeat, "duplicate bus id {r.id}"),
        (buses.id <= 0, "bus id {r.id} is not a positive integer"),
        (~(buses.v_min < buses.v_max), "bus {r.id}: v_min {r.v_min} not below v_max {r.v_max}"),
        (buses.base_kv <= 0, "bus {r.id}: base_kv must be positive, got {r.base_kv}"),
    ])

    for n in sorted(n for n, c in Counter(filter(None, buses.name)).items() if c > 1):
        out.append(f"duplicate bus name {n!r}")

    no_x = branches.status & (branches.x == 0.0)
    with np.errstate(over="ignore"):
        square = branches.ratio ** 2   # the power flow divides by it
    _report(out, branches, [
        (~from_ok, "branch {i}: dangling from-bus reference {r.from_bus}"),
        (~to_ok, "branch {i}: dangling to-bus reference {r.to_bus}"),
        (no_x & (branches.r == 0.0), "branch {i}: in-service branch with zero impedance"),
        (no_x & (branches.r != 0.0), "branch {i}: in-service branch with zero reactance"),
        (branches.ratio <= 0, "branch {i}: ratio must be positive, got {r.ratio}"),
        ((branches.ratio > 0) & ~((square > 0) & np.isfinite(square)),
         "branch {i}: ratio {r.ratio} squares to {square}"),
    ], square=square.tolist())

    _report(out, gens, [
        (~gen_ok, "generator {i}: dangling bus reference {r.bus_id}"),
        (gens.p_min > gens.p_max, "generator {i}: p_min {r.p_min} above p_max {r.p_max}"),
        (gens.q_min > gens.q_max, "generator {i}: q_min {r.q_min} above q_max {r.q_max}"),
        ((gens.kind == GEN_CODES[GenKind.DN_PV]) & ((gens.q != 0.0) | gens.controllable),
         "generator {i}: PV-kind unit must be uncontrollable with q = 0"),
    ])

    ref = oltcs.branch_ref
    on = (0 <= ref) & (ref < len(branches))
    have = np.append(branches.ratio, np.nan)[np.where(on, ref, -1)]
    want = tap_ratios(oltcs)
    _report(out, oltcs, [
        (~on, "oltc {i}: dangling branch reference {r.branch_ref}"),
        (~ctrl_ok, "oltc {i}: dangling controlled-bus reference {r.controlled_bus}"),
        (~np.isfinite(oltcs.v_set), "oltc {i}: v_set must be finite, got {r.v_set}"),
        (~(oltcs.deadband > 0), "oltc {i}: deadband must be positive, got {r.deadband}"),
        (~(oltcs.tap_step > 0), "oltc {i}: tap_step must be positive, got {r.tap_step}"),
        (~((oltcs.tap_min <= oltcs.tap) & (oltcs.tap <= oltcs.tap_max)),
         "oltc {i}: tap {r.tap} outside [{r.tap_min}, {r.tap_max}]"),
        (on & (np.abs(have - want) > 1e-12),
         "oltc {i}: branch ratio {have} out of sync with tap (expected {want})"),
    ], have=have.tolist(), want=want.tolist())

    if len(buses):
        island = _island_of(*_edges(case))
        count = int(island.max()) + 1
        if count > 1:
            out.append(f"network has {count} islands (expected a single one)")
        slack = np.flatnonzero(buses.kind == SLACK)
        slacks = np.bincount(island[slack], minlength=count).tolist()
        lowest = np.full(count, buses.id.max())
        np.minimum.at(lowest, island, buses.id)
        for k in [k for k, n in enumerate(slacks) if n != 1]:
            if not slacks[k]:
                out.append(f"missing slack bus in island containing bus {lowest[k]}")
            else:
                extra = ", ".join(map(str, buses.id[slack[island[slack] == k]].tolist()))
                out.append(f"multiple slack buses in one island: {extra}")

    return ValidationReport(out)


def total_load(case: NetworkCase) -> tuple[float, float]:
    """Component-wise sum of bus demand (p, q), added left to right."""
    return sum(case.buses.p_load.tolist()), sum(case.buses.q_load.tolist())


def penetration_level(case: NetworkCase) -> float:
    """Ratio of distributed-generation active output to total active demand.

    Counts generators of the two distribution kinds only; raises on a case
    without active load, where the ratio is undefined.
    """
    p_load, _ = total_load(case)
    if p_load == 0.0:
        raise ValueError("undefined penetration: case has no active load")
    gens = case.generators
    return sum(gens.p[IS_DG[gens.kind]].tolist()) / p_load
