"""Per-unit steady-state network model shared by the solver, synthesis and I/O layers.

Every quantity is expressed in per-unit on the case MVA base (``base_mva``);
angles are radians.  Conversion to MW/Mvar happens only at I/O boundaries.
A case is mutable, but by convention it is never touched while a solver call
is in flight: mutation happens between solves.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field


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

    The branch ratio is derived state: ``1 + tap * tap_step``, pushed onto the
    branch through :meth:`sync_branch` whenever the tap moves.
    """

    branch_ref: int      # index into NetworkCase.branches
    controlled_bus: int  # bus id on the low-voltage side
    v_set: float = 1.03
    deadband: float = 0.02
    tap: int = 0
    tap_min: int = -16
    tap_max: int = 16
    tap_step: float = 0.00625

    def ratio(self) -> float:
        return 1.0 + self.tap * self.tap_step

    def sync_branch(self, case: "NetworkCase") -> None:
        case.branches[self.branch_ref].ratio = self.ratio()


@dataclass
class NetworkCase:
    base_mva: float = 100.0
    buses: list[Bus] = field(default_factory=list)
    generators: list[Generator] = field(default_factory=list)
    branches: list[Branch] = field(default_factory=list)
    oltcs: list[OltcTransformer] = field(default_factory=list)

    def bus_index(self) -> dict[int, int]:
        """Map bus id -> position in ``buses``."""
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus with id {bus_id}")

    def slack_buses(self) -> list[Bus]:
        return [b for b in self.buses if b.kind is BusKind.SLACK]

    def clone(self) -> "NetworkCase":
        """Independent copy.  Every record field is immutable (scalars, enums,
        strings, the ``cost`` tuple), so a shallow copy of each record is a
        full copy."""
        return NetworkCase(
            base_mva=self.base_mva,
            buses=[_shallow(b) for b in self.buses],
            generators=[_shallow(g) for g in self.generators],
            branches=[_shallow(br) for br in self.branches],
            oltcs=[_shallow(t) for t in self.oltcs],
        )


def _shallow(record):
    """A copy of one record's fields: ``copy.copy`` without its protocol
    lookups, which cost more than the copy for these small records."""
    new = object.__new__(type(record))
    new.__dict__.update(record.__dict__)
    return new


@dataclass
class ValidationReport:
    entries: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries


def islands(case: NetworkCase) -> list[set[int]]:
    """Connected components (sets of bus ids) over in-service branches."""
    adj: dict[int, list[int]] = {b.id: [] for b in case.buses}
    for br in case.branches:
        if br.status and br.from_bus in adj and br.to_bus in adj:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def validate(case: NetworkCase) -> ValidationReport:
    """Structural audit.  Reports every violation, never raises."""
    out: list[str] = []
    if case.base_mva <= 0:
        out.append(f"base_mva must be positive, got {case.base_mva}")

    ids = [b.id for b in case.buses]
    known = set(ids)
    seen_ids: set[int] = set()
    for b in case.buses:
        if b.id in seen_ids:
            out.append(f"duplicate bus id {b.id}")
        seen_ids.add(b.id)
        if b.id <= 0:
            out.append(f"bus id {b.id} is not a positive integer")
        if not b.v_min < b.v_max:
            out.append(f"bus {b.id}: v_min {b.v_min} not below v_max {b.v_max}")
        if b.base_kv <= 0:
            out.append(f"bus {b.id}: base_kv must be positive, got {b.base_kv}")

    name_counts = Counter(b.name for b in case.buses if b.name)
    for n in sorted(n for n, c in name_counts.items() if c > 1):
        out.append(f"duplicate bus name {n!r}")

    for i, br in enumerate(case.branches):
        for end, bus_id in (("from", br.from_bus), ("to", br.to_bus)):
            if bus_id not in known:
                out.append(f"branch {i}: dangling {end}-bus reference {bus_id}")
        if br.status and br.x == 0.0 and br.r == 0.0:
            out.append(f"branch {i}: in-service branch with zero impedance")
        elif br.status and br.x == 0.0:
            out.append(f"branch {i}: in-service branch with zero reactance")
        if br.ratio <= 0:
            out.append(f"branch {i}: ratio must be positive, got {br.ratio}")

    for i, g in enumerate(case.generators):
        if g.bus_id not in known:
            out.append(f"generator {i}: dangling bus reference {g.bus_id}")
        if g.p_min > g.p_max:
            out.append(f"generator {i}: p_min {g.p_min} above p_max {g.p_max}")
        if g.q_min > g.q_max:
            out.append(f"generator {i}: q_min {g.q_min} above q_max {g.q_max}")
        if g.kind is GenKind.DN_PV and (g.q != 0.0 or g.controllable):
            out.append(f"generator {i}: PV-kind unit must be uncontrollable with q = 0")

    for i, t in enumerate(case.oltcs):
        if not 0 <= t.branch_ref < len(case.branches):
            out.append(f"oltc {i}: dangling branch reference {t.branch_ref}")
        if t.controlled_bus not in known:
            out.append(f"oltc {i}: dangling controlled-bus reference {t.controlled_bus}")
        if not math.isfinite(t.v_set):
            out.append(f"oltc {i}: v_set must be finite, got {t.v_set}")
        if not t.deadband > 0:
            out.append(f"oltc {i}: deadband must be positive, got {t.deadband}")
        if not t.tap_step > 0:
            out.append(f"oltc {i}: tap_step must be positive, got {t.tap_step}")
        if not t.tap_min <= t.tap <= t.tap_max:
            out.append(f"oltc {i}: tap {t.tap} outside [{t.tap_min}, {t.tap_max}]")
        if 0 <= t.branch_ref < len(case.branches):
            want = t.ratio()
            have = case.branches[t.branch_ref].ratio
            if abs(have - want) > 1e-12:
                out.append(f"oltc {i}: branch ratio {have} out of sync with tap (expected {want})")

    if case.buses:
        comps = islands(case)
        if len(comps) > 1:
            out.append(f"network has {len(comps)} islands (expected a single one)")
        island_of = {bus_id: k for k, comp in enumerate(comps) for bus_id in comp}
        slacks_of: list[list[Bus]] = [[] for _ in comps]
        for b in case.slack_buses():
            slacks_of[island_of[b.id]].append(b)
        for comp, slacks in zip(comps, slacks_of):
            if not slacks:
                out.append(f"missing slack bus in island containing bus {min(comp)}")
            elif len(slacks) > 1:
                extra = ", ".join(str(b.id) for b in slacks)
                out.append(f"multiple slack buses in one island: {extra}")

    return ValidationReport(out)


def total_load(case: NetworkCase) -> tuple[float, float]:
    """Component-wise sum of bus demand (p, q)."""
    p = sum(b.p_load for b in case.buses)
    q = sum(b.q_load for b in case.buses)
    return p, q


def penetration_level(case: NetworkCase) -> float:
    """Ratio of distributed-generation active output to total active demand.

    Counts generators of the two distribution kinds only; raises on a case
    without active load, where the ratio is undefined.
    """
    p_load, _ = total_load(case)
    if p_load == 0.0:
        raise ValueError("undefined penetration: case has no active load")
    p_dg = sum(g.p for g in case.generators if g.kind in DG_KINDS)
    return p_dg / p_load
