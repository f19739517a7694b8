"""Synthesis engine: replicate a distribution template under transmission
load buses and wire the result into one combined case.

Pipeline stages (mirrored by :func:`generate`):

1. solve the transmission network (master) and pick the loads to replace,
2. size the template: voltage-feasible capacity by bisection, a few levels
   of probes per batch, replica count per bus by ceiling division,
3. customize every replica against its host-bus voltage: load scaling once
   per host, then per copy DG sizing and allocation, optional demand growth
   and per-replica randomization, every copy of every host solved as one
   batch per step (without randomization one row per host, which its
   copies share),
4. assemble, re-regulate the tap changers on the combined system, optionally
   optimize, and export.

Stages 2 and 3 work on stacked tables (:class:`netmodel.CaseStack`): the
capacity probes, the hosts and the copies are rows of template copies on
one power-flow structure of the template, which :func:`generate` builds
once.  Stage 4 assembles the copies from their stack's rows; a copy
becomes a :class:`NetworkCase` (``DnInstance.case``) only when something
reads it.  Randomized draws come from a dedicated stream per (host bus,
copy index), so adding or removing one replica never reshuffles the others.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import groupby, takewhile
from pathlib import Path

import numpy as np

from . import caseio, powerflow
from .netmodel import (GEN_CODES, IS_DG, PQ, SLACK, CaseStack, GenKind, NetworkCase, _find,
                       total_load, validate)
from .oltc import RegulationError, RegulationReport, _regulate, regulate
from .powerflow import PowerFlowSolution, SolverOptions, apply_solution, solve
from .templates import load_bundle

DEFAULT_AREA_NAMES = {1: "Equiv", 2: "North", 3: "Central", 4: "South"}


class SynthesisError(RuntimeError):
    pass


class PipelineError(SynthesisError):
    """Failure wrapped with the pipeline stage it came from."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class SynthesisConfig:
    penetration_level: float = 0.5
    generation_split: float = 0.5
    constant_load: bool = False
    random: bool = False
    rng_seed: int = 1
    large_system: bool = True
    oversize: float = 1.0
    run_opf: bool = False
    export_format: str = "matpower"
    dn_v_limits: tuple[float, float] = (0.95, 1.05)
    oltc_v_set: float = 1.03
    pf_tolerance: float = 1e-8
    pf_max_iterations: int = 20
    oltc_max_rounds: int = 30
    capacity_tolerance: float = 1e-3
    capacity_ceiling: float = 10.0
    opf_rounds: int = 5
    opf_v_slack: float = 0.1

    def field_errors(self) -> list[tuple[str, str]]:
        # no number may be NaN or infinite, and every bound is a test NaN fails
        bad = [(name, "must be finite") for name, value in vars(self).items()
               if isinstance(value, (float, tuple)) and not np.isfinite(value).all()]
        if not self.penetration_level >= 0:
            bad.append(("penetration_level", "must be >= 0"))
        if not 0.0 <= self.generation_split <= 1.0:
            bad.append(("generation_split", "must lie in [0, 1]"))
        if self.rng_seed < 0:
            bad.append(("rng_seed", "must be >= 0"))
        if not self.oversize >= 1.0:
            bad.append(("oversize", "must be >= 1.0"))
        if not self.dn_v_limits[0] < self.dn_v_limits[1]:
            bad.append(("dn_v_limits", "lower bound must be below upper bound"))
        if not self.oltc_v_set > 0:
            bad.append(("oltc_v_set", "must be positive"))
        if not self.pf_tolerance > 0:
            bad.append(("pf_tolerance", "must be positive"))
        if self.pf_max_iterations < 1:
            bad.append(("pf_max_iterations", "must be at least 1"))
        if self.oltc_max_rounds < 1:
            bad.append(("oltc_max_rounds", "must be at least 1"))
        if not self.capacity_tolerance > 0:
            bad.append(("capacity_tolerance", "must be positive"))
        if not self.capacity_ceiling > 1.0:
            bad.append(("capacity_ceiling", "must exceed 1.0"))
        if self.opf_rounds < 1:
            bad.append(("opf_rounds", "must be at least 1"))
        if not self.opf_v_slack >= 0:
            bad.append(("opf_v_slack", "must be >= 0"))
        if self.export_format not in caseio.EXPORTERS:
            bad.append(("export_format",
                        f"unknown exporter; formats: {', '.join(caseio.EXPORTERS)}"))
        return bad

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            tolerance=self.pf_tolerance, max_iterations=self.pf_max_iterations
        )


@dataclass
class CapacityResult:
    max_scale: float
    binding_bus: int | None
    p_capacity: float               # total active demand at max_scale
    unbounded_by_voltage: bool = False
    probes: int = 0                 # probes the bisection decided on
    unsettled_probes: int = 0       # of those, judged after regulation ran out of rounds


@dataclass
class SolveCounts:
    """NR solves, NR iterations and tap rounds one stage spent."""

    solves: int = 0
    iterations: int = 0
    tap_rounds: int = 0

    def add(self, report: RegulationReport) -> None:
        self.solves += report.solves
        self.iterations += report.iterations
        self.tap_rounds += report.rounds


@dataclass
class DnInstance:
    """One replica.  A copy :func:`customize` builds is a row of its stack
    (``_row``: stack, row) until something reads its ``case`` (given as
    None): the first read builds a :class:`NetworkCase` from that row, which
    the instance carries from then on, as one made with a case does."""

    case: NetworkCase | None
    host_tn_bus: int
    copy_index: int
    load_scale: float
    realized_penetration: float
    realized_split: float
    boundary_p: float                # active import from the host at the end
    import_mismatch: float           # relative, after the import-matching loop
    # relative, after the constant-load loop; None when that loop did not run
    constant_load_mismatch: float | None
    regulation: RegulationReport | None = None   # the copy's last regulation
    constant_load_counts: SolveCounts | None = None  # None when that loop did not run

    def __post_init__(self):
        if self.case is None:
            del self.case   # read through __getattr__ until built

    def __getattr__(self, name: str):
        if name != "case" or "_row" not in self.__dict__:
            raise AttributeError(name)
        stack, row = self._row
        (self.case,) = stack.take([row]).cases()
        return self.case

    def _source(self) -> CaseStack | None:
        """The stack this copy is still a row of; None once it carries a case."""
        return None if "case" in self.__dict__ else self._row[0]


def _rng_for(cfg: SynthesisConfig, host_bus: int, copy_index: int) -> np.random.Generator:
    # named sub-stream per replica; draws are independent across replicas
    return np.random.default_rng([cfg.rng_seed, host_bus, copy_index])


def _zero_dg(case: NetworkCase) -> None:
    gens = case.generators
    dg = IS_DG[gens.kind]
    gens.p[dg] = 0.0
    gens.q[dg] = 0.0


def _scale_loads(case: NetworkCase | CaseStack, factor) -> None:
    # constant power factor: P and Q move together; a stack takes a (B, 1) factor
    case.buses.p_load *= factor
    case.buses.q_load *= factor


def select_replaceable_loads(
    tn: NetworkCase,
    large_system: bool,
    area_names: dict[int, str] | None = None,
) -> list[tuple[int, float, float]]:
    """Load buses whose aggregated demand gets replaced by replicas.

    ``large_system`` keeps every load outside the external-equivalent zone;
    otherwise only the central zone is replaced.
    """
    names, buses = area_names or DEFAULT_AREA_NAMES, tn.buses
    labels = np.array([names.get(area, "") for area in buses.area.tolist()], dtype=object)
    keep = (buses.p_load > 0) & ((labels != "Equiv") if large_system else (labels == "Central"))
    picked = list(zip(*(col[keep].tolist() for col in (buses.id, buses.p_load, buses.q_load))))
    if not picked:
        raise SynthesisError("no replaceable loads found for this selection")
    return picked


# Bisection levels decided per batch of probes: 2**d - 1 midpoints solved
# together.  Measured with resumed tap walks on the mini-dn capacity search
# (16 probes on the path; 2-core VM, one BLAS thread, medians of 3 sessions
# of 20 runs interleaved in one process, shipped then 50x template): d = 2
# takes 21-25 and 17-22 ms, d = 3 20-23 and 17-20, d = 4 21-25 and 20-22,
# d = 5 27-30 and 26-28.  Deeper trees save few batched solves (27, 21, 19,
# 19) but solve many more probes (54, 70, 102, 177 case solves), each of
# whose Newton steps costs one LAPACK call.
CAPACITY_LEVELS = 3
BINDING_TIE = 1e-9   # pu: voltage gaps this close tie when naming the binding bus or replica


def _bisection_tree(lo: float, hi: float, levels: int, tolerance: float) -> list[float]:
    """The midpoints the next ``levels`` bisection steps from [lo, hi] may
    probe, halved by the serial search's own recurrence, down to float
    resolution: a midpoint lies strictly inside its interval."""
    mid = 0.5 * (lo + hi)
    if levels == 0 or not hi - lo > tolerance or not lo < mid < hi:
        return []
    return ([mid] + _bisection_tree(lo, mid, levels - 1, tolerance)
            + _bisection_tree(mid, hi, levels - 1, tolerance))


def dn_max_capacity(dn_template: NetworkCase, v_limits: tuple[float, float],
                    tolerance: float = 1e-3, ceiling: float = 10.0,
                    solver: SolverOptions | None = None, max_rounds: int = 30,
                    structure: powerflow._Structure | None = None) -> CapacityResult:
    """Largest uniform load scale the template can carry with zeroed DGs
    while regulation keeps every non-boundary voltage inside ``v_limits``.

    Bisection on the scale factor to absolute ``tolerance``, or until no
    float lies between the brackets, whichever comes first; the boundary
    (slack) bus is excluded from the check because its voltage is imposed
    from outside.  A probe whose power flow fails to converge counts as
    infeasible, so with very wide limits the search settles at the
    loadability nose instead of the ceiling.

    The probes of the next ``CAPACITY_LEVELS`` bisection steps are solved
    as one batch, every midpoint either outcome could lead to: the rows of
    one stack of template copies, on the template's power-flow
    ``structure`` (built here unless the caller has it).  The search then
    walks down the tree with the outcomes, so the result is the serial
    bisection's, and a probe off the walked path is discarded, failure and
    all.  ``probes`` counts the probes on the path, ``unsettled_probes``
    those whose regulation ran out of rounds with a tap still wanting to
    move.  The first bus by position whose gap lies within ``BINDING_TIE``
    of the largest binds, so last bits of a solve decide no tie.

    The controlled voltage falls as load grows, so wherever both brackets
    (lo, hi) of a later batch stepped alike, every probe between them
    steps so too: the batch resumes the tap rows both brackets' traces
    open with, if neither froze a tap (a reversal freezes, so each tap
    moved one way only).  A trace holds at most ``max_rounds`` rows.
    """
    lo_v, hi_v = v_limits
    solver = solver or SolverOptions()
    base = dn_template.clone()
    _zero_dg(base)
    p_template, _ = total_load(base)
    if p_template <= 0:
        raise SynthesisError("template has no active load to scale")
    st = structure if structure is not None else powerflow._structure(base)
    stack, ids = CaseStack.of(base), base.buses.id
    # each probe once, by scale: (feasible, worst bus, its regulation report
    # or the RegulationError of a diverged solve), or the error of a solve
    # that failed other than by diverging
    probed: dict[float, tuple | Exception] = {}

    def shared_walk(lo: float, hi: float) -> list[list[int]]:
        """The tap rows every probe strictly inside (lo, hi) reaches first:
        the rows both brackets' traces open with, if neither froze a tap."""
        a, b = probed[lo][2], probed[hi][2]
        if not all(isinstance(r, RegulationReport) and not any(r.frozen) for r in (a, b)):
            return []
        return [row for row, _ in takewhile(lambda rows: rows[0] == rows[1],
                                            zip(a.tap_trace, b.tap_trace))]

    def probe_all(scales: list[float], prefix: list[list[int]] = ()) -> None:
        """Probe the scales as one batch, filing each in ``probed``."""
        trials = stack.take(np.zeros(len(scales), dtype=int))
        _scale_loads(trials, np.array(scales)[:, None])
        _, results = _regulate(st, trials, solver, max_rounds, prefix)
        v = trials.buses.v_mag   # each probe's last solve
        gap = np.maximum(lo_v - v, v - hi_v)
        gap[~(gap > 0.0)] = 0.0
        gap[:, st.slack] = 0.0
        peak = gap.max(axis=1, keepdims=True)
        worst = ((gap > 0.0) & (gap >= peak - BINDING_TIE)).argmax(axis=1)   # ties: the first
        outside = peak[:, 0] > 0.0
        for k, (scale, result) in enumerate(zip(scales, results)):
            if isinstance(result, RegulationError):
                probed[scale] = (False, None, result)
            elif isinstance(result, Exception):
                probed[scale] = result
            else:
                probed[scale] = (not outside[k], ids.item(worst[k]) if outside[k] else None,
                                 result)

    probes = unsettled = 0

    def decide(scale: float) -> tuple[bool, int | None]:
        nonlocal probes, unsettled
        if isinstance(probed[scale], Exception):
            raise probed[scale]
        ok, bus, report = probed[scale]
        probes += 1
        unsettled += isinstance(report, RegulationReport) and not report.settled
        return ok, bus

    # the two brackets, and the first levels in case the ceiling fails
    probe_all([0.0, ceiling] + _bisection_tree(0.0, ceiling, CAPACITY_LEVELS, tolerance))
    ok, bus = decide(0.0)
    if not ok:
        if isinstance(diverged := probed[0.0][2], RegulationError):
            raise SynthesisError("distribution template fails to solve even with zero load: "
                                 f"{diverged}")
        raise SynthesisError("distribution template violates voltage limits even with zero load "
                             f"(worst bus {bus})")
    # a feasible ceiling leaves no bracket to bisect
    unbounded, binding = decide(ceiling)
    lo, hi = ceiling if unbounded else 0.0, ceiling
    while hi - lo > tolerance and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid not in probed:
            probe_all(_bisection_tree(lo, hi, CAPACITY_LEVELS, tolerance), shared_walk(lo, hi))
        ok, bus = decide(mid)
        if ok:
            lo = mid
        else:
            hi = mid
            if bus is not None:
                binding = bus
    return CapacityResult(max_scale=lo, binding_bus=binding, p_capacity=p_template * lo,
                          unbounded_by_voltage=unbounded, probes=probes, unsettled_probes=unsettled)


def dn_count(tn_p_load: float, dn_capacity: float) -> int:
    """Replicas needed for one aggregated load: ceiling division, at least 1."""
    if dn_capacity <= 0:
        raise SynthesisError("capacity must be positive")
    return max(1, math.ceil(tn_p_load / dn_capacity))


def _replica_template(dn: NetworkCase, cfg: SynthesisConfig) -> NetworkCase:
    """The case every replica starts from, and the capacity search probes:
    the template with its taps regulating at ``oltc_v_set`` and DGs zeroed."""
    case = dn.clone()
    case.oltcs.v_set[:] = cfg.oltc_v_set
    _zero_dg(case)
    return case


# One host of :func:`customize`: host bus, target demand, source voltage (None
# keeps the template's) and its copies as (copy index, RNG stream).
Host = tuple[int, float, float | None, list[tuple[int, np.random.Generator | None]]]

# :func:`customize`'s matching loop: most regulations per row, relative import gap met
IMPORT_ROUNDS, IMPORT_TOL = 12, 1e-4
GROWTH_ROUNDS, GROWTH_TOL = 20, 1e-3


def customize_dn(dn: NetworkCase, target_p: float, cfg: SynthesisConfig,
                 rng_stream: np.random.Generator | None, source_v: float | None = None,
                 host_bus: int = 0, copy_index: int = 0) -> DnInstance:
    """Build one replica carrying ``target_p`` of boundary demand: the
    one-host, one-copy call of :func:`customize`."""
    (inst,) = customize(dn, cfg, [(host_bus, target_p, source_v, [(copy_index, rng_stream)])])
    return inst


def customize(dn: NetworkCase, cfg: SynthesisConfig, hosts: list[Host],
              structure: powerflow._Structure | None = None) -> list[DnInstance]:
    """Build every copy of every host, each stage solved as one batch.

    Import match: per host, the template's loads are scaled (constant power
    factor), with DGs zeroed, until the replica's solved import from the
    boundary equals ``target_p * oversize``; the aggregated load it stands
    in for already included the network losses, so the match is on the
    import, not on the arithmetic load sum.  Every copy of a host starts
    from that state.  DG output is then sized against each replica's own
    demand, split between the controllable group and the unity-power-factor
    PV group (randomized per copy from its stream, in plan order), and, in
    the constant-load scenario, matched by extra demand until the boundary
    import is back at its pre-DG value.  Both run one loop: regulate, then
    adjust the rows whose gap ``|import - target| / |target|`` exceeds the
    tolerance and regulate them again, at most ``IMPORT_ROUNDS`` times to
    ``IMPORT_TOL`` (P and Q rescaled) or ``GROWTH_ROUNDS`` to ``GROWTH_TOL``
    (the shortfall added to P); a copy that does not grow is regulated once.
    A step is made only if a round is left to solve it, so a row's last
    regulation is its final state and its recorded gap is that state's.

    The hosts, then the copies, are the rows of one stack of template
    copies, solved on the template's power-flow ``structure`` (built here
    unless the caller has it); each instance stays a row of that stack, a
    case of its own only when something reads it.  Without ``random`` the
    copies of a host have the same inputs, so one row stands for them all,
    and each copy's instance reads it.  The replicas only share
    solves, so each one is what it would be alone.  If any fails, the error
    of the first failing one in plan order is raised, naming its host bus
    (and copy).
    """
    solver = cfg.solver_options()
    template = _replica_template(dn, cfg)
    p_template, _ = total_load(template)
    if p_template <= 0:
        raise SynthesisError("template has no active load")
    st = structure if structure is not None else powerflow._structure(template)
    # keyed by (host position, -1 for the import match or the copy position)
    errors: dict[tuple[int, int], Exception] = {}

    def match(stack: CaseStack, rows: np.ndarray, keys: list, target: np.ndarray,
              rounds: int, tol: float, adjust):
        """Regulate ``rows`` of ``stack`` in place, filing each error under
        its row's key, and ``adjust(rows, target, import)`` those whose
        import lies more than ``tol`` off ``target`` (relative; NaN: never)
        while rounds remain.  Per row: the import, gap and report last
        solved, and the :class:`SolveCounts` of all rounds."""
        boundary, gap = np.full(len(stack), np.nan), np.full(len(stack), np.nan)
        reports, counts = [None] * len(stack), [SolveCounts() for _ in range(len(stack))]
        for left in reversed(range(rounds if rows.size else 0)):
            batch = stack.take(rows)
            last, results = _regulate(st, batch, solver, cfg.oltc_max_rounds)
            stack.put(rows, batch)
            for j, (row, result) in enumerate(zip(rows.tolist(), results)):
                if isinstance(result, Exception):
                    errors[keys[row]] = result
                else:
                    reports[row] = result
                    counts[row].add(result)
                    boundary[row] = last[j][0].S.real[last[j][1], st.slack]
            rows = rows[[not isinstance(result, Exception) for result in results]]
            b, t = boundary[rows], target[rows]
            gap[rows] = np.abs(b - t) / np.abs(t)
            rows = rows[np.abs(b - t) > tol * np.abs(t)]
            if not (left and rows.size):
                break
            adjust(rows, target[rows], boundary[rows])
        return boundary, gap, reports, counts

    # import match: each host's loads scaled until its import is on target
    targets = np.array([target_p * cfg.oversize for _, target_p, _, _ in hosts])
    for h in np.flatnonzero(~(targets > 0)).tolist():
        errors[(h, -1)] = SynthesisError("replica demand target must be positive")
    matched = np.flatnonzero(targets > 0)   # the hosts, a row each
    H = CaseStack.of(template).take(np.zeros(len(matched), dtype=int))
    for row, h in enumerate(matched.tolist()):
        if hosts[h][2] is not None:   # the host's source voltage
            H.buses.v_mag[row, st.slack] = H.generators.v_set[row, st.slack_gen] = hosts[h][2]
    scales = targets[matched] / p_template
    _scale_loads(H, scales[:, None])

    def rescale(rows, target, imported):
        factor = target / imported
        H.buses.p_load[rows] *= factor[:, None]
        H.buses.q_load[rows] *= factor[:, None]
        scales[rows] *= factor

    imports, import_gap, _, _ = match(
        H, np.arange(len(matched)), [(h, -1) for h in matched.tolist()], targets[matched],
        IMPORT_ROUNDS, IMPORT_TOL, rescale)

    # DG sizing against each replica's own demand, in plan order: a row per
    # copy, or without ``random`` one per host, the first copy's, since the
    # copies of a host then have the same inputs and so the same solves
    plan = [(row, h, k) for row, h in enumerate(matched.tolist()) if (h, -1) not in errors
            for k in range(len(hosts[h][3]) if cfg.random else min(len(hosts[h][3]), 1))]
    C = H.take(np.array([row for row, _, _ in plan], dtype=int))
    p_loads = np.array([sum(p) for p in C.buses.p_load.tolist()])
    pl, gs, dg_total, dg, output, failed = _size_dg(
        template, p_loads, cfg, [hosts[h][3][k][1] for _, h, k in plan])
    for (_, h, k), exc in zip(plan, failed):
        if exc is not None:
            errors[(h, k)] = exc
    # a copy without DG output keeps the zeros of the template
    C.generators.p[:, dg], C.generators.q[:, dg] = output, 0.0

    # regulate every copy; in the constant-load scenario, grow active demand
    # until the boundary import is back where it was before the DGs came in
    # (reactive demand stays untouched).  A copy that does not grow has no
    # target and is regulated once.
    live = np.array([j for j, exc in enumerate(failed) if exc is None], dtype=int)
    grow = (dg_total > 0) & cfg.constant_load
    addition = np.zeros(len(plan))
    base_p = C.buses.p_load.copy()

    def grow_demand(rows, target, imported):
        addition[rows] += target - imported
        C.buses.p_load[rows] = base_p[rows] * (1.0 + addition[rows] / p_loads[rows])[:, None]

    first = live[grow[live]]
    grow_demand(first, dg_total[first], 0.0)   # the first step: the DG output
    pre_dg = np.where(grow, imports[[row for row, _, _ in plan]], np.nan)
    boundary_p, mismatch, reports, counts = match(
        C, live, [(h, k) for _, h, k in plan], pre_dg, GROWTH_ROUNDS, GROWTH_TOL, grow_demand)

    if errors:
        h, k = min(errors)
        host_bus, _p, _v, copies = hosts[h]
        where = f"host bus {host_bus}" if k < 0 else f"host bus {host_bus}, copy {copies[k][0]}"
        raise SynthesisError(f"{where}: {errors[h, k]}") from errors[h, k]

    # every copy a row stands for reads it, each with reports of its own
    instances = []
    load_scales, import_gaps = scales.tolist(), import_gap.tolist()
    for j, ((row, h, k), p, g, b, gap, grown) in enumerate(zip(
            plan, pl.tolist(), gs.tolist(), boundary_p.tolist(), mismatch.tolist(),
            grow.tolist())):
        host_bus, _p, _v, copies = hosts[h]
        for n, (copy_index, _) in enumerate(copies[k : k + 1] if cfg.random else copies):
            inst = DnInstance(
                case=None, host_tn_bus=host_bus, copy_index=copy_index,
                load_scale=load_scales[row], realized_penetration=p, realized_split=g,
                boundary_p=b, import_mismatch=import_gaps[row],
                constant_load_mismatch=gap if grown else None,
                regulation=reports[j] if n == 0 else reports[j].copy(),
                constant_load_counts=(counts[j] if n == 0 else SolveCounts(**vars(counts[j])))
                if grown else None)
            inst._row = C, j
            instances.append(inst)
    return instances


def _size_dg(template: NetworkCase, p_loads: np.ndarray, cfg: SynthesisConfig,
             rngs: list[np.random.Generator | None]):
    """Draw each copy's penetration and split (when randomized, from its
    stream), then size its DG output against its demand ``p_loads``,
    split between the controllable units and the PV units, each group
    evenly.  Returns per copy the penetration, split and DG total, the DG
    units, each copy's output of each (copies, units; all 0 without DG
    output), and per copy None or the error that rules it out."""
    B = len(p_loads)
    pl = np.full(B, cfg.penetration_level)
    gs = np.full(B, cfg.generation_split)
    if cfg.random:
        draws = np.array([[rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]
                          for rng in rngs]).reshape(B, 2)
        pl = pl * (1.0 + draws[:, 0])
        gs = np.minimum(np.maximum(gs * (1.0 + draws[:, 1]), 0.0), 1.0)
    dg_total = pl * p_loads

    gens = template.generators
    ctrl, pv = (np.flatnonzero(gens.kind == GEN_CODES[k])
                for k in (GenKind.DN_CONTROLLABLE, GenKind.DN_PV))
    units = np.concatenate([ctrl, pv])
    output = np.zeros((B, len(units)))
    on = dg_total > 0
    output[on] = np.repeat(np.stack([gs * dg_total / max(len(ctrl), 1),
                                     (1.0 - gs) * dg_total / max(len(pv), 1)], axis=1)[on],
                           [len(ctrl), len(pv)], axis=1)
    over = output > gens.p_max[units] + 1e-12
    failed: list[SynthesisError | None] = [None] * B
    for j in np.flatnonzero(on).tolist():
        if gs[j] > 0 and not len(ctrl):
            failed[j] = SynthesisError("template has no controllable DG units to carry the split")
        elif gs[j] < 1 and not len(pv):
            failed[j] = SynthesisError("template has no PV units to carry the split")
        elif over[j].any():
            u = over[j].argmax()
            i, g = int(units[u]), gens[units[u]]
            failed[j] = SynthesisError(
                f"DG allocation {output[j, u]:.4f} pu exceeds p_max {g.p_max:.4f} pu of "
                f"generator {i} at bus {g.bus_id}"
            )
    return pl, gs, dg_total, units, output, failed


def assemble(tn: NetworkCase, instances: list[DnInstance]) -> NetworkCase:
    """Graft every replica onto its host bus.

    The replica's boundary (first slack) bus is identified with the host
    bus: the root branch is re-terminated there, the boundary bus and its
    source generator are dropped, and every other replica bus gets a fresh
    id, a structured ``dn:<host>:<copy>:<local>`` name, and an angle shifted
    by the host angle so the boundary state is continuous.  The host's
    aggregated load is removed.  The replicas' tables are concatenated
    once, and ids and branch references are remapped on whole columns:
    replicas that are rows of one stack are read from its columns, without
    a case per copy, and a replica that carries a case from that case.
    """
    combined = tn.clone()
    host = combined.buses
    next_id = max(host.id.tolist(), default=0) + 1
    tn_idx = combined.bus_index()
    for inst in instances:
        if inst.host_tn_bus not in tn_idx:
            raise SynthesisError(f"host bus {inst.host_tn_bus} is not a transmission bus")
    at = np.array([tn_idx[inst.host_tn_bus] for inst in instances], dtype=int)   # per replica
    host.p_load[at] = 0.0
    host.q_load[at] = 0.0

    # every replica's tables as one, and the replica of each row: a run of
    # replicas that are rows of one stack gives one table of those rows, a
    # replica that carries a case gives its own (its one-copy view's rows)
    runs = [(stack, list(run)) for stack, run in groupby(instances, DnInstance._source)]
    names = ("buses", "branches", "generators", "oltcs")
    parts = {name: [t for stack, run in runs for t in
                    ([stack.table(name, [inst._row[1] for inst in run])] if stack is not None
                     else [getattr(inst.case, name) for inst in run])] for name in names}
    shapes = [case for stack, run in runs for case in
              ([stack.template] * len(run) if stack is not None else [inst.case for inst in run])]
    sizes = {name: [len(getattr(case, name)) for case in shapes] for name in names}
    of = {name: np.repeat(np.arange(len(instances)), sizes[name]) for name in names}
    buses, branches, gens, oltcs = (type(getattr(tn, name))._concat(parts[name]) for name in names)
    # each replica's first slack bus is its boundary; a row is found by (replica, local id)
    slack = np.flatnonzero(buses.kind == SLACK)
    boundary = slack[np.unique(of["buses"][slack], return_index=True)[1]]
    if len(boundary) != len(instances):
        raise SynthesisError("a replica has no slack bus")
    span = int(buses.id.max(initial=0) - buses.id.min(initial=0)) + 1
    keys = of["buses"] * span + buses.id

    def new_ids(replica: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return new_id[_find(keys, replica * span + ids)]

    keep = np.ones(len(buses), dtype=bool)
    keep[boundary] = False
    new_id = np.empty(len(buses), dtype=np.int64)
    new_id[keep] = next_id + np.arange(np.count_nonzero(keep))
    new_id[boundary] = host.id[at]
    shift = host.v_ang[at] - buses.v_ang[boundary]
    added, replica = buses.take(keep), of["buses"][keep]
    copies = np.array([inst.copy_index for inst in instances], dtype=int)
    added.name = [f"dn:{h}:{c}:{b}" for h, c, b in zip(
        host.id[at][replica].tolist(), copies[replica].tolist(), added.id.tolist())]
    added.id, added.kind[:], added.area = new_id[keep], PQ, host.area[at][replica]
    added.v_ang = added.v_ang + shift[replica]

    branches.from_bus = new_ids(of["branches"], branches.from_bus)
    branches.to_bus = new_ids(of["branches"], branches.to_bus)
    # the boundary source dies with the boundary bus
    alive = gens.bus_id != buses.id[boundary][of["generators"]]
    gens = gens.take(alive)
    gens.bus_id = new_ids(of["generators"][alive], gens.bus_id)
    start = len(combined.branches) + np.cumsum([0] + sizes["branches"])
    oltcs.branch_ref = oltcs.branch_ref + start[of["oltcs"]]
    oltcs.controlled_bus = new_ids(of["oltcs"], oltcs.controlled_bus)
    for name, table in zip(names, (added, branches, gens, oltcs)):
        setattr(combined, name, type(table)._concat([getattr(combined, name), table]))
    combined.sync_ratios()

    report = validate(combined)
    if not report.ok:
        raise SynthesisError(
            "assembled case failed validation: " + "; ".join(report.entries)
        )
    return combined


def boundary_transfers(
    case: NetworkCase, sol: PowerFlowSolution
) -> dict[int, float]:
    """Active power flowing from each host bus into its attached replicas,
    summed over the tap-changer root branches."""
    out: dict[int, float] = {}
    refs = case.oltcs.branch_ref
    for bus, p in zip(case.branches.from_bus[refs].tolist(), sol.p_from[refs].tolist()):
        out[bus] = out.get(bus, 0.0) + p
    return out


@dataclass
class GenerateResult:
    case: NetworkCase
    instances: list[DnInstance]
    capacity: CapacityResult
    selected: list[tuple[int, float, float]]
    area_names: dict[int, str]      # zone labels the loads were selected by
    tn_solution: PowerFlowSolution
    solution: PowerFlowSolution
    regulation: RegulationReport
    opf: object | None
    manifest: dict
    summary: dict
    written: list[Path] = field(default_factory=list)


def config_digest(cfg: SynthesisConfig, inputs: Iterable[Path] = ()) -> str:
    """Stable id for one configuration and the bytes of the files ``inputs``
    (drives the output directory name).  A file that cannot be read counts
    as absent, for :func:`generate` to report."""
    digest = hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True).encode())
    for path in inputs:
        try:
            data = Path(path).read_bytes()
        except OSError:
            data = None
        # each file's length before its bytes, so no two input sets read alike
        digest.update(b"-" if data is None else (b"%d:" % len(data)) + data)
    return digest.hexdigest()[:10]


@contextmanager
def _stage(name: str):
    """Tags any failure inside the block with pipeline stage ``name``; a
    failure that already carries a stage keeps it.  Under an active
    :class:`powerflow.Meter` the stage's end is marked."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    meter = powerflow._METER.get()
    if meter is not None:
        meter.mark(name)


def generate(
    tn_path: Path | str,
    dn_path: Path | str,
    cfg: SynthesisConfig,
    out_dir: Path | str | None = None,
) -> GenerateResult:
    """Run the full pipeline; deterministic for a given (templates, cfg).
    Every failure raises :class:`PipelineError` tagged with its stage."""
    problems = cfg.field_errors()
    if problems:
        raise PipelineError(
            "config", "; ".join(f"{name}: {msg}" for name, msg in problems)
        )
    solver = cfg.solver_options()

    with _stage("load-tn"):
        tn_bundle = load_bundle(tn_path)
    tn = tn_bundle.case
    with _stage("tn-solve"):
        tn_solution = solve(tn, solver)
    if not tn_solution.converged:
        raise PipelineError("tn-solve", "transmission power flow did not converge "
                            f"(worst mismatch near {_worst_bus(tn, tn_solution)})")
    apply_solution(tn, tn_solution)

    area_names = tn_bundle.meta.area_names or DEFAULT_AREA_NAMES
    with _stage("select-loads"):
        selected = select_replaceable_loads(tn, cfg.large_system, area_names)

    with _stage("load-dn"):
        dn_bundle = load_bundle(dn_path)
    template = _replica_template(dn_bundle.case, cfg)
    with _stage("capacity"):
        # one structure for the capacity search, the import match and every copy
        structure = powerflow._structure(template)
        capacity = dn_max_capacity(
            template,
            cfg.dn_v_limits,
            tolerance=cfg.capacity_tolerance,
            ceiling=cfg.capacity_ceiling,
            solver=solver,
            max_rounds=cfg.oltc_max_rounds,
            structure=structure,
        )

    tn_idx = tn.bus_index()
    with _stage("customize"):
        hosts: list[Host] = []
        for bus_id, p_load, _q in selected:
            count = dn_count(p_load, capacity.p_capacity * cfg.oversize)
            hosts.append((bus_id, p_load / count, float(tn_solution.v_mag[tn_idx[bus_id]]),
                          [(k, _rng_for(cfg, bus_id, k) if cfg.random else None)
                           for k in range(count)]))
        instances = customize(template, cfg, hosts, structure)

    with _stage("assemble"):
        combined = assemble(tn, instances)
    with _stage("combined-solve"):
        solution, regulation = regulate(combined, solver, max_rounds=cfg.oltc_max_rounds)

    opf_solution = None
    if cfg.run_opf:
        from . import opf as opf_mod

        with _stage("opf"):
            problem = opf_mod.OpfProblem.from_case(combined)
            schedule = opf_mod.RelaxationSchedule(
                rounds=cfg.opf_rounds, v_slack=cfg.opf_v_slack
            )
            opf_solution = opf_mod.solve_with_relaxation(problem, schedule)
            opf_mod.apply_opf_solution(combined, problem, opf_solution)
            # plain re-solve: the optimized taps are pinned, the deadband rule
            # already had its say inside the relaxation loop
            solution = solve(combined, solver)
            if not solution.converged:
                raise PipelineError(
                    "opf",
                    "power flow at the optimized dispatch did not converge "
                    f"(worst mismatch near {_worst_bus(combined, solution)})",
                )
            apply_solution(combined, solution)

    manifest = _manifest(cfg, capacity, selected, instances, combined, regulation, opf_solution)
    summary = _summary(combined, instances, area_names, regulation, manifest, opf_solution)

    written: list[Path] = []
    if out_dir is not None:
        out_dir = Path(out_dir)
        with _stage("export"):
            # strict JSON, encoded before the run directory exists: a NaN that
            # got this far fails the run and leaves no partial bundle
            texts = {"manifest.json": json.dumps(manifest, sort_keys=True, allow_nan=False),
                     "summary.json": json.dumps(summary, indent=2, sort_keys=True,
                                                allow_nan=False)}
            written = caseio.export(combined, cfg.export_format, out_dir)
            if opf_solution is not None:
                opf_mod.write_trace(out_dir / "opf_trace.csv", opf_solution.trace)
                written.append(out_dir / "opf_trace.csv")
            for name, text in texts.items():
                (out_dir / name).write_text(text + "\n")
                written.append(out_dir / name)

    return GenerateResult(
        case=combined,
        instances=instances,
        capacity=capacity,
        selected=selected,
        area_names=area_names,
        tn_solution=tn_solution,
        solution=solution,
        regulation=regulation,
        opf=opf_solution,
        manifest=manifest,
        summary=summary,
        written=written,
    )


def _worst_bus(case: NetworkCase, sol: PowerFlowSolution) -> str:
    """Localizes a divergence: names the bus with the largest final NR
    mismatch, or the TN host of the replica it belongs to."""
    if sol.mismatch_bus is None:
        return "unknown bus"
    bus = case.bus(sol.mismatch_bus)
    if bus.name.startswith("dn:"):
        host = bus.name.split(":")[1]
        return f"TN bus {host} (replica bus {bus.name})"
    return f"TN bus {bus.id}"


def _replica_voltages(combined: NetworkCase, instances: list[DnInstance], lo: float, hi: float):
    """Of each replica's non-boundary buses in the combined case, which
    :func:`assemble` appends after the TN's buses, replica by replica: the
    lowest and highest voltage, and how many lie outside [lo, hi]."""
    counts = [len(stack.template.buses if (stack := inst._source()) else inst.case.buses) - 1
              for inst in instances]
    v = combined.buses.v_mag[len(combined.buses) - sum(counts):]
    starts = np.cumsum([0] + counts)[:-1]
    return (np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts),
            np.add.reduceat((v < lo) | (v > hi), starts, dtype=int))


def _manifest(cfg, capacity, selected, instances, combined, regulation, opf_solution) -> dict:
    lo, hi = cfg.dn_v_limits
    v_min, v_max, outside = _replica_voltages(combined, instances, lo, hi)
    # how far each replica's worst bus lies outside the limits (negative:
    # inside); the first in plan order within BINDING_TIE of the farthest is
    # named, so last bits of a solve decide no tie between copies of a host
    gap = np.maximum(lo - v_min, v_max - hi)
    worst = int(np.argmax(gap >= gap.max() - BINDING_TIE)) if instances else None
    per_instance = [
        {
            "host_bus": inst.host_tn_bus,
            "copy": inst.copy_index,
            "load_scale": inst.load_scale,
            "penetration": inst.realized_penetration,
            "generation_split": inst.realized_split,
            "boundary_import_pu": inst.boundary_p,
            "final_taps": inst.regulation.final_taps,
            "import_mismatch": inst.import_mismatch,
            "constant_load_mismatch": inst.constant_load_mismatch,
            "regulation_settled": inst.regulation.settled,
            "combined_v_min": low,
            "combined_v_max": high,
            "solve_counts": {
                "constant_load": (dict(vars(inst.constant_load_counts))
                                  if inst.constant_load_counts is not None else None),
                # the post-DG regulation; None when the constant-load loop's
                # last round closed the copy
                "closing": (vars(SolveCounts(inst.regulation.solves, inst.regulation.iterations,
                                             inst.regulation.rounds))
                            if inst.constant_load_counts is None else None),
            },
        }
        for inst, low, high in zip(instances, v_min.tolist(), v_max.tolist())
    ]
    cfg_dict = asdict(cfg)
    cfg_dict["dn_v_limits"] = list(cfg.dn_v_limits)
    out = {
        "config": cfg_dict,
        "seed": cfg.rng_seed,
        "template_capacity": asdict(capacity),
        "replaced_loads": [
            {"bus": bus, "p_load": p, "q_load": q} for bus, p, q in selected
        ],
        "instances": per_instance,
        "combined": {
            "buses": len(combined.buses),
            "branches": len(combined.branches),
            "generators": len(combined.generators),
            "oltcs": len(combined.oltcs),
            "regulation_rounds": regulation.rounds,
            "regulation_settled": regulation.settled,
            "replica_buses_outside_v_limits": int(outside.sum()),
            "worst_replica": None if worst is None else {
                "host_bus": instances[worst].host_tn_bus, "copy": instances[worst].copy_index},
        },
    }
    if opf_solution is not None:
        out["opf"] = {
            "objective": opf_solution.objective,
            "feasible": opf_solution.feasible,
            "rounds": opf_solution.relaxation_rounds,
            "settled": opf_solution.settled,
            "iterations": opf_solution.iterations,
            "round_iterations": [row["iterations"] for row in opf_solution.trace],
            "converged": opf_solution.converged,
            "kkt_residual": opf_solution.kkt_residual,
            "start": opf_solution.start,
        }
    return out


def _summary(combined, instances, area_names, regulation, manifest, opf_solution) -> dict:
    pens = [inst.realized_penetration for inst in instances]
    per_area: dict[str, int] = {}
    area_of = dict(zip(combined.buses.id.tolist(), combined.buses.area.tolist()))
    for inst in instances:
        area = area_of.get(inst.host_tn_bus)
        label = str(inst.host_tn_bus) if area is None else area_names.get(area, str(area))
        per_area[label] = per_area.get(label, 0) + 1
    p_load, q_load = total_load(combined)
    summary = {
        "buses": len(combined.buses),
        "branches": len(combined.branches),
        "generators": len(combined.generators),
        "dn_instances": len(instances),
        "dn_instances_per_area": dict(sorted(per_area.items())),
        "penetration": {
            "min": min(pens) if pens else 0.0,
            "mean": sum(pens) / len(pens) if pens else 0.0,
            "max": max(pens) if pens else 0.0,
        },
        "total_load_pu": {"p": p_load, "q": q_load},
        "oltc_rounds": regulation.rounds,
        "replica_buses_outside_v_limits":
            manifest["combined"]["replica_buses_outside_v_limits"],
    }
    if opf_solution is not None:
        summary["opf_objective"] = opf_solution.objective
        summary["opf_feasible"] = opf_solution.feasible
        summary["opf_settled"] = opf_solution.settled
        summary["opf_rounds"] = opf_solution.relaxation_rounds
    return summary
