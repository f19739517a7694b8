"""The batched Newton/tap kernel against its one-item calls, and the batched
capacity search against a serial bisection kept here as the reference."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdsynth.netmodel import GenKind, total_load
from tdsynth.oltc import RegulationError, regulate, regulate_batch
from tdsynth.powerflow import PowerFlowSolution, SolverOptions, _structure, solve, solve_batch
from tdsynth.synth import (
    SynthesisError,
    _scale_loads,
    _set_source_voltage,
    _zero_dg,
    dn_max_capacity,
)
from tdsynth.templates import bundled_template_dir, load_bundle

from helpers import rescaled_dn

DN = load_bundle(bundled_template_dir() / "mini-dn").case
TEMPLATES = {1: DN, 10: rescaled_dn(DN, 10)}
PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def _assert_same_solution(a: PowerFlowSolution, b: PowerFlowSolution) -> None:
    for f in fields(PowerFlowSolution):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert _bits(x) == _bits(y), f.name
        else:
            assert x == y, f.name


def _feeder_copy(base, load_scale: float, dg_share: float, tap: int, source_v: float):
    """A copy of ``base`` with its own loads, DG output, start tap and source
    voltage: what the copies of one host differ in."""
    case = base.clone()
    _set_source_voltage(case, source_v)
    _scale_loads(case, load_scale)
    dgs = [g for g in case.generators if g.kind in (GenKind.DN_CONTROLLABLE, GenKind.DN_PV)]
    for g in dgs:
        g.p = dg_share * total_load(case)[0] / len(dgs)
    case.oltcs[0].tap = tap
    case.sync_ratios()
    return case


copies = st.tuples(
    st.floats(0.05, 1.6),            # load scale
    st.floats(0.0, 1.2),             # DG output over demand
    st.integers(-6, 6),              # start tap
)


@PROPERTY
@given(k=st.sampled_from(sorted(TEMPLATES)), source_v=st.floats(0.97, 1.06),
       items=st.lists(copies, min_size=1, max_size=6))
def test_batch_items_equal_their_one_item_runs(k, source_v, items):
    base = TEMPLATES[k]
    batch = [_feeder_copy(base, *item, source_v) for item in items]
    alone = [_feeder_copy(base, *item, source_v) for item in items]

    for got, case in zip(solve_batch(batch), alone):
        _assert_same_solution(got, solve(case))

    for got, case in zip(regulate_batch(batch, max_rounds=8), alone):
        try:
            sol, report = regulate(case, max_rounds=8)
        except RegulationError as exc:
            assert isinstance(got, RegulationError) and str(got) == str(exc)
            continue
        assert not isinstance(got, Exception), got
        _assert_same_solution(got[0], sol)
        assert got[1] == report
    # taps, ratios, voltages and generator outputs were written back alike
    assert batch == alone


def test_batch_rejects_cases_of_another_structure():
    other = DN.clone()
    other.branches[3].r *= 2.0
    with pytest.raises(ValueError, match="case 1 .* differs in structure"):
        solve_batch([DN.clone(), other])
    moved = DN.clone()
    moved.oltcs[0].tap = 3
    moved.sync_ratios()
    assert len(solve_batch([DN.clone(), moved])) == 2   # a tap position may differ


def _serial_capacity(dn, v_limits, tolerance, ceiling, max_rounds):
    """The capacity bisection probe by probe, as one regulation per probe:
    (max_scale, binding_bus, unbounded, probes, unsettled_probes)."""
    base = dn.clone()
    _zero_dg(base)
    slack_id = base.slack_buses()[0].id
    lo_v, hi_v = v_limits
    counts = [0, 0]

    def probe(scale):
        trial = base.clone()
        _scale_loads(trial, scale)
        counts[0] += 1
        try:
            sol, report = regulate(trial, SolverOptions(), max_rounds=max_rounds)
        except RegulationError:
            return False, None
        counts[1] += not report.settled
        idx = trial.bus_index()
        worst_bus, worst = None, 0.0
        for b in trial.buses:
            v = float(sol.v_mag[idx[b.id]])
            gap = max(lo_v - v, v - hi_v)
            if b.id != slack_id and gap > worst:
                worst, worst_bus = gap, b.id
        return worst_bus is None, worst_bus

    if not probe(0.0)[0]:
        raise SynthesisError("zero load")
    ok, binding = probe(ceiling)
    if ok:
        return ceiling, None, True, *counts
    lo, hi = 0.0, ceiling
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        ok, bus = probe(mid)
        if ok:
            lo = mid
        else:
            hi = mid
            if bus is not None:
                binding = bus
    return lo, binding, False, *counts


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tolerance=st.floats(1e-4, 0.2), ceiling=st.floats(1.2, 10.0),
       lo_v=st.floats(0.9, 0.97), hi_v=st.floats(1.01, 1.12),
       max_rounds=st.integers(1, 30))
def test_capacity_equals_the_serial_bisection(tolerance, ceiling, lo_v, hi_v, max_rounds):
    try:
        want = _serial_capacity(DN, (lo_v, hi_v), tolerance, ceiling, max_rounds)
    except SynthesisError:
        with pytest.raises(SynthesisError, match="zero load"):
            dn_max_capacity(DN, (lo_v, hi_v), tolerance=tolerance, ceiling=ceiling,
                            max_rounds=max_rounds)
        return
    cap = dn_max_capacity(DN, (lo_v, hi_v), tolerance=tolerance, ceiling=ceiling,
                          max_rounds=max_rounds)
    got = (cap.max_scale, cap.binding_bus, cap.unbounded_by_voltage,
           cap.probes, cap.unsettled_probes)
    assert got == want


def test_capacity_counts_probes_judged_before_regulation_settled():
    settled = dn_max_capacity(DN, (0.95, 1.05))
    assert settled.probes == 16 and settled.unsettled_probes == 0
    capped = dn_max_capacity(DN, (0.95, 1.05), max_rounds=1)
    assert capped.probes == 16
    assert capped.unsettled_probes > 0


def test_a_batch_of_many_chunks_equals_its_one_item_runs():
    # numpy reuses large temporaries in place, which moves last bits of
    # complex products; a large batch is solved in chunks below that size
    chunk = _structure([DN]).chunk
    batch = [_feeder_copy(DN, scale, 0.3, 0, 1.0)
             for scale in np.linspace(0.1, 1.5, 4 * chunk + 1)]
    results = solve_batch(batch)
    for k in range(0, len(batch), 97):
        _assert_same_solution(results[k], solve(batch[k]))
