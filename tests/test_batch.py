"""The batched Newton/tap kernel on stacked copies against the one-case
calls, and the batched capacity search against a serial bisection kept here
as the reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tdsynth import synth as synth_mod
from tdsynth.caseio import from_network, to_network
from tdsynth.netmodel import IS_DG, CaseStack, OltcTransformer, tap_ratios
from tdsynth.oltc import RegulationError, RegulationReport, _regulate, regulate
from tdsynth.opf import OpfProblem, solve_with_relaxation
from tdsynth.powerflow import SingularJacobianError, SolverOptions, _solve, _structure, solve
from tdsynth.synth import (
    PipelineError,
    SynthesisConfig,
    SynthesisError,
    _replica_template,
    _scale_loads,
    _zero_dg,
    customize,
    dn_max_capacity,
)
from tdsynth.templates import bundled_template_dir, load_bundle

from helpers import assert_same_solution, column_bytes, rescaled_dn, time_limit

DN = load_bundle(bundled_template_dir() / "mini-dn").case
TEMPLATES = {1: DN, 10: rescaled_dn(DN, 10)}
PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _feeder_copies(base, source_v: float, load_scale, dg_share, tap) -> CaseStack:
    """Copies of ``base`` stacked as ``synth`` stacks them, a row per item
    of the per-copy arrays: each with its own loads, DG output and start
    tap, all at source voltage ``source_v``."""
    stack = CaseStack.of(base).take(np.zeros(len(load_scale), dtype=int))
    st = _structure(base)
    stack.buses.v_mag[:, st.slack] = stack.generators.v_set[:, st.slack_gen] = source_v
    _scale_loads(stack, np.asarray(load_scale)[:, None])
    dgs = np.flatnonzero(IS_DG[base.generators.kind])
    p_load = stack.buses.p_load.sum(axis=1)
    stack.generators.p[:, dgs] = (np.asarray(dg_share) * p_load / len(dgs))[:, None]
    stack.oltcs.tap[:, 0] = tap
    stack.branches.ratio[:, base.oltcs.branch_ref] = tap_ratios(stack.oltcs)
    return stack


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
    stack = _feeder_copies(base, source_v, *zip(*items))
    alone = stack.cases()
    structure = _structure(base)

    solved = _solve(structure, stack, np.arange(len(items)), SolverOptions())
    for j, case in enumerate(alone):
        assert_same_solution(solved.solution(j, structure), solve(case))

    last, results = _regulate(structure, stack, SolverOptions(), 8)
    for j, (got, case) in enumerate(zip(results, alone)):
        try:
            sol, report = regulate(case, max_rounds=8)
        except RegulationError as exc:
            assert isinstance(got, RegulationError) and str(got) == str(exc)
            continue
        assert not isinstance(got, Exception), got
        assert_same_solution(last[j][0].solution(last[j][1], structure), sol)
        assert got == report
    # taps, ratios, voltages and generator outputs were moved alike
    assert stack.cases() == alone


def _serial_capacity(dn, v_limits, tolerance, ceiling, max_rounds):
    """The capacity bisection probe by probe, as one regulation per probe:
    (max_scale, binding_bus, unbounded, probes, unsettled_probes)."""
    base = dn.clone()
    _zero_dg(base)
    slack_id = base.buses.id[_structure(base).slack]
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
        gaps = []
        for b in trial.buses:
            v = float(sol.v_mag[idx[b.id]])
            if b.id != slack_id:
                gaps.append((max(lo_v - v, v - hi_v), b.id))
        worst = max(gap for gap, _ in gaps)
        if not worst > 0.0:
            return True, None
        # gaps within 1e-9 pu of the largest tie; the first bus by position wins
        return False, next(bus for gap, bus in gaps if gap > 0.0 and gap >= worst - 1e-9)

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


def test_the_capacity_bisection_ends_at_float_resolution():
    # at a tolerance of 1e-300 the brackets become adjacent floats long
    # before hi - lo reaches it, and the search stops there, on the coarse
    # search's path: after about as many halvings of the ceiling 10 as
    # reach the float spacing at the capacity (56 here)
    coarse = dn_max_capacity(DN, (0.95, 1.05))
    with time_limit(20):
        fine = dn_max_capacity(DN, (0.95, 1.05), tolerance=1e-300)
    assert coarse.max_scale <= fine.max_scale <= coarse.max_scale + 1e-3
    halvings = math.log2(10.0 / np.spacing(fine.max_scale))
    assert halvings - 1 <= fine.probes - 2 <= halvings + 1   # less the two brackets


def test_capacity_counts_probes_judged_before_regulation_settled():
    settled = dn_max_capacity(DN, (0.95, 1.05))
    assert settled.probes == 16 and settled.unsettled_probes == 0
    capped = dn_max_capacity(DN, (0.95, 1.05), max_rounds=1)
    assert capped.probes == 16
    assert capped.unsettled_probes > 0


def _with_line_regulator(dn):
    """``dn`` with a second tap changer, on feeder 3 (branch 7-8), that
    regulates bus 8."""
    doc, oltcs = from_network(dn)
    return to_network(doc, oltcs + [OltcTransformer(branch_ref=6, controlled_bus=8)])


# (oltc_v_set, deadband): the shipped rule, one whose stop depends on the
# direction a tap comes from, and a deadband narrower than a tap step,
# where probes reverse and freeze
@pytest.mark.parametrize("v_set, deadband", [(1.03, 0.02), (0.98, 0.02), (1.0, 0.006)])
@pytest.mark.parametrize("k, taps", [(1, 1), (50, 1), (1, 2)])
@pytest.mark.parametrize("max_rounds", [1, 2, 30])
def test_a_warm_started_probe_walks_as_its_cold_run(monkeypatch, k, taps, v_set, deadband,
                                                    max_rounds):
    # every capacity batch started after its brackets' shared tap rows is
    # run again from the template's taps: each probe's walk is the same
    warm = []

    def recording(st, stack, opts, rounds, prefix=()):
        before = stack.take(np.arange(len(stack)))
        last, results = _regulate(st, stack, opts, rounds, prefix)
        if prefix:
            warm.append((prefix, results, _regulate(st, before, opts, rounds)[1]))
        return last, results

    monkeypatch.setattr(synth_mod, "_regulate", recording)
    dn = rescaled_dn(DN, k) if k > 1 else DN
    dn = _replica_template(dn if taps == 1 else _with_line_regulator(dn),
                           SynthesisConfig(oltc_v_set=v_set))
    dn.oltcs.deadband[:] = deadband
    dn_max_capacity(dn, (0.95, 1.05), max_rounds=max_rounds)
    assert warm
    for prefix, started, walked in warm:
        for got, want in zip(started, walked, strict=True):
            assert (got.rounds, got.final_taps, got.tap_trace, got.frozen, got.settled) == (
                want.rounds, want.final_taps, want.tap_trace, want.frozen, want.settled)
            assert got.tap_trace[:len(prefix)] == prefix


@pytest.mark.parametrize("side", ["feasible", "failing"])
def test_a_bracket_that_froze_a_tap_starts_its_batch_cold(monkeypatch, side):
    # a frozen tap's row hides what a probe between the brackets would do,
    # so a batch one of whose brackets froze walks from the template's taps
    p_template = float(DN.buses.p_load.sum())
    prefixes = []

    def freezing(st, stack, opts, rounds, prefix=()):
        prefixes.append(prefix)
        last, results = _regulate(st, stack, opts, rounds, prefix)
        above = stack.buses.p_load.sum(axis=1) > p_template   # capacity is scale 1.0
        for report, failing in zip(results, above.tolist()):
            if isinstance(report, RegulationReport) and failing == (side == "failing"):
                report.frozen = [True] * len(report.frozen)
        return last, results

    monkeypatch.setattr(synth_mod, "_regulate", freezing)
    assert dn_max_capacity(DN, (0.95, 1.05)).max_scale == 0.999755859375
    assert len(prefixes) == 5 and not any(prefixes)


def _singular_probe_at(scale: float, hits: list):
    """A capacity search's ``_regulate`` under which the probe at load
    scale ``scale`` fails with a singular Jacobian; each such probe is
    appended to ``hits``."""
    def failing(st, stack, opts, rounds, prefix=()):
        last, results = _regulate(st, stack, opts, rounds, prefix)
        scales = stack.buses.p_load.sum(axis=1) / stack.template.buses.p_load.sum()
        for k in np.flatnonzero(np.isclose(scales, scale, rtol=1e-12, atol=0.0)).tolist():
            last[k], results[k] = None, SingularJacobianError("singular Jacobian")
            hits.append(k)
        return last, results
    return failing


def test_a_probe_off_the_path_that_fails_is_discarded(monkeypatch):
    # the first batch probes every midpoint of three levels below (0, 10);
    # the capacity (1.0) lies below 1.25, so the one at 7.5 is never decided
    want, hits = dn_max_capacity(DN, (0.95, 1.05)), []
    monkeypatch.setattr(synth_mod, "_regulate", _singular_probe_at(7.5, hits))
    assert dn_max_capacity(DN, (0.95, 1.05)) == want
    assert len(hits) == 1


def test_a_decided_probe_that_fails_fails_the_run(monkeypatch):
    # 5.0, the first midpoint below the ceiling 10, is on every path
    hits = []
    monkeypatch.setattr(synth_mod, "_regulate", _singular_probe_at(5.0, hits))
    templates = bundled_template_dir()
    with pytest.raises(PipelineError, match=r"^\[capacity\] singular Jacobian$"):
        synth_mod.generate(templates / "mini-tn", templates / "mini-dn", SynthesisConfig())
    assert len(hits) == 1


@PROPERTY
@given(k=st.sampled_from(sorted(TEMPLATES)), source_v=st.floats(0.97, 1.06),
       item=copies, deadband=st.sampled_from([0.02, 0.006, 0.004]),
       max_rounds=st.integers(1, 12))
def test_a_walk_resumed_after_its_first_rows_is_the_walk(k, source_v, item, deadband,
                                                         max_rounds):
    # a walk's taps move one way only (a reversal freezes instead), so any
    # of its first rows may start it; narrow deadbands make taps freeze
    base = TEMPLATES[k].clone()
    base.oltcs.deadband[:] = deadband
    stack, structure = _feeder_copies(base, source_v, *zip(item)), _structure(base)
    (walk,) = _regulate(structure, stack.take([0]), SolverOptions(), max_rounds)[1]
    assume(not isinstance(walk, Exception))
    for p in range(1, walk.rounds + 1):
        (resumed,) = _regulate(structure, stack.take([0]), SolverOptions(), max_rounds,
                               walk.tap_trace[:p])[1]
        assert resumed == replace(walk, solves=resumed.solves, iterations=resumed.iterations)


@pytest.mark.parametrize("max_rounds", [1, 30])
def test_capacity_equals_the_serial_bisection_on_the_50x_template(max_rounds):
    dn = rescaled_dn(DN, 50)
    cap = dn_max_capacity(dn, (0.95, 1.05), max_rounds=max_rounds)
    assert (cap.max_scale, cap.binding_bus, cap.unbounded_by_voltage, cap.probes,
            cap.unsettled_probes) == _serial_capacity(dn, (0.95, 1.05), 1e-3, 10.0, max_rounds)


@pytest.mark.parametrize("scale, tie", [(1.0003204345703125, "exact"), (1.0003662109375, "rounding")])
def test_a_binding_tie_names_the_first_bus_by_position(scale, tie):
    # feeder ends 9 and 12 of the 50x template sag alike near its capacity:
    # one failing probe at ``scale`` decides the search, and bus 9 comes first
    dn = rescaled_dn(DN, 50)
    trial = dn.clone()
    _zero_dg(trial)
    _scale_loads(trial, scale)
    sol, _ = regulate(trial)
    ids = dn.buses.id.tolist()
    v9, v12 = (float(sol.v_mag[ids.index(bus)]) for bus in (9, 12))
    assert min(sol.v_mag) == min(v9, v12) < 0.95 and ids.index(9) < ids.index(12)
    if tie == "exact":
        assert v9 == v12
    else:   # bus 12 sags further, by rounding only
        assert 0.0 < v9 - v12 < 1e-9
    cap = dn_max_capacity(dn, (0.95, 1.05), tolerance=scale, ceiling=2 * scale)
    assert (cap.max_scale, cap.probes, cap.binding_bus) == (0.0, 3, 9)


def test_a_batch_of_many_chunks_equals_its_one_item_runs():
    # numpy reuses large temporaries in place, which moves last bits of
    # complex products; a large batch is solved in chunks below that size
    structure = _structure(DN)
    B = 4 * structure.chunk + 1
    stack = _feeder_copies(DN, 1.0, np.linspace(0.1, 1.5, B), np.full(B, 0.3),
                           np.zeros(B, dtype=int))
    solved = _solve(structure, stack, np.arange(B), SolverOptions())
    for k in range(0, B, 97):
        (case,) = stack.take([k]).cases()
        assert_same_solution(solved.solution(k, structure), solve(case))


def test_solves_leave_the_case_they_are_given_as_it_was(run_pipeline):
    # each stacks its case as a view (CaseStack.of) and must move only copies
    combined = run_pipeline(SynthesisConfig()).case.clone()
    dn = DN.clone()
    before = [column_bytes(combined), column_bytes(dn)]
    solve(combined)
    dn_max_capacity(dn, (0.95, 1.05))
    cfg = SynthesisConfig(penetration_level=0.5, constant_load=True)
    assert len(customize(dn, cfg, [(5, 0.4, 1.0, [(0, None), (1, None)])])) == 2
    relaxed = solve_with_relaxation(OpfProblem.from_case(combined, v_limits=(0.95, 1.05)))
    assert any(row["taps_moved"] for row in relaxed.trace)
    assert [column_bytes(combined), column_bytes(dn)] == before
