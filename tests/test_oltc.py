import re

import numpy as np
import pytest

from tdsynth.netmodel import OltcTransformer
from tdsynth.oltc import RegulationError, regulate, tap_update
from tdsynth.powerflow import SolverOptions, apply_solution, solve
from tdsynth.synth import SynthesisConfig, _scale_loads

from helpers import column_bytes, radial_oltc_case, set_source_voltage


def _xfmr(tap=0, tap_min=-16, tap_max=16):
    return OltcTransformer(
        branch_ref=0, controlled_bus=2, v_set=1.03, deadband=0.02,
        tap=tap, tap_min=tap_min, tap_max=tap_max, tap_step=0.00625,
    )


def test_tap_update_rule():
    assert tap_update(_xfmr(), 1.05) == 1    # above 1.04
    assert tap_update(_xfmr(), 1.035) == 0   # inside [1.02, 1.04]
    assert tap_update(_xfmr(), 1.0401) == 1
    assert tap_update(_xfmr(), 1.01) == -1
    # saturation wins over the band check
    assert tap_update(_xfmr(tap=-16), 1.00) == 0
    assert tap_update(_xfmr(tap=16), 1.10) == 0


def test_regulate_in_band_is_a_fixed_point():
    case = radial_oltc_case(source_v=1.04)
    sol, report = regulate(case)
    i = case.bus_index()[2]
    assert abs(float(sol.v_mag[i]) - 1.03) <= 0.01
    assert report.rounds == 0
    assert report.solves == 1
    assert report.final_taps == [0]


def test_regulate_traced_monotone_approach(dn_bundle):
    # golden trace: lightly loaded template under a stiff 1.06 source steps
    # the tap up three times, one step per round, and lands in band
    case = dn_bundle.case.clone()
    set_source_voltage(case, 1.06)
    _scale_loads(case, 0.3)
    sol, report = regulate(case)
    assert report.tap_trace == [[1], [2], [3]]
    assert report.final_taps == [3]
    i = case.bus_index()[case.oltcs[0].controlled_bus]
    assert 1.02 <= float(sol.v_mag[i]) <= 1.04
    taps = [0] + [t[0] for t in report.tap_trace]
    assert all(abs(b - a) <= 1 for a, b in zip(taps, taps[1:]))  # one-step law


def test_regulate_saturation_terminates(dn_bundle):
    case = dn_bundle.case.clone()
    set_source_voltage(case, 0.85)  # band unreachable even at tap_min
    sol, report = regulate(case)
    assert report.final_taps == [case.oltcs[0].tap_min]
    assert report.saturated == [True]
    assert report.in_band == [False]
    assert report.settled


def test_regulate_is_idempotent(dn_bundle):
    case = dn_bundle.case.clone()
    set_source_voltage(case, 1.06)
    _scale_loads(case, 0.3)
    regulate(case)
    taps_first = [t.tap for t in case.oltcs]
    _, report = regulate(case)
    assert [t.tap for t in case.oltcs] == taps_first
    assert report.rounds == 0


def test_tap_raise_never_raises_controlled_voltage():
    for source in (0.98, 1.0, 1.03, 1.06):
        case = radial_oltc_case(source_v=source)
        base = solve(case)
        i = case.bus_index()[2]
        case.oltcs[0].tap += 1
        case.sync_ratios()
        raised = solve(case)
        assert float(raised.v_mag[i]) < float(base.v_mag[i])


def test_regulate_divergence_carries_last_state():
    case = radial_oltc_case()
    _scale_loads(case, 60.0)  # hopeless loading: the first solve diverges
    with pytest.raises(RegulationError) as err:
        regulate(case)
    assert err.value.last_solution is None


def test_a_divergence_names_the_bus_of_its_largest_mismatch(run_pipeline):
    case = run_pipeline(SynthesisConfig()).case.clone()
    _scale_loads(case, 3.0)
    opts = SolverOptions(max_iterations=1)
    worst = solve(case, opts).mismatch_bus
    with pytest.raises(RegulationError, match="diverged before any tap adjustment") as err:
        regulate(case, opts)
    bus = re.search(r"largest mismatch at bus (\d+)$", str(err.value))
    assert bus and int(bus[1]) == worst and worst in case.buses.id.tolist()


def test_max_rounds_is_a_hard_cap(dn_bundle):
    case = dn_bundle.case.clone()
    set_source_voltage(case, 1.06)
    _scale_loads(case, 0.3)
    sol, report = regulate(case, SolverOptions(), max_rounds=1)
    assert report.rounds == 1
    assert report.final_taps == [1]


def test_regulate_writes_back_what_apply_solution_would(run_pipeline):
    # so nothing needs storing after a regulation: on a combined case, with
    # PV hosts, driven through several tap rounds
    case = run_pipeline(SynthesisConfig()).case.clone()
    t = case.oltcs
    t.tap[:] = np.maximum(t.tap - 4, t.tap_min)
    case.sync_ratios()
    sol, report = regulate(case)
    assert report.rounds > 1 and sol.converged
    written = case.clone()
    apply_solution(written, sol)
    for name in ("buses", "generators", "branches", "oltcs"):
        for f, col in vars(getattr(case, name)).items():
            other = vars(getattr(written, name))[f]
            same = col.tobytes() == other.tobytes() if isinstance(col, np.ndarray) else col == other
            assert same, (name, f)


def test_regulate_moves_its_six_columns_and_nothing_else(run_pipeline):
    # regulate works on the case's one-copy stack, a view of the case, so
    # whatever a regulation moves is the case's own: these six columns
    case = run_pipeline(SynthesisConfig()).case.clone()
    _scale_loads(case, 1.5)
    before = column_bytes(case)
    regulate(case)
    after = column_bytes(case)
    assert {key for key in before if before[key] != after[key]} == {
        ("buses", "v_mag"), ("buses", "v_ang"), ("generators", "p"), ("generators", "q"),
        ("branches", "ratio"), ("oltcs", "tap")}


def test_a_regulation_that_diverges_at_once_moves_nothing(run_pipeline):
    case = run_pipeline(SynthesisConfig()).case.clone()
    _scale_loads(case, 3.0)
    before = column_bytes(case)
    with pytest.raises(RegulationError, match="diverged before any tap adjustment"):
        regulate(case, SolverOptions(max_iterations=1))
    assert column_bytes(case) == before
