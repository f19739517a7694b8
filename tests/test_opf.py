import numpy as np
import pytest

from tdsynth import powerflow
from tdsynth.netmodel import Branch, Bus, BusKind, Generator, NetworkCase, OltcTransformer
from tdsynth.opf import (
    EXTRA_ROUNDS,
    OpfProblem,
    RelaxationError,
    RelaxationSchedule,
    apply_opf_solution,
    dispatch_cost,
    solve_continuous,
    solve_with_relaxation,
    write_trace,
)
from tdsynth.powerflow import solve
from tdsynth.synth import _scale_loads

from helpers import (
    full_kkt, losses_from_flows, opf_derivative_fd_gaps, scaled_templates, set_source_voltage,
    three_bus_opf_case,
)


def _two_bus_opf(v_max=1.05):
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, base_kv=20.0, v_max=v_max, v_min=0.95))
    case.buses.append(Bus(id=2, kind=BusKind.PQ, p_load=0.5, q_load=0.1,
                          base_kv=20.0, v_max=v_max, v_min=0.95))
    case.generators.append(
        Generator(bus_id=1, p=0.5, v_set=1.0, p_min=0.0, p_max=3.0,
                  q_min=-2.0, q_max=2.0, cost=(0.5, 20.0, 0.0))
    )
    case.branches.append(Branch(from_bus=1, to_bus=2, r=0.03, x=0.12))
    return case


def test_single_generator_carries_load_plus_losses():
    case = _two_bus_opf()
    problem = OpfProblem.from_case(case)
    sol = solve_continuous(problem)
    assert sol.feasible
    assert sol.kkt_residual <= 1e-6

    # the only feasible dispatch is the load plus the network losses
    work = case.clone()
    apply_opf_solution(work, problem, sol)
    pf = solve(work)
    losses = losses_from_flows(pf)
    assert sol.p[0] == pytest.approx(0.5 + losses, abs=1e-6)
    assert sol.objective == pytest.approx(dispatch_cost(problem, sol.p), abs=1e-9)


def test_binding_voltage_bound_is_hit_exactly():
    # losses fall with voltage, so the optimizer pushes against v_max
    case = _two_bus_opf(v_max=1.03)
    problem = OpfProblem.from_case(case)
    sol = solve_continuous(problem)
    assert sol.feasible
    assert float(sol.v_mag[0]) == pytest.approx(1.03, abs=1e-6)


def test_cheaper_unit_carries_more():
    case = three_bus_opf_case()
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    sol = solve_continuous(problem)
    assert sol.feasible and sol.kkt_residual <= 1e-6
    # marginal costs equalize: 2 c2a pA = 2 c2b pB up to losses
    assert sol.p[0] > sol.p[1] > 0
    assert sol.p[0] == pytest.approx(2.0 * sol.p[1], rel=0.05)


def test_problem_validation_rejects_bad_costs():
    case = three_bus_opf_case()
    case.generators[0].cost = (-1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="convex"):
        OpfProblem.from_case(case)
    case.generators[0].cost = (1.0, 0.0, 0.0)
    case.generators[1].p_max = float("inf")
    with pytest.raises(ValueError, match="finite"):
        OpfProblem.from_case(case)


def test_infeasible_limits_reported_not_faked():
    case = three_bus_opf_case()
    for g in case.generators:  # too little reactive range to lift the grid
        g.q_min, g.q_max = -0.02, 0.02
    problem = OpfProblem.from_case(case, v_limits=(1.2, 1.3))
    sol = solve_continuous(problem)
    assert not sol.feasible
    assert sol.max_violation > 1e-3


def _band_aligned_problem(dn_bundle):
    """Problem whose optimum keeps the controlled bus inside its deadband, so
    the tap rule and the optimizer agree from the start."""
    case = dn_bundle.case.clone()
    set_source_voltage(case, 1.0)
    _scale_loads(case, 0.5)
    from tdsynth.oltc import regulate

    regulate(case)
    problem = OpfProblem.from_case(case, v_limits=(0.9, 1.1))
    t = case.oltcs[0]
    i = case.bus_index()[t.controlled_bus]
    problem.v_min[i] = t.v_set - t.deadband / 2 + 0.002
    problem.v_max[i] = t.v_set + t.deadband / 2 - 0.002
    return case, problem


def test_relaxation_fixed_point_terminates_in_one_round(dn_bundle):
    case, problem = _band_aligned_problem(dn_bundle)
    sol = solve_with_relaxation(problem, RelaxationSchedule(rounds=5, v_slack=0.0))
    assert sol.feasible
    assert sol.relaxation_rounds == 1
    assert sol.settled is True
    assert sol.trace[0]["taps_moved"] == 0
    assert sol.taps == [t.tap for t in case.oltcs]


def test_degenerate_schedule_equals_continuous_plus_tap_pass(dn_bundle):
    case, problem = _band_aligned_problem(dn_bundle)
    single = solve_with_relaxation(problem, RelaxationSchedule(rounds=1, v_slack=0.0))
    direct = solve_continuous(problem)
    assert single.relaxation_rounds == 1
    assert single.taps == direct.taps
    assert single.objective == pytest.approx(direct.objective, rel=1e-8)


def test_relaxation_error_reports_round():
    case = three_bus_opf_case()
    for g in case.generators:
        g.q_min, g.q_max = -0.02, 0.02
    problem = OpfProblem.from_case(case, v_limits=(1.2, 1.3))
    with pytest.raises(RelaxationError) as err:
        solve_with_relaxation(problem, RelaxationSchedule(rounds=3, v_slack=0.02))
    assert err.value.round_index == 0


@pytest.mark.parametrize("schedule, bounds", [
    (RelaxationSchedule(rounds=3, v_slack=0.02), "voltage limits widened by 0.020/0.020"),
    (RelaxationSchedule(rounds=1, v_slack=0.02), "at the final bounds"),
    (RelaxationSchedule(rounds=3, v_slack=0.0), "at the final bounds"),
])
def test_relaxation_error_names_the_bounds_of_its_round(schedule, bounds):
    # a round with no slack left is at the final bounds, not widened by 0
    case = three_bus_opf_case()
    for g in case.generators:
        g.q_min, g.q_max = -0.02, 0.02
    problem = OpfProblem.from_case(case, v_limits=(1.2, 1.3))
    with pytest.raises(RelaxationError) as err:
        solve_with_relaxation(problem, schedule)
    assert str(err.value) == f"continuous subproblem infeasible in relaxation round 0 ({bounds})"


def test_feasibility_dominance_recheck(run_pipeline):
    # a feasible result must survive an independent power-flow re-check at
    # the returned dispatch and taps: voltages inside the final bounds to
    # 1e-5, generator outputs inside their boxes exactly
    from tdsynth.synth import SynthesisConfig

    result = run_pipeline(SynthesisConfig(penetration_level=1.5))
    problem = OpfProblem.from_case(result.case, v_limits=(0.95, 1.05))
    sol = solve_with_relaxation(problem, RelaxationSchedule(rounds=5, v_slack=0.1))
    assert sol.feasible

    work = result.case.clone()
    apply_opf_solution(work, problem, sol)
    pf = solve(work)
    assert pf.converged
    assert float(np.min(pf.v_mag)) >= 0.95 - 1e-5
    assert float(np.max(pf.v_mag)) <= 1.05 + 1e-5
    for i in problem.dispatchable:
        g = work.generators[i]
        assert g.p_min <= sol.p[i] <= g.p_max
        assert g.q_min <= sol.q[i] <= g.q_max
    for t, tap in zip(work.oltcs, sol.taps):
        assert t.tap_min <= tap <= t.tap_max


def test_relaxation_monotone_tightening_and_single_steps(run_pipeline):
    from tdsynth.synth import SynthesisConfig

    result = run_pipeline(SynthesisConfig(penetration_level=1.5))
    problem = OpfProblem.from_case(result.case, v_limits=(0.95, 1.05))
    sol = solve_with_relaxation(problem, RelaxationSchedule(rounds=5, v_slack=0.1))
    assert sol.feasible
    slacks = [row["v_slack"] for row in sol.trace]
    assert all(b <= a for a, b in zip(slacks, slacks[1:]))  # nested limit intervals
    taps = [[t.tap for t in result.case.oltcs]] + [row["taps"] for row in sol.trace]
    for before, after in zip(taps, taps[1:]):
        assert all(abs(b - a) <= 1 for a, b in zip(before, after))
    for t, pos in zip(result.case.oltcs, sol.taps):
        assert t.tap_min <= pos <= t.tap_max


def test_opf_derivatives_match_finite_differences(run_pipeline):
    from tdsynth.synth import SynthesisConfig

    rng = np.random.default_rng(11)
    combined = run_pipeline(SynthesisConfig(penetration_level=1.5)).case
    tapped = three_bus_opf_case()
    tapped.oltcs.append(OltcTransformer(branch_ref=1, controlled_bus=3))
    tapped.oltcs.append(OltcTransformer(branch_ref=2, controlled_bus=3, tap=-3))
    tapped.sync_ratios()
    for name, case, taps in (("3-bus", three_bus_opf_case(), []), ("3-bus", tapped, []),
                             ("3-bus ratios", tapped, [0, 1]), ("combined", combined, []),
                             ("combined ratios", combined, np.arange(len(combined.oltcs)))):
        problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
        jac_gap, hess_gap = opf_derivative_fd_gaps(problem, rng, taps)
        assert jac_gap <= 1e-6, name
        assert hess_gap <= 1e-6, name


def test_iteration_cap_is_reported_not_silent():
    problem = OpfProblem.from_case(three_bus_opf_case(), v_limits=(0.95, 1.05))
    capped = solve_continuous(problem, max_iterations=2)
    assert capped.iterations == 2
    assert not capped.converged
    full = solve_continuous(problem)
    assert full.converged and 2 < full.iterations < 100


def test_singular_kkt_is_reported_not_silent():
    case = three_bus_opf_case()
    # a bus without branches leaves its balance rows of the KKT matrix zero
    case.buses.append(Bus(id=4, kind=BusKind.PQ, p_load=0.1, base_kv=130.0))
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    sol = solve_continuous(problem)
    assert sol.iterations == 0
    assert not sol.converged and not sol.feasible


@pytest.mark.parametrize("bad, calls", [(np.nan, {0, 1, 2}), (np.inf, {1})])
def test_a_non_finite_direction_ends_the_run_at_the_last_iterate(monkeypatch, bad, calls):
    # at iteration 2 the Newton solves ``calls`` (0 the affine direction, 1
    # the corrector, 2 the centered step) give ``bad``; the run stops there
    # as one capped at two iterations does, without the centered step
    from tdsynth.opf import _OpfModel

    problem = OpfProblem.from_case(three_bus_opf_case(), v_limits=(0.95, 1.05))
    capped = solve_continuous(problem, max_iterations=2)
    model, factors = _OpfModel(problem), []
    factor = model.newton_solver

    def failing(hess, jac, w):
        step, it, solves = factor(hess, jac, w), len(factors), []
        factors.append(solves)

        def solve(N, g):
            dx, dlam = step(N, g)
            if it == 2 and len(solves) in calls:
                dx, dlam = np.full_like(dx, bad), np.full_like(dlam, bad)
            solves.append(dx)
            return dx, dlam

        return solve

    monkeypatch.setattr(model, "newton_solver", failing)
    sol = solve_continuous(problem, model=model)
    assert len(factors) == 3 and len(factors[2]) == 2
    assert not sol.converged and sol.iterations == 2
    assert np.isfinite(sol.raw_x).all()
    assert np.array_equal(sol.raw_x, capped.raw_x)
    assert all(np.array_equal(a, b) for a, b in zip(sol.raw_duals, capped.raw_duals))


def test_relaxation_round_cap_ends_with_a_final_bound_solve(tmp_path):
    # an unreachable setpoint keeps the tap stepping up every round, so only
    # the round cap ends the loop
    case = three_bus_opf_case()
    case.oltcs.append(OltcTransformer(branch_ref=1, controlled_bus=3, v_set=0.5))
    case.sync_ratios()
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    schedule = RelaxationSchedule(rounds=3, v_slack=0.05)
    sol = solve_with_relaxation(problem, schedule)
    cap = schedule.rounds + EXTRA_ROUNDS
    assert sol.relaxation_rounds == cap
    assert sol.settled is False
    assert [row["taps_moved"] for row in sol.trace] == [1] * cap + [0]
    assert sol.trace[-1]["v_slack"] == 0.0
    assert sol.taps == [cap]
    assert sol.feasible and sol.converged
    write_trace(tmp_path / "trace.csv", sol.trace)
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == cap + 2


def test_dense_and_sparse_kkt_kernels_agree(run_pipeline, monkeypatch):
    from tdsynth.synth import SynthesisConfig

    combined = run_pipeline(SynthesisConfig(penetration_level=1.5)).case
    problem = OpfProblem.from_case(combined, v_limits=(0.95, 1.05))
    schedule = RelaxationSchedule(rounds=5, v_slack=0.1)
    dense = solve_with_relaxation(problem, schedule)
    with monkeypatch.context() as m:
        m.setattr(powerflow, "DENSE_MAX_ROWS", 0)
        sparse = solve_with_relaxation(problem, schedule)
    assert dense.taps == sparse.taps
    assert dense.relaxation_rounds == sparse.relaxation_rounds > 1
    assert dense.objective == pytest.approx(sparse.objective, rel=1e-10)
    assert dense.converged and sparse.converged
    assert dense.feasible and sparse.feasible


def _check_reduced_steps(problem, monkeypatch, model=None, v_limits=None) -> set[str]:
    """Run a cold and a warm interior point on ``problem`` (on ``model``,
    by default one built without ratio columns, at the bounds ``v_limits``)
    and solve every Newton system also as the full KKT system: the reduced
    solve must agree with the dense LAPACK full solve to 1e-10 relative
    where the full matrix's condition number is below 1e15 (most steps),
    and have a normwise backward error in the full system below 1e-14 at
    every step.  Returns the factorization paths the runs took."""
    from tdsynth.opf import _OpfModel

    model = model or _OpfModel(problem)
    assert model.dense == powerflow._dense(model.nv + 2 * model.n)
    factor, gaps, backward = model.newton_solver, [], []

    def checked(hess, jac, w):
        step = factor(hess, jac, w)
        full = full_kkt(model, hess, jac, w)
        conditioned = np.linalg.cond(full) < 1e15

        def solve(N, g):
            dx, dlam = step(N, g)
            b = -np.concatenate([N, g])
            got = np.concatenate([dx, dlam])
            backward.append(np.abs(full @ got - b).max()
                            / (np.abs(full).max() * np.abs(got).max() + np.abs(b).max()))
            if conditioned:
                want = np.linalg.solve(full, b)
                gaps.append(np.abs(got - want).max() / np.abs(want).max())
            return dx, dlam

        return solve

    monkeypatch.setattr(model, "newton_solver", checked)
    with powerflow.Meter().active() as meter:
        cold = solve_continuous(problem, v_limits=v_limits, model=model)
        warm = solve_continuous(problem, v_limits=v_limits, x0=cold.raw_x,
                                duals=cold.raw_duals, model=model)
    assert cold.converged and warm.converged
    assert len(backward) == 2 * (cold.iterations + warm.iterations)
    assert len(gaps) >= len(backward) // 2
    assert max(gaps) <= 1e-10
    assert max(backward) <= 1e-14
    return set(meter.kkt_solves)


@pytest.mark.parametrize("dense_max, blocks, path", [
    pytest.param(powerflow.DENSE_MAX_ROWS, False, "dense", id=str(powerflow.DENSE_MAX_ROWS)),
    pytest.param(0, False, "superlu", id="0"),
    pytest.param(powerflow.DENSE_MAX_ROWS, True, "blocks", id="blocks"),
])
def test_reduced_newton_step_equals_the_full_kkt_solve(run_pipeline, monkeypatch, dense_max,
                                                       blocks, path):
    """Every Newton system of a cold and a warm run on the congested case,
    solved with Pg and Qg eliminated, gives the (dx, dlam) of the full KKT
    system: to 1e-10 relative to its dense solve wherever that is well
    conditioned, and with a backward error below 1e-14 at every step.  The
    last steps of a run have condition numbers up to 1e21, where the full
    solve itself is 1e-8 off a 60-digit solution, so only the backward
    error is asserted there.  The reduced matrix is factored whole by
    LAPACK, whole by SuperLU, and on its replica blocks."""
    from tdsynth.opf import _OpfModel
    from tdsynth.synth import SynthesisConfig

    monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
    combined = run_pipeline(SynthesisConfig(penetration_level=1.5)).case
    problem = OpfProblem.from_case(combined, v_limits=(0.95, 1.05))
    model = _OpfModel(problem)
    assert (model.blocks is not None) == (dense_max > 0)
    if not blocks:
        model.blocks = None
    assert _check_reduced_steps(problem, monkeypatch, model) == {path}


def test_the_start_estimate_solves_its_ratio_columns_in_their_replica_blocks(monkeypatch):
    """The start estimate's model has a ratio column per free tap changer;
    each joins the block of its replica, and every Newton system of a cold
    and a warm run of it solved on the blocks equals the dense full solve
    to 1e-10 where that is well conditioned."""
    from tdsynth import opf

    case, schedule = _mini_opf_problem()
    problem = OpfProblem.from_case(case)
    regulated, runs = case.oltcs.tap.copy(), []
    monkeypatch.setattr(opf, "solve_continuous",
                        lambda problem, **kw: runs.append(kw) or solve_continuous(problem, **kw))
    start = opf._tap_start(problem, schedule.rounds)
    monkeypatch.undo()
    (kw,) = runs
    model = kw["model"]
    assert model.nt == 3 and start["converged"]
    ratios = np.arange(model.nv - model.nt, model.nv)
    assert not np.isin(ratios, model.blocks.border).any()
    assert model.blocks.size.tolist() == [45] * 3
    case.oltcs.tap[:] = regulated   # where the model was built
    case.sync_ratios()
    assert _check_reduced_steps(problem, monkeypatch, model, kw["v_limits"]) == {"blocks"}


def test_a_singular_block_falls_back_to_the_whole_matrix(monkeypatch):
    # a bus without branches is a block of its own, and its balance rows are
    # zero: the first solve finds it singular, and LAPACK's factorization of
    # the whole matrix reports the matrix singular too
    from tdsynth.opf import _OpfModel

    case = three_bus_opf_case()
    case.buses.append(Bus(id=4, kind=BusKind.PQ, p_load=0.1, base_kv=130.0))
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    model = _OpfModel(problem)
    assert model.blocks.size.tolist() == [4] and model.dense
    real, factored = powerflow._factor, []

    def recorded(A):
        factored.append(A.shape)
        return real(A)

    monkeypatch.setattr(powerflow, "_factor", recorded)
    with powerflow.Meter().active() as meter:
        sol = solve_continuous(problem, model=model)
    assert factored == [model.kkt_shape]
    assert meter.kkt_solves == ["dense"]
    assert sol.iterations == 0 and not sol.converged

    # a block solve that fails on the mini-opf case: every factorization
    # falls back to the whole matrix, and the run is the one without blocks
    monkeypatch.setattr(powerflow, "_factor", real)
    monkeypatch.setattr(powerflow._Blocks, "factor", lambda self, vals: lambda F: None)
    problem = OpfProblem.from_case(_mini_opf_problem()[0])
    model = _OpfModel(problem)
    with powerflow.Meter().active() as meter:
        fell_back = solve_continuous(problem, model=model)
    model.blocks = None
    whole = solve_continuous(problem, model=model)
    assert meter.kkt_solves == ["dense"] * fell_back.iterations and fell_back.converged
    assert np.array_equal(fell_back.raw_x, whole.raw_x)


def test_reduced_newton_step_with_two_units_on_one_bus(monkeypatch):
    # two units share the balance rows of bus 1, and so its dPg and dQg
    case = three_bus_opf_case()
    case.generators.append(
        Generator(bus_id=1, p=0.1, v_set=1.02, p_min=0.0, p_max=0.5,
                  q_min=-0.3, q_max=0.3, cost=(0.5, 1.0, 0.0)))
    _check_reduced_steps(OpfProblem.from_case(case, v_limits=(0.95, 1.05)), monkeypatch)


def test_shipped_mini_opf_takes_at_most_56_steps():
    """The benchmark's mini-opf run (shipped templates, random, seed 1)
    takes 56 interior-point steps: 12 in the start estimate, then 44 over
    its 6 rounds, every one of them converged.  A kernel that costs the
    interior point steps shows here."""
    from tdsynth.synth import SynthesisConfig, generate
    from tdsynth.templates import bundled_template_dir

    templates = bundled_template_dir()
    result = generate(templates / "mini-tn", templates / "mini-dn",
                      SynthesisConfig(run_opf=True, random=True, rng_seed=1))
    opf = result.manifest["opf"]
    assert sum(opf["round_iterations"]) + opf["start"]["iterations"] <= 56
    assert opf["converged"] is True and opf["feasible"] is True


@pytest.mark.parametrize("scale, seed", [(10, 1), (10, 2), (50, 1)])
def test_congested_scaled_case_converges_from_a_cold_start(tmp_path, scale, seed):
    """On scaled templates at penetration 1.5, plain predictor-corrector
    steps with MIPS's fixed fraction to the boundary drive slacks to 5e-5
    in the first steps and then stall, and the cold round ends infeasible.
    The fallback to a centered step carries the 10x cases; the 50x one
    also needs IPOPT's fraction to the boundary."""
    from tdsynth.synth import SynthesisConfig, generate

    templates = scaled_templates(tmp_path, scale)
    result = generate(templates / "mini-tn", templates / "mini-dn", SynthesisConfig(
        run_opf=True, random=True, rng_seed=seed, penetration_level=1.5))
    assert result.opf.feasible and result.opf.converged


@pytest.mark.parametrize("scale, penetration, seed", [(10, 1.0, 2), (50, 1.0, 2), (50, 1.5, 1),
                                                     (10, 1.0, 1)])
def test_a_stalled_warm_round_is_solved_again_from_a_cold_start(
        tmp_path, monkeypatch, scale, penetration, seed):
    """With warm starts floored at 1e-5 instead of 1e-3, a warm round of
    each of these runs stalls: without a cold re-solve the first three end
    unconverged and the last raises in relaxation round 14."""
    from tdsynth import opf
    from tdsynth.synth import SynthesisConfig, generate

    monkeypatch.setattr(opf, "_WARM_FLOOR", 1e-5)
    templates = scaled_templates(tmp_path, scale)
    result = generate(templates / "mini-tn", templates / "mini-dn", SynthesisConfig(
        run_opf=True, random=True, rng_seed=seed, penetration_level=penetration))
    assert result.opf.feasible and result.opf.converged
    assert sum(row["iterations"] for row in result.opf.trace) == result.opf.iterations


def test_warm_start_from_a_converged_point_takes_fewer_steps(run_pipeline):
    from tdsynth.synth import SynthesisConfig

    combined = run_pipeline(SynthesisConfig(penetration_level=1.5)).case
    problem = OpfProblem.from_case(combined, v_limits=(0.95, 1.05))
    cold = solve_continuous(problem)
    assert cold.converged and cold.raw_duals is not None
    warm = solve_continuous(problem, x0=cold.raw_x, duals=cold.raw_duals)
    assert warm.converged and warm.feasible
    assert 0 < warm.iterations < cold.iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-10)


def test_model_refreshed_after_tap_moves_equals_a_fresh_one(run_pipeline):
    import scipy.sparse as sp

    from tdsynth.opf import _OpfModel
    from tdsynth.synth import SynthesisConfig

    case = run_pipeline(SynthesisConfig(penetration_level=0.5)).case.clone()
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    model = _OpfModel(problem)
    for t, step in zip(case.oltcs, (2, -1, 0)):
        t.tap += step
    case.sync_ratios()
    model.retap(case.branches.ratio)
    fresh = _OpfModel(problem)
    assert vars(model).keys() == vars(fresh).keys()
    for name, want in vars(fresh).items():
        got = getattr(model, name)
        if name == "_adm":      # its ratios are the build's; retap reads the case's anew
            continue
        if sp.issparse(want):
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), name
        elif isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name
    assert not np.array_equal(model.y, _OpfModel(OpfProblem.from_case(
        run_pipeline(SynthesisConfig(penetration_level=0.5)).case, v_limits=(0.95, 1.05))).y)


def _mini_opf_problem(seed=3):
    """The combined case of the benchmark's mini-opf run (shipped templates,
    random) as the OPF stage gets it, and the run's relaxation schedule."""
    from tdsynth.synth import SynthesisConfig, generate
    from tdsynth.templates import bundled_template_dir

    templates = bundled_template_dir()
    cfg = SynthesisConfig(random=True, rng_seed=seed)
    case = generate(templates / "mini-tn", templates / "mini-dn", cfg).case
    return case, RelaxationSchedule(rounds=cfg.opf_rounds, v_slack=cfg.opf_v_slack)


@pytest.mark.parametrize("taps, estimate, start", [
    ([-8, -8, -7], [5, 5, 6], [1, 1, 2]),        # mini-opf: 4 short of the estimate
    ([0, 0, 0], [6, -6, 5], [2, -2, 0]),         # either way; |d| = 5 stays
    ([3, -3, 0], [9, -9, 0], [5, -5, 0]),        # |d| = 6: 2 steps
])
def test_a_tap_starts_rounds_minus_one_short_of_a_far_estimate(taps, estimate, start):
    from tdsynth.opf import _start_taps

    assert _start_taps(np.array(taps), np.array(estimate), 5).tolist() == start


def test_the_estimate_starts_the_walk_short_of_where_it_ends():
    # the mini-opf walk from the regulated taps (-8, -8, -7) settles at
    # (6, 6, 6) after 15 rounds; from 4 short of the estimate it takes 6
    from tdsynth.opf import _start_taps

    case, schedule = _mini_opf_problem()
    regulated = case.oltcs.tap.copy()
    assert regulated.tolist() == [-8, -8, -7]
    sol = solve_with_relaxation(OpfProblem.from_case(case), schedule)
    start = sol.start
    assert start["converged"] and start["feasible"]
    assert start["estimate"] == [5, 5, 6]
    assert start["taps"] == _start_taps(regulated, np.array(start["estimate"]),
                                        schedule.rounds).tolist()
    assert sol.trace[0]["taps"] == start["taps"]
    assert case.oltcs.tap.tolist() == [-8, -8, -7]   # the problem's case is untouched
    assert sol.taps == [6, 6, 6] and sol.settled and sol.feasible and sol.converged
    assert sol.relaxation_rounds <= 7
    assert sum(row["iterations"] for row in sol.trace) + start["iterations"] <= 65


def test_a_start_short_of_the_walks_end_ends_where_the_walk_does(monkeypatch):
    # with every tap preset to one position and no estimate, each start from
    # the regulated taps up to settled - (rounds - 1) ends at the same taps,
    # settled, at the same objective; one position later the four
    # widened-bound rounds carry every tap one past the end
    from tdsynth import opf

    monkeypatch.setattr(opf, "_tap_start", lambda problem, rounds: None, raising=False)
    case, schedule = _mini_opf_problem()
    walk = solve_with_relaxation(OpfProblem.from_case(case), schedule)
    assert walk.taps == [6, 6, 6] and walk.settled
    last = 6 - (schedule.rounds - 1)
    for position in range(-8, last + 2):
        work = case.clone()
        work.oltcs.tap[:] = position
        work.sync_ratios()
        sol = solve_with_relaxation(OpfProblem.from_case(work), schedule)
        assert sol.trace[0]["taps"] == [position] * 3
        if position <= last:
            assert sol.taps == walk.taps and sol.settled, position
            assert sol.objective == pytest.approx(walk.objective, rel=1e-10), position
        else:
            assert sol.taps == [7, 7, 7] and sol.settled, position


def test_an_infeasible_estimate_starts_every_tap_where_it_was(run_pipeline, monkeypatch):
    # at penetration 1.5 one replica's controlled bus stays above its band,
    # so the estimate fails and the walk is the one from the regulated taps
    from tdsynth import opf
    from tdsynth.synth import SynthesisConfig

    case = run_pipeline(SynthesisConfig(penetration_level=1.5)).case
    problem = OpfProblem.from_case(case, v_limits=(0.95, 1.05))
    schedule = RelaxationSchedule(rounds=5, v_slack=0.1)
    sol = solve_with_relaxation(problem, schedule)
    assert not (sol.start["converged"] and sol.start["feasible"])
    assert sol.start["estimate"] is None
    assert sol.start["taps"] == case.oltcs.tap.tolist() == sol.trace[0]["taps"]
    monkeypatch.setattr(opf, "_tap_start", lambda problem, rounds: None)
    walk = solve_with_relaxation(problem, schedule)
    assert walk.start is None
    assert sol.trace == walk.trace
    assert (sol.taps, sol.objective, sol.iterations) == (walk.taps, walk.objective, walk.iterations)
