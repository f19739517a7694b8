import numpy as np
import pytest

from tdsynth import powerflow, residual
from tdsynth.caseio import from_network, to_network
from tdsynth.netmodel import (BUS_CODES, GEN_CODES, Branch, Bus, BusKind, CaseStack, GenKind,
                              Generator, NetworkCase)
from tdsynth.powerflow import (
    PowerFlowError,
    SingularJacobianError,
    SolverOptions,
    apply_solution,
    solve,
)
from tdsynth.synth import _scale_loads

from helpers import (
    assert_same_solution,
    dense_ybus,
    jacobian_fd_relative_gap,
    losses_from_flows,
    radial_oltc_case,
    random_network,
    two_bus_analytic,
    two_bus_case,
)


def test_ybus_single_line():
    case = two_bus_case(r=0.0, x=0.1)
    Y = dense_ybus(case)
    assert np.allclose(Y, np.array([[-10j, 10j], [10j, -10j]]))


def test_ybus_out_of_service_branch_contributes_nothing():
    case = two_bus_case()
    case.branches[0].status = False
    case.branches.append(Branch(from_bus=1, to_bus=2, r=0.0, x=0.2))
    Y = dense_ybus(case)
    assert np.allclose(Y, np.array([[-5j, 5j], [5j, -5j]]))


def test_ybus_zero_impedance_branch_rejected():
    case = two_bus_case()
    case.branches[0].r = 0.0
    case.branches[0].x = 0.0
    with pytest.raises(PowerFlowError, match="zero impedance"):
        dense_ybus(case)


def test_ybus_row_sums_on_tn_template(tn_bundle):
    # with unity ratios and no shunts each row sums to j * (incident charging)/2
    case = tn_bundle.case
    Y = dense_ybus(case)
    idx = case.bus_index()
    expected = np.zeros(len(case.buses), dtype=complex)
    for br in case.branches:
        if not br.status:
            continue
        expected[idx[br.from_bus]] += 0.5j * br.b_charging
        expected[idx[br.to_bus]] += 0.5j * br.b_charging
    assert np.allclose(Y.sum(axis=1), expected, atol=1e-14)


def test_currents_are_ybus_times_v(tn_bundle):
    case = tn_bundle.case
    adm = powerflow._Admittance(case)
    rng = np.random.default_rng(5)
    V = rng.uniform(0.9, 1.1, (2, adm.n)) * np.exp(1j * rng.uniform(-0.3, 0.3, (2, adm.n)))
    y = adm.entry_values(np.stack([adm.ratio, adm.ratio]))
    assert np.allclose(adm.currents(y, V), V @ dense_ybus(case).T, rtol=0.0, atol=1e-12)


def test_two_bus_matches_closed_form():
    case = two_bus_case(p_load=0.1, x=0.1)
    sol = solve(case, SolverOptions())
    v2, d2 = two_bus_analytic(p_load=0.1, x=0.1)
    assert sol.converged
    assert sol.v_mag[1] == pytest.approx(v2, abs=1e-10)
    assert sol.v_ang[1] == pytest.approx(d2, abs=1e-10)
    assert sol.v_ang[0] == 0.0  # slack angle is untouched


def test_zero_load_case_is_a_fixed_point():
    case = two_bus_case(p_load=0.0)
    case.generators[0].p = 0.0
    sol = solve(case)
    assert sol.converged
    # converges at the initial mismatch evaluation, before any Newton step
    assert sol.iterations == 0
    assert np.allclose(sol.v_mag, 1.0)
    assert np.allclose(sol.p_from, 0.0) and np.allclose(sol.q_from, 0.0)


def test_solver_requires_single_slack_and_connectivity():
    case = two_bus_case()
    case.buses[1].kind = BusKind.SLACK
    with pytest.raises(PowerFlowError, match="exactly one slack"):
        solve(case)

    case = two_bus_case()
    case.buses.append(Bus(id=3, base_kv=130.0))
    with pytest.raises(PowerFlowError, match="not connected"):
        solve(case)


def test_the_slack_source_is_the_first_generator_at_the_slack():
    case = two_bus_case()
    first = case.generators[0]
    case.generators = [Generator(bus_id=2, p=0.05), first,
                       Generator(bus_id=1, v_set=1.05, p_min=0.0, p_max=5.0)]
    st = powerflow._structure(case)
    assert (st.slack, st.slack_gen) == (0, 1)
    assert solve(case).v_mag[0] == first.v_set


def test_a_slack_without_a_generator_is_rejected():
    case = two_bus_case()
    case.generators = []
    with pytest.raises(PowerFlowError, match="^slack bus 1 has no generator$"):
        solve(case)


def test_the_meter_records_one_path_per_newton_step_of_each_row(dn_bundle):
    case = dn_bundle.case
    stack = CaseStack.of(case).take(np.zeros(4, dtype=int))
    _scale_loads(stack, np.array([[0.0], [0.2], [1.0], [2.0]]))
    st = powerflow._structure(case)
    sol, paths = _metered(powerflow._solve, st, stack, np.arange(4), SolverOptions())
    assert len(set(sol.iterations.tolist())) > 1
    assert paths == ["dense"] * sol.iterations.sum()


def test_no_meter_no_record():
    meter = powerflow.Meter()
    solve(two_bus_case())
    with meter.active():
        pass
    solve(two_bus_case())
    assert meter.linear_solves == [] and meter.iterations == 0


def test_singular_jacobian_is_reported(monkeypatch):
    # two antiparallel reactances cancel: bus 2 is electrically floating
    two_bus = two_bus_case()
    two_bus.branches.append(Branch(from_bus=1, to_bus=2, r=0.0, x=-0.1))
    # an antiparallel twin cancels the feeder branch: bus 3 is electrically
    # floating.  Bus 4 keeps unknowns on the border, so at a bound of 4 rows
    # buses 2 and 3 are a replica block, whose failure SuperLU retries
    radial = radial_oltc_case()
    radial.buses.append(Bus(id=4, kind=BusKind.PQ, base_kv=33.0))
    radial.branches.append(Branch(from_bus=1, to_bus=4, r=0.01, x=0.1))
    radial.branches.append(Branch(from_bus=2, to_bus=3, r=-0.15, x=-0.08))
    for case, dense_max, path in ((two_bus, powerflow.DENSE_MAX_ROWS, "dense"),
                                  (two_bus, 0, "superlu"),
                                  (radial, powerflow.DENSE_MAX_ROWS, "dense"),
                                  (radial, 4, "superlu"),
                                  (radial, 0, "superlu")):
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        if dense_max == 4:
            st = powerflow._structure(case)
            st.place = powerflow._placement(st.adm, st.pvpq, st.pq, st.pvpq, st.pq)
            assert powerflow._partition(st).size.tolist() == [4]
        with powerflow.Meter().active() as meter, pytest.raises(SingularJacobianError):
            solve(case)
        assert meter.linear_solves == [path]


def test_a_slack_only_case_solves_without_a_step():
    # one bus, no branch and no shunt: its Ybus row holds only its zero diagonal
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, p_load=0.2, q_load=0.1, base_kv=33.0))
    case.generators.append(Generator(bus_id=1, v_set=1.02, p_min=-5, p_max=5, q_min=-5, q_max=5))
    sol = solve(case)
    assert sol.converged and sol.iterations == 0 and sol.mismatch_bus is None
    assert (sol.v_mag.tolist(), sol.p_inj.tolist(), sol.q_inj.tolist()) == ([1.02], [0.0], [0.0])
    apply_solution(case, sol)
    assert (case.generators.p[0], case.generators.q[0]) == (0.2, 0.1)


def test_nonconvergence_is_flagged_not_silent():
    from tdsynth.synth import _worst_bus

    case = two_bus_case(p_load=50.0)  # far beyond any loadability limit
    sol = solve(case)
    assert not sol.converged
    assert sol.max_mismatch > 0
    assert sol.mismatch_bus == 2
    assert _worst_bus(case, sol) == "TN bus 2"
    case.buses[1].name = "dn:7:0:2"
    assert _worst_bus(case, sol) == "TN bus 7 (replica bus dn:7:0:2)"


def test_reported_mismatch_agrees_with_independent_evaluator(run_pipeline):
    from tdsynth.synth import SynthesisConfig

    result = run_pipeline(SynthesisConfig(penetration_level=0.5))
    case, sol = result.case, result.solution
    recomputed = residual.max_residual(case, sol.v_mag, sol.v_ang)
    assert sol.converged and sol.max_mismatch <= 1e-8
    assert abs(recomputed - sol.max_mismatch) <= 1e-12


def test_power_balance_on_random_cases():
    rng = np.random.default_rng(11)
    for _ in range(8):
        case = random_network(rng, int(rng.integers(3, 11)))
        sol = solve(case)
        if not sol.converged:
            continue
        apply_solution(case, sol)
        gen = sum(g.p for g in case.generators)
        load = sum(b.p_load for b in case.buses)
        shunt = sum(
            b.g_shunt * sol.v_mag[case.bus_index()[b.id]] ** 2 for b in case.buses
        )
        assert gen - load - shunt - losses_from_flows(sol) == pytest.approx(0.0, abs=1e-8)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(6):
        case = random_network(rng, int(rng.integers(3, 11)))
        assert jacobian_fd_relative_gap(case, rng) <= 1e-6


def test_scaling_invariance_of_per_unit_solution(tn_bundle):
    doc, annotations = from_network(tn_bundle.case)
    sol_a = solve(to_network(doc, annotations))

    factor = 7.5
    import copy

    doc_b = copy.deepcopy(doc)
    doc_b.base_mva *= factor
    for row in doc_b.matrices["bus"]:
        row[2] *= factor  # PD
        row[3] *= factor  # QD
        row[4] *= factor  # GS
        row[5] *= factor  # BS
    for row in doc_b.matrices["gen"]:
        for col in (1, 2, 3, 4, 8, 9):  # PG QG QMAX QMIN PMAX PMIN
            row[col] *= factor
    for row in doc_b.matrices["branch"]:
        row[5] *= factor  # RATE_A
    sol_b = solve(to_network(doc_b, annotations))

    assert np.allclose(sol_a.v_mag, sol_b.v_mag, atol=1e-12)
    assert np.allclose(sol_a.v_ang, sol_b.v_ang, atol=1e-12)


def test_pv_bus_holds_setpoint():
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, base_kv=20.0))
    case.buses.append(Bus(id=2, kind=BusKind.PV, base_kv=20.0))
    case.buses.append(Bus(id=3, kind=BusKind.PQ, p_load=0.6, q_load=0.35, base_kv=20.0))
    case.generators.append(Generator(bus_id=1, v_set=1.0, p_min=-5, p_max=5, q_min=-5, q_max=5))
    case.generators.append(
        Generator(bus_id=2, p=0.3, v_set=1.04, p_min=0, p_max=2, q_min=-0.05, q_max=0.05)
    )
    case.branches.append(Branch(from_bus=1, to_bus=2, r=0.01, x=0.08))
    case.branches.append(Branch(from_bus=2, to_bus=3, r=0.02, x=0.12))

    sol = solve(case, SolverOptions())
    assert sol.converged
    assert sol.v_mag[1] == pytest.approx(1.04, abs=1e-9)
    assert sol.q_inj[1] > 0.05  # past the unit's q_max: bus types stay fixed


def _assert_kernels_agree(case, monkeypatch):
    """Solve with the dense kernel, then with the sparse one forced, and
    compare both with each other and with the independent evaluator."""
    dense = solve(case)
    with monkeypatch.context() as m:
        m.setattr(powerflow, "DENSE_MAX_ROWS", 0)
        sparse = solve(case)
    assert dense.converged == sparse.converged
    assert dense.iterations == sparse.iterations
    v_dense = dense.v_mag * np.exp(1j * dense.v_ang)
    v_sparse = sparse.v_mag * np.exp(1j * sparse.v_ang)
    assert np.max(np.abs(v_dense - v_sparse)) <= 1e-12
    for flow in ("p_from", "q_from", "p_to", "q_to"):
        assert np.max(np.abs(getattr(dense, flow) - getattr(sparse, flow)), initial=0.0) <= 1e-10
    for sol in (dense, sparse):
        if sol.converged:
            recomputed = residual.max_residual(case, sol.v_mag, sol.v_ang)
            assert abs(recomputed - sol.max_mismatch) <= 1e-12
    return dense


def _metered(fn, *args):
    """``fn(*args)`` under an active meter: its result, and the
    linear-solve path of every Newton step it took."""
    meter = powerflow.Meter()
    with meter.active():
        return fn(*args), meter.linear_solves


def _flat(case):
    case = case.clone()
    for b in case.buses:
        b.v_mag, b.v_ang = 1.0, 0.0
    return case


def test_dense_and_sparse_kernels_agree_on_shipped_cases(tn_bundle, dn_bundle, run_pipeline, monkeypatch):
    from tdsynth.synth import SynthesisConfig

    combined = run_pipeline(SynthesisConfig(penetration_level=0.5)).case
    for case in (tn_bundle.case, dn_bundle.case, combined):
        if 2 * len(case.buses) > powerflow.DENSE_MAX_ROWS:
            continue  # a full-size template (TDSYNTH_TEMPLATES) runs sparse only
        sol = _assert_kernels_agree(_flat(case), monkeypatch)
        assert sol.converged and sol.iterations > 0


def test_dense_and_sparse_kernels_agree_on_random_cases(monkeypatch):
    rng = np.random.default_rng(29)
    kinds, taps, out_flows = set(), set(), []
    for _ in range(12):
        case = random_network(rng, int(rng.integers(3, 11)))
        # an out-of-service parallel branch; zero impedance is allowed there
        case.branches.append(Branch(from_bus=1, to_bus=2, status=False))
        kinds |= {b.kind for b in case.buses}
        taps |= {(br.ratio != 1.0, br.phase_shift != 0.0) for br in case.branches}
        sol = _assert_kernels_agree(case, monkeypatch)
        out_flows += [sol.p_from[-1], sol.q_from[-1], sol.p_to[-1], sol.q_to[-1]]
    assert BusKind.PV in kinds and {(True, False), (False, True)} <= taps
    assert not any(out_flows)


@pytest.fixture(scope="module")
def combined_cases(tmp_path_factory):
    """The 10x and 50x combined cases (239 and 1,141 buses), in the state
    the combined solve starts from."""
    from tdsynth.synth import SynthesisConfig, assemble, generate
    from tdsynth.templates import load_bundle

    from helpers import scaled_templates

    cases = {}
    for k in (10, 50):
        templates = scaled_templates(tmp_path_factory.mktemp(f"templates-{k}x"), k)
        result = generate(templates / "mini-tn", templates / "mini-dn",
                          SynthesisConfig(constant_load=True))
        tn = load_bundle(templates / "mini-tn").case
        apply_solution(tn, result.tn_solution)
        cases[k] = assemble(tn, result.instances)
    assert {k: len(c.buses) for k, c in cases.items()} == {10: 239, 50: 1141}
    return cases


@pytest.mark.parametrize("k", [10, 50])
def test_replica_blocks_agree_with_superlu(combined_cases, monkeypatch, k):
    for case in (combined_cases[k], _flat(combined_cases[k])):
        sol, paths = _metered(_assert_kernels_agree, case, monkeypatch)
        assert sol.converged and sol.iterations > 0
        # the replica blocks, then SuperLU forced
        assert paths == ["blocks"] * sol.iterations + ["superlu"] * sol.iterations


def test_replica_block_batch_items_equal_one_item_runs(combined_cases):
    case = combined_cases[10]
    stack = CaseStack.of(case).take(np.zeros(3, dtype=int))
    _scale_loads(stack, np.array([[1.0], [0.8], [1.1]]))
    st = powerflow._structure(case)
    batch, paths = _metered(powerflow._solve, st, stack, np.arange(3), SolverOptions())
    assert paths == ["blocks"] * batch.iterations.sum()
    for k, one in enumerate(stack.cases()):
        alone, paths = _metered(solve, one)
        assert paths == ["blocks"] * alone.iterations
        assert_same_solution(batch.solution(k, st), alone)


def test_blocks_larger_than_the_dense_bound_fall_back_to_superlu(combined_cases, monkeypatch):
    case = combined_cases[10]
    blocks = solve(case)
    solutions = []
    for dense_max in (21, 0):   # below the 22-row replica block, then no dense at all
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        solutions.append(_metered(solve, case))
    for sol, paths in solutions:
        assert paths == ["superlu"] * sol.iterations
        assert sol.iterations == blocks.iterations
        assert np.array_equal(sol.v_mag, solutions[1][0].v_mag)
        assert np.array_equal(sol.v_ang, solutions[1][0].v_ang)
        assert np.max(np.abs(sol.v_mag - blocks.v_mag)) <= 1e-12


def test_floating_replica_bus_is_singular_on_both_paths(combined_cases, monkeypatch):
    case = combined_cases[10].clone()
    br = case.branches
    ends = np.concatenate([br.from_bus, br.to_bus])
    ids, degree = np.unique(ends, return_counts=True)
    leaves = set(ids[degree == 1].tolist())
    k = next(i for i, t in enumerate(br.to_bus.tolist())
             if t in leaves and case.bus(t).name.startswith("dn:"))
    # an antiparallel twin cancels the leaf's only branch exactly
    case.branches.append(Branch(from_bus=br.from_bus.item(k), to_bus=br.to_bus.item(k),
                                r=-br.r.item(k), x=-br.x.item(k),
                                b_charging=-br.b_charging.item(k)))
    for dense_max in (powerflow.DENSE_MAX_ROWS, 0):   # replica blocks, then SuperLU
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        with pytest.raises(SingularJacobianError):
            solve(case)


def test_a_singular_border_is_singular_on_both_paths(combined_cases, monkeypatch):
    # a dead transmission bus (|V| = 0 at the start) has zero Jacobian rows
    # and columns: every replica block is regular, and the border's Schur
    # complement S is singular
    case = combined_cases[10].clone()
    st = powerflow._structure(case)
    st.place = powerflow._placement(st.adm, st.pvpq, st.pq, st.pvpq, st.pq)
    border = powerflow._partition(st).border
    npvpq = len(st.pvpq)
    case.buses.v_mag[st.pq[border[border >= npvpq][0] - npvpq]] = 0.0
    real, seen = powerflow._solve_linear, []

    def recorded(A, b):   # each solve: whether A is dense, and whether it is singular
        x = real(A, b)
        seen.append((isinstance(A, np.ndarray), x is None))
        return x

    monkeypatch.setattr(powerflow, "_solve_linear", recorded)
    # the replica blocks reach S, placed dense, then SuperLU retries the
    # whole matrix; then SuperLU alone
    for dense_max, solves in ((powerflow.DENSE_MAX_ROWS, [(True, True), (False, True)]),
                              (0, [(False, True)])):
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        seen.clear()
        with powerflow.Meter().active() as meter, pytest.raises(SingularJacobianError):
            solve(case)
        assert meter.linear_solves == ["superlu"]
        assert seen == solves


def test_a_step_that_overflows_is_no_singular_jacobian_on_any_path(combined_cases, monkeypatch):
    # a finite Jacobian whose step is not finite: no step and not singular,
    # and the replica blocks do not hand it to SuperLU
    case = combined_cases[10]
    for dense_max, path in ((10**4, "dense"), (200, "blocks"), (0, "superlu")):
        monkeypatch.setattr(powerflow, "DENSE_MAX_ROWS", dense_max)
        st = powerflow._structure(case)
        st.place = powerflow._placement(st.adm, st.pvpq, st.pq, st.pvpq, st.pq)
        ratio, Sbus, vm, va = powerflow._inputs(st, CaseStack.of(case), np.arange(1))
        y, V = st.adm.entry_values(ratio), vm * np.exp(1j * va)
        Ibus = st.adm.currents(y, V)
        F = np.full((1, len(st.f_at)), np.finfo(float).max)
        with powerflow._quiet(), powerflow.Meter().active() as meter:
            vals = powerflow._jacobian_values(st.adm, st.place[0], V, Ibus, y,
                                              st.adm.products(y, V))
            dx, ok, singular = powerflow._newton_steps(st, vals, F)
        assert meter.linear_solves == [path]
        assert (ok.tolist(), singular.tolist(), dx.any()) == ([False], [False], False)


def test_replica_blocks_ignore_bus_order_and_ids(combined_cases):
    case = combined_cases[10]
    rng = np.random.default_rng(3)
    moved = case.clone()
    moved.buses = [case.buses[i] for i in rng.permutation(len(case.buses)).tolist()]
    old = case.buses.id
    new = 10_000 + rng.permutation(len(old))
    rename = dict(zip(old.tolist(), new.tolist()))

    def renamed(ids):
        return np.array([rename[i] for i in ids.tolist()], dtype=ids.dtype)

    moved.buses.id = renamed(moved.buses.id)
    moved.buses.name = [f"bus {i}" for i in moved.buses.id.tolist()]
    moved.branches.from_bus = renamed(moved.branches.from_bus)
    moved.branches.to_bus = renamed(moved.branches.to_bus)
    moved.generators.bus_id = renamed(moved.generators.bus_id)
    moved.oltcs.controlled_bus = renamed(moved.oltcs.controlled_bus)

    sol, (other, paths) = solve(case), _metered(solve, moved)
    assert paths == ["blocks"] * other.iterations
    at = moved.bus_index()
    pos = [at[rename[i]] for i in old.tolist()]
    V = sol.v_mag * np.exp(1j * sol.v_ang)
    assert np.max(np.abs(other.v_mag[pos] * np.exp(1j * other.v_ang[pos]) - V)) <= 1e-12


def test_replica_blocks_of_two_sizes_and_narrow_couplings(combined_cases, monkeypatch):
    """Blocks of 22 and 24 rows, replicas hanging off a PV host (one
    coupling column and row) and off the slack (none): the padded slots."""
    case = _flat(combined_cases[10])
    refs = case.oltcs.branch_ref
    leaf = next(b for b in case.buses if b.name.startswith("dn:"))
    extra = int(case.buses.id.max()) + 1
    case.buses.append(Bus(id=extra, p_load=0.001, q_load=0.0005, base_kv=leaf.base_kv))
    case.branches.append(Branch(from_bus=leaf.id, to_bus=extra, r=0.01, x=0.01))
    host = case.bus(case.branches.from_bus.item(refs[0]))
    host.kind = BusKind.PV
    case.generators.append(Generator(bus_id=host.id, v_set=1.0, p_min=-5, p_max=5,
                                     q_min=-5, q_max=5))
    case.branches.from_bus[refs[-1]] = case.buses.id[powerflow._structure(case).slack]

    st = powerflow._structure(case)
    st.place = powerflow._placement(st.adm, st.pvpq, st.pq, st.pvpq, st.pq)
    blocks = powerflow._partition(st)
    assert sorted(set(blocks.size.tolist())) == [22, 24]
    assert (blocks.cols_of == len(blocks.border)).any() and (blocks.rows_of == len(blocks.border)).any()
    sol, paths = _metered(_assert_kernels_agree, case, monkeypatch)
    assert sol.converged and paths == ["blocks"] * sol.iterations + ["superlu"] * sol.iterations


def test_a_singular_row_leaves_the_other_rows_of_its_dense_batch_their_steps(dn_bundle):
    # one stacked LAPACK solve fails for the whole batch; each row is then
    # solved alone, and the regular one keeps its step
    case = dn_bundle.case
    st = powerflow._structure(case)
    assert st.dense
    stack = CaseStack.of(case).take(np.zeros(2, dtype=int))
    stack.buses.v_mag[1, st.pq[0]] = 0.0   # a dead PQ bus: its angle column is zero
    batch = powerflow._solve(st, stack, np.arange(2), SolverOptions())
    assert_same_solution(batch.solution(0, st), solve(case))
    assert isinstance(batch.solution(1, st), SingularJacobianError)


def test_an_uncontrollable_unit_at_the_slack_keeps_its_output(dn_bundle):
    # the controllable units there carry the solved injection plus the bus
    # load, less the uncontrollable unit's output
    case = dn_bundle.case.clone()
    buses, gens = case.buses, case.generators
    slack = int(np.flatnonzero(buses.kind == BUS_CODES[BusKind.SLACK])[0])
    pv = int(np.flatnonzero(gens.kind == GEN_CODES[GenKind.DN_PV])[0])
    gens.bus_id[pv], gens.p[pv] = buses.id[slack], 0.05
    sol = solve(case)
    apply_solution(case, sol)
    assert (gens.p[pv], gens.q[pv]) == (0.05, 0.0)
    at = np.flatnonzero((gens.bus_id == buses.id[slack]) & gens.controllable)
    assert len(at) > 0
    assert gens.p[at].sum() == sol.p_inj[slack] + buses.p_load[slack] - 0.05
    assert gens.q[at].sum() == sol.q_inj[slack] + buses.q_load[slack] - 0.0


def _bordered(A, B, C, host, D):
    """A bordered block-diagonal matrix as :class:`powerflow._Blocks` takes
    it: the placement (rows, cols), the values, each unknown's block and
    the block sizes.  The border's unknowns come first, with D among them;
    then block k's, with A[k] among them, coupled to border unknown
    host[k] by the column B[k] and the row C[k]."""
    (K, b), nb = A.shape[:2], len(D)
    u = nb + b * np.arange(K)[:, None] + np.arange(b)   # (K, b): each block's unknowns
    hb = np.repeat(host, b)
    rows = np.concatenate([np.repeat(np.arange(nb), nb), np.repeat(u, b), u.ravel(), hb])
    cols = np.concatenate([np.tile(np.arange(nb), nb), np.tile(u, b).ravel(), hb, u.ravel()])
    vals = np.concatenate([D.ravel(), A.ravel(), B.ravel(), C.ravel()])
    block = np.concatenate([np.full(nb, -1), np.repeat(np.arange(K), b)])
    return rows, cols, vals, block, np.full(K, b)


def _one_by_one(A, B, C, host, D, Fs):
    """The solutions of the matrix of :func:`_bordered` for each F in turn,
    as :meth:`powerflow._Blocks.factor` would give them with each block
    solved by its own ``np.linalg.solve``: the first F against the block's
    coupling column too, the later ones against F alone, and the border's
    sums in block order; None once a block or the border is singular."""
    (K, b), nb = A.shape[:2], len(D)
    C = C[:, None, :].copy()   # each row laid out as factor's
    out, inv_B, S = [], [], None
    for F in Fs:
        Fk = F[nb:].reshape(K, b)
        try:
            X = [np.linalg.solve(A[k], np.stack([Fk[k], B[k]], axis=1) if S is None
                                 else Fk[k][:, None]) for k in range(K)]
        except np.linalg.LinAlgError:
            return out + [None]
        CX = [C[k] @ X[k] for k in range(K)]
        sums = np.zeros(nb)
        for k in range(K):
            sums[host[k]] += CX[k][0, 0]
        if S is None:
            inv_B, S = [x[:, 1:] for x in X], D.copy()
            for k in range(K):
                S[host[k], host[k]] += -CX[k][0, 1]
        try:
            xb = np.linalg.solve(S, F[:nb] - sums)
        except np.linalg.LinAlgError:
            return out + [None]
        out.append(np.concatenate([xb] + [X[k][:, 0] - (inv_B[k] @ xb[host[k]][None, None])[:, 0]
                                          for k in range(K)]))
    return out


def _block_solves(A, B, C, host, D, Fs):
    """What :meth:`powerflow._Blocks.factor` gives the matrix of
    :func:`_bordered` for each F in turn, up to the first None, and per F
    the replica blocks it placed and solved."""
    rows, cols, vals, block, size = _bordered(A, B, C, host, D)
    solve, out, counts = powerflow._Blocks(rows, cols, block, size).factor(vals), [], []
    for F in Fs:
        with powerflow.Meter().active() as meter:
            x = solve(F)
        counts.append((meter.blocks_placed, meter.blocks_solved))
        out.append(x)
        if x is None:
            break
    return out, counts


def _equal_bits(xs, ys):
    """Whether two lists of solutions or Nones hold the same bits."""
    def bits(solutions):
        return [None if x is None else x.tobytes() for x in solutions]

    return bits(xs) == bits(ys)


def _five_blocks(rng, b=4):
    """Five equal, diagonally dominant blocks with their coupling, the
    first three hanging off border unknown 0 and the last two off 1, and
    a 2 x 2 border."""
    A = np.repeat(rng.uniform(-1, 1, (1, b, b)) + 4 * np.eye(b), 5, axis=0)
    B, C = np.repeat(rng.uniform(-1, 1, (2, 1, b)), 5, axis=1)
    return A, B, C, np.array([0, 0, 0, 1, 1]), rng.uniform(-1, 1, (2, 2)) + 5 * np.eye(2)


def test_equal_blocks_with_different_right_hand_sides_are_solved_once_per_run():
    rng = np.random.default_rng(8)
    A, B, C, host, D = _five_blocks(rng)
    f, g = rng.uniform(-1, 1, (2, 4))
    # runs 0-1, 2 and 3-4 (2 and 3 hang off other border unknowns), then
    # runs 0-2 and 3-4, then no run
    Fs = [np.concatenate([[0.3, -0.2], f, f, g, g, g]),
          np.concatenate([[0.1, 0.4], f, f, f, f, f]),
          rng.uniform(-1, 1, 22)]
    out, counts = _block_solves(A, B, C, host, D, Fs)
    assert counts == [(5, 3), (5, 2), (5, 5)]
    assert _equal_bits(out, _one_by_one(A, B, C, host, D, Fs))
    rows, cols, vals = _bordered(A, B, C, host, D)[:3]
    dense = np.zeros((22, 22))
    np.add.at(dense, (rows, cols), vals)
    for F, x in zip(Fs, out):
        assert np.max(np.abs(dense @ x - F)) <= 1e-13


def test_equal_singular_blocks_make_the_factorization_singular():
    rng = np.random.default_rng(9)
    A, B, C, host, D = _five_blocks(rng)
    A[:2, 1] = 0.0   # the first two blocks, equal, each with a zero row
    Fs = [rng.uniform(-1, 1, 22)]
    Fs[0][6:10] = Fs[0][2:6]
    out, counts = _block_solves(A, B, C, host, D, Fs)
    assert out == [None] and counts == [(5, 4)]
    assert _equal_bits(out, _one_by_one(A, B, C, host, D, Fs))


@pytest.mark.parametrize("part", [0, 1, 2])
def test_blocks_none_of_them_equal_are_each_solved(part):
    # the blocks differ in their matrix, their coupling column or their
    # coupling row alone, and not in their first entry or column
    rng = np.random.default_rng(10)
    parts = A, B, C, host, D = _five_blocks(rng)
    parts[part][..., 1:] += rng.uniform(-0.1, 0.1, parts[part][..., 1:].shape)
    Fs = [np.tile(rng.uniform(-1, 1, 2), 11) for _ in range(3)]   # each block's F equal
    out, counts = _block_solves(A, B, C, host, D, Fs)
    assert counts == [(5, 5)] * 3
    assert _equal_bits(out, _one_by_one(A, B, C, host, D, Fs))


def test_blocks_equal_but_for_the_sign_of_a_zero_are_each_solved():
    rng = np.random.default_rng(11)
    A, B, C, host, D = _five_blocks(rng)
    F = np.concatenate([[0.3, -0.2], np.tile(rng.uniform(-1, 1, 4), 5)])
    F[2::4] = 0.0
    F[6] = -0.0   # the second block's first entry
    out, counts = _block_solves(A, B, C, host, D, [F])
    # runs 0, 1, 2 and 3-4: 0.0 == -0.0, but their bits differ
    assert counts == [(5, 4)]
    assert _equal_bits(out, _one_by_one(A, B, C, host, D, [F]))
