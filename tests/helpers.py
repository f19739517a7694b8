"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import re
import shutil
import signal
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from tdsynth.netmodel import (
    Branch,
    Bus,
    BusKind,
    CaseStack,
    Generator,
    NetworkCase,
    OltcTransformer,
)
from tdsynth.caseio import CaseDocument, emit_case, load_case_dir, parse_case, save_case_dir
from tdsynth.powerflow import PowerFlowSolution, SolverOptions, _Admittance, _solve, _structure
from tdsynth.templates import bundled_template_dir


class _Hang(BaseException):
    """The alarm of :func:`time_limit`.  Not an ``Exception``, so no
    pipeline stage wraps it into its own error."""


@contextmanager
def time_limit(seconds: float):
    """Fail the block with an AssertionError once it has run ``seconds``,
    so that a hang fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Hang:
        raise AssertionError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def two_bus_case(p_load=0.1, q_load=0.0, r=0.0, x=0.1) -> NetworkCase:
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, v_mag=1.0, base_kv=130.0))
    case.buses.append(Bus(id=2, kind=BusKind.PQ, p_load=p_load, q_load=q_load, base_kv=130.0))
    case.generators.append(
        Generator(bus_id=1, p=p_load, v_set=1.0, p_min=0.0, p_max=5.0, q_min=-5.0, q_max=5.0)
    )
    case.branches.append(Branch(from_bus=1, to_bus=2, r=r, x=x))
    return case


def two_bus_analytic(p_load=0.1, x=0.1):
    """Closed-form solution of the lossless 2-bus case: the load-bus voltage
    solves u^2 - u + (p x)^2 = 0 with u = V2^2 (high-voltage root)."""
    px = p_load * x
    u = (1.0 + math.sqrt(1.0 - 4.0 * px * px)) / 2.0
    v2 = math.sqrt(u)
    d2 = -math.asin(px / v2)
    return v2, d2


def set_source_voltage(case: NetworkCase, v: float) -> None:
    """Hold the case's slack bus, and the setpoint of its source, at ``v``."""
    st = _structure(case)
    case.buses.v_mag[st.slack] = v
    case.generators.v_set[st.slack_gen] = v


def assert_same_solution(a: PowerFlowSolution, b: PowerFlowSolution) -> None:
    """Every field of two solutions alike, arrays bit for bit."""
    for f in fields(PowerFlowSolution):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def radial_oltc_case(source_v=1.0, load_p=0.3, load_q=0.1) -> NetworkCase:
    """Source bus, tap-changing transformer, substation, one feeder bus."""
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, v_mag=source_v, base_kv=33.0))
    case.buses.append(Bus(id=2, kind=BusKind.PQ, base_kv=11.0))
    case.buses.append(Bus(id=3, kind=BusKind.PQ, p_load=load_p, q_load=load_q, base_kv=11.0))
    case.generators.append(
        Generator(bus_id=1, v_set=source_v, p_min=-5, p_max=5, q_min=-5, q_max=5)
    )
    case.branches.append(Branch(from_bus=1, to_bus=2, r=0.005, x=0.1))
    case.branches.append(Branch(from_bus=2, to_bus=3, r=0.15, x=0.08))
    case.oltcs.append(
        OltcTransformer(branch_ref=0, controlled_bus=2, v_set=1.03, deadband=0.02)
    )
    case.sync_ratios()
    return case


def random_network(rng: np.random.Generator, n_buses: int) -> NetworkCase:
    """Connected random case: spanning tree plus a few extra edges, modest
    loads, a slack at bus 1 and a sprinkling of PV buses."""
    case = NetworkCase(base_mva=100.0)
    for i in range(1, n_buses + 1):
        case.buses.append(
            Bus(
                id=i,
                kind=BusKind.SLACK if i == 1 else BusKind.PQ,
                p_load=float(rng.uniform(0.0, 0.25)) if i > 1 else 0.0,
                q_load=float(rng.uniform(-0.05, 0.1)) if i > 1 else 0.0,
                g_shunt=float(rng.uniform(0, 0.02)) if rng.random() < 0.2 else 0.0,
                b_shunt=float(rng.uniform(-0.05, 0.1)) if rng.random() < 0.2 else 0.0,
                base_kv=20.0,
            )
        )
    case.generators.append(
        Generator(bus_id=1, v_set=float(rng.uniform(1.0, 1.04)),
                  p_min=-10, p_max=10, q_min=-10, q_max=10)
    )
    for i in range(2, n_buses + 1):
        j = int(rng.integers(1, i))
        case.branches.append(
            Branch(
                from_bus=j,
                to_bus=i,
                r=float(rng.uniform(0.005, 0.08)),
                x=float(rng.uniform(0.02, 0.25)),
                b_charging=float(rng.uniform(0.0, 0.08)),
                ratio=float(rng.choice([1.0, 1.0, 0.98, 1.02])),
                phase_shift=float(rng.choice([0.0, 0.0, 0.02, -0.015])),
            )
        )
    for _ in range(int(rng.integers(0, max(1, n_buses // 3)))):
        a, b = rng.integers(1, n_buses + 1, size=2)
        if a != b:
            case.branches.append(
                Branch(from_bus=int(a), to_bus=int(b),
                       r=float(rng.uniform(0.005, 0.05)),
                       x=float(rng.uniform(0.05, 0.2)))
            )
    # a couple of PV buses with their own generators
    for i in rng.choice(np.arange(2, n_buses + 1), size=min(2, n_buses - 1), replace=False):
        b = case.bus(int(i))
        if rng.random() < 0.7:
            b.kind = BusKind.PV
            case.generators.append(
                Generator(bus_id=b.id, p=float(rng.uniform(0, 0.3)),
                          v_set=float(rng.uniform(0.99, 1.03)),
                          p_min=0, p_max=2, q_min=-2, q_max=2)
            )
    return case


_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABC 0123456789_-"


def random_document(rng: np.random.Generator) -> CaseDocument:
    """Structurally valid random case document for round-trip checks."""

    def cell():
        kind = rng.random()
        if kind < 0.3:
            return float(rng.integers(-1000, 1000))
        if kind < 0.6:
            return float(np.round(rng.uniform(-100, 100), 4))
        return float(rng.normal() * 10.0 ** int(rng.integers(-6, 7)))

    def rows(n, width):
        return [[cell() for _ in range(width)] for _ in range(n)]

    nb = int(rng.integers(1, 7))
    doc = CaseDocument(
        version="2",
        base_mva=float(rng.choice([100.0, 50.0, float(np.round(rng.uniform(1, 500), 3))])),
        matrices={
            "bus": rows(nb, int(rng.integers(13, 16))),
            "gen": rows(int(rng.integers(0, 5)), 21),
            "branch": rows(int(rng.integers(0, 9)), 13),
        },
    )
    if rng.random() < 0.5:
        doc.matrices["gencost"] = rows(len(doc.matrices["gen"]), 7)
    if rng.random() < 0.4:
        name = "".join(rng.choice(list("abcdefgh_")) for _ in range(int(rng.integers(3, 9))))
        if name not in doc.matrices:
            doc.matrices[name] = rows(int(rng.integers(1, 4)), int(rng.integers(1, 6)))
    if rng.random() < 0.5:
        doc.bus_name = [
            "".join(rng.choice(list(_NAME_ALPHABET)) for _ in range(int(rng.integers(1, 12)))).strip()
            or f"b{i}"
            for i in range(nb)
        ]
    return doc


def raw_bus_load_sums(case_m_text: str) -> tuple[float, float]:
    """Spreadsheet-style oracle: pull PD/QD straight out of the bus-table
    text without going through the parser, and sum them in MW/Mvar."""
    block = re.search(r"mpc\.bus = \[\n(.*?)\];", case_m_text, re.S).group(1)
    p = q = 0.0
    for line in block.strip().splitlines():
        cells = line.strip().rstrip(";").split("\t")
        p += float(cells[2])
        q += float(cells[3])
    return p, q


def column_bytes(case) -> dict:
    """Every column of every table of a case by (table, field): an array's
    bytes, a list of names as it is."""
    return {(name, f): c.tobytes() if isinstance(c, np.ndarray) else list(c)
            for name in ("buses", "generators", "branches", "oltcs")
            for f, c in vars(getattr(case, name)).items()}


def losses_from_flows(sol) -> float:
    """Total active losses summed branch by branch."""
    return float(np.sum(sol.p_from + sol.p_to))


def dense_ybus(case: NetworkCase) -> np.ndarray:
    """The case's Ybus as an n x n array: the kernel's entry values
    (:class:`powerflow._Admittance`) at their positions, zero elsewhere."""
    adm = _Admittance(case)
    Y = np.zeros((adm.n, adm.n), dtype=complex)
    Y[adm.r, adm.c] = adm.entry_values(adm.ratio[None])[0]
    return Y


def jacobian_fd_relative_gap(case, rng: np.random.Generator) -> float:
    """Worst relative disagreement between the analytic Newton Jacobian and a
    central finite difference of the mismatch function, at a random state.
    The one dS/dV is checked as both kernels place it: into a dense array
    and, as the sparse Newton step does, into a sparse matrix."""
    from tdsynth.powerflow import (
        _inputs,
        _jacobian_values,
        _jacobians,
        _mismatch,
        _place,
        _placement,
    )

    st = _structure(case)
    adm, pvpq, pq = st.adm, st.pvpq, st.pq
    ratio, Sbus, _, _ = _inputs(st, CaseStack.of(case), np.arange(1))
    y = adm.entry_values(ratio)
    vm = rng.uniform(0.95, 1.05, size=len(case.buses))
    va = rng.uniform(-0.2, 0.2, size=len(case.buses))

    def F(x):
        vm_l, va_l = vm.copy(), va.copy()
        va_l[pvpq] = x[: len(pvpq)]
        vm_l[pq] = x[len(pvpq):]
        V = (vm_l * np.exp(1j * va_l))[None]
        return _mismatch(V, adm.currents(y, V), Sbus, st.f_at)[0]

    x0 = np.concatenate([va[pvpq], vm[pq]])
    V0 = (vm * np.exp(1j * va))[None]
    h = 6e-6
    J_fd = np.empty((len(x0), len(x0)))
    for j in range(len(x0)):
        e = np.zeros_like(x0)
        e[j] = h
        J_fd[:, j] = (F(x0 + e) - F(x0 - e)) / (2 * h)
    m = len(x0)
    place = _placement(adm, pvpq, pq, pvpq, pq)
    take, rows, cols = place
    vals = _jacobian_values(adm, take, V0, adm.currents(y, V0), y, adm.products(y, V0))
    (dense,) = _jacobians(adm, rows, cols, vals, m)
    sparse = _place(vals[0], rows, cols, (m, m), False)
    assert isinstance(dense, np.ndarray) and not isinstance(sparse, np.ndarray)
    gaps = []
    for J in (dense, sparse.toarray()):
        gaps.append(np.abs(J - J_fd).max() / max(1.0, np.abs(J).max()))
    return float(max(gaps))


def full_kkt(model, hess, jac, w) -> np.ndarray:
    """The unreduced OPF Newton matrix [[H + diag(w), dg^T], [dg, 0]] over
    x = (Va, Vm, Pg, Qg) and the balance multipliers, dense, placed entry by
    entry from the model's index arrays: the voltage Hessian values
    ``hess``, the cost curvature on the (Pg, Qg) diagonal, the voltage
    Jacobian values ``jac`` and -Cg in the P and Q rows of each unit."""
    nv, nx, n, nd = model.nv, model.nx, model.n, model.nd
    K = np.zeros((nx + 2 * n, nx + 2 * n))
    np.add.at(K, (model.hess_rows, model.hess_cols), hess)
    K[nv:nx, nv:nx] += np.diag(model.cost_hess)
    K[:nx, :nx] += np.diag(w)
    np.add.at(K, (nx + model.jac_rows, model.jac_cols), jac)
    np.add.at(K, (model.jac_cols, nx + model.jac_rows), jac)
    Cg = np.zeros((n, nd))
    Cg[model.gen_rows[:nd], np.arange(nd)] = 1.0
    E = np.block([[Cg, np.zeros((n, nd))], [np.zeros((n, nd)), Cg]])
    K[nx:, nv:nx] = -E
    K[nv:nx, nx:] = -E.T
    return K


def opf_derivative_fd_gaps(problem, rng: np.random.Generator, taps=()) -> tuple[float, float]:
    """Worst relative disagreement of the OPF's analytic constraint Jacobian
    and Lagrangian Hessian with central finite differences (of the balances,
    and of the analytic Lagrangian gradient), at a random state and random
    multipliers, on the model whose tap changers ``taps`` have ratio
    columns.  The derivative values are checked as :func:`full_kkt`
    places them, over every x column, and the model's reduced KKT matrix,
    dense and sparse, must hold the same voltage blocks: the Hessian in the
    upper-left block (no barrier term), the Jacobian below it and its
    transpose to the right."""
    from tdsynth.opf import _OpfModel

    model = _OpfModel(problem, taps)
    nx, nv = model.nx, model.nv

    x0 = np.concatenate([
        rng.uniform(-0.2, 0.2, size=model.na),
        rng.uniform(0.95, 1.05, size=model.n),
        rng.uniform(0.9, 1.1, size=model.nt),
        rng.uniform(-0.5, 1.0, size=2 * model.nd),
    ])
    lam = rng.normal(size=2 * model.n)

    def grad_lagrangian(x):
        return model.cost_grad(x) + model.jacobian_t(model.jacobian(model.point(x)), lam)

    h = 6e-6
    J_fd = np.empty((2 * model.n, nx))
    H_fd = np.empty((nx, nx))
    for j in range(nx):
        e = np.zeros(nx)
        e[j] = h
        J_fd[:, j] = (model.balance(model.point(x0 + e)) - model.balance(model.point(x0 - e))) / (2 * h)
        H_fd[:, j] = (grad_lagrangian(x0 + e) - grad_lagrangian(x0 - e)) / (2 * h)
    pt = model.point(x0)
    hess, jac = model.hessian(pt, lam), model.jacobian(pt)
    full = full_kkt(model, hess, jac, np.zeros(nx))
    jac_gaps, hess_gaps = [], []
    for analytic, fd, gaps in (
        (full[nx:, :nx], J_fd, jac_gaps),
        (full[:nx, nx:].T, J_fd, jac_gaps),
        (full[:nx, :nx], H_fd, hess_gaps),
    ):
        gaps.append(float(np.abs(analytic - fd).max() / max(1.0, np.abs(analytic).max())))
    for dense in (True, False):
        model.dense = dense
        K = model.kkt(model.kkt_values(hess, np.zeros(nv), jac, np.zeros(2 * model.n),
                                         np.ones(nv + 2 * model.n)))
        assert isinstance(K, np.ndarray) == dense
        K = K if dense else K.toarray()
        assert not np.any(K[nv:, nv:])
        # the same values, summed in CSC order when sparse
        for got, want in ((K[:nv, :nv], full[:nv, :nv]), (K[nv:, :nv], full[nx:, :nv]),
                          (K[:nv, nv:], full[:nv, nx:])):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(full).max()
    return max(jac_gaps), max(hess_gaps)


def three_bus_opf_case(load=0.8) -> NetworkCase:
    """Two generators with deliberately different quadratic costs feeding one
    load over a small triangle; used against the grid-search oracle."""
    case = NetworkCase(base_mva=100.0)
    case.buses.append(Bus(id=1, kind=BusKind.SLACK, base_kv=130.0, v_max=1.05, v_min=0.95))
    case.buses.append(Bus(id=2, kind=BusKind.PV, base_kv=130.0, v_max=1.05, v_min=0.95))
    case.buses.append(Bus(id=3, kind=BusKind.PQ, p_load=load, q_load=load / 4,
                          base_kv=130.0, v_max=1.05, v_min=0.95))
    case.generators.append(
        Generator(bus_id=1, p=load / 2, v_set=1.02, p_min=0.0, p_max=2.0,
                  q_min=-2.0, q_max=2.0, cost=(1.0, 0.0, 0.0))
    )
    case.generators.append(
        Generator(bus_id=2, p=load / 2, v_set=1.02, p_min=0.0, p_max=2.0,
                  q_min=-2.0, q_max=2.0, cost=(2.0, 0.0, 0.0))
    )
    case.branches.append(Branch(from_bus=1, to_bus=2, r=0.01, x=0.06))
    case.branches.append(Branch(from_bus=1, to_bus=3, r=0.01, x=0.06))
    case.branches.append(Branch(from_bus=2, to_bus=3, r=0.01, x=0.06))
    return case


def grid_search_dispatch_cost(
    case: NetworkCase,
    p_step: float = 0.001,
    v_grid=(0.99, 1.03, 1.045, 1.05),
    v_limits=(0.95, 1.05),
) -> float:
    """Brute-force oracle for the 3-bus case: enumerate the PV unit's output
    on a fixed grid and both setpoint voltages on a coarse one, solve an
    ordinary power flow for each point, keep the cheapest feasible cost.
    The points of one setpoint pair are the rows of one stack of copies of
    the case, solved as one batch, whose rows are each what a solve of that
    point alone gives."""
    base = case.base_mva
    load = case.buses[2].p_load
    best = math.inf
    opts = SolverOptions(tolerance=1e-10)
    g_a, g_b = case.generators
    st = _structure(case)
    p_grid = np.arange(0.0, load + 5 * p_step, p_step)
    for v_a in v_grid:
        for v_b in v_grid:
            points = CaseStack.of(case).take(np.zeros(len(p_grid), dtype=int))
            points.generators.v_set[:, 0] = v_a
            points.generators.v_set[:, 1] = v_b
            points.generators.p[:, 1] = p_grid
            solved = _solve(st, points, np.arange(len(p_grid)), opts)
            for k, p_b in enumerate(p_grid.tolist()):
                sol = solved.solution(k, st)
                if isinstance(sol, Exception):
                    raise sol
                if not sol.converged:
                    continue
                vm = sol.v_mag
                if vm.min() < v_limits[0] - 1e-9 or vm.max() > v_limits[1] + 1e-9:
                    continue
                p_a = float(sol.p_inj[0])  # slack covers load + losses - p_b
                if not g_a.p_min - 1e-9 <= p_a <= g_a.p_max + 1e-9:
                    continue
                q_a = float(sol.q_inj[0])
                q_b = float(sol.q_inj[1])
                if not (g_a.q_min - 1e-6 <= q_a <= g_a.q_max + 1e-6):
                    continue
                if not (g_b.q_min - 1e-6 <= q_b <= g_b.q_max + 1e-6):
                    continue
                cost = (
                    g_a.cost[0] * (p_a * base) ** 2 + g_a.cost[1] * p_a * base
                    + g_b.cost[0] * (p_b * base) ** 2 + g_b.cost[1] * p_b * base
                    + g_a.cost[2] + g_b.cost[2]
                )
                best = min(best, cost)
    return best


def _unknown_gen_kind_code(bundle) -> None:
    doc = parse_case((bundle / "case.m").read_text())
    doc.matrices["gen_kind"][0][0] = 7.0
    (bundle / "case.m").write_text(emit_case(doc))


def _short_gencost_rows(bundle) -> None:
    doc = parse_case((bundle / "case.m").read_text())
    doc.matrices["gencost"] = [row[:6] for row in doc.matrices["gencost"]]
    (bundle / "case.m").write_text(emit_case(doc))


def _out_of_service_generator(bundle) -> None:
    doc = parse_case((bundle / "case.m").read_text())
    doc.matrices["gen"][1][7] = 0.0  # GEN_STATUS
    (bundle / "case.m").write_text(emit_case(doc))


def _zero_base_mva(bundle) -> None:
    text = (bundle / "case.m").read_text()
    (bundle / "case.m").write_text(re.sub(r"mpc\.baseMVA = [^;]*;", "mpc.baseMVA = 0;", text))


def _short_table(table):
    def edit(bundle) -> None:
        doc = parse_case((bundle / "case.m").read_text())
        doc.matrices[table] = doc.matrices[table][:-2]
        (bundle / "case.m").write_text(emit_case(doc))
    return edit


def _sidecar_rows(bundle) -> list[list[str]]:
    return [line.split(",") for line in (bundle / "case.oltc.csv").read_text().splitlines()]


def _write_sidecar_rows(bundle, rows) -> None:
    (bundle / "case.oltc.csv").write_text("".join(",".join(r) + "\n" for r in rows))


def _sidecar_without_deadband(bundle) -> None:
    rows = _sidecar_rows(bundle)
    col = rows[0].index("deadband")
    _write_sidecar_rows(bundle, [r[:col] + r[col + 1:] for r in rows])


def _sidecar_controls_absent_bus(bundle) -> None:
    rows = _sidecar_rows(bundle)
    rows[1][1] = "999"
    _write_sidecar_rows(bundle, rows)


def _sidecar_non_finite(bundle) -> None:
    rows = _sidecar_rows(bundle)
    rows[1][rows[0].index("v_set")] = "inf"
    rows[1][rows[0].index("deadband")] = "nan"
    _write_sidecar_rows(bundle, rows)


def _sidecar_cell(field: str, cell: str):
    """A bundle edit: the first tap changer's ``field`` set to ``cell``."""
    def edit(bundle) -> None:
        rows = _sidecar_rows(bundle)
        rows[1][rows[0].index(field)] = cell
        _write_sidecar_rows(bundle, rows)
    return edit


# name -> (edit of a saved bundle, what the load error says)
MALFORMED_BUNDLES = {
    "unknown-gen-kind-code": (_unknown_gen_kind_code, "gen_kind row 0"),
    "short-gencost-row": (_short_gencost_rows, "gencost row 0"),
    "zero-base-mva": (_zero_base_mva, "baseMVA must be finite and positive"),
    "out-of-service-generator": (_out_of_service_generator, "gen row 1: out-of-service"),
    "short-gen-kind-table": (_short_table("gen_kind"), "gen_kind has 5 rows for 7 generators"),
    "short-gencost-table": (_short_table("gencost"), "gencost has 5 rows for 7 generators"),
    "sidecar-missing-column": (_sidecar_without_deadband, "header must be"),
    "sidecar-absent-controlled-bus": (_sidecar_controls_absent_bus, "absent bus 999"),
    "sidecar-non-finite-tap-data": (_sidecar_non_finite, "non-finite v_set, deadband"),
    "sidecar-fractional-tap": (_sidecar_cell("tap", "1.0"),
                               r"case\.oltc\.csv row 1: tap '1\.0' is not an integer"),
    "sidecar-text-deadband": (_sidecar_cell("deadband", "abc"),
                              r"case\.oltc\.csv row 1: deadband 'abc' is not a number"),
    # a tap too large for a float, and one too large for the int64 column
    "sidecar-huge-tap": (_sidecar_cell("tap", "9" * 401),
                         r"case\.oltc\.csv row 1: tap '9{401}' is out of range"),
    "sidecar-long-tap": (_sidecar_cell("tap", "9" * 31),
                         r"case\.oltc\.csv row 1: tap '9{31}' is out of range"),
}


def write_malformed_bundle(case: NetworkCase, dest, name: str):
    """Save ``case`` under ``dest``, then break it as MALFORMED_BUNDLES[name] says."""
    save_case_dir(case, dest)
    MALFORMED_BUNDLES[name][0](dest)
    return dest


def rescaled_dn(dn: NetworkCase, k: int) -> NetworkCase:
    """A copy of ``dn`` with every branch r and x multiplied by k and every
    load divided by k: the voltage drop is unchanged, so capacity still
    binds at scale 1.0 while the replica count grows about k-fold."""
    dn = dn.clone()
    for br in dn.branches:
        br.r *= k
        br.x *= k
    for b in dn.buses:
        b.p_load /= k
        b.q_load /= k
    return dn


def scaled_templates(dest, k: int):
    """Write ``dest/mini-tn`` (shipped) and ``dest/mini-dn`` rescaled by
    :func:`rescaled_dn`."""
    src = bundled_template_dir()
    shutil.copytree(src / "mini-tn", dest / "mini-tn")
    save_case_dir(rescaled_dn(load_case_dir(src / "mini-dn"), k), dest / "mini-dn")
    for name in ("meta.csv", "README"):
        shutil.copy(src / "mini-dn" / name, dest / "mini-dn" / name)
    return dest
