"""Quadratic-cost AC optimal power flow with discrete tap positions.

The continuous core (taps frozen) minimizes total generation cost over the
dispatchable units subject to the AC bus power-balance equalities, generator
box bounds and per-bus voltage bounds.  It is a primal-dual interior-point
Newton method in the style of MATPOWER's MIPS (Wang, Murillo-Sanchez,
Zimmerman & Thomas, IEEE TPWRS 2007) with the exact Hessian of the
Lagrangian, so a solve takes a few to tens of Newton steps.  The derivative
values are computed once per step on fixed index arrays; the power flow's
size rule (:func:`powerflow._dense`) decides only where they go: a small
KKT matrix is scattered into a dense array and solved with LAPACK, a large
one is built as a CSC matrix and factorized with SuperLU.  The contract is
the returned KKT residual and ``converged`` flag, not the mechanism.

Discrete taps are handled by the outer relaxation loop: solve with voltage
bounds widened, nudge every tap one step by the deadband rule using the
solved voltages, tighten the bounds one notch, repeat until the bounds are
final and no tap wants to move.  Consecutive rounds differ by one tap step
and one bound notch, so each round starts from the previous round's primal
point and multipliers (a dual warm start after Yildirim & Wright, SIAM J.
Optim. 2002: the bound multipliers and slacks are floored away from zero);
only the first round starts cold.  The model's index arrays are built once
per relaxation; a tap move only rewrites the admittance values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import powerflow
from .netmodel import BusKind, GenKind, NetworkCase
from .oltc import TapStepper


class RelaxationError(RuntimeError):
    def __init__(self, round_index: int, limits: tuple[float, float]):
        super().__init__(
            f"continuous subproblem infeasible in relaxation round {round_index} "
            f"(voltage limits widened by {limits[0]:.3f}/{limits[1]:.3f})"
        )
        self.round_index = round_index
        self.limits = limits


@dataclass
class OpfProblem:
    case: NetworkCase
    v_min: np.ndarray                 # final per-bus lower voltage bounds
    v_max: np.ndarray
    dispatchable: list[int]           # generator indices free to move

    @classmethod
    def from_case(
        cls,
        case: NetworkCase,
        v_limits: tuple[float, float] | None = None,
    ) -> "OpfProblem":
        n = len(case.buses)
        if v_limits is None:
            v_min = np.array([b.v_min for b in case.buses])
            v_max = np.array([b.v_max for b in case.buses])
        else:
            v_min = np.full(n, v_limits[0])
            v_max = np.full(n, v_limits[1])
        dispatchable = [
            i
            for i, g in enumerate(case.generators)
            if g.controllable and g.kind in (GenKind.TN_UNIT, GenKind.DN_CONTROLLABLE)
        ]
        problem = cls(case=case, v_min=v_min, v_max=v_max, dispatchable=dispatchable)
        problem.check()
        return problem

    def check(self) -> None:
        for i in self.dispatchable:
            g = self.case.generators[i]
            for name, v in (
                ("p_min", g.p_min), ("p_max", g.p_max),
                ("q_min", g.q_min), ("q_max", g.q_max),
            ):
                if not math.isfinite(v):
                    raise ValueError(f"generator {i}: {name} must be finite for dispatch")
            if g.cost[0] < 0:
                raise ValueError(f"generator {i}: quadratic cost must be convex (c2 >= 0)")


@dataclass
class OpfSolution:
    p: dict[int, float]               # generator index -> active output, pu
    q: dict[int, float]
    v_mag: np.ndarray
    v_ang: np.ndarray
    taps: list[int]
    objective: float                  # money, from the returned dispatch
    feasible: bool
    kkt_residual: float
    max_violation: float
    iterations: int                   # interior-point Newton steps
    converged: bool                   # every interior-point run met its tolerances
    relaxation_rounds: int = 0
    trace: list[dict] = field(default_factory=list)
    raw_x: np.ndarray | None = None
    raw_duals: tuple[np.ndarray, np.ndarray] | None = None  # (lam, mu) of raw_x


@dataclass
class RelaxationSchedule:
    rounds: int = 5                   # linear tightening steps, >= 1
    v_slack: float = 0.1              # initial widening of both voltage bounds


# largest violation a solution called feasible may have (pu)
FEASIBILITY_TOL = 1e-6
# tap-settling rounds allowed after the last tightening step
EXTRA_ROUNDS = 10


def dispatch_cost(problem: OpfProblem, p_by_gen: dict[int, float]) -> float:
    """Total cost (money) of a dispatch given in per-unit active outputs."""
    base = problem.case.base_mva
    total = 0.0
    for i in problem.dispatchable:
        c2, c1, c0 = problem.case.generators[i].cost
        p_mw = p_by_gen[i] * base
        total += c2 * p_mw * p_mw + c1 * p_mw + c0
    return total


def _pack_structure(problem: OpfProblem):
    case = problem.case
    n = len(case.buses)
    idx = case.bus_index()
    slack = [i for i, b in enumerate(case.buses) if b.kind is BusKind.SLACK]
    if len(slack) != 1:
        raise ValueError(f"need exactly one slack bus, found {len(slack)}")
    slack_pos = slack[0]
    nonslack = np.array([i for i in range(n) if i != slack_pos], dtype=int)
    gen_pos = np.array(
        [idx[case.generators[gi].bus_id] for gi in problem.dispatchable], dtype=int
    )

    s_fixed = np.array([-complex(b.p_load, b.q_load) for b in case.buses])
    dispatch_set = set(problem.dispatchable)
    for i, g in enumerate(case.generators):
        if i not in dispatch_set:
            s_fixed[idx[g.bus_id]] += complex(g.p, g.q)

    return n, slack_pos, nonslack, gen_pos, s_fixed


class _OpfModel:
    """Scaled cost, bus balances and their exact derivatives over
    x = (Va without the slack bus, Vm, Pg, Qg).  The first derivatives are
    the power flow's entry-wise dS/dV (:func:`powerflow._dS_dV`), the second
    are MATPOWER's ``d2Sbus_dV2`` written entry by entry on the same Ybus
    pattern: each is a vector of values computed per call at index arrays
    fixed here, and the KKT matrix is placed from the same arrays, dense or
    sparse by :func:`powerflow._dense`."""

    def __init__(self, problem: OpfProblem):
        case = problem.case
        self.base = base = case.base_mva
        n, self.slack_pos, self.nonslack, gen_pos, self.s_fixed = _pack_structure(problem)
        nd = len(problem.dispatchable)
        self.n, self.nd, self.na = n, nd, n - 1
        self.nx = self.na + n + 2 * nd
        self.slack_ang = case.buses[self.slack_pos].v_ang
        self._adm = powerflow._Admittance(case, case.bus_index())
        self._taps = sorted({t.branch_ref for t in case.oltcs})
        self.Ybus = self._adm.ybus(self._adm.ratio)
        self.YbusT = self.Ybus.T    # a view on Ybus's arrays, so retap reaches it
        self.Cg = sp.csr_matrix((np.ones(nd), (gen_pos, np.arange(nd))), shape=(n, nd))

        r, c = self.r, self.c = self._adm.r, self._adm.c
        self.y = self.Ybus.data
        buses = np.arange(n)
        # x position of each bus angle (-1: the slack bus) and magnitude,
        # and of each dispatchable unit's P and Q
        ia = np.full(n, -1)
        ia[self.nonslack] = np.arange(self.na)
        im = self.na + buses
        ip = self.na + n + np.arange(nd)
        iq = ip + nd

        # Jacobian: dS/dVa and dS/dVm at the Ybus entries, then the diagonal;
        # the P rows take the real part, the Q rows the imaginary part
        jr, jc = np.concatenate([r, buses]), np.concatenate([c, buses])
        self.jac_keep = ia[jc] >= 0
        ja = ia[jc][self.jac_keep]
        jra = jr[self.jac_keep]
        self.jac_rows = np.concatenate([jra, n + jra, jr, n + jr, gen_pos, n + gen_pos])
        self.jac_cols = np.concatenate([ja, ja, im[jc], im[jc], ip, iq])

        # Hessian: second derivatives at (r, c), at (c, r), then the diagonal;
        # blocks Va-Va, Vm-Va, its transpose Va-Vm, Vm-Vm, then the cost
        hr, hc = np.concatenate([r, c, buses]), np.concatenate([c, r, buses])
        self.hess_keep_aa = (ia[hr] >= 0) & (ia[hc] >= 0)
        self.hess_keep_va = ia[hc] >= 0
        m2 = 2 * len(r)
        self.hess_rows = np.concatenate([
            ia[hr][self.hess_keep_aa], im[hr][self.hess_keep_va], ia[hc][self.hess_keep_va],
            im[hr[:m2]], ip,
        ])
        self.hess_cols = np.concatenate([
            ia[hc][self.hess_keep_aa], ia[hc][self.hess_keep_va], im[hr][self.hess_keep_va],
            im[hc[:m2]], ip,
        ])

        # KKT matrix [[Lxx + diag(w), dg^T], [dg, 0]]: the Hessian, the
        # barrier diagonal, then dg below and its transpose to the right
        nk = self.nx + 2 * n
        diag = np.arange(self.nx)
        self.kkt_shape = (nk, nk)
        self.kkt_rows = np.concatenate(
            [self.hess_rows, diag, self.nx + self.jac_rows, self.jac_cols])
        self.kkt_cols = np.concatenate(
            [self.hess_cols, diag, self.jac_cols, self.nx + self.jac_rows])
        self.dense = powerflow._dense(nk)

        gens = [case.generators[i] for i in problem.dispatchable]
        self.c2 = np.array([g.cost[0] for g in gens])
        self.c1 = np.array([g.cost[1] for g in gens])
        self.c0 = np.array([g.cost[2] for g in gens])
        # cost scale keeps the stationarity tolerance unit-free
        self.grad_scale = float(max(1.0, np.max(np.abs(self.c1) * base, initial=0.0),
                                    np.max(np.abs(self.c2) * base * base, initial=0.0)))

    def retap(self, case: NetworkCase) -> None:
        """Bring the admittances up to the tap ratios now on ``case``, the
        case the model was built from: only the tap branches' ratios are
        read, and Ybus, its transpose and y (views on one array of values)
        change in place; every index array, Cg and the KKT placement stay."""
        ratio = self._adm.ratio.copy()
        ratio[self._taps] = [case.branches[k].ratio for k in self._taps]
        self.Ybus.data[:] = self._adm.ybus(ratio).data

    def split(self, x):
        na, n, nd = self.na, self.n, self.nd
        va = np.empty(n)
        va[self.nonslack] = x[:na]
        va[self.slack_pos] = self.slack_ang
        return va, x[na : na + n], x[na + n : na + n + nd], x[na + n + nd :]

    def voltage(self, x) -> np.ndarray:
        va, vm, _, _ = self.split(x)
        return vm * np.exp(1j * va)

    def cost(self, x) -> float:
        p_mw = self.split(x)[2] * self.base
        return float(np.sum(self.c2 * p_mw * p_mw + self.c1 * p_mw + self.c0)) / self.grad_scale

    def cost_grad(self, x) -> np.ndarray:
        g = np.zeros(self.nx)
        pg = self.split(x)[2]
        g[self.na + self.n : self.na + self.n + self.nd] = (
            2.0 * self.c2 * self.base * self.base * pg + self.c1 * self.base
        ) / self.grad_scale
        return g

    def balance(self, x) -> np.ndarray:
        """The 2n bus balances: P rows, then Q rows."""
        _, _, pg, qg = self.split(x)
        V = self.voltage(x)
        mis = V * np.conj(self.Ybus @ V) - self.s_fixed - self.Cg @ (pg + 1j * qg)
        return np.concatenate([mis.real, mis.imag])

    def jacobian(self, x) -> np.ndarray:
        """d balance / dx (2n x nx): its values at (jac_rows, jac_cols)."""
        V = self.voltage(x)
        dSa, dSm = powerflow._dS_dV(V, self.Ybus @ V, self.r, self.c, self.y)
        dSa = dSa[self.jac_keep]
        ones = np.ones(self.nd)
        return np.concatenate([dSa.real, dSa.imag, dSm.real, dSm.imag, -ones, -ones])

    def jacobian_t(self, jac, lam) -> np.ndarray:
        """dg^T lam for the Jacobian values ``jac``."""
        return np.bincount(self.jac_cols, weights=jac * lam[self.jac_rows], minlength=self.nx)

    def hessian(self, x, lam) -> np.ndarray:
        """Hessian of cost + lam^T balance (nx x nx): its values at
        (hess_rows, hess_cols).  lamP^T Re S + lamQ^T Im S equals
        Re((lamP - j lamQ)^T S), so one complex weight gives both."""
        n, r, c, y = self.n, self.r, self.c, self.y
        V = self.voltage(x)
        vm = np.abs(V)
        lV = (lam[:n] - 1j * lam[n:]) * V
        # MATPOWER's d2Sbus_dV2 has E = F^T off the diagonal, both equal to f
        f = lV[r] * np.conj(y * V[c])
        dE = -np.conj(V) * np.conj(self.YbusT @ np.conj(lV))
        dF = -lV * np.conj(self.Ybus @ V)
        Gaa = np.concatenate([f, f, dE + dF]).real
        Gva = (1j * np.concatenate([-f / vm[r], f / vm[c], (dE - dF) / vm])).real
        Gvv = (f / (vm[r] * vm[c])).real
        Gva = Gva[self.hess_keep_va]
        return np.concatenate([
            Gaa[self.hess_keep_aa], Gva, Gva, Gvv, Gvv,
            2.0 * self.c2 * self.base * self.base / self.grad_scale,
        ])

    def kkt(self, hess, w, jac):
        """[[Lxx + diag(w), dg^T], [dg, 0]] from the Hessian and Jacobian
        values: an ndarray if ``self.dense``, else CSC."""
        return powerflow._place(np.concatenate([hess, w, jac, jac]),
                                self.kkt_rows, self.kkt_cols, self.kkt_shape, self.dense)


@dataclass
class _IpmResult:
    x: np.ndarray
    lam: np.ndarray            # equality multipliers
    mu: np.ndarray             # bound multipliers
    iterations: int
    converged: bool
    stationarity: float        # |grad of the Lagrangian|, inf-norm
    complementarity: float     # max z_i mu_i


# MIPS step parameters (Wang et al., IEEE TPWRS 2007): fraction to the
# boundary, centering factor, smallest accepted step
_XI, _SIGMA, _ALPHA_MIN = 0.99995, 0.1, 1e-8
# target of each relative convergence measure (feasibility, stationarity,
# complementarity, cost change); tighter than MIPS's 1e-6 so that active
# bounds are hit to well under 1e-6
_TOL = 1e-10
# smallest bound multiplier and slack a warm start begins from
_WARM_FLOOR = 1e-4


def _interior_point(
    model: _OpfModel, x, lb, ub, max_iterations: int,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> _IpmResult:
    """Primal-dual interior-point Newton method after MIPS: minimize
    model.cost(x) subject to model.balance(x) = 0 and lb <= x <= ub, with
    the exact Hessian of the Lagrangian.  The box bounds are the
    inequalities h(x) + z = 0, z > 0.  Without ``duals`` the run starts
    cold (lam = 0, mu = 1, z = max(1, -h), barrier 1); with the (lam, mu)
    of an earlier run on bounds of the same shape it starts from lam,
    mu floored at ``_WARM_FLOOR``, z = max(-h, _WARM_FLOOR) and the
    centered barrier of that point.  A run that reaches
    ``max_iterations``, meets a singular KKT matrix or fails to make
    progress returns its last iterate with ``converged=False``."""
    iu = np.flatnonzero(np.isfinite(ub))
    il = np.flatnonzero(np.isfinite(lb))
    nu = len(iu)

    def ineq(x):
        return np.concatenate([x[iu] - ub[iu], lb[il] - x[il]])

    def dh_t(v):  # dh(x)^T v, with dh the constant Jacobian of ineq
        out = np.zeros(model.nx)
        out[iu] += v[:nu]
        out[il] -= v[nu:]
        return out

    h = ineq(x)
    niq = len(h)
    f, g, jac = model.cost(x), model.balance(x), model.jacobian(x)
    if duals is None:
        lam, mu = np.zeros(len(g)), np.ones(niq)
        z = np.maximum(1.0, -h)
        gamma = 1.0
    else:
        lam, mu = duals[0], np.maximum(duals[1], _WARM_FLOOR)
        z = np.maximum(-h, _WARM_FLOOR)
        gamma = _SIGMA * float(z @ mu) / niq if niq else 1.0
    Lx = model.cost_grad(x) + model.jacobian_t(jac, lam) + dh_t(mu)

    def done(f0):
        x_norm = np.max(np.abs(x), initial=0.0)
        feas = max(np.max(np.abs(g), initial=0.0), np.max(h, initial=0.0)) / (
            1.0 + max(x_norm, np.max(z, initial=0.0)))
        grad = np.max(np.abs(Lx), initial=0.0) / (
            1.0 + max(np.max(np.abs(lam), initial=0.0), np.max(mu, initial=0.0)))
        comp = float(z @ mu) / (1.0 + x_norm)
        cost = abs(f - f0) / (1.0 + abs(f0))
        return bool(max(feas, grad, comp, cost) < _TOL)

    converged = done(f)
    it = 0
    while not converged and it < max_iterations:
        w = np.zeros(model.nx)
        w[iu] += mu[:nu] / z[:nu]
        w[il] += mu[nu:] / z[nu:]
        N = Lx + dh_t((mu * h + gamma) / z)
        d = powerflow._solve_linear(model.kkt(model.hessian(x, lam), w, jac),
                                    -np.concatenate([N, g]))
        if d is None:
            break
        it += 1
        dx, dlam = d[: model.nx], d[model.nx :]
        dz = -h - z - np.concatenate([dx[iu], -dx[il]])  # h(x + dx) + z + dz = 0
        dmu = -mu + (gamma - mu * dz) / z
        neg = dz < 0
        alpha_p = min(_XI * np.min(z[neg] / -dz[neg], initial=np.inf), 1.0)
        neg = dmu < 0
        alpha_d = min(_XI * np.min(mu[neg] / -dmu[neg], initial=np.inf), 1.0)
        x = x + alpha_p * dx
        z = z + alpha_p * dz
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu
        if niq:
            gamma = _SIGMA * float(z @ mu) / niq

        f0 = f
        h, f, g, jac = ineq(x), model.cost(x), model.balance(x), model.jacobian(x)
        Lx = model.cost_grad(x) + model.jacobian_t(jac, lam) + dh_t(mu)
        converged = done(f0)
        if (not np.all(np.isfinite(x)) or alpha_p < _ALPHA_MIN or alpha_d < _ALPHA_MIN
                or not np.finfo(float).eps < gamma < 1.0 / np.finfo(float).eps):
            break

    return _IpmResult(
        x=x, lam=lam, mu=mu, iterations=it, converged=converged,
        stationarity=float(np.max(np.abs(Lx), initial=0.0)),
        complementarity=float(np.max(z * mu, initial=0.0)),
    )


def solve_continuous(
    problem: OpfProblem,
    v_limits: tuple[np.ndarray, np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    max_iterations: int = 400,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
    model: _OpfModel | None = None,
) -> OpfSolution:
    """Minimize dispatch cost with the tap ratios frozen as they stand.

    ``x0`` and ``duals`` warm-start the interior point from an earlier
    solution's ``raw_x`` and ``raw_duals``; without ``duals`` it starts
    cold.  ``model`` is the problem's :class:`_OpfModel`, built here if not
    given; it must hold the case's present tap ratios.

    The stationarity part of the reported KKT residual is measured on the
    cost normalized by its gradient scale, so the 1e-6 target is meaningful
    regardless of the currency units of the coefficients.  ``feasible`` is
    decided by the returned point's violation alone; ``converged`` says
    whether the interior-point run met its tolerances.
    """
    case = problem.case
    model = model or _OpfModel(problem)
    n, na = model.n, model.na
    v_lo = v_limits[0] if v_limits is not None else problem.v_min
    v_hi = v_limits[1] if v_limits is not None else problem.v_max
    gens = [case.generators[i] for i in problem.dispatchable]
    p_lb = np.array([g.p_min for g in gens])
    p_ub = np.array([g.p_max for g in gens])
    q_lb = np.array([g.q_min for g in gens])
    q_ub = np.array([g.q_max for g in gens])
    lb = np.concatenate([np.full(na, -np.inf), v_lo, p_lb, q_lb])
    ub = np.concatenate([np.full(na, np.inf), v_hi, p_ub, q_ub])

    if x0 is None:
        va0 = np.array([b.v_ang for b in case.buses])
        vm0 = np.array([b.v_mag for b in case.buses])
        pg0 = np.array([g.p for g in gens])
        qg0 = np.array([g.q for g in gens])
        x0 = np.concatenate([va0[model.nonslack], vm0, pg0, qg0])
    x0 = np.clip(x0, lb, ub)

    ipm = _interior_point(model, x0, lb, ub, max_iterations, duals)

    va, vm, pg, qg = model.split(ipm.x)
    pg = np.clip(pg, p_lb, p_ub)
    qg = np.clip(qg, q_lb, q_ub)
    p = {gi: float(pg[j]) for j, gi in enumerate(problem.dispatchable)}
    q = {gi: float(qg[j]) for j, gi in enumerate(problem.dispatchable)}

    # the violation of the point returned, i.e. with the dispatch clipped
    violation = float(np.max(np.abs(
        model.balance(np.concatenate([ipm.x[: na + n], pg, qg]))), initial=0.0))
    v_viol = float(np.max(np.maximum(v_lo - vm, vm - v_hi), initial=0.0))
    max_violation = max(violation, v_viol, 0.0)
    kkt = max(ipm.stationarity, ipm.complementarity, violation)

    return OpfSolution(
        p=p,
        q=q,
        v_mag=vm.copy(),
        v_ang=va.copy(),
        taps=[t.tap for t in case.oltcs],
        objective=dispatch_cost(problem, p),
        feasible=max_violation <= FEASIBILITY_TOL,
        kkt_residual=kkt,
        max_violation=max_violation,
        iterations=ipm.iterations,
        converged=ipm.converged,
        raw_x=ipm.x.copy(),
        raw_duals=(ipm.lam, ipm.mu),
    )


def solve_with_relaxation(
    problem: OpfProblem,
    schedule: RelaxationSchedule | None = None,
    trace_path: Path | None = None,
) -> OpfSolution:
    """Outer loop coupling the continuous solve with one-step tap moves.

    Terminates once the voltage bounds have reached their final values and a
    whole round passes with no tap motion; a solution already inside the
    final bounds short-circuits the remaining tightening steps.  Taps freeze
    individually on direction reversal, and the total number of rounds is
    capped, mirroring the power-flow regulation safeguards: a run that
    reaches the cap ends with one more solve at the final bounds that moves
    no tap.
    """
    schedule = schedule or RelaxationSchedule()
    if schedule.rounds < 1:
        raise ValueError("schedule needs at least one round")
    work = problem.case.clone()
    for t in work.oltcs:
        t.sync_branch(work)
    sub = OpfProblem(
        case=work, v_min=problem.v_min, v_max=problem.v_max,
        dispatchable=problem.dispatchable,
    )

    stepper = TapStepper(work)
    model = _OpfModel(sub)
    trace: list[dict] = []
    warm, duals = None, None
    iterations, converged = 0, True
    cap = schedule.rounds + EXTRA_ROUNDS
    for k in range(cap + 1):
        step = min(k, schedule.rounds - 1)
        if schedule.rounds > 1:
            slack = schedule.v_slack * (1.0 - step / (schedule.rounds - 1))
        else:
            slack = 0.0
        sol = solve_continuous(
            sub, v_limits=(problem.v_min - slack, problem.v_max + slack),
            x0=warm, duals=duals, model=model,
        )
        iterations += sol.iterations
        converged = converged and sol.converged
        # round `cap` only re-solves at the final bounds: it neither raises
        # on its violation nor moves a tap
        if sol.max_violation > 1e-4 and k < cap:
            raise RelaxationError(k, (slack, slack))
        warm, duals = sol.raw_x, sol.raw_duals

        v_gap = float(np.max(np.maximum(problem.v_min - sol.v_mag,
                                        sol.v_mag - problem.v_max), initial=0.0))
        final_viol = max(sol.max_violation, v_gap)
        deltas = stepper.propose(sol.v_mag) if k < cap else [0] * len(work.oltcs)
        moved = sum(1 for d in deltas if d)
        trace.append(
            {
                "round": k,
                "objective": sol.objective,
                "max_violation": final_viol,
                "taps_moved": moved,
                "taps": [t.tap for t in work.oltcs],
                "v_slack": slack,
                "iterations": sol.iterations,
            }
        )
        if moved == 0 and (slack == 0.0 or v_gap <= FEASIBILITY_TOL):
            break
        stepper.apply(deltas)
        if moved:
            model.retap(work)

    taps_ok = all(t.tap_min <= t.tap <= t.tap_max for t in work.oltcs)
    result = OpfSolution(
        p=sol.p,
        q=sol.q,
        v_mag=sol.v_mag,
        v_ang=sol.v_ang,
        taps=[t.tap for t in work.oltcs],
        objective=sol.objective,
        feasible=bool(final_viol <= FEASIBILITY_TOL and taps_ok),
        kkt_residual=sol.kkt_residual,
        max_violation=final_viol,
        iterations=iterations,
        converged=converged,
        relaxation_rounds=min(k + 1, cap),  # the closing solve at the cap is no round
        trace=trace,
    )
    if trace_path is not None:
        _write_trace(trace_path, trace)
    return result


def _write_trace(path: Path, trace: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["round", "objective", "max_violation", "taps_moved"])
        for row in trace:
            w.writerow(
                [row["round"], repr(row["objective"]),
                 repr(row["max_violation"]), row["taps_moved"]]
            )


def apply_opf_solution(
    case: NetworkCase, problem: OpfProblem, sol: OpfSolution
) -> None:
    """Write dispatch, voltages and tap positions back onto a case so that a
    plain power flow reproduces the optimized operating point."""
    idx = case.bus_index()
    for b, vm, va in zip(case.buses, sol.v_mag, sol.v_ang):
        b.v_mag = float(vm)
        b.v_ang = float(va)
    for gi in problem.dispatchable:
        g = case.generators[gi]
        g.p = sol.p[gi]
        g.q = sol.q[gi]
    for g in case.generators:
        if g.controllable:
            g.v_set = float(sol.v_mag[idx[g.bus_id]])
    for t, tap in zip(case.oltcs, sol.taps):
        t.tap = tap
        t.sync_branch(case)
