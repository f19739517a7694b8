"""Quadratic-cost AC optimal power flow with discrete tap positions.

The continuous core (taps frozen) minimizes total generation cost over the
dispatchable units subject to the AC bus power-balance equalities, generator
box bounds and per-bus voltage bounds.  It is a primal-dual interior-point
Newton method in the form of MATPOWER's MIPS (Wang, Murillo-Sanchez,
Zimmerman & Thomas, IEEE TPWRS 2007) with the exact Hessian of the
Lagrangian, stepped by Mehrotra's predictor-corrector (SIAM J. Optim.
1992): each step factors one Newton matrix and solves on it twice, for the
affine direction and then for the centered, second-order corrected one
(and a third time, for MIPS's centered step, where that corrector is short).
That matrix is a reduced KKT system: generator outputs enter the balances
linearly and the Hessian only on its diagonal, so they are eliminated and
the matrix holds the voltages and the balance multipliers only.  Ybus is
the power flow's, held only as its entry values, whose products with V
summed by row are the currents (:meth:`powerflow._Admittance.currents`).
The derivative values are computed once per iterate on fixed index arrays.
The KKT matrix of a combined case is bordered block-diagonal: each
replica's voltages, multipliers and tap ratio are one block, tied to the
transmission network's unknowns only through its tap-changer branch.  It
is solved on those blocks whatever its size, as the power flow's Newton
step is (:class:`powerflow._Blocks`, a Schur complement on the border
after Gondzio & Grothey, Comput. Manag. Sci. 2009), by numpy alone, and a
run of equal neighbouring blocks, the copies of one host without
``random``, is solved once.  A KKT matrix without replica blocks, or with
a singular one, is solved whole (:func:`powerflow._factor`), placed by the
power flow's size rule (:func:`powerflow._dense`): a small one as a dense
array solved by numpy's LAPACK on each solve, a large one as a CSC matrix
factored once with SuperLU.  The contract is the returned KKT residual and
``converged`` flag, not the mechanism.

Discrete taps are handled by the outer relaxation loop: solve with voltage
bounds widened, nudge every tap one step by the deadband rule using the
solved voltages, tighten the bounds one notch, repeat until the bounds are
final and no tap wants to move.  Where that walk starts is estimated first
(Capitanescu & Wehenkel, IEEE TPWRS 2010, solve discrete OPF variables
continuously and then round them): one solve at the final bounds in which
each tap changer's ratio is a bounded continuous variable and its
controlled bus is held inside its deadband band.  Each ratio rounds to its
nearest tap position, and a tap more than ``rounds`` positions from it
starts ``rounds - 1`` short of it, on the side of its regulated position;
every other tap starts where it is.  Not at the estimate: the
widened-bound rounds move every tap one step each, so the walk would
overshoot its end.  If the estimate is infeasible or unconverged, every
tap starts at its regulated position, as without it (see
:func:`_tap_start`).

Consecutive rounds differ by one tap step and one bound notch, so each
round starts from the previous round's primal point and multipliers (a
dual warm start after Yildirim & Wright, SIAM J. Optim. 2002: the bound
multipliers and slacks are floored away from zero); only the first round
and the estimate start cold.  The model's index arrays are built once per
relaxation; a tap move only recomputes the Ybus entry values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import caseio, powerflow
from .netmodel import GEN_CODES, SLACK, CaseStack, GenKind, NetworkCase, _find
from .oltc import TapStepper


class RelaxationError(RuntimeError):
    def __init__(self, round_index: int, limits: tuple[float, float]):
        bounds = ("at the final bounds" if not any(limits) else
                  f"voltage limits widened by {limits[0]:.3f}/{limits[1]:.3f}")
        super().__init__(
            f"continuous subproblem infeasible in relaxation round {round_index} ({bounds})")
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
        n, gens = len(case.buses), case.generators
        if v_limits is None:
            v_min, v_max = case.buses.v_min.copy(), case.buses.v_max.copy()
        else:
            v_min = np.full(n, v_limits[0])
            v_max = np.full(n, v_limits[1])
        free = [GEN_CODES[GenKind.TN_UNIT], GEN_CODES[GenKind.DN_CONTROLLABLE]]
        dispatchable = np.flatnonzero(gens.controllable & np.isin(gens.kind, free)).tolist()
        problem = cls(case=case, v_min=v_min, v_max=v_max, dispatchable=dispatchable)
        problem.check()
        return problem

    def check(self) -> None:
        gens = self.case.generators
        for i in self.dispatchable:
            for name in ("p_min", "p_max", "q_min", "q_max"):
                if not math.isfinite(getattr(gens, name)[i]):
                    raise ValueError(f"generator {i}: {name} must be finite for dispatch")
            if gens.cost[i, 0] < 0:
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
    settled: bool = True              # no tap wanted to move in the last counted round
    start: dict | None = None         # the relaxation's estimated start (see _tap_start)
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
    d = problem.dispatchable
    c2, c1, c0 = problem.case.generators.cost[d].T
    p_mw = np.array([p_by_gen[i] for i in d], dtype=float) * problem.case.base_mva
    return sum((c2 * p_mw * p_mw + c1 * p_mw + c0).tolist(), 0.0)   # left to right


def _pack_structure(problem: OpfProblem):
    case = problem.case
    buses, gens = case.buses, case.generators
    n = len(buses)
    slack = np.flatnonzero(buses.kind == SLACK).tolist()
    if len(slack) != 1:
        raise ValueError(f"need exactly one slack bus, found {len(slack)}")
    slack_pos = slack[0]
    nonslack = np.flatnonzero(np.arange(n) != slack_pos)
    gen_pos = _find(case.buses.id, gens.bus_id)
    fixed = np.ones(len(gens), dtype=bool)
    fixed[problem.dispatchable] = False

    s_fixed = -powerflow._complex(buses.p_load, buses.q_load)
    # unit by unit, in generator order
    np.add.at(s_fixed, gen_pos[fixed], powerflow._complex(gens.p[fixed], gens.q[fixed]))
    return n, slack_pos, nonslack, gen_pos[problem.dispatchable], s_fixed


@dataclass
class _Point:
    """An iterate x with its bus voltages V, Ybus entry values y and
    currents Ybus V, evaluated once and shared by the balances, the
    Jacobian and the Hessian."""
    x: np.ndarray
    V: np.ndarray
    y: np.ndarray
    Ibus: np.ndarray


class _OpfModel:
    """Scaled cost, bus balances and their exact derivatives over
    x = (Va without the slack bus, Vm, tap ratios, Pg, Qg), and the Newton
    system of the interior point.  The ratio columns are those of the tap
    changers ``taps`` (positions in ``case.oltcs``, none by default), each
    the ratio of its branch; every other ratio is the case's.  The first
    derivatives in the voltages are the power flow's entry-wise dS/dV
    (:func:`powerflow._dS_dV`) in its Jacobian layout
    (:func:`powerflow._placement`), the second are MATPOWER's
    ``d2Sbus_dV2`` written entry by entry on the same Ybus pattern: each is
    a vector of values over v = (Va, Vm, ratios) computed per call at
    index arrays fixed here; a ratio's derivatives are its branch's (see
    :meth:`_branch_flows`).  Pg and Qg enter the balances only through
    -E, E = [[Cg, 0], [0, Cg]] (``gen_rows`` holds the balance row of each),
    and the Hessian only on its diagonal, so the Newton system is reduced to
    v and the multipliers (see :meth:`newton_solver`); its matrix is solved
    on its replica blocks (``blocks``, None without them) or whole, placed
    dense or sparse by :func:`powerflow._dense` (see :class:`_Factored`)."""

    def __init__(self, problem: OpfProblem, taps=()):
        case = problem.case
        self.base = base = case.base_mva
        n, self.slack_pos, self.nonslack, gen_pos, self.s_fixed = _pack_structure(problem)
        taps = np.asarray(taps, dtype=int)
        nd, nt = len(problem.dispatchable), len(taps)
        self.n, self.nd, self.na, self.nt = n, nd, n - 1, nt
        self.nv = self.na + n + nt
        self.nx = self.nv + 2 * nd
        self.slack_ang = case.buses[self.slack_pos].v_ang
        self._adm = adm = powerflow._Admittance(case)
        self.retap(adm.ratio)
        oltcs = case.oltcs
        self.tap_br = oltcs.branch_ref[taps]
        self.ratio_lb, self.ratio_ub = (1.0 + oltcs.tap_step[taps] * lim
                                        for lim in (oltcs.tap_min[taps], oltcs.tap_max[taps]))
        self.gen_rows = rows = np.concatenate([gen_pos, n + gen_pos])
        # the pairs (k, j) of distinct Pg or Qg entries on one balance row
        shared = np.flatnonzero(np.bincount(rows, minlength=2 * n)[rows] > 1)
        k, j = (a.ravel() for a in np.meshgrid(shared, shared, indexing="ij"))
        same = (rows[k] == rows[j]) & (k != j)
        self.pair_k, self.pair_j = k[same], j[same]

        r, c = self.r, self.c = adm.r, adm.c
        # the entries by column: the pattern is symmetric (every branch
        # reaches (f, t) and (t, f)), so entry ``by_col[k]`` sits where
        # entry k does in Ybus^T
        self.by_col = np.lexsort((r, c))
        buses = np.arange(n)
        # x position of each bus angle (-1: the slack bus) and magnitude
        ia = np.full(n, -1)
        ia[self.nonslack] = np.arange(self.na)
        im = self.na + buses

        # Jacobian: the power flow's placement, with a P and a Q row at every
        # bus and the columns of x's voltages
        self.jac_take, jac_rows, jac_cols = powerflow._placement(
            adm, buses, buses, self.nonslack, buses)
        # then each ratio's column: its branch's from bus, P and Q row, and
        # its to bus (see :meth:`_branch_flows`)
        self.tap_f, self.tap_t = f, t = adm.f[self.tap_br], adm.t[self.tap_br]
        p = self.na + n + np.arange(nt)
        self.jac_rows = np.concatenate([jac_rows, f, n + f, t, n + t])
        self.jac_cols = np.concatenate([jac_cols, np.tile(p, 4)])

        # Hessian: second derivatives at (r, c), at (c, r), then the diagonal;
        # blocks Va-Va, Vm-Va, its transpose Va-Vm, then Vm-Vm
        hr, hc = np.concatenate([r, c, buses]), np.concatenate([c, r, buses])
        keep_aa = np.flatnonzero((ia[hr] >= 0) & (ia[hc] >= 0))
        keep_va = np.flatnonzero(ia[hc] >= 0)
        m, m2 = len(r), 2 * len(r)
        self.hess_rows = np.concatenate([
            ia[hr][keep_aa], im[hr][keep_va], ia[hc][keep_va], im[hr[:m2]],
        ])
        self.hess_cols = np.concatenate([
            ia[hc][keep_aa], ia[hc][keep_va], im[hr][keep_va], im[hc[:m2]],
        ])
        # each value's place in the float view of the complex terms that
        # :meth:`hessian` lists: the real parts of Gaa = (f, f, dE + dF)
        # at (r, c), (c, r) and the diagonal, the imaginary parts of Gva =
        # (f / vm_r, -f / vm_c, (dF - dE) / vm) twice, the real parts of
        # Gvv = f / (vm_r vm_c) at (r, c) and (c, r)
        aa = np.concatenate([np.arange(m), np.arange(m), m + buses])[keep_aa]
        va = (m + n + np.arange(m2 + n))[keep_va]
        vv = 3 * m + 2 * n + np.arange(m)
        self.hess_take = np.concatenate([2 * aa, 2 * va + 1, 2 * va + 1, 2 * vv, 2 * vv])
        # then each ratio's row and column: ratio-ratio, ratio-Va and Va-ratio
        # at f and t (none at the slack bus), ratio-Vm and Vm-ratio at f and t
        rows = np.concatenate([p, p, ia[f], p, ia[t], p, im[f], p, im[t]])
        cols = np.concatenate([p, ia[f], p, ia[t], p, im[f], p, im[t], p])
        self.tap_hess_keep = keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        self.hess_rows = np.concatenate([self.hess_rows, rows[keep]])
        self.hess_cols = np.concatenate([self.hess_cols, cols[keep]])
        on_diag = self.hess_rows == self.hess_cols
        self.hess_diag_at, self.hess_diag_of = np.flatnonzero(on_diag), self.hess_rows[on_diag]

        # reduced KKT matrix [[Hvv + diag(wv), Jv^T], [Jv, -diag(s)]]: the
        # Hessian, the barrier diagonal, Jv below, its transpose to the
        # right, then the diagonal of the multiplier block
        nv, nk = self.nv, self.nv + 2 * n
        self.kkt_shape = (nk, nk)
        self.kkt_rows = np.concatenate(
            [self.hess_rows, np.arange(nk), nv + self.jac_rows, self.jac_cols])
        self.kkt_cols = np.concatenate(
            [self.hess_cols, np.arange(nk), self.jac_cols, nv + self.jac_rows])
        self.dense = powerflow._dense(nk)
        # the replica blocks of the KKT matrix: each bus's Va, Vm, lamP and
        # lamQ join its replica's block, and so does each ratio column, whose
        # branch reaches the replica from the border
        at = np.stack([np.concatenate([self.nonslack, buses, ends, buses, buses]) for ends in (f, t)])
        self.blocks = powerflow._replica_blocks(adm, oltcs.branch_ref, self.slack_pos, at,
                                                self.kkt_rows, self.kkt_cols)

        self.c2, self.c1, self.c0 = case.generators.cost[problem.dispatchable].T
        # cost scale keeps the stationarity tolerance unit-free
        self.grad_scale = float(max(1.0, np.max(np.abs(self.c1) * base, initial=0.0),
                                    np.max(np.abs(self.c2) * base * base, initial=0.0)))
        # the cost's second derivative in Pg then Qg: the Hessian's (Pg, Qg) diagonal
        self.cost_hess = np.concatenate([2.0 * self.c2 * base * base / self.grad_scale,
                                         np.zeros(nd)])

    def retap(self, ratio: np.ndarray) -> None:
        """Bring the admittances up to the branch ratios ``ratio``, the
        column of the case the model was built from once its taps moved:
        only the Ybus entry values y are recomputed; every index array and
        the KKT placement stay.  The ratio columns of x override their
        branches' ratios."""
        self.ratio = ratio.copy()
        self.y = self._adm.entry_values(ratio[None])[0]

    def split(self, x):
        """(Va of every bus, Vm, Pg, Qg) of x."""
        na, n, nv, nd = self.na, self.n, self.nv, self.nd
        va = np.empty(n)
        va[self.nonslack] = x[:na]
        va[self.slack_pos] = self.slack_ang
        return va, x[na : na + n], x[nv : nv + nd], x[nv + nd :]

    def ratios(self, x) -> np.ndarray:
        """The ratio columns of x."""
        return x[self.na + self.n : self.nv]

    def point(self, x) -> _Point:
        va, vm, _, _ = self.split(x)
        V = vm * np.exp(1j * va)
        y = self.y
        if self.nt:
            ratio = self.ratio.copy()
            ratio[self.tap_br] = self.ratios(x)
            y = self._adm.entry_values(ratio[None])[0]
        return _Point(x, V, y, self._adm.currents(y, V))

    def _branch_flows(self, pt: _Point):
        """Each ratio column's ratio rho, and the parts of its branch's
        injections that depend on it: a = V_f conj(yff V_f) and
        b = V_f conj(yft V_t) at the from bus f, c = V_t conj(ytf V_f) at
        the to bus t.  yff scales as rho^-2 and yft, ytf as rho^-1, so
        dS_f/drho = -(2a + b) / rho and dS_t/drho = -c / rho; in the
        voltages, a depends on Vm_f alone as Vm_f^2, b and c on both
        magnitudes linearly and on Va_f - Va_t as exp(j(Va_f - Va_t)) and
        its conjugate."""
        rho = self.ratios(pt.x)
        tap = rho * self._adm.rot[self.tap_br]
        neg_y = self._adm.neg_y[self.tap_br]
        yff = self._adm.ytt[self.tap_br] / (tap * np.conj(tap))
        Vf, Vt = pt.V[self.tap_f], pt.V[self.tap_t]
        return (rho, Vf * np.conj(yff * Vf), Vf * np.conj(neg_y / np.conj(tap) * Vt),
                Vt * np.conj(neg_y / tap * Vf))

    def cost(self, x) -> float:
        p_mw = x[self.nv : self.nv + self.nd] * self.base
        return float((self.c2 * p_mw * p_mw + self.c1 * p_mw + self.c0).sum()) / self.grad_scale

    def cost_grad(self, x) -> np.ndarray:
        g = np.zeros(self.nx)
        pg = x[self.nv : self.nv + self.nd]
        g[self.nv : self.nv + self.nd] = (
            2.0 * self.c2 * self.base * self.base * pg + self.c1 * self.base
        ) / self.grad_scale
        return g

    def balance(self, pt: _Point) -> np.ndarray:
        """The 2n bus balances: P rows, then Q rows."""
        mis = pt.V * np.conj(pt.Ibus) - self.s_fixed
        gen = np.bincount(self.gen_rows, weights=pt.x[self.nv :], minlength=2 * self.n)
        return np.concatenate([mis.real, mis.imag]) - gen

    def jacobian(self, pt: _Point) -> np.ndarray:
        """Jv = d balance / dv (2n x nv): its values at (jac_rows,
        jac_cols).  d balance / d(Pg, Qg) is the constant -E."""
        V, y = pt.V[None], pt.y[None]
        vals = powerflow._jacobian_values(self._adm, self.jac_take, V, pt.Ibus[None], y,
                                          self._adm.products(y, V))[0]
        if not self.nt:
            return vals
        rho, a, b, c = self._branch_flows(pt)
        df, dt = -(2.0 * a + b) / rho, -c / rho
        return np.concatenate([vals, df.real, df.imag, dt.real, dt.imag])

    def jacobian_t(self, jac, lam) -> np.ndarray:
        """dg^T lam (nx) for the Jacobian values ``jac``."""
        out = np.bincount(self.jac_cols, weights=jac * lam[self.jac_rows], minlength=self.nx)
        out[self.nv :] -= lam[self.gen_rows]
        return out

    def hessian(self, pt: _Point, lam) -> np.ndarray:
        """Hvv, the voltage block of the Hessian of cost + lam^T balance
        (nv x nv): its values at (hess_rows, hess_cols).  The rest of the
        Hessian is the diagonal ``cost_hess``.  lamP^T Re S + lamQ^T Im S
        equals Re((lamP - j lamQ)^T S), so one complex weight gives both."""
        n, r, c, y, V = self.n, self.r, self.c, pt.y, pt.V
        vm = np.abs(V)
        vr, vc = vm[r], vm[c]
        w = lam[:n] - 1j * lam[n:]
        lV = w * V
        # MATPOWER's d2Sbus_dV2 has E = F^T off the diagonal, both equal to f
        f = lV[r] * np.conj(y * V[c])
        # Ybus^T conj(lV): the products summed by column, as rows of Ybus^T
        dE = -np.conj(V) * np.conj(self._adm.currents(y[self.by_col], np.conj(lV)))
        dF = -lV * np.conj(pt.Ibus)
        terms = np.concatenate([f, dE + dF, f / vr, -f / vc, (dF - dE) / vm, f / (vr * vc)])
        vals = terms.view(float)[self.hess_take]
        if not self.nt:
            return vals
        # Re(w_f S_f + w_t S_t) of each ratio's branch, differentiated as
        # :meth:`_branch_flows` says; Re(j z) = -Im(z)
        rho, a, b, c = self._branch_flows(pt)
        wa, wb, wc = w[self.tap_f] * a, w[self.tap_f] * b, w[self.tap_t] * c
        rr = (6.0 * wa + 2.0 * wb + 2.0 * wc).real / rho ** 2
        ra = (wb - wc).imag / rho
        rf = -(4.0 * wa + wb + wc).real / (rho * vm[self.tap_f])
        rt = -(wb + wc).real / (rho * vm[self.tap_t])
        return np.concatenate([vals, np.concatenate(
            [rr, ra, ra, -ra, -ra, rf, rf, rt, rt])[self.tap_hess_keep]])

    def kkt_values(self, hess, wv, jac, s, scale) -> np.ndarray:
        """The values of C K C at (kkt_rows, kkt_cols), for
        K = [[Hvv + diag(wv), Jv^T], [Jv, -diag(s)]] from the Hessian and
        Jacobian values, and C = diag(``scale``)."""
        return np.concatenate([hess, wv, -s, jac, jac]) * scale[self.kkt_rows] * scale[self.kkt_cols]

    def kkt(self, vals):
        """The matrix of the values ``vals`` at (kkt_rows, kkt_cols) placed:
        an ndarray if ``self.dense``, else CSC."""
        return powerflow._place(vals, self.kkt_rows, self.kkt_cols, self.kkt_shape, self.dense)

    def newton_solver(self, hess, jac, w):
        """Factor the Newton system of one iterate once.  The full system
        [[H + diag(w), dg^T], [dg, 0]] (dx, dlam) = -(N, g), with H the
        Hessian and w >= 0 the barrier diagonal, has in its (Pg, Qg) rows
        D dxg - E^T dlam = -Ng, D = cost_hess + w there, which is > 0
        because every dispatchable unit has a finite box.  So dxg =
        D^-1 (E^T dlam - Ng), and the rest is the reduced system
        [[Hvv + diag(wv), Jv^T], [Jv, -S]] (dv, dlam) = -(Nv, g + E D^-1 Ng),
        S = E D^-1 E^T, diagonal because each unit sits at one bus.

        The reduced matrix is factored scaled, C K C with C = |diag K|^-1/2
        where that diagonal exceeds 1: late in a run the barrier weights and
        S grow without bound (7e12 on the congested mini case), and on the
        unscaled matrix SuperLU's threshold pivoting lost the last steps to
        them (a relative error of 0.5 against a 60-digit solution).

        Returns the function that maps (N, g) to (dx, dlam) on that one
        factorization (:class:`_Factored`), or to None if the reduced
        matrix is singular, which only its first call can find.  It
        recovers dxg from the balance rows, E dxg = Jv dv + g, which each
        row shares among its entries k by D_k^-1 / S.  The form D^-1 (E^T
        dlam - Ng) divides the error of dlam by D_k, which is tiny for a
        unit off its bounds late in a run: on the congested mini case it
        left the last steps 4e-8 off a 60-digit solution, against 1e-9."""
        nv, n2, nx = self.nv, 2 * self.n, self.nx
        rows, k, j = self.gen_rows, self.pair_k, self.pair_j
        d = self.cost_hess + w[nv:]
        s = np.bincount(rows, weights=1.0 / d, minlength=n2)
        share = 1.0 / (d * s[rows])
        wv = w[:nv]
        diag = np.bincount(self.hess_diag_of, weights=hess[self.hess_diag_at], minlength=nv) + wv
        scale = 1.0 / np.sqrt(np.maximum(np.abs(np.concatenate([diag, s])), 1.0))
        solve = _Factored(self, self.kkt_values(hess, wv, jac, s, scale))

        def step(N, g):
            ng = N[nv:] / d
            out = solve(scale * -np.concatenate(
                [N[:nv], g + np.bincount(rows, weights=ng, minlength=n2)]))
            if out is None:
                return None
            out *= scale
            dv = out[:nv]
            supply = np.bincount(self.jac_rows, weights=jac * dv[self.jac_cols], minlength=n2) + g
            # sum over the other entries j of row k of (N_j - N_k) / D_j
            other = np.bincount(k, weights=(N[nv + j] - N[nv + k]) / d[j], minlength=nx - nv)
            return np.concatenate([dv, share * (supply[rows] + other)]), out[nv:]

        return step


class _Factored:
    """The scaled reduced KKT matrix of one iterate, from its values at the
    model's placement, factored on its first solve and then solved for any
    right-hand side: on its replica blocks (:meth:`powerflow._Blocks.factor`),
    whatever its size, or, where it has none or the first solve finds a
    block or the border singular, whole by :func:`powerflow._factor`,
    placed by the size rule (a dense matrix is factored anew on each
    solve).  A solve returns None where the whole matrix is singular too.
    An active :class:`powerflow.Meter` gets the path of the factorization
    in ``kkt_solves``: "blocks", "dense" or "superlu"."""

    def __init__(self, model: _OpfModel, vals: np.ndarray):
        self.model, self.vals = model, vals
        self.solve = model.blocks.factor(vals) if model.blocks else None
        self.first = True

    def __call__(self, b: np.ndarray) -> np.ndarray | None:
        if not self.first:
            return self.solve(b)
        self.first, m = False, self.model
        x, path = None, "blocks"
        if self.solve is not None:
            x = self.solve(b)
        if x is None:
            path = "dense" if m.dense else "superlu"
            self.solve = powerflow._factor(m.kkt(self.vals)) or (lambda b: None)
            x = self.solve(b)
        meter = powerflow._METER.get()
        if meter is not None:
            meter.kkt_solves.append(path)
        return x


@dataclass
class _IpmResult:
    x: np.ndarray
    lam: np.ndarray            # equality multipliers
    mu: np.ndarray             # bound multipliers
    iterations: int
    converged: bool
    stationarity: float        # |grad of the Lagrangian|, inf-norm
    complementarity: float     # max z_i mu_i


# smallest fraction to the boundary, MIPS's centering factor (Wang et al.,
# IEEE TPWRS 2007) for the fallback step, the step length below which a
# corrector falls back to it (0.5, 0.7 and 0.9 all carried the 42 runs
# measured for _WARM_FLOOR; 0.5 took the fewest steps), and the smallest
# accepted step
_XI_MIN, _SIGMA, _SHORT_STEP, _ALPHA_MIN = 0.99, 0.1, 0.5, 1e-8
# target of each relative convergence measure (feasibility, stationarity,
# complementarity, cost change); tighter than MIPS's 1e-6 so that active
# bounds are hit to well under 1e-6
_TOL = 1e-10
# smallest bound multiplier and slack a warm start begins from.  Measured
# over 30 mini-opf configurations and 12 on templates scaled 10x and 50x:
# 1e-4 to 1e-2 all converge (1e-3 in 4,061 steps, 1e-4 in 3,903, 1e-2 in
# 4,636), while 1e-5 leaves three runs unconverged and one infeasible; 1e-3
# sits mid-range
_WARM_FLOOR = 1e-3
# a complementarity gap z^T mu this large means the run has blown up
_GAP_MAX = 1.0 / np.finfo(float).eps


def _to_boundary(v, dv, xi: float) -> float:
    """The step along dv, at most 1, that takes v > 0 the share xi of the
    way to its nearest zero."""
    worst = (dv / v).min(initial=0.0)
    return min(-xi / worst, 1.0) if worst < 0 else 1.0


def _interior_point(
    model: _OpfModel, x, lb, ub, max_iterations: int,
    duals: tuple[np.ndarray, np.ndarray] | None = None,
) -> _IpmResult:
    """Primal-dual interior point with Mehrotra's predictor-corrector
    (SIAM J. Optim. 1992): minimize model.cost(x) subject to
    model.balance(x) = 0 and lb <= x <= ub, with the exact Hessian of the
    Lagrangian.  The box bounds are the inequalities h(x) + z = 0, z > 0,
    with multipliers mu, as in MIPS (Wang et al., IEEE TPWRS 2007).  Each
    step factors its Newton system once (:meth:`_OpfModel.newton_solver`)
    and solves it twice: for the affine direction, which aims at z mu = 0,
    then for the corrector, which aims at z mu = sigma z^T mu / len(z) with
    sigma = (gap after the affine step / gap)^3 and takes out the affine
    direction's second-order term dz dmu.  Two safeguards keep the
    nonconvex problem from stalling the corrector: the fraction to the
    boundary is IPOPT's max(0.99, 1 - z^T mu / len(z)), and a corrector
    step shorter than one half is replaced by MIPS's centered step (sigma
    0.1, no second-order term), solved on the same factorization.  Without
    ``duals`` the run starts
    cold (lam = 0, mu = 1, z = max(1, -h)); with the (lam, mu) of an
    earlier run on bounds of the same shape it starts from lam, mu floored
    at ``_WARM_FLOOR`` and z = max(-h, _WARM_FLOOR).  A run that reaches
    ``max_iterations``, meets a singular Newton system, stalls, blows up
    or leaves the finite numbers returns its last iterate with
    ``converged=False``."""
    iu = np.flatnonzero(np.isfinite(ub))
    il = np.flatnonzero(np.isfinite(lb))
    # h = sign * x[at] - limit: x - ub at iu, then lb - x at il
    at = np.concatenate([iu, il])
    sign = np.concatenate([np.ones(len(iu)), -np.ones(len(il))])
    limit = np.concatenate([ub[iu], -lb[il]])
    nx = model.nx

    def dh_t(v):  # dh^T v, with dh the constant Jacobian of h
        return np.bincount(at, weights=sign * v, minlength=nx)

    pt = model.point(x)
    h = sign * x[at] - limit
    niq = max(len(h), 1)
    f, g, jac = model.cost(x), model.balance(pt), model.jacobian(pt)
    if duals is None:
        lam, mu = np.zeros(len(g)), np.ones(len(h))
        z = np.maximum(1.0, -h)
    else:
        lam, mu = duals[0], np.maximum(duals[1], _WARM_FLOOR)
        z = np.maximum(-h, _WARM_FLOOR)
    Lx = model.cost_grad(x) + model.jacobian_t(jac, lam) + dh_t(mu)

    def done(f0):
        x_norm = np.abs(x).max()
        feas = max(np.abs(g).max(), h.max(initial=0.0)) / (1.0 + max(x_norm, z.max(initial=0.0)))
        grad = np.abs(Lx).max() / (1.0 + max(np.abs(lam).max(), mu.max(initial=0.0)))
        comp = float(z @ mu) / (1.0 + x_norm)
        cost = abs(f - f0) / (1.0 + abs(f0))
        return bool(max(feas, grad, comp, cost) < _TOL)

    converged = done(f)
    it = 0
    while not converged and it < max_iterations:
        step = model.newton_solver(model.hessian(pt, lam), jac,
                                   np.bincount(at, weights=mu / z, minlength=nx))
        # predictor: the affine direction, unless the Newton system is singular
        affine = step(Lx + dh_t(mu * h / z), g)
        if affine is None:
            break
        dx, _ = affine
        dz = -h - z - sign * dx[at]          # h(x + dx) + z + dz = 0
        dmu = -mu - mu * dz / z
        gap = float(z @ mu)
        gap_aff = float((z + _to_boundary(z, dz, 1.0) * dz)
                        @ (mu + _to_boundary(mu, dmu, 1.0) * dmu))
        sigma = (gap_aff / gap) ** 3 if gap > 0 else 0.0
        # IPOPT's fraction to the boundary (Waechter & Biegler, Math.
        # Program. 2006): early steps keep 1% of every slack and multiplier
        xi = max(_XI_MIN, 1.0 - gap / niq)
        # corrector: the centering target and the second-order term; the
        # target stops where the gap meets a tenth of the tolerance, since a
        # smaller one drives z of the active bounds towards 0 and swamps
        # the Newton system with their weights mu / z.  Then, if needed,
        # the centered step
        for target in (max(sigma * gap / niq, 0.1 * _TOL / niq) - dz * dmu,
                       _SIGMA * gap / niq):
            dx, dlam = step(Lx + dh_t((mu * h + target) / z), g)
            if not (np.isfinite(dx).all() and np.isfinite(dlam).all()):
                break
            dz = -h - z - sign * dx[at]
            dmu = -mu + (target - mu * dz) / z
            alpha_p = _to_boundary(z, dz, xi)
            alpha_d = _to_boundary(mu, dmu, xi)
            if min(alpha_p, alpha_d) >= _SHORT_STEP:
                break
        if not (np.isfinite(dx).all() and np.isfinite(dlam).all()):
            break
        it += 1
        x = x + alpha_p * dx
        z = z + alpha_p * dz
        lam = lam + alpha_d * dlam
        mu = mu + alpha_d * dmu

        f0 = f
        pt = model.point(x)
        h, f, g, jac = sign * x[at] - limit, model.cost(x), model.balance(pt), model.jacobian(pt)
        Lx = model.cost_grad(x) + model.jacobian_t(jac, lam) + dh_t(mu)
        converged = done(f0)
        if (not np.isfinite(x).all() or alpha_p < _ALPHA_MIN or alpha_d < _ALPHA_MIN
                or not float(z @ mu) < _GAP_MAX):
            break

    meter = powerflow._METER.get()
    if meter is not None:
        meter.opf_solves += 1
        meter.opf_steps += it
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
    """Minimize dispatch cost with the tap ratios frozen as they stand,
    but for the ratio columns of ``model``, which are bounded by their tap
    ranges and start at the case's ratios.

    ``x0`` and ``duals`` warm-start the interior point from an earlier
    solution's ``raw_x`` and ``raw_duals``; without ``duals`` it starts
    cold.  ``model`` is the problem's :class:`_OpfModel`, built here (with
    no ratio column) if not given; it must hold the case's present tap
    ratios.

    The stationarity part of the reported KKT residual is measured on the
    cost normalized by its gradient scale, so the 1e-6 target is meaningful
    regardless of the currency units of the coefficients.  ``feasible`` is
    decided by the returned point's violation alone; ``converged`` says
    whether the interior-point run met its tolerances.
    """
    case = problem.case
    model = model or _OpfModel(problem)
    na = model.na
    v_lo = v_limits[0] if v_limits is not None else problem.v_min
    v_hi = v_limits[1] if v_limits is not None else problem.v_max
    gens, d = case.generators, problem.dispatchable
    p_lb, p_ub, q_lb, q_ub = gens.p_min[d], gens.p_max[d], gens.q_min[d], gens.q_max[d]
    lb = np.concatenate([np.full(na, -np.inf), v_lo, model.ratio_lb, p_lb, q_lb])
    ub = np.concatenate([np.full(na, np.inf), v_hi, model.ratio_ub, p_ub, q_ub])

    if x0 is None:
        buses = case.buses
        x0 = np.concatenate([buses.v_ang[model.nonslack], buses.v_mag,
                             model.ratio[model.tap_br], gens.p[d], gens.q[d]])
    x0 = np.clip(x0, lb, ub)

    ipm = _interior_point(model, x0, lb, ub, max_iterations, duals)

    va, vm, pg, qg = model.split(ipm.x)
    pg = np.clip(pg, p_lb, p_ub)
    qg = np.clip(qg, q_lb, q_ub)
    p = {gi: float(pg[j]) for j, gi in enumerate(problem.dispatchable)}
    q = {gi: float(qg[j]) for j, gi in enumerate(problem.dispatchable)}

    # the violation of the point returned, i.e. with the dispatch clipped
    violation = float(np.max(np.abs(
        model.balance(model.point(np.concatenate([ipm.x[: model.nv], pg, qg])))), initial=0.0))
    v_viol = float(np.max(np.maximum(v_lo - vm, vm - v_hi), initial=0.0))
    max_violation = max(violation, v_viol, 0.0)
    kkt = max(ipm.stationarity, ipm.complementarity, violation)

    return OpfSolution(
        p=p,
        q=q,
        v_mag=vm.copy(),
        v_ang=va.copy(),
        taps=case.oltcs.tap.tolist(),
        objective=dispatch_cost(problem, p),
        feasible=max_violation <= FEASIBILITY_TOL,
        kkt_residual=kkt,
        max_violation=max_violation,
        iterations=ipm.iterations,
        converged=ipm.converged,
        raw_x=ipm.x.copy(),
        raw_duals=(ipm.lam, ipm.mu),
    )


def _tap_start(problem: OpfProblem, rounds: int) -> dict | None:
    """Move the taps of ``problem.case`` to where the relaxation starts
    them, by the estimate and the start rule of the module docstring.

    Only the tap changers whose band cuts into their bus's final voltage
    limits get a ratio column and a banded bus in the estimate; every
    other tap stays.  If the band misses the limits, the tap rule moves
    the tap in every round; if the limits lie inside the band, it never
    moves it at the final bounds; either way the estimate does not show
    where the walk ends.

    Returns None if no tap gets an estimate, else the rounded estimate
    (None if the solve is unconverged or infeasible, and then every tap
    stays), the start taps, and the solve's interior-point steps,
    ``converged`` and ``feasible``."""
    case = problem.case
    t = case.oltcs
    at = _find(case.buses.id, t.controlled_bus)
    band_lo, band_hi = t.v_set - t.deadband / 2, t.v_set + t.deadband / 2
    v_min, v_max = problem.v_min[at], problem.v_max[at]
    free = np.flatnonzero((band_lo <= v_max) & (v_min <= band_hi)
                          & ((v_min < band_lo) | (band_hi < v_max)))
    if not free.size:
        return None
    v_lo, v_hi = problem.v_min.copy(), problem.v_max.copy()
    np.maximum.at(v_lo, at[free], band_lo[free])
    np.minimum.at(v_hi, at[free], band_hi[free])
    model = _OpfModel(problem, free)
    est = solve_continuous(problem, v_limits=(v_lo, v_hi), model=model)
    estimate = None
    if est.converged and est.feasible:
        estimate = t.tap.copy()
        estimate[free] = np.rint((model.ratios(est.raw_x) - 1.0) / t.tap_step[free])
        t.tap[:] = _start_taps(t.tap, estimate, rounds)
        case.sync_ratios()
        estimate = estimate.tolist()
    return {"estimate": estimate, "taps": t.tap.tolist(), "iterations": est.iterations,
            "converged": est.converged, "feasible": est.feasible}


def _start_taps(taps: np.ndarray, estimate: np.ndarray, rounds: int) -> np.ndarray:
    """Each tap whose estimate lies more than ``rounds`` positions away,
    moved to ``rounds - 1`` positions short of it; every other tap where it
    is."""
    d = estimate - taps
    return taps + np.where(np.abs(d) > rounds, np.sign(d) * (np.abs(d) - (rounds - 1)), 0)


def solve_with_relaxation(
    problem: OpfProblem,
    schedule: RelaxationSchedule | None = None,
) -> OpfSolution:
    """Outer loop coupling the continuous solve with one-step tap moves.

    The walk starts where :func:`_tap_start` puts the taps, and ``start``
    reports it.  It terminates once the voltage bounds have reached their
    final values and a whole round passes with no tap motion; a solution
    already inside the final bounds short-circuits the remaining
    tightening steps.  Taps freeze
    individually on direction reversal, and the total number of rounds is
    capped, mirroring the power-flow regulation safeguards: a run that
    reaches the cap ends with one more solve at the final bounds that moves
    no tap, and with ``settled=False``, since taps still wanted to move in
    its last counted round.  Each continuous solve leaves a row in
    ``trace``, which :func:`write_trace` writes out; this function writes
    no file.
    """
    schedule = schedule or RelaxationSchedule()
    if schedule.rounds < 1:
        raise ValueError("schedule needs at least one round")
    work = problem.case.clone()
    sub = OpfProblem(
        case=work, v_min=problem.v_min, v_max=problem.v_max,
        dispatchable=problem.dispatchable,
    )

    start = _tap_start(sub, schedule.rounds)
    # the stepper moves the taps of the case's one-copy stack, a view of it,
    # and sets their branch ratios, which the model then reads
    stepper = TapStepper(CaseStack.of(work), _find(work.buses.id, work.oltcs.controlled_bus))
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
        limits = (problem.v_min - slack, problem.v_max + slack)
        sol = solve_continuous(sub, v_limits=limits, x0=warm, duals=duals, model=model)
        steps = sol.iterations
        if duals is not None and (not sol.converged or sol.max_violation > 1e-4):
            # a warm start that stalled: the round once more from a cold start
            sol = solve_continuous(sub, v_limits=limits, x0=warm, model=model)
            steps += sol.iterations
        iterations += steps
        converged = converged and sol.converged
        # round `cap` only re-solves at the final bounds: it neither raises
        # on its violation nor moves a tap
        if sol.max_violation > 1e-4 and k < cap:
            raise RelaxationError(k, (slack, slack))
        warm, duals = sol.raw_x, sol.raw_duals

        v_gap = float(np.max(np.maximum(problem.v_min - sol.v_mag,
                                        sol.v_mag - problem.v_max), initial=0.0))
        final_viol = max(sol.max_violation, v_gap)
        deltas = (stepper.propose(sol.v_mag[None, stepper.at]) if k < cap
                  else np.zeros((1, len(work.oltcs)), dtype=int))
        moved = int(np.count_nonzero(deltas))
        trace.append(
            {
                "round": k,
                "objective": sol.objective,
                "max_violation": final_viol,
                "taps_moved": moved,
                "taps": work.oltcs.tap.tolist(),
                "v_slack": slack,
                "iterations": steps,
            }
        )
        if moved == 0 and (slack == 0.0 or v_gap <= FEASIBILITY_TOL):
            break
        stepper.apply(deltas)
        if moved:
            model.retap(work.branches.ratio)

    t = work.oltcs
    taps_ok = bool(np.all((t.tap_min <= t.tap) & (t.tap <= t.tap_max)))
    return OpfSolution(
        p=sol.p,
        q=sol.q,
        v_mag=sol.v_mag,
        v_ang=sol.v_ang,
        taps=t.tap.tolist(),
        objective=sol.objective,
        feasible=bool(final_viol <= FEASIBILITY_TOL and taps_ok),
        kkt_residual=sol.kkt_residual,
        max_violation=final_viol,
        iterations=iterations,
        converged=converged,
        relaxation_rounds=min(k + 1, cap),  # the closing solve at the cap is no round
        settled=k < cap,
        trace=trace,
        start=start,
    )


def write_trace(path: Path, trace: list[dict]) -> None:
    """Write a relaxation trace as CSV, a row per continuous solve."""
    caseio._write_csv(path, ["round", "objective", "max_violation", "taps_moved"],
                      ([row["round"], repr(row["objective"]), repr(row["max_violation"]),
                        row["taps_moved"]] for row in trace))


def apply_opf_solution(
    case: NetworkCase, problem: OpfProblem, sol: OpfSolution
) -> None:
    """Write dispatch, voltages and tap positions back onto a case so that a
    plain power flow reproduces the optimized operating point."""
    gens = case.generators
    case.buses.v_mag[:], case.buses.v_ang[:] = sol.v_mag, sol.v_ang
    gens.p[problem.dispatchable] = [sol.p[i] for i in problem.dispatchable]
    gens.q[problem.dispatchable] = [sol.q[i] for i in problem.dispatchable]
    gens.v_set[gens.controllable] = sol.v_mag[_find(case.buses.id, gens.bus_id[gens.controllable])]
    case.oltcs.tap[:] = sol.taps
    case.sync_ratios()
