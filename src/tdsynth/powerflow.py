"""Full Newton-Raphson AC power flow in polar coordinates.

Every Newton step takes its Jacobian from one entry-wise dS/dV
(:func:`_dS_dV`, which the OPF shares).  Matrix size decides only where the
entries go and how the step is solved, by one rule (:func:`_dense`) that the
OPF's KKT step follows too: up to ``DENSE_MAX_ROWS`` rows, such as the
Jacobians of the feeder copies solved thousands of times per run, into a
dense array solved with LAPACK, since at that size scipy.sparse objects cost
more than the arithmetic; above it, such as the combined T&D case, into a CSC
matrix factorized with SuperLU.  The formulation is polar full Newton,
because distribution feeders with high R/X ratios defeat the fast-decoupled
shortcuts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .netmodel import BusKind, NetworkCase, islands

# Largest matrix, in rows, that a Newton step solves dense.  Measured per
# Newton step on random networks (2-core VM, one BLAS thread), dense costs as
# much as sparse at about 200 rows for NR Jacobians (2 rows per bus, so about
# 100 buses) and at about 260 rows for OPF KKT matrices (about 4 rows per
# bus); the smaller crossover keeps dense from ever being the slow choice.
DENSE_MAX_ROWS = 200

# Column ordering of SuperLU's sparse LU: minimum degree on A^T + A.  On the
# 17,927-bus combined case it cuts a 3-iteration solve from 2.3 to 0.5 s
# (2-core VM) against the default COLAMD, with the same voltages to 1.5e-14.
SPARSE_LU_ORDERING = "MMD_AT_PLUS_A"


class PowerFlowError(RuntimeError):
    pass


class SingularJacobianError(PowerFlowError):
    pass


@dataclass
class SolverOptions:
    tolerance: float = 1e-8      # max |S_calc - S_spec| accepted, per unit
    max_iterations: int = 20

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class PowerFlowSolution:
    v_mag: np.ndarray
    v_ang: np.ndarray
    p_inj: np.ndarray            # net active injection per bus
    q_inj: np.ndarray
    p_from: np.ndarray           # branch flows, sending end
    q_from: np.ndarray
    p_to: np.ndarray
    q_to: np.ndarray
    converged: bool
    iterations: int
    max_mismatch: float
    mismatch_bus: int | None = None  # bus id holding max_mismatch; None if no unknowns


@dataclass
class _BranchTerms:
    """Per-branch pi-model admittances, with I_from = yff V_f + yft V_t and
    I_to = ytf V_f + ytt V_t.  Out-of-service branches have all four zero."""

    f: np.ndarray    # from-bus position
    t: np.ndarray    # to-bus position
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    on: np.ndarray   # in service


def _branch_terms(case: NetworkCase, idx: dict[int, int]) -> _BranchTerms:
    brs = case.branches
    m = len(brs)
    f = np.fromiter((idx[br.from_bus] for br in brs), dtype=int, count=m)
    t = np.fromiter((idx[br.to_bus] for br in brs), dtype=int, count=m)
    on = np.fromiter((br.status for br in brs), dtype=bool, count=m)
    for k, br in enumerate(brs):
        if br.status and br.r == 0.0 and br.x == 0.0:
            raise PowerFlowError(f"branch {k} is in service with zero impedance")
    # CPython's complex division, not numpy's: the two differ in the last bit
    # for some quotients, and this one keeps Ybus, and so the exported
    # states, bit for bit as earlier versions computed them
    y = np.array([1.0 / complex(br.r, br.x) if br.status else 0j for br in brs], dtype=complex)
    bc = 0.5j * np.fromiter((br.b_charging for br in brs), dtype=float, count=m)
    tap = np.fromiter((br.ratio for br in brs), dtype=float, count=m) * np.exp(
        1j * np.fromiter((br.phase_shift for br in brs), dtype=float, count=m)
    )
    ytt = np.where(on, y + bc, 0.0)
    return _BranchTerms(
        f=f, t=t, yff=ytt / (tap * np.conj(tap)), yft=-y / np.conj(tap), ytf=-y / tap,
        ytt=ytt, on=on,
    )


def _ybus(case: NetworkCase, br: _BranchTerms, dense: bool):
    """N x N complex admittance matrix: an ndarray if ``dense``, else CSR.
    Entries are summed branch by branch, then shunts, in case order."""
    n = len(case.buses)
    on = br.on
    rows = np.stack([br.f, br.t, br.f, br.t], axis=1)[on].ravel()
    cols = np.stack([br.f, br.t, br.t, br.f], axis=1)[on].ravel()
    vals = np.stack([br.yff, br.ytt, br.yft, br.ytf], axis=1)[on].ravel()
    shunt = np.array([complex(b.g_shunt, b.b_shunt) for b in case.buses], dtype=complex)
    has = np.flatnonzero(shunt)
    rows = np.concatenate([rows, has])
    cols = np.concatenate([cols, has])
    vals = np.concatenate([vals, shunt[has]])
    if dense:
        Y = np.zeros((n, n), dtype=complex)
        np.add.at(Y, (rows, cols), vals)
        return Y
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def build_ybus(case: NetworkCase) -> sp.csr_matrix:
    """N x N complex admittance matrix over the case's bus ordering."""
    return _ybus(case, _branch_terms(case, case.bus_index()), dense=False)


def _dense(rows: int) -> bool:
    """Whether a Newton matrix of ``rows`` rows is placed dense.  The
    constant is read at call time, so setting it to 0 forces SuperLU."""
    return rows <= DENSE_MAX_ROWS


def _place(vals, rows, cols, shape, dense: bool):
    """The values at (rows, cols), summed where positions repeat: an ndarray
    if ``dense``, else a CSC matrix."""
    if dense:
        return np.bincount(rows * shape[1] + cols, weights=vals,
                           minlength=shape[0] * shape[1]).reshape(shape)
    return sp.csc_matrix((vals, (rows, cols)), shape=shape)


def _solve_linear(A, b) -> np.ndarray | None:
    """Solve A x = b: LAPACK for an ndarray, SuperLU for a sparse matrix;
    None if A is singular or x is not finite."""
    if isinstance(A, np.ndarray):
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            return None
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            try:
                x = spsolve(A, b, permc_spec=SPARSE_LU_ORDERING)
            except (MatrixRankWarning, RuntimeError):
                return None
    return x if np.all(np.isfinite(x)) else None


def _dS_dV(Ybus, V, r, c, y) -> tuple[np.ndarray, np.ndarray]:
    """dS/dVa and dS/dVm of the injections S = V conj(Ybus V), entry by entry
    (MATPOWER's ``dSbus_dV``): the values at the Ybus entries (r, c, y), then
    at the diagonal (i, i) of every bus; values at one position add up."""
    Ibus = Ybus @ V
    Vnorm = V / np.abs(V)
    dSa = 1j * np.concatenate([-V[r] * np.conj(y * V[c]), V * np.conj(Ibus)])
    dSm = np.concatenate([V[r] * np.conj(y * Vnorm[c]), np.conj(Ibus) * Vnorm])
    return dSa, dSm


def _placement(Ybus, pvpq, pq):
    """The Ybus entries (r, c, y) and where the NR Jacobian puts the values of
    :func:`_dS_dV`: P rows at pvpq, then Q rows at pq; Va columns at pvpq,
    then Vm columns at pq.  ``take`` picks from (Re dS/dVa, Re dS/dVm,
    Im dS/dVa, Im dS/dVm), and ``rows``/``cols`` place each picked value."""
    if isinstance(Ybus, np.ndarray):
        r, c = np.nonzero(Ybus)
        y = Ybus[r, c]
    else:
        Y = Ybus.tocoo()
        r, c, y = Y.row, Y.col, Y.data
    n, npvpq = Ybus.shape[0], len(pvpq)
    at_a = np.full(n, -1)  # P row and Va column of each bus
    at_a[pvpq] = np.arange(npvpq)
    at_m = np.full(n, -1)  # Q row and Vm column
    at_m[pq] = npvpq + np.arange(len(pq))
    rb = np.concatenate([r, np.arange(n)])  # bus of each dS value
    rows = np.concatenate([at_a[rb], at_a[rb], at_m[rb], at_m[rb]])
    cols = np.concatenate([at_a[c], at_a, at_m[c], at_m] * 2)
    take = np.flatnonzero((rows >= 0) & (cols >= 0))
    return (r, c, y), take, rows[take], cols[take]


def _jacobian(Ybus, V, place, m: int):
    """The m x m NR Jacobian at V: an ndarray for a dense Ybus, else CSC."""
    (r, c, y), take, rows, cols = place
    dS = np.concatenate(_dS_dV(Ybus, V, r, c, y))
    vals = np.concatenate([dS.real, dS.imag])[take]
    return _place(vals, rows, cols, (m, m), isinstance(Ybus, np.ndarray))


def _newton_step(Ybus, V, F, place) -> np.ndarray:
    """Solve J dx = F: LAPACK for a dense Ybus, SuperLU for a sparse one."""
    dx = _solve_linear(_jacobian(Ybus, V, place, len(F)), F)
    if dx is None:
        raise SingularJacobianError("singular Jacobian")
    return dx


def _specified_injection(case: NetworkCase) -> np.ndarray:
    idx = case.bus_index()
    s = np.array([-complex(b.p_load, b.q_load) for b in case.buses])
    for g in case.generators:
        s[idx[g.bus_id]] += complex(g.p, g.q)
    return s


def _setpoint_voltages(case: NetworkCase) -> dict[int, float]:
    """|V| setpoint per slack/PV bus, taken from the first generator there."""
    vset: dict[int, float] = {}
    for b in case.buses:
        if b.kind is BusKind.PQ:
            continue
        gens = case.gens_at(b.id)
        if not gens:
            raise PowerFlowError(f"{b.kind.value} bus {b.id} has no generator")
        vset[b.id] = gens[0].v_set
    return vset


def _mismatch(Ybus, V, Sbus, pvpq, pq) -> np.ndarray:
    mis = V * np.conj(Ybus @ V) - Sbus
    return np.concatenate([mis[pvpq].real, mis[pq].imag])


def solve(case: NetworkCase, opts: SolverOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson solve with fixed bus types: a PV bus holds its voltage
    setpoint whatever reactive output that takes.  The case itself is never
    mutated; use :func:`apply_solution` to store the result between solver
    calls."""
    opts = opts or SolverOptions()
    slacks = case.slack_buses()
    if len(slacks) != 1:
        raise PowerFlowError(f"need exactly one slack bus, found {len(slacks)}")
    if len(islands(case)) != 1:
        raise PowerFlowError("network is not connected")

    n = len(case.buses)
    idx = case.bus_index()
    pv = np.array([i for i, b in enumerate(case.buses) if b.kind is BusKind.PV], dtype=int)
    pq = np.array([i for i, b in enumerate(case.buses) if b.kind is BusKind.PQ], dtype=int)
    pvpq = np.concatenate([pv, pq])

    br = _branch_terms(case, idx)
    Ybus = _ybus(case, br, dense=_dense(len(pvpq) + len(pq)))
    Sbus = _specified_injection(case)
    vset = _setpoint_voltages(case)

    vm = np.array([b.v_mag for b in case.buses], dtype=float)
    va = np.array([b.v_ang for b in case.buses], dtype=float)
    for bus_id, v in vset.items():
        vm[idx[bus_id]] = v

    V = vm * np.exp(1j * va)
    F = _mismatch(Ybus, V, Sbus, pvpq, pq)
    converged = bool(np.max(np.abs(F)) < opts.tolerance) if F.size else True
    iterations = 0

    place = None if converged else _placement(Ybus, pvpq, pq)
    while not converged and iterations < opts.max_iterations:
        dx = _newton_step(Ybus, V, F, place)
        va[pvpq] -= dx[: len(pvpq)]
        vm[pq] -= dx[len(pvpq) :]
        V = vm * np.exp(1j * va)
        iterations += 1
        F = _mismatch(Ybus, V, Sbus, pvpq, pq)
        converged = bool(np.max(np.abs(F)) < opts.tolerance) if F.size else True

    if F.size:
        worst = int(np.argmax(np.abs(F)))  # F holds P at pvpq, then Q at pq
        max_mismatch = float(abs(F[worst]))
        mismatch_bus = case.buses[np.concatenate([pvpq, pq])[worst]].id
    else:
        max_mismatch, mismatch_bus = 0.0, None
    S = V * np.conj(Ybus @ V)
    Vf, Vt = V[br.f], V[br.t]
    Sf = Vf * np.conj(br.yff * Vf + br.yft * Vt)
    St = Vt * np.conj(br.ytf * Vf + br.ytt * Vt)

    return PowerFlowSolution(
        v_mag=np.abs(V),
        v_ang=np.angle(V) if n else np.array([]),
        p_inj=S.real,
        q_inj=S.imag,
        p_from=Sf.real,
        q_from=Sf.imag,
        p_to=St.real,
        q_to=St.imag,
        converged=converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        mismatch_bus=mismatch_bus,
    )


def apply_solution(case: NetworkCase, sol: PowerFlowSolution) -> None:
    """Write a solution back onto the case: every bus voltage, and at each
    slack/PV bus its Q (at the slack also its P) spread over the bus's
    controllable generators."""
    idx = case.bus_index()
    for b in case.buses:
        i = idx[b.id]
        b.v_mag = float(sol.v_mag[i])
        b.v_ang = float(sol.v_ang[i])
        if b.kind is BusKind.PQ:
            continue
        at_bus = case.gens_at(b.id)
        gens = [g for g in at_bus if g.controllable]
        if not gens:
            continue
        q_total = float(sol.q_inj[i]) + b.q_load
        fixed_q = sum(g.q for g in at_bus if not g.controllable)
        share_q = (q_total - fixed_q) / len(gens)
        for g in gens:
            g.q = share_q
        if b.kind is BusKind.SLACK:
            p_total = float(sol.p_inj[i]) + b.p_load
            fixed_p = sum(g.p for g in at_bus if not g.controllable)
            share_p = (p_total - fixed_p) / len(gens)
            for g in gens:
                g.p = share_p
