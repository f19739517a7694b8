"""Full Newton-Raphson AC power flow in polar coordinates, over a batch.

The kernel (:func:`solve_batch`) solves a list of cases of one structure:
the same buses and bus kinds, branches, generator buses and tap changers.
The cases, typically the copies of one distribution feeder, may differ only
in loads, generator outputs, tap positions and stored voltages.  The
structure is checked and indexed once per call.  Each case becomes one row
of (B, n) voltage and injection arrays; its tap branches get their own
admittances.  Every Newton step works on all unconverged rows at once, and
a row that converges is masked out and never updated again.  A row's numbers
do not depend on the batch around it: it passes through the same
elementwise operations and the same LAPACK call whatever the batch size and
its position (a large batch is cut into chunks for that, see
``_ELIDE_BYTES``).  :func:`solve` is the one-item call.

Both placements share one Ybus and one Jacobian evaluation: the admittance
terms are added up once per Ybus entry (:class:`_Admittance`), and each
Newton step evaluates one entry-wise dS/dV over the batch (:func:`_dS_dV`,
which the OPF shares).  Matrix size decides only where those values go and
how the step is solved, by one rule (:func:`_dense`) that the OPF's KKT step
follows too: up to ``DENSE_MAX_ROWS`` rows, such as the Jacobians of the
feeder copies, into stacked (B, m, m) arrays solved with LAPACK, since at
that size scipy.sparse objects cost more than the arithmetic; above it, such
as the combined T&D case, into one CSC matrix per case factorized with
SuperLU.  The combined case repeats one feeder's block many times, so SuperLU
pivots by a threshold (``SPARSE_LU_PIVOT``) that keeps its fill from hanging
on how ties between those equal entries round.  The formulation is polar
full Newton, because distribution feeders with high R/X ratios defeat the
fast-decoupled shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .netmodel import BusKind, NetworkCase, islands

# Largest matrix, in rows, that a Newton step solves dense.  Measured per
# Newton step on random networks (2-core VM, one BLAS thread), dense costs as
# much as sparse at about 200 rows for NR Jacobians (2 rows per bus, so about
# 100 buses) and at about 260 rows for OPF KKT matrices (about 4 rows per
# bus); the smaller crossover keeps dense from ever being the slow choice.
DENSE_MAX_ROWS = 200

# Column ordering of SuperLU's sparse LU: minimum degree on A^T + A.  On the
# 17,927-bus combined case it cuts a 3-iteration solve from 1.7 to 0.17 s
# (2-core VM) against the default COLAMD, with the same voltages to 2.3e-15.
SPARSE_LU_ORDERING = "MMD_AT_PLUS_A"

# SuperLU's threshold partial pivoting (Demmel, Eisenstat, Gilbert, Li & Liu,
# SIAM J. Matrix Anal. Appl. 1999): a diagonal entry stays the pivot while it
# is at least this share of the largest one in its column.  The combined case
# repeats one feeder's Jacobian block many times, and with the default share
# of 1.0 ties between those equal entries go by last-bit rounding, and the
# fill with them: the first Jacobian of the 17,927-bus case held 1.21 M or
# 2.12 M non-zeros in L+U depending on the last bits of its values.  At 0.1
# it holds 0.25 M either way and factorizes in 0.02 s instead of 0.08 s
# (2-core VM).
SPARSE_LU_PIVOT = 0.1


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


# numpy computes ``a * b`` in the buffer of b, with the operands swapped,
# when b is a temporary of at least 256 KiB, and a complex product then
# rounds differently in the last bit.  A batch is solved in chunks whose
# elementwise arrays stay below that size, so a case gets the same numbers
# in a batch as alone; a case that large alone is solved one at a time.
_ELIDE_BYTES = 256 * 1024

_BRANCH_PARAMS = attrgetter("status", "r", "x", "b_charging", "phase_shift", "ratio")
_BUS_STATE = attrgetter("p_load", "q_load", "v_mag", "v_ang")
_GEN_OUTPUT = attrgetter("p", "q")
_SHUNT = attrgetter("g_shunt", "b_shunt")


def _values(values, rows: int, width: int) -> np.ndarray:
    """A (rows, width) float array of ``values``, given row by row."""
    return np.fromiter(values, dtype=float, count=rows * width).reshape(rows, width)


def _gather(records, fields: attrgetter, width: int) -> np.ndarray:
    """The ``fields`` of every record as a (records, width) float array,
    without a list of per-record tuples."""
    return _values(chain.from_iterable(map(fields, records)), len(records), width)


class _Admittance:
    """The branch and shunt admittances of one network, and its Ybus pattern.

    Each in-service branch contributes its four pi-model terms (I_from =
    yff V_f + yft V_t, I_to = ytf V_f + ytt V_t), then each shunt its
    admittance.  The Ybus entries (``r``, ``c``) are the positions some term
    reaches, row major, which is also their CSR order; ``slot`` names each
    term's entry.  Only branch ratios are read per evaluation, as a
    (B, branches) array, so one instance serves every tap position."""

    def __init__(self, case: NetworkCase, idx: dict[int, int]):
        brs = case.branches
        m, n = len(brs), len(case.buses)
        self.n = n
        ends = chain.from_iterable((idx[br.from_bus], idx[br.to_bus]) for br in brs)
        self.f, self.t = np.fromiter(ends, dtype=int, count=2 * m).reshape(m, 2).T
        par = _gather(brs, _BRANCH_PARAMS, 6)
        on = par[:, 0] != 0
        zero = on & (par[:, 1] == 0.0) & (par[:, 2] == 0.0)
        if zero.any():
            raise PowerFlowError(f"branch {zero.argmax()} is in service with zero impedance")
        y = np.zeros(m, dtype=complex)
        y[on] = 1.0 / (par[on, 1] + 1j * par[on, 2])
        self.neg_y = -y
        self.ytt = np.where(on, y + 0.5j * par[:, 3], 0.0)
        self.rot = np.exp(1j * par[:, 4])
        self.ratio = par[:, 5].copy()

        shunt = _gather(case.buses, _SHUNT, 2).view(complex)[:, 0]   # g + jb
        has = np.flatnonzero(shunt)
        self.shunt = shunt[has]
        # per in-service branch its yff, ytt, yft, ytf (see ``entry_values``), then the shunts
        k = np.flatnonzero(on)
        self.pick = np.concatenate([(k[:, None] + m * np.arange(4)).ravel(), 4 * m + np.arange(len(has))])
        f, t = self.f[k], self.t[k]
        rows = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), has])
        cols = np.concatenate([np.stack([f, t, t, f], axis=1).ravel(), has])
        pos, self.slot = np.unique(rows * n + cols, return_inverse=True)
        self.r, self.c = np.divmod(pos, n)
        self.indptr = np.searchsorted(self.r, np.arange(n + 1))

    def terms(self, ratio: np.ndarray):
        """(yff, yft, ytf, ytt) per case and branch for ratios (B, branches);
        out-of-service branches have all four zero."""
        tap = ratio * self.rot
        yff = self.ytt / (tap * np.conj(tap))
        return yff, self.neg_y / np.conj(tap), self.neg_y / tap, np.broadcast_to(self.ytt, yff.shape)

    def entry_values(self, terms) -> np.ndarray:
        """Ybus at its entries per case (B, entries): every admittance term
        added to its entry, in term order."""
        yff, yft, ytf, ytt = terms
        B, ne = len(yff), len(self.r)
        shunt = np.broadcast_to(self.shunt, (B, len(self.shunt)))
        vals = np.concatenate([yff, ytt, yft, ytf, shunt], axis=1)[:, self.pick]
        y = np.zeros(B * ne, dtype=complex)
        np.add.at(y, (self.slot + ne * np.arange(B)[:, None]).ravel(), vals.ravel())
        return y.reshape(B, ne)

    def matrices(self, y: np.ndarray, dense: bool):
        """Ybus per case from its entry values y (B, entries): stacked
        (B, n, n) arrays if ``dense``, else a list of CSR matrices on the one
        pattern.  Either way a case's Ybus holds the same numbers."""
        n = self.n
        if not dense:
            return [sp.csr_matrix((yk, self.c, self.indptr), shape=(n, n)) for yk in y]
        Y = np.zeros((len(y), n * n), dtype=complex)
        Y[:, self.r * n + self.c] = y
        return Y.reshape(-1, n, n)

    def ybus(self, ratio: np.ndarray) -> sp.csr_matrix:
        """One case's Ybus as CSR, for branch ratios ``ratio``."""
        (Y,) = self.matrices(self.entry_values(self.terms(ratio[None])), dense=False)
        return Y


def build_ybus(case: NetworkCase) -> sp.csr_matrix:
    """N x N complex admittance matrix over the case's bus ordering."""
    adm = _Admittance(case, case.bus_index())
    return adm.ybus(adm.ratio)


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


def _factor(A):
    """Factor A once: a function that solves A x = b for any b, or None if
    A is singular.  An ndarray goes to LAPACK ``getrf``, which reports an
    exact zero pivot in its ``info`` (``scipy.linalg.lu_factor`` only warns),
    and is overwritten by its factors; a sparse matrix goes to SuperLU."""
    if isinstance(A, np.ndarray):
        # A^T is A's memory in Fortran order, so getrf factors it without a
        # copy, and getrs with trans=1 solves A x = b from its factors
        lu, piv, info = lapack.dgetrf(A.T, overwrite_a=True)
        if info != 0:
            return None
        return lambda b: lapack.dgetrs(lu, piv, b, trans=1)[0]
    try:
        lu = splu(A, permc_spec=SPARSE_LU_ORDERING, diag_pivot_thresh=SPARSE_LU_PIVOT)
    except RuntimeError:   # exactly singular
        return None
    return lu.solve


def _solve_linear(A, b) -> np.ndarray | None:
    """Solve A x = b by :func:`_factor`; None if A is singular or x is not
    finite."""
    solve = _factor(A)
    if solve is None:
        return None
    x = solve(b)
    return x if np.all(np.isfinite(x)) else None


def _dS_dV(V, Ibus, r, c, y) -> tuple[np.ndarray, np.ndarray]:
    """dS/dVa and dS/dVm of the injections S = V conj(Ibus), Ibus = Ybus V,
    entry by entry (MATPOWER's ``dSbus_dV``): the values at the Ybus entries
    (r, c, y), then at the diagonal (i, i) of every bus; values at one
    position add up.  A leading batch axis on V, Ibus and y carries over."""
    Vnorm = V / np.abs(V)
    dSa = 1j * np.concatenate([-V[..., r] * np.conj(y * V[..., c]), V * np.conj(Ibus)], axis=-1)
    dSm = np.concatenate([V[..., r] * np.conj(y * Vnorm[..., c]), np.conj(Ibus) * Vnorm], axis=-1)
    return dSa, dSm


def _placement(adm: _Admittance, pvpq, pq):
    """Where the NR Jacobian puts the values of :func:`_dS_dV`: P rows at
    pvpq, then Q rows at pq; Va columns at pvpq, then Vm columns at pq.
    ``take`` picks from (Re dS/dVa, Re dS/dVm, Im dS/dVa, Im dS/dVm), as
    positions in the float view of the complex (dS/dVa, dS/dVm), and
    ``rows``/``cols`` place each picked value."""
    r, c = adm.r, adm.c
    n, npvpq = adm.n, len(pvpq)
    at_a = np.full(n, -1)  # P row and Va column of each bus
    at_a[pvpq] = np.arange(npvpq)
    at_m = np.full(n, -1)  # Q row and Vm column
    at_m[pq] = npvpq + np.arange(len(pq))
    rb = np.concatenate([r, np.arange(n)])  # bus of each dS value
    rows = np.concatenate([at_a[rb], at_a[rb], at_m[rb], at_m[rb]])
    cols = np.concatenate([at_a[c], at_a, at_m[c], at_m] * 2)
    take = np.flatnonzero((rows >= 0) & (cols >= 0))
    half = 2 * len(rb)   # the real parts, then the imaginary parts
    take_view = np.where(take < half, 2 * take, 2 * (take - half) + 1)
    return take_view, rows[take], cols[take]


def _jacobians(adm: _Admittance, place, V, Ibus, y, m: int, dense: bool):
    """The m x m NR Jacobian of every case at V (B, n) and Ybus entry values
    y (B, entries), from one dS/dV over the batch: placed into one (B, m, m)
    array if ``dense``, else into a CSC matrix per case."""
    take, rows, cols = place
    vals = np.concatenate(_dS_dV(V, Ibus, adm.r, adm.c, y), axis=-1).view(float)[:, take]
    if not dense:
        return [_place(v, rows, cols, (m, m), False) for v in vals]
    B = len(vals)
    at = rows * m + cols
    if B > 1:
        at = (at + (m * m) * np.arange(B)[:, None]).ravel()
    return np.bincount(at, weights=vals.ravel(), minlength=B * m * m).reshape(B, m, m)


def _newton_steps(J, F) -> tuple[np.ndarray, np.ndarray]:
    """Solve J dx = F for every case: the steps (B, m) and which of them
    exist (a singular J or a non-finite step has none)."""
    if isinstance(J, np.ndarray):
        try:
            dx = np.linalg.solve(J, F[..., None])[..., 0]
            return dx, np.isfinite(dx).all(axis=1)
        except np.linalg.LinAlgError:
            # find the singular ones; each case gets the same LAPACK call
            dx, ok = np.zeros_like(F), np.zeros(len(F), dtype=bool)
            for k in range(len(F)):
                try:
                    step = np.linalg.solve(J[k : k + 1], F[k : k + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    continue
                ok[k] = np.all(np.isfinite(step))
                if ok[k]:
                    dx[k] = step
            return dx, ok
    steps = [_solve_linear(Jk, Fk) for Jk, Fk in zip(J, F)]
    ok = np.array([step is not None for step in steps])
    dx = np.zeros_like(F)
    for k, step in enumerate(steps):
        if step is not None:
            dx[k] = step.ravel()
    return dx, ok


def _currents(Y, V) -> np.ndarray:
    """Ybus V per case."""
    if isinstance(Y, np.ndarray):
        return (Y @ V[..., None])[..., 0]
    return np.array([Yk @ Vk for Yk, Vk in zip(Y, V)]).reshape(V.shape)


def _mismatch(V, Ibus, Sbus, pvpq, pq) -> np.ndarray:
    mis = V * np.conj(Ibus) - Sbus
    return np.concatenate([mis[..., pvpq].real, mis[..., pq].imag], axis=-1)


def _worst(F) -> np.ndarray:
    """The largest |mismatch| of every case (0 without unknowns)."""
    return np.abs(F).max(axis=1) if F.shape[1] else np.zeros(len(F))


_BUS_KEY = attrgetter("id", "kind", "g_shunt", "b_shunt")
_BRANCH_KEY = attrgetter("from_bus", "to_bus", "status", "r", "x", "b_charging", "phase_shift")


def _key(case: NetworkCase, taps: list[int]) -> tuple:
    """Everything a batch shares; the tap branches' ratios may differ."""
    ratios = [br.ratio for br in case.branches]
    for k in taps:
        ratios[k] = None
    return (
        list(map(_BUS_KEY, case.buses)), list(map(_BRANCH_KEY, case.branches)), ratios,
        [g.bus_id for g in case.generators], [t.branch_ref for t in case.oltcs],
    )


@dataclass
class _Structure:
    """What every case of one batch shares, checked and indexed once."""

    adm: _Admittance
    pvpq: np.ndarray
    pq: np.ndarray
    gen_pos: np.ndarray      # bus position of each generator
    set_pos: np.ndarray      # slack/PV bus positions ...
    set_gen: list[int]       # ... and the generator whose v_set each holds
    tap_br: list[int]        # branches whose ratio may differ per case
    dense: bool
    chunk: int               # cases solved together, at most
    place: tuple | None = None


def _structure(cases: list[NetworkCase]) -> _Structure:
    """Check the first case and index it; raise ValueError if another case
    does not share its structure."""
    case = cases[0]
    kinds = [b.kind for b in case.buses]
    slacks = kinds.count(BusKind.SLACK)
    if slacks != 1:
        raise PowerFlowError(f"need exactly one slack bus, found {slacks}")
    if len(islands(case)) != 1:
        raise PowerFlowError("network is not connected")
    tap_br = sorted({t.branch_ref for t in case.oltcs})
    if len(cases) > 1:
        key = _key(case, tap_br)
        for k, other in enumerate(cases[1:], 1):
            if _key(other, tap_br) != key:
                raise ValueError(f"case {k} of the batch differs in structure from case 0")

    idx = case.bus_index()
    adm = _Admittance(case, idx)
    gen_pos = np.fromiter((idx[g.bus_id] for g in case.generators), dtype=int,
                          count=len(case.generators))
    # the |V| setpoint of a slack/PV bus comes from its first generator
    first: dict[int, int] = {}
    for j, i in enumerate(gen_pos.tolist()):
        first.setdefault(i, j)
    is_pq = np.fromiter((kind is BusKind.PQ for kind in kinds), dtype=bool, count=len(kinds))
    is_pv = np.fromiter((kind is BusKind.PV for kind in kinds), dtype=bool, count=len(kinds))
    set_pos = np.flatnonzero(~is_pq)
    for i in set_pos.tolist():
        if i not in first:
            b = case.buses[i]
            raise PowerFlowError(f"{b.kind.value} bus {b.id} has no generator")
    pq = np.flatnonzero(is_pq)
    pvpq = np.concatenate([np.flatnonzero(is_pv), pq])
    return _Structure(
        adm=adm, pvpq=pvpq, pq=pq, gen_pos=gen_pos,
        set_pos=set_pos, set_gen=[first[i] for i in set_pos.tolist()], tap_br=tap_br,
        dense=_dense(len(pvpq) + len(pq)),
        # the widest elementwise array of a case, dS/dV, holds fewer than
        # 2 (terms + buses) complex values
        chunk=max(1, (_ELIDE_BYTES - 1) // (32 * (len(adm.slot) + adm.n))),
    )


def _inputs(st: _Structure, cases: list[NetworkCase]):
    """Per case (one row each): branch ratios, specified injections S =
    generation - load, and the starting |V| and angle, with every slack/PV
    bus at its setpoint."""
    B, n = len(cases), st.adm.n
    ratio = np.repeat(st.adm.ratio[None], B, axis=0)
    if st.tap_br:
        ratio[:, st.tap_br] = _values((c.branches[k].ratio for c in cases for k in st.tap_br),
                                      B, len(st.tap_br))
    # per bus (p_load + j q_load, v_mag + j v_ang)
    bus = _gather([b for c in cases for b in c.buses], _BUS_STATE, 4).view(complex).reshape(B, n, 2)
    Sbus = -bus[..., 0]
    if len(st.gen_pos):
        gen = _gather([g for c in cases for g in c.generators], _GEN_OUTPUT, 2).view(complex)
        # generator by generator, in case order
        np.add.at(Sbus.reshape(-1), (st.gen_pos + n * np.arange(B)[:, None]).ravel(), gen.ravel())
    vm, va = bus[..., 1].real.copy(), bus[..., 1].imag.copy()
    vm[:, st.set_pos] = _values((c.generators[j].v_set for c in cases for j in st.set_gen),
                                B, len(st.set_gen))
    return ratio, Sbus, vm, va


def _solve(st: _Structure, cases: list[NetworkCase], opts: SolverOptions) -> list:
    """Newton-Raphson on every case of one structure; per case its
    :class:`PowerFlowSolution` or its :class:`SingularJacobianError`."""
    B, adm, dense = len(cases), st.adm, st.dense
    pvpq, pq, npvpq = st.pvpq, st.pq, len(st.pvpq)
    if B > st.chunk:
        return [result for k in range(0, B, st.chunk)
                for result in _solve(st, cases[k : k + st.chunk], opts)]
    ratio, Sbus, vm, va = _inputs(st, cases)
    terms = adm.terms(ratio)
    y = adm.entry_values(terms)
    Y = adm.matrices(y, dense)
    V = vm * np.exp(1j * va)
    Ibus = _currents(Y, V)
    F = _mismatch(V, Ibus, Sbus, pvpq, pq)
    iterations = np.zeros(B, dtype=int)
    singular = np.zeros(B, dtype=bool)

    # the unconverged cases: row j of the working arrays (w*) is case act[j]
    act = np.flatnonzero(~(_worst(F) < opts.tolerance))
    if act.size:
        if st.place is None:
            st.place = _placement(adm, pvpq, pq)
        if act.size == B:   # the common case: no copies
            wva, wvm, wS, wy, wV, wI, wF, wY = va, vm, Sbus, y, V, Ibus, F, Y
        else:
            wva, wvm, wS, wy, wV, wI, wF = (a[act] for a in (va, vm, Sbus, y, V, Ibus, F))
            wY = Y[act] if dense else [Y[k] for k in act]
    it = 0
    while act.size and it < opts.max_iterations:
        dx, ok = _newton_steps(_jacobians(adm, st.place, wV, wI, wy, F.shape[1], dense), wF)
        wva[:, pvpq] -= dx[:, :npvpq]
        wvm[:, pq] -= dx[:, npvpq:]
        wV = wvm * np.exp(1j * wva)
        wI = _currents(wY, wV)
        wF = _mismatch(wV, wI, wS, pvpq, pq)
        it += 1
        done = ~ok | (np.abs(wF).max(axis=1) < opts.tolerance) | (it == opts.max_iterations)
        if done.any():
            # these cases leave the batch for good: keep their last state
            fin = act[done]
            singular[act[~ok]] = True
            V[fin], Ibus[fin], F[fin], iterations[fin] = wV[done], wI[done], wF[done], it
            keep = ~done
            act = act[keep]
            if act.size:
                wva, wvm, wS, wy, wV, wI, wF = (a[keep] for a in (wva, wvm, wS, wy, wV, wI, wF))
                wY = wY[keep] if dense else [Yk for Yk, k in zip(wY, keep) if k]
    converged = _worst(F) < opts.tolerance

    S = V * np.conj(Ibus)
    yff, yft, ytf, ytt = terms
    Vf, Vt = V[:, adm.f], V[:, adm.t]
    Sf = Vf * np.conj(yff * Vf + yft * Vt)
    St = Vt * np.conj(ytf * Vf + ytt * Vt)
    v_mag, v_ang = np.abs(V), np.angle(V)
    P, Q, Pf, Qf, Pt, Qt = S.real, S.imag, Sf.real, Sf.imag, St.real, St.imag
    if F.shape[1]:
        absF = np.abs(F)
        worst = absF.argmax(axis=1)
        max_mismatch = absF[np.arange(B), worst].tolist()
        # F holds P at pvpq, then Q at pq
        worst_pos = np.concatenate([pvpq, pq])[worst].tolist()
    out: list = []
    for k, case in enumerate(cases):
        if singular[k]:
            out.append(SingularJacobianError("singular Jacobian"))
            continue
        out.append(PowerFlowSolution(
            v_mag=v_mag[k],
            v_ang=v_ang[k],
            p_inj=P[k],
            q_inj=Q[k],
            p_from=Pf[k],
            q_from=Qf[k],
            p_to=Pt[k],
            q_to=Qt[k],
            converged=bool(converged[k]),
            iterations=int(iterations[k]),
            max_mismatch=max_mismatch[k] if F.shape[1] else 0.0,
            mismatch_bus=case.buses[worst_pos[k]].id if F.shape[1] else None,
        ))
    return out


def solve_batch(
    cases: list[NetworkCase], opts: SolverOptions | None = None
) -> list[PowerFlowSolution | PowerFlowError]:
    """Newton-Raphson solve of cases of one structure (see the module
    docstring), with fixed bus types: a PV bus holds its voltage setpoint
    whatever reactive output that takes.  Returns, per case, its solution
    or its :class:`SingularJacobianError`; a structural problem (no single
    slack, islands) raises for the whole batch.  No case is mutated; use
    :func:`apply_solution` to store a result between solver calls."""
    if not cases:
        return []
    return _solve(_structure(cases), cases, opts or SolverOptions())


def solve(case: NetworkCase, opts: SolverOptions | None = None) -> PowerFlowSolution:
    """:func:`solve_batch` of one case; raises its error."""
    (result,) = solve_batch([case], opts)
    if isinstance(result, PowerFlowError):
        raise result
    return result


def apply_solution(case: NetworkCase, sol: PowerFlowSolution) -> None:
    """Write a solution back onto the case: every bus voltage, and at each
    slack/PV bus its Q (at the slack also its P) spread over the bus's
    controllable generators."""
    regulated = []
    for i, (b, vm, va) in enumerate(zip(case.buses, sol.v_mag.tolist(), sol.v_ang.tolist())):
        b.v_mag = vm
        b.v_ang = va
        if b.kind is not BusKind.PQ:
            regulated.append((i, b))
    if not regulated:
        return
    gens_by_bus: dict[int, list] = {}
    for g in case.generators:
        gens_by_bus.setdefault(g.bus_id, []).append(g)
    for i, b in regulated:
        at_bus = gens_by_bus.get(b.id, [])
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
