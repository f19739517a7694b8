"""Full Newton-Raphson AC power flow in polar coordinates, over a batch.

The kernel (:func:`_solve`) solves the rows of a stacked table
(:class:`netmodel.CaseStack`): copies of one structure, the same buses and
bus kinds, branches, generators and tap changers, checked and indexed once
(:class:`_Structure`, which keeps its Jacobian placement and replica
blocks).  The copies, typically of one distribution feeder, differ only in
the stack's (B, ...) columns: loads, generator outputs and setpoints,
branch ratios and stored voltages.  :func:`_inputs` gathers the rows of
a stack, :func:`_newton` solves them, and :func:`_store` writes solved rows
back; a regulation (:func:`oltc._regulate`) gathers its rows once and
writes them back once, and in between re-solves the rows whose taps moved
from arrays it holds.  Every Newton step works on all unconverged rows at
once, and a row that converges is masked out and never updated again.
A row's numbers do not depend on the batch around it: it passes through the
same elementwise operations and the same LAPACK call whatever the batch
size and its position (a large batch is cut into chunks for that, see
``_ELIDE_BYTES``).  :func:`solve` is the API edge for one case: it checks
it, solves its one-copy stack, a view of it (:meth:`CaseStack.of`), and
returns its :class:`PowerFlowSolution`; batches enter only as stacks.

Ybus is held in one form only, its values at its entries
(:class:`_Admittance`): the admittance terms are added up once per entry,
the currents Ybus V are those values times V summed row by row
(:meth:`_Admittance.currents`), and each Newton step evaluates one
entry-wise dS/dV over the batch (:func:`_dS_dV`, which the OPF shares with
its layout, :func:`_placement`), from the same products y V[c] as its
currents (:meth:`_Admittance.products`).  One size rule (:func:`_dense`) decides
only where the Jacobian values go and how the step is solved:

- up to ``DENSE_MAX_ROWS`` rows, such as the Jacobians of the feeder
  copies: stacked (B, m, m) arrays solved with numpy's LAPACK
  (``np.linalg.solve``), since at that size sparse objects cost more than
  the arithmetic;
- above it, when every replica block is within it, such as the combined
  T&D case: replica blocks (:class:`_Blocks`).  The blocks come from the
  network graph, once per structure; all blocks of one size are solved in
  one stacked LAPACK call, then the Schur complement on the transmission
  border, placed by the same rule, then the blocks by back-substitution.
  A run of neighbouring blocks equal to the last bit, right-hand sides
  included, such as the copies of one host without ``random``, is solved
  once, by its first block.  That is exact for the reason above: a block
  gets the same LAPACK call and matmul whatever the batch around it, so
  every copy would get the same bits, and a singular block is singular in
  every copy;
- any other large matrix, or one with a singular block: one CSC matrix per
  case factorized with SuperLU.  It pivots by a threshold
  (``SPARSE_LU_PIVOT``) that keeps its fill from hanging on how ties
  between repeated feeder blocks round.

The OPF's KKT matrix takes the replica blocks first, whatever its size
(:func:`_replica_blocks` with each unknown at its bus), and the rule above
only where it has none or one is singular.  Its interior point solves each
factorization two or three times (:meth:`_Blocks.factor`), and runs of
equal blocks are solved once there too.

scipy loads only where SuperLU needs it, on first use: ``scipy.sparse``
and SuperLU in :func:`_place` and :func:`_factor` for a sparse matrix.
Every dense solve, and every solve on replica blocks, is numpy's, so
importing this module, every power flow whose matrices are dense or split
into replica blocks with a dense border, and every OPF whose KKT matrices
are too load no scipy.

One rule tells a singular case from a diverged one on every path
(:func:`_newton_steps`).  A :class:`Meter` lists each Newton step's path
(``linear_solves``) and counts the replica blocks placed and solved.  The
formulation is polar full Newton, because distribution feeders with high
R/X ratios defeat the fast-decoupled shortcuts.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields

import numpy as np

from .netmodel import (PQ, PV, SLACK, CaseStack, NetworkCase, _edges, _find, _island_of,
                       _lookup)

# Largest matrix, in rows, that a Newton step solves dense, and largest
# replica block.  Measured per Newton step on random networks (2-core VM, one
# BLAS thread), dense costs as much as sparse at about 200 rows for NR
# Jacobians (2 rows per bus, so about 100 buses) and at about 260 rows for
# OPF KKT matrices without replica blocks (about 4 rows per bus); the
# smaller crossover keeps dense from ever being the slow choice.
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
# So each product keeps its expression form: writing dS/dVa and dS/dVm
# into one buffer with ``out=`` moved the voltages of a 17,927-bus case by
# up to 8.9e-16.  Only a temporary that owns its data is reused: ``take``
# makes one, a fancy index ``V[..., c]`` of a 2-D V does not (of a 1-D V
# it does), and ``np.multiply(a, b)``, a call, reuses none.
_ELIDE_BYTES = 256 * 1024


def _quiet():
    """The floating-point state of a solve and of its solutions: a case that
    diverges, or has an extreme branch ratio, may overflow, divide by zero
    or make NaN, and ends unconverged or singular all the same."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + j im, exactly (without the products of ``re + 1j * im``)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


class _Admittance:
    """The branch and shunt admittances of one network, and Ybus as values
    at its entries.

    Each in-service branch contributes its four pi-model terms (I_from =
    yff V_f + yft V_t, I_to = ytf V_f + ytt V_t), then each shunt its
    admittance.  The Ybus entries (``r``, ``c``) are the positions some term
    reaches, and every diagonal, row major, which is also their CSR order:
    ``starts`` holds where each row's entries begin, and no row is empty.
    ``slot`` names each term's entry.  Ybus exists only as its values at
    these entries, (B, entries) per batch (:meth:`entry_values`), and
    :meth:`currents` is its one product with V.  Only branch ratios are read
    per evaluation, as a (B, branches) array, so one instance serves every
    tap position."""

    def __init__(self, case: NetworkCase):
        br = case.branches
        m, n = len(br), len(case.buses)
        self.n = n
        self.f, self.t = _find(case.buses.id, np.concatenate([br.from_bus, br.to_bus])).reshape(2, m)
        on = br.status
        zero = on & (br.r == 0.0) & (br.x == 0.0)
        if zero.any():
            raise PowerFlowError(f"branch {zero.argmax()} is in service with zero impedance")
        y = np.zeros(m, dtype=complex)
        y[on] = 1.0 / (br.r[on] + 1j * br.x[on])
        self.neg_y = -y
        self.ytt = np.where(on, y + 0.5j * br.b_charging, 0.0)
        self.rot = np.exp(1j * br.phase_shift)
        self.ratio = br.ratio.copy()

        shunt = _complex(case.buses.g_shunt, case.buses.b_shunt)
        has = np.flatnonzero(shunt)
        self.shunt = shunt[has]
        # per in-service branch its yff, ytt, yft, ytf (see ``entry_values``), then the shunts
        k = np.flatnonzero(on)
        self.pick = np.concatenate([(k[:, None] + m * np.arange(4)).ravel(), 4 * m + np.arange(len(has))])
        f, t = self.f[k], self.t[k]
        # the terms' positions, then every diagonal, which a bus with no
        # in-service branch and no shunt reaches only so
        rows = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), has, np.arange(n)])
        cols = np.concatenate([np.stack([f, t, t, f], axis=1).ravel(), has, np.arange(n)])
        pos, slot = np.unique(rows * n + cols, return_inverse=True)
        self.slot = slot[: len(slot) - n]
        self.r, self.c = np.divmod(pos, n)
        self.starts = np.searchsorted(self.r, np.arange(n))
        # by batch size B: ``slot`` of B cases, and where B stacked NR
        # Jacobians take their values (see :func:`_jacobians`)
        self._slots: dict[int, np.ndarray] = {1: self.slot}
        self._places: dict[int, np.ndarray] = {}

    def terms(self, ratio: np.ndarray):
        """(yff, yft, ytf, ytt) per case and branch for ratios (B, branches);
        out-of-service branches have all four zero.  ytt is the same for
        every case: one row."""
        tap = ratio * self.rot
        yff = self.ytt / (tap * np.conj(tap))
        return yff, self.neg_y / np.conj(tap), self.neg_y / tap, self.ytt

    def entry_values(self, ratio: np.ndarray) -> np.ndarray:
        """Ybus at its entries per case (B, entries) for branch ratios
        (B, branches): every admittance term added to its entry, in term
        order."""
        yff, yft, ytf, ytt = self.terms(ratio)
        (B, m), ne = yff.shape, len(self.r)
        vals = np.empty((B, 4 * m + len(self.shunt)), dtype=complex)
        for j, term in enumerate((yff, ytt, yft, ytf, self.shunt)):
            vals[:, j * m : (j + 1) * m if j < 4 else None] = term
        slots = self._slots.get(B)
        if slots is None:
            slots = self._slots[B] = (self.slot + ne * np.arange(B)[:, None]).ravel()
        y = np.zeros(B * ne, dtype=complex)
        np.add.at(y, slots, vals[:, self.pick].ravel())
        return y.reshape(B, ne)

    def currents(self, y: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Ybus V from the entry values y: the products y V[c], summed row
        by row.  A leading batch axis on y and V carries over."""
        return np.add.reduceat(y * V[..., self.c], self.starts, axis=-1)

    def products(self, y: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The products y V[c] of a batch (B, entries), which a Newton
        step shares between :meth:`row_sums` and :func:`_dS_dV`: the values
        of :meth:`currents`'s, since numpy elides no temporary of a
        function call (see ``_ELIDE_BYTES``)."""
        return np.multiply(y, V.take(self.c, axis=-1))

    def row_sums(self, yV: np.ndarray) -> np.ndarray:
        """Ybus V of a batch from its :meth:`products` yV."""
        return np.add.reduceat(yV, self.starts, axis=-1)


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
    import scipy.sparse as sp

    return sp.csc_matrix((vals, (rows, cols)), shape=shape)


def _factor(A):
    """A function that solves A x = b for any b, or returns None where A is
    singular, for a matrix solved more than once (an OPF KKT matrix
    without replica blocks, or with a singular one).  An ndarray goes to
    :func:`_solve_linear` on each call, since numpy keeps no LU factors; a
    sparse matrix is factored once by SuperLU, which loads scipy here, on
    the first call that needs it, and returns None at once if A is
    singular."""
    if isinstance(A, np.ndarray):
        return lambda b: _solve_linear(A, b)
    from scipy.sparse.linalg import splu

    try:
        lu = splu(A, permc_spec=SPARSE_LU_ORDERING, diag_pivot_thresh=SPARSE_LU_PIVOT)
    except RuntimeError:   # exactly singular
        return None
    return lu.solve


def _solve_linear(A, b) -> np.ndarray | None:
    """Solve A x = b once; None if A is singular.  An ndarray (a dense
    Newton matrix, or the replica blocks' border, :class:`_Blocks`) goes
    to ``np.linalg.solve``, whose ``LinAlgError`` is an exact zero pivot,
    as in the stacked NR step of :func:`_newton_steps`, so it needs no
    scipy; a sparse matrix goes to SuperLU by :func:`_factor`."""
    if isinstance(A, np.ndarray):
        try:
            return np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            return None
    solve = _factor(A)
    return None if solve is None else solve(b)


# dV/d|V| is V's direction, V / |V|, and 0 at V = 0 (|V| floored at the
# smallest normal float): a dead bus leaves the values finite, with zero columns
_TINY = np.finfo(float).tiny


def _dS_dV(V, Ibus, r, c, y, yV) -> np.ndarray:
    """dS/dVa, then dS/dVm, of the injections S = V conj(Ibus), Ibus =
    Ybus V, entry by entry (MATPOWER's ``dSbus_dV``): each the values at
    the Ybus entries (r, c, y), then at the diagonal (i, i) of every bus;
    values at one position add up.  ``yV``: the products y V[c]
    (:meth:`_Admittance.products`).  A leading batch axis on V, Ibus, y and
    yV carries over."""
    Vnorm = V / np.maximum(np.abs(V), _TINY)
    Vr, Ic = V.take(r, axis=-1), np.conj(Ibus)
    dS = np.concatenate([-Vr * np.conj(yV), V * Ic,
                         Vr * np.conj(np.multiply(y, Vnorm.take(c, axis=-1))), Ic * Vnorm],
                        axis=-1)
    dS[..., : len(r) + V.shape[-1]] *= 1j   # exact: a product with 1j only moves parts
    return dS


def _placement(adm: _Admittance, p_at, q_at, a_at, m_at):
    """Where a Jacobian of the bus injections puts the values of
    :func:`_dS_dV`: P rows at the buses ``p_at``, then Q rows at ``q_at``;
    Va columns at ``a_at``, then Vm columns at ``m_at`` (the NR Jacobian's
    are pvpq, pq, pvpq, pq).  ``take`` picks from (Re dS/dVa, Re dS/dVm,
    Im dS/dVa, Im dS/dVm), as positions in the float view of the complex
    (dS/dVa, dS/dVm), and ``rows``/``cols`` place each picked value."""
    n, c = adm.n, adm.c
    p, q, a, m = (np.full(n, -1) for _ in range(4))   # each bus's row or column, or -1
    for at, buses, start in ((p, p_at, 0), (q, q_at, len(p_at)), (a, a_at, 0), (m, m_at, len(a_at))):
        at[buses] = start + np.arange(len(buses))
    rb = np.concatenate([adm.r, np.arange(n)])  # bus of each dS value
    rows = np.concatenate([p[rb], p[rb], q[rb], q[rb]])
    cols = np.concatenate([a[c], a, m[c], m] * 2)
    take = np.flatnonzero((rows >= 0) & (cols >= 0))
    half = 2 * len(rb)   # the real parts, then the imaginary parts
    take_view = np.where(take < half, 2 * take, 2 * (take - half) + 1)
    return take_view, rows[take], cols[take]


def _jacobian_values(adm: _Admittance, take, V, Ibus, y, yV) -> np.ndarray:
    """The NR Jacobian's values of every case (B, len(take)), in the order
    :func:`_placement` places them."""
    return _dS_dV(V, Ibus, adm.r, adm.c, y, yV).view(float).take(take, axis=-1)


def _jacobians(adm: _Admittance, rows, cols, vals, m: int) -> np.ndarray:
    """The m x m NR Jacobians of a batch, placed from their values
    (B, len(take)) at (rows, cols) into one (B, m, m) array."""
    B = len(vals)
    at = adm._places.get(B)
    if at is None:
        at = adm._places[B] = (rows * m + cols + (m * m) * np.arange(B)[:, None]).ravel()
    return np.bincount(at, weights=vals.ravel(), minlength=B * m * m).reshape(B, m, m)


def _same_as_before(a: np.ndarray) -> np.ndarray:
    """Whether each row of ``a`` (rows, ...) after the first holds the bits
    of the row before it.  Bits, not floats: -0.0 and 0.0 differ, and a NaN
    equals only the same NaN, which a solve treats alike."""
    bits = a.view(np.int64).reshape(len(a), -1)
    return (bits[1:] == bits[:-1]).all(axis=1)


class _Blocks:
    """A sparse Newton matrix split by replica (Sun et al., master-slave
    splitting, IEEE Trans. Smart Grid 2015; for the OPF's KKT matrix,
    Gondzio & Grothey, Comput. Manag. Sci. 2009).  With the unknowns
    ordered as blocks, then border, the matrix is bordered block-diagonal
    [A B; C D], with A one small dense block per replica.  A solve
    (:meth:`factor`) solves the blocks of one size in one stacked LAPACK
    call against F and, the first time, their few coupling columns of B,
    then the Schur complement S = D - C A^-1 B on the border by
    :func:`_solve_linear` (S keeps D's pattern when each block hangs off
    one border bus), then the blocks by back-substitution.  Every solve is
    numpy's ``np.linalg.solve`` while S is placed dense, so it loads no
    scipy; a larger border goes to SuperLU.  Every index array is built
    once, from the structure alone.

    Copies of one feeder with the same inputs give equal blocks, and the
    blocks of one size sit in assembly order, so a host's copies are
    neighbours.  A run of neighbouring blocks equal bit for bit (matrix, B
    and C values, slot tables and right-hand side) is solved once, by its
    first block, whose C A^-1 [F B] and back-substitution the whole run
    takes.  That is exact: the stacked LAPACK call and the stacked matmul
    give each block the same arithmetic whatever the batch around it, so
    the run's other blocks would get the same bits, and a singular block is
    singular in every copy.  Where no block equals its neighbour, the
    stack is solved whole, with no copy made."""

    def __init__(self, rows, cols, block, size):
        """``rows``/``cols``: the placement of the matrix values; ``block``:
        each unknown's block, numbered by size, or -1 on the border;
        ``size``: each block's unknown count."""
        K, m = len(size), len(block)
        self.border = np.flatnonzero(block < 0)
        nb = len(self.border)
        self.size, self.u0 = size, np.concatenate([[0], np.cumsum(size)])
        # the block unknowns by block; pos: each unknown's place in its block or the border
        self.units = np.argsort(np.where(block < 0, K, block), kind="stable")[: m - nb]
        pos = np.empty(m, dtype=int)
        pos[self.units] = np.arange(m - nb) - self.u0[block[self.units]]
        pos[self.border] = np.arange(nb)
        # the few values off the blocks: the coupling B and C, and the border D
        inb = block >= 0
        off = np.flatnonzero(~(inb[rows] & inb[cols]))
        r, c = rows[off], cols[off]
        rb, cb = block[r], block[c]
        ab, ca, dd = rb >= 0, cb >= 0, (rb < 0) & (cb < 0)

        def slots(owner, other):
            """Each (block, border unknown) pair's slot among its block's, and
            per block its border unknowns by slot, padded with nb."""
            pairs, inv = np.unique(owner * (nb + 1) + other, return_inverse=True)
            po, pb = np.divmod(pairs, nb + 1)
            s = np.arange(len(pairs)) - np.searchsorted(po, po)
            table = np.full((K, s.max(initial=-1) + 1), nb)
            table[po, s] = pb
            return s[inv], table

        col_slot, self.cols_of = slots(rb[ab], pos[c[ab]])   # B's columns
        row_slot, self.rows_of = slots(cb[ca], pos[r[ca]])   # C's rows
        # per block, whether its slot tables are the block's before it
        self.same_slots = np.concatenate([[False], _same_as_before(self.cols_of)
                                          & _same_as_before(self.rows_of)])
        w, wr = self.cols_of.shape[1], self.rows_of.shape[1]
        # one buffer: each block in column-major order, then each block's
        # right-hand sides [F, B's columns] column-major, then each one's C,
        # then D's values in placement order
        self.a0 = np.concatenate([[0], np.cumsum(size * size)])
        self.r0 = self.a0[-1] + np.concatenate([[0], np.cumsum((1 + w) * size)])
        self.c0 = self.r0[-1] + np.concatenate([[0], np.cumsum(wr * size)])
        column = np.zeros(m, dtype=int)   # where each block unknown's column starts
        column[self.units] = self.a0[block[self.units]] + pos[self.units] * size[block[self.units]]
        self.dest = column[cols] + pos[rows]
        self.dest[off[ab]] = self.r0[rb[ab]] + (1 + col_slot) * size[rb[ab]] + pos[r[ab]]
        self.dest[off[ca]] = self.c0[cb[ca]] + row_slot * size[cb[ca]] + pos[c[ca]]
        self.dest[off[dd]] = self.c0[-1] + np.arange(np.count_nonzero(dd))
        self.dd_rows, self.dd_cols = pos[r[dd]], pos[c[dd]]
        r, c = np.broadcast_arrays(self.rows_of[:, :, None], self.cols_of[:, None, :])
        self.upd = np.flatnonzero((r < nb) & (c < nb))   # where C A^-1 B reaches S
        self.upd_rows, self.upd_cols = r.ravel()[self.upd], c.ravel()[self.upd]
        self.fix = np.flatnonzero(self.rows_of < nb)     # where C A^-1 F reaches F
        bounds = np.flatnonzero(np.diff(size, prepend=-1, append=-1)).tolist()
        self.groups = list(zip(bounds[:-1], bounds[1:]))   # (first, end) of each size's blocks

    def __eq__(self, other) -> bool:
        """The same split: equal index arrays."""
        return (isinstance(other, _Blocks) and vars(self).keys() == vars(other).keys()
                and all(np.array_equal(a, getattr(other, k)) for k, a in vars(self).items()))

    def factor(self, vals):
        """Place the values ``vals`` of one matrix and return the function
        that solves it for any F, or returns None if a block or S is
        singular.  numpy keeps no LU factors, so every solve factors the
        blocks anew, those of one size in one stacked LAPACK call: the first
        against F and B's columns, which gives A^-1 B and S, every later
        one against F alone.  Only the first solve can meet a singular
        matrix, since a later one factors the same blocks and S; after a
        None the function is done with.

        Here each block is compared with the one before it, and each solve
        compares their F too: one block per run of equal ones is solved.
        An active :class:`Meter` counts the blocks each solve placed and
        those it solved."""
        buf = np.bincount(self.dest, weights=vals, minlength=self.c0[-1] + len(self.dd_rows))
        nb, w, wr = len(self.border), self.cols_of.shape[1], self.rows_of.shape[1]
        # per size: whether each block after the first equals the one before
        # it but for F, or None where none does.  The slot tables and each
        # block's first value go first, which is all the compare costs where
        # no two blocks are equal
        ties = []
        for k0, k1 in self.groups:
            nk, b = k1 - k0, self.size[k0]
            A = buf[self.a0[k0] : self.a0[k1]].reshape(nk, b * b)
            head = A[:, 0].view(np.int64)
            tie = self.same_slots[k0 + 1 : k1] & (head[1:] == head[:-1])
            if tie.any():
                B = buf[self.r0[k0] : self.r0[k1]].reshape(nk, 1 + w, b)[:, 1:]
                C = buf[self.c0[k0] : self.c0[k1]].reshape(nk, wr, b)
                tie &= _same_as_before(A) & _same_as_before(B) & _same_as_before(C)
            ties.append(tie if tie.any() else None)
        # after the first solve, per size: A^-1 [F B] of the blocks it solved,
        # and each block's run there (None: every block solved); and S
        inv_B, S = [], None

        def solve(F):
            nonlocal S
            first = S is None
            meter = _METER.get()
            solved, CX = [], []
            for i, (k0, k1) in enumerate(self.groups):
                nk, b = k1 - k0, self.size[k0]
                units = self.units[self.u0[k0] : self.u0[k1]].reshape(nk, b)
                # the blocks solved (each run's first, or all) and each block's run
                lead, run = slice(None), None
                if ties[i] is not None:
                    tie = ties[i] & _same_as_before(F[units])
                    if tie.any():
                        starts = np.concatenate([[True], ~tie])
                        lead, run = np.flatnonzero(starts), np.cumsum(starts) - 1
                if first:
                    R = buf[self.r0[k0] : self.r0[k1]].reshape(nk, 1 + w, b)
                    R[:, 0] = F[units]
                    rhs = R[lead].transpose(0, 2, 1)
                else:
                    rhs = F[units][lead][..., None]
                if meter is not None:
                    meter.blocks_placed += nk
                    meter.blocks_solved += nk if run is None else len(lead)
                try:   # both operands in LAPACK's column-major order
                    X = np.linalg.solve(buf[self.a0[k0] : self.a0[k1]].reshape(nk, b, b)[lead]
                                        .transpose(0, 2, 1), rhs)
                except np.linalg.LinAlgError:
                    return None
                cx = buf[self.c0[k0] : self.c0[k1]].reshape(nk, wr, b)[lead] @ X
                CX.append(cx if run is None else cx[run])
                if first:
                    inv_B.append((X, run))
                    XB = X[..., 1:]
                else:   # the first solve's A^-1 B of this solve's blocks
                    X1, at = inv_B[i]
                    XB = X1[lead if at is None else at[lead]][..., 1:]
                solved.append((units, run, X[..., 0], XB, self.cols_of[k0:k1][lead]))
            CX = np.concatenate(CX)
            Fb = F[self.border] - np.bincount(self.rows_of.ravel()[self.fix],
                                              CX[..., 0].ravel()[self.fix], minlength=nb)
            if first:
                S = _place(np.concatenate([buf[self.c0[-1]:], -CX[..., 1:].ravel()[self.upd]]),
                           np.concatenate([self.dd_rows, self.upd_rows]),
                           np.concatenate([self.dd_cols, self.upd_cols]), (nb, nb), _dense(nb))
            xb = _solve_linear(S, Fb)
            if xb is None:
                return None
            dx = np.empty(len(F))
            dx[self.border] = xb
            xb = np.append(xb, 0.0)   # the padding slot
            for units, run, XF, XB, cols in solved:
                d = XF - (XB @ xb[cols][..., None])[..., 0]
                dx[units] = d if run is None else d[run]
            return dx

        return solve


def _partition(st: _Structure) -> _Blocks | None:
    """The replica blocks of a structure's NR Jacobian
    (:func:`_replica_blocks`), each unknown at its bus."""
    _, rows, cols = st.place
    return _replica_blocks(st.adm, st.tap_br, st.slack, st.f_bus, rows, cols)


def _replica_blocks(adm: _Admittance, tap_br, slack: int, at, rows, cols) -> _Blocks | None:
    """The replica blocks of a Newton matrix placed at (rows, cols) over a
    network.  The border is the slack's component once the tap-changer
    branches ``tap_br`` are cut (in a combined case the transmission
    network); each other component of the remaining buses is a block (a
    distribution replica).  ``at`` holds the bus of each unknown, or a row
    of buses each (a tap ratio's: its branch's two ends), and an unknown
    joins the block of any of them off the border.  None unless there are
    blocks and border unknowns, and every block is small enough to be
    placed dense."""
    n = adm.n
    tap = np.zeros(len(adm.f), dtype=bool)
    tap[tap_br] = True
    comp = _island_of(n, adm.f[~tap], adm.t[~tap])
    border = comp == comp[slack]
    # the components joined by tap changers away from the border are one block
    tie = tap & ~(border[adm.f] | border[adm.t])
    of = np.where(border, -1, _island_of(comp.max() + 1, comp[adm.f[tie]], comp[adm.t[tie]])[comp])
    of = of[np.atleast_2d(at)].max(axis=0)   # per unknown
    size = np.bincount(of + 1)   # the border's unknowns, then each block's
    ids = np.flatnonzero(size[1:])
    size = size[1:][ids]
    if not len(size) or not (of < 0).any() or not _dense(size.max()):
        return None
    order = np.argsort(size, kind="stable")   # by size, then by first appearance
    number = np.full(n + 1, -1)   # the blocks by size; of = -1 reads the last
    number[ids[order]] = np.arange(len(order))
    return _Blocks(rows, cols, number[of], size[order])


def _newton_steps(st: _Structure, vals, F) -> tuple[np.ndarray, np.ndarray | None,
                                                     np.ndarray | None]:
    """Solve J dx = F for every case, J placed from its values ``vals``
    (:func:`_jacobian_values`) at V: the steps (B, m), zero for a case
    without one, which cases have one, and which are singular at V (both
    None when every case has one).

    One rule holds on every path.  A case is singular at V only when its
    Jacobian values are finite and its factorization fails, and
    :func:`_solve_chunk` calls it singular only at the state it was given,
    its first step.  A case that gets no step later, or whose Jacobian or
    step is not finite, has diverged: an iterate that runs off meets exact
    zero pivots by cancellation alone (one at |V| of 1e57 pu did, on one
    path and not the other, by the last bits of its currents).  An active
    :class:`Meter` gets the path of each: "dense", "blocks"
    (:class:`_Blocks`) or "superlu"."""
    meter = _METER.get()
    (B, m), failed = F.shape, None   # which factorizations failed, once one has
    if st.dense:
        if meter is not None:
            meter.linear_solves += ["dense"] * B
        J = _jacobians(st.adm, *st.place[1:], vals, m)
        try:
            dx = np.linalg.solve(J, F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # find the failing ones; each case gets the same LAPACK call
            dx, failed = np.full_like(F, np.nan), np.zeros(B, dtype=bool)
            for k in range(B):
                try:
                    dx[k] = np.linalg.solve(J[k : k + 1], F[k : k + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    failed[k] = True
    else:
        if st.blocks is None:
            st.blocks = _partition(st) or False
        _, rows, cols = st.place
        dx, failed = np.full_like(F, np.nan), np.zeros(B, dtype=bool)
        for k in range(B):
            step = st.blocks.factor(vals[k])(F[k]) if st.blocks else None
            if meter is not None:
                meter.linear_solves.append("superlu" if step is None else "blocks")
            if step is None:
                step = _solve_linear(_place(vals[k], rows, cols, (m, m), False), F[k])
            if step is None:
                failed[k] = True
            else:
                dx[k] = step
    if np.isfinite(dx).all():
        return dx, None, None
    ok = np.isfinite(dx).all(axis=1)   # a failed case's row is NaN
    dx[~ok] = 0.0
    if failed is None:
        return dx, ok, np.zeros(B, dtype=bool)
    return dx, ok, failed & np.isfinite(vals).all(axis=1)


def _mismatch(V, Ibus, Sbus, at) -> np.ndarray:
    """The mismatch V conj(Ibus) - Sbus per case at ``at``, positions in its
    float view: P at pvpq, then Q at pq (``_Structure.f_at``)."""
    return (V * np.conj(Ibus) - Sbus).view(float).take(at, axis=-1)


def _worst(F) -> np.ndarray:
    """The largest |mismatch| of every case (0 without unknowns)."""
    return np.abs(F).max(axis=1) if F.shape[1] else np.zeros(len(F))


def _shares(case: NetworkCase) -> tuple:
    """Where :func:`_spread` puts the injection of each slack/PV bus: per
    kind of injection, Q then P, (the controllable generators at such a
    bus, the slack for P; their bus positions; how many share that bus),
    then the uncontrollable generators there and their bus positions."""
    buses, gens = case.buses, case.generators
    pos, found = _lookup(buses.id, gens.bus_id)
    on_set = found & (buses.kind[pos] != PQ)
    share = np.flatnonzero(on_set & gens.controllable)
    fixed = np.flatnonzero(on_set & ~gens.controllable)
    at = pos[share]
    count = np.bincount(at, minlength=len(buses))[at]
    slack = buses.kind[at] == SLACK
    return (share, at, count), (share[slack], at[slack], count[slack]), fixed, pos[fixed]


def _spread(shares: tuple, p_load, q_load, p, q, p_inj, q_inj) -> None:
    """Spread each slack/PV bus's solved injection over its controllable
    generators, in place, in equal shares of the injection plus the bus
    load less its uncontrollable units' output (added left to right): Q at
    every such bus, P at the slack.  Bus columns are (B, buses), generator
    columns (B, generators)."""
    q_at, p_at, fixed, fixed_at = shares
    for inj, load, out, (share, at, count) in ((q_inj, q_load, q, q_at), (p_inj, p_load, p, p_at)):
        value = inj[:, at] + load[:, at]
        if len(fixed):
            rest = np.zeros(inj.shape)
            np.add.at(rest, (slice(None), fixed_at), out[:, fixed])
            value -= rest[:, at]
        out[:, share] = value / count


@dataclass
class _Structure:
    """What every case of one batch shares, checked and indexed once."""

    adm: _Admittance
    ids: np.ndarray          # bus ids
    slack: int               # the slack bus position ...
    slack_gen: int           # ... and its first generator, the source
    pvpq: np.ndarray
    pq: np.ndarray
    gen_pos: np.ndarray      # bus position of each generator
    set_pos: np.ndarray      # slack/PV bus positions ...
    set_gen: np.ndarray      # ... and the generator whose v_set each holds
    f_at: np.ndarray         # the mismatch's P and Q in its float view (see :func:`_mismatch`)
    f_bus: np.ndarray        # the bus of each unknown and mismatch: pvpq, then pq
    # a case's state: its angles, then its |V|, taken in the order ``state``,
    # which puts the unknowns first (see :func:`_solve_chunk`); and where
    # each bus's angle and |V| are in it
    state: np.ndarray
    va_at: np.ndarray
    vm_at: np.ndarray
    shares: tuple            # see :func:`_shares`
    tap_br: list[int]        # branches whose ratio may differ per case
    dense: bool
    chunk: int               # cases solved together, at most
    place: tuple | None = None
    blocks: _Blocks | bool | None = None   # False: the matrix has no replica blocks
    tap_at: np.ndarray | None = None       # controlled bus positions, on first regulation


def _structure(case: NetworkCase) -> _Structure:
    """Check a case and index it."""
    kinds = case.buses.kind
    slack = np.flatnonzero(kinds == SLACK)
    if len(slack) != 1:
        raise PowerFlowError(f"need exactly one slack bus, found {len(slack)}")
    if _island_of(*_edges(case)).any():
        raise PowerFlowError("network is not connected")
    try:
        adm = _Admittance(case)
        gen_pos = _find(case.buses.id, case.generators.bus_id)
    except KeyError as exc:   # a branch or generator names a bus the case lacks
        raise PowerFlowError(exc.args[0]) from None
    # the |V| setpoint of a slack/PV bus comes from its first generator
    held, first = np.unique(gen_pos, return_index=True)
    set_pos = np.flatnonzero(kinds != PQ)
    at, found = _lookup(held, set_pos)
    if not found.all():
        b = case.buses[set_pos[~found][0]]
        raise PowerFlowError(f"{b.kind.value} bus {b.id} has no generator")
    pq = np.flatnonzero(kinds == PQ)
    pvpq = np.concatenate([np.flatnonzero(kinds == PV), pq])
    n = len(kinds)
    known = np.ones(2 * n, dtype=bool)
    known[pvpq], known[n + pq] = False, False
    state = np.concatenate([pvpq, n + pq, np.flatnonzero(known)])
    where = np.argsort(state)
    return _Structure(
        adm=adm, ids=case.buses.id.copy(), slack=slack.item(),
        slack_gen=first[held.searchsorted(slack)].item(), pvpq=pvpq, pq=pq, gen_pos=gen_pos,
        set_pos=set_pos, set_gen=first[at], f_at=np.concatenate([2 * pvpq, 2 * pq + 1]),
        f_bus=np.concatenate([pvpq, pq]), state=state, va_at=where[:n], vm_at=where[n:],
        shares=_shares(case), tap_br=sorted(set(case.oltcs.branch_ref.tolist())),
        dense=_dense(len(pvpq) + len(pq)),
        # the widest elementwise array of a case, dS/dV, holds fewer than
        # 2 (terms + buses) complex values
        chunk=max(1, (_ELIDE_BYTES - 1) // (32 * (len(adm.slot) + adm.n))),
    )


def _inputs(st: _Structure, stack: CaseStack, rows: np.ndarray):
    """The copies ``rows`` of a stack, one row each: branch ratios,
    specified injections S = generation - load, and the starting |V| and
    angle, with every slack/PV bus at its setpoint."""
    B, n = len(rows), st.adm.n
    buses, gens = stack.buses, stack.generators
    Sbus = -_complex(buses.p_load[rows], buses.q_load[rows])
    gen = _complex(gens.p[rows], gens.q[rows])
    # generator by generator, in case order
    np.add.at(Sbus.reshape(-1), (st.gen_pos + n * np.arange(B)[:, None]).ravel(), gen.ravel())
    vm, va = buses.v_mag[rows], buses.v_ang[rows]
    vm[:, st.set_pos] = gens.v_set[rows][:, st.set_gen]
    return stack.branches.ratio[rows], Sbus, vm, va


@dataclass
class _Solved:
    """The solutions of a batch, a row per case (B, ...): complex voltages
    V and injections S, the branch ratios solved at, and the scalars of
    :class:`PowerFlowSolution`.  Branch flows are worked out only for the
    :class:`PowerFlowSolution` of a case."""

    V: np.ndarray
    S: np.ndarray
    ratio: np.ndarray
    converged: np.ndarray
    singular: np.ndarray     # no solution: the Jacobian at the given state was singular
    iterations: np.ndarray
    max_mismatch: np.ndarray
    worst: np.ndarray        # bus position of max_mismatch; -1 without unknowns

    def solution(self, k: int, st: _Structure) -> PowerFlowSolution | SingularJacobianError:
        """Case k's :class:`PowerFlowSolution`, or its error."""
        if self.singular[k]:
            return SingularJacobianError("singular Jacobian")
        adm, V, S = st.adm, self.V[k : k + 1], self.S[k]
        with _quiet():
            yff, yft, ytf, ytt = adm.terms(self.ratio[k : k + 1])
            Vf, Vt = V[:, adm.f], V[:, adm.t]
            Sf = (Vf * np.conj(yff * Vf + yft * Vt))[0]
            St = (Vt * np.conj(ytf * Vf + ytt * Vt))[0]
        return PowerFlowSolution(
            np.abs(V[0]), np.angle(V[0]), S.real, S.imag, Sf.real, Sf.imag, St.real, St.imag,
            converged=bool(self.converged[k]), iterations=int(self.iterations[k]),
            max_mismatch=float(self.max_mismatch[k]),
            mismatch_bus=None if self.worst[k] < 0 else st.ids.item(self.worst[k]),
        )


@dataclass
class Meter:
    """The solver's work while it is :meth:`active`: batched kernel calls,
    case solves, NR iterations and tap rounds, the OPF's continuous solves
    and interior-point steps, the linear-solve path of each case's every
    Newton step, in step order ("dense", "blocks" or "superlu"), the path of
    each OPF KKT factorization in ``kkt_solves`` (the same three), how many
    replica blocks the solves on blocks placed (``blocks_placed``) and how
    many they solved, one per run of equal ones (``blocks_solved``, see
    :meth:`_Blocks.factor`), and ``marks``, each a (name, time, counts so
    far) a caller recorded with :meth:`mark`."""

    COUNTERS = ("batches", "solves", "iterations", "tap_rounds", "opf_solves", "opf_steps")

    batches: int = 0
    solves: int = 0
    iterations: int = 0
    tap_rounds: int = 0
    opf_solves: int = 0
    opf_steps: int = 0
    blocks_placed: int = 0
    blocks_solved: int = 0
    linear_solves: list[str] = field(default_factory=list)
    kkt_solves: list[str] = field(default_factory=list)
    marks: list = field(default_factory=list)

    @contextmanager
    def active(self):
        token = _METER.set(self)
        try:
            yield self
        finally:
            _METER.reset(token)

    def mark(self, name: str) -> None:
        counts = {f: getattr(self, f) for f in self.COUNTERS}
        self.marks.append((name, time.perf_counter(), counts))


_METER: ContextVar[Meter | None] = ContextVar("tdsynth_meter", default=None)


def _solve(st: _Structure, stack: CaseStack, rows: np.ndarray, opts: SolverOptions) -> _Solved:
    """Newton-Raphson on the copies ``rows`` of a stack of one structure:
    :func:`_newton` of their :func:`_inputs`."""
    return _newton(st, *_inputs(st, stack, rows), opts)


def _newton(st: _Structure, ratio, Sbus, vm, va, opts: SolverOptions) -> _Solved:
    """Newton-Raphson on a batch of cases of one structure, a row each:
    branch ratios, specified injections, and the start |V| and angle with
    every slack/PV bus at its setpoint (see :func:`_inputs`).  At most
    ``st.chunk`` rows are solved together, under :func:`_quiet`; an active
    :class:`Meter` counts the batch, its cases and their iterations."""
    B, chunk = len(ratio), st.chunk
    with _quiet():
        if B <= chunk:
            sol = _solve_chunk(st, ratio, Sbus, vm, va, opts)
        else:
            parts = [_solve_chunk(st, *(a[k : k + chunk] for a in (ratio, Sbus, vm, va)), opts)
                     for k in range(0, B, chunk)]
            sol = _Solved(*(np.concatenate([getattr(p, f.name) for p in parts])
                            for f in fields(_Solved)))
    meter = _METER.get()
    if meter is not None:
        meter.batches += 1
        meter.solves += B
        meter.iterations += int(sol.iterations.sum())
    return sol


def _solve_chunk(st: _Structure, ratio, Sbus, vm, va, opts: SolverOptions) -> _Solved:
    """:func:`_newton` of at most ``st.chunk`` rows.  A case's state is a
    row of x, its angles and |V| with the unknowns first (``st.state``), so
    a step moves them with one subtraction."""
    B, adm, m, tol = len(ratio), st.adm, len(st.f_at), opts.tolerance
    y = adm.entry_values(ratio)
    x = np.concatenate([va, vm], axis=1).take(st.state, axis=1)
    V = vm * np.exp(1j * va)
    yV = adm.products(y, V)
    Ibus = adm.row_sums(yV)
    F = _mismatch(V, Ibus, Sbus, st.f_at)
    iterations = np.zeros(B, dtype=int)
    singular = np.zeros(B, dtype=bool)

    # the unconverged cases: row j of the working arrays (w*) is case act[j];
    # they are the arrays themselves while every case is
    act = np.flatnonzero(~(_worst(F) < tol))
    if act.size and st.place is None:
        st.place = _placement(adm, st.pvpq, st.pq, st.pvpq, st.pq)
    work = (x, Sbus, y, V, yV, Ibus, F)
    wx, wS, wy, wV, wyV, wI, wF = work if act.size == B else (a[act] for a in work)
    del work, yV
    it = 0
    while act.size and it < opts.max_iterations:
        vals = _jacobian_values(adm, st.place[0], wV, wI, wy, wyV)
        wyV = None   # held by no step: a large case's solve needs the room
        dx, ok, sing = _newton_steps(st, vals, wF)
        del vals
        # only the given state's Jacobian can be singular (see :func:`_newton_steps`)
        if it == 0 and sing is not None:
            singular[act[sing]] = True
        wx[:, :m] -= dx
        wV = wx.take(st.vm_at, axis=1) * np.exp(1j * wx.take(st.va_at, axis=1))
        wyV = adm.products(wy, wV)
        wI = adm.row_sums(wyV)
        wF = _mismatch(wV, wI, wS, st.f_at)
        it += 1
        done = np.abs(wF).max(axis=1) < tol
        if ok is not None:
            done |= ~ok
        if it == opts.max_iterations or done.all():   # the last ones: keep their state
            if act.size == B:
                V, Ibus, F = wV, wI, wF
            else:
                V[act], Ibus[act], F[act] = wV, wI, wF
            iterations[act] = it
            break
        if done.any():
            # these cases leave the batch for good: keep their last state (a
            # case without a step kept its own)
            fin, keep = act[done], ~done
            V[fin], Ibus[fin], F[fin], iterations[fin] = wV[done], wI[done], wF[done], it
            act = act[keep]
            wx, wS, wy, wV, wyV, wI, wF = (a[keep] for a in (wx, wS, wy, wV, wyV, wI, wF))

    absF = np.abs(F)
    if F.shape[1]:
        # F holds P at pvpq, then Q at pq
        worst, max_mismatch = st.f_bus[absF.argmax(axis=1)], absF.max(axis=1)
    else:
        worst, max_mismatch = np.full(B, -1), np.zeros(B)
    return _Solved(V, V * np.conj(Ibus), ratio, max_mismatch < tol, singular, iterations,
                   max_mismatch, worst)


def solve(case: NetworkCase, opts: SolverOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson solve of one case (see the module docstring), with
    fixed bus types: a PV bus holds its voltage setpoint whatever reactive
    output that takes.  Raises :class:`SingularJacobianError` for a
    Jacobian singular at the case's own state and :class:`PowerFlowError`
    for a structural problem (no single slack, islands).  The case is not
    mutated; use :func:`apply_solution` to store a result between solver
    calls."""
    st = _structure(case)
    result = _solve(st, CaseStack.of(case), np.arange(1), opts or SolverOptions()).solution(0, st)
    if isinstance(result, PowerFlowError):
        raise result
    return result


def _store(shares: tuple, stack: CaseStack, rows, v_mag, v_ang, p_inj, q_inj) -> None:
    """Write solved states, a row each (bus voltages and injections), onto
    the copies ``rows`` of a stack: every bus voltage, and at each slack/PV
    bus its Q (at the slack also its P) spread over the bus's controllable
    generators (:func:`_spread` by ``shares``, see :func:`_shares`)."""
    buses, gens = stack.buses, stack.generators
    buses.v_mag[rows], buses.v_ang[rows] = v_mag, v_ang
    p, q = gens.p[rows], gens.q[rows]
    _spread(shares, buses.p_load[rows], buses.q_load[rows], p, q, p_inj, q_inj)
    gens.p[rows], gens.q[rows] = p, q


def apply_solution(case: NetworkCase, sol: PowerFlowSolution) -> None:
    """Write a solution back onto the case: :func:`_store` on its one-copy stack."""
    _store(_shares(case), CaseStack.of(case), [0], sol.v_mag[None], sol.v_ang[None],
           sol.p_inj[None], sol.q_inj[None])
