"""Discrete tap-changer control and the solve/adjust outer loop.

A tap moves by at most one position per round.  All transformers of a case
are updated simultaneously from the same solved voltage profile (Jacobi
style), which keeps the result independent of transformer ordering.

:func:`_regulate` regulates the copies of a stacked table (the power
flow's batch, :class:`netmodel.CaseStack`) together: it gathers their
inputs once, each round solves the copies whose taps moved as one batch,
and it writes each copy's last convergent state back once, at the end.
One :class:`TapStepper` owns every copy's (B, taps) positions: it moves
them in place and writes their tap-changer branch ratios
(:func:`netmodel.tap_ratios`) for the next solve, so one tap rule decides
every copy, and a copy's result does not depend on the batch around it.
Its optional ``prefix``, a walk's first tap rows known in advance (the
capacity search's brackets share them), gives the stepper its start row,
the last one: rounds, ``tap_trace`` and so ``max_rounds`` count from the
walk's start, and the move to the start row is each tap's last step, the
one a reversal undoes.  A diverging solve's :class:`RegulationError` names
the bus of its largest mismatch.  :func:`regulate` is the API edge for one
case: it regulates the case's one-copy stack, a view of it
(:meth:`CaseStack.of`), so it moves the case itself; batches enter only as
stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import powerflow
from .netmodel import CaseStack, NetworkCase, OltcTransformer, _find, tap_ratios
# ``solve`` is bound here too: perfbench/selftest.py checks that the tracer
# rebinds it in this module
from .powerflow import PowerFlowSolution, SolverOptions, solve  # noqa: F401


class RegulationError(RuntimeError):
    """Power flow diverged inside the regulation loop; the message ends with
    the id of the bus holding the largest mismatch, and the error carries
    the last convergent state (None if the very first solve failed)."""

    def __init__(self, message: str, last_solution: PowerFlowSolution | None):
        super().__init__(message)
        self.last_solution = last_solution


@dataclass
class RegulationReport:
    rounds: int = 0
    solves: int = 0
    iterations: int = 0          # NR iterations over all solves
    final_taps: list[int] = field(default_factory=list)
    frozen: list[bool] = field(default_factory=list)
    saturated: list[bool] = field(default_factory=list)
    in_band: list[bool] = field(default_factory=list)
    tap_trace: list[list[int]] = field(default_factory=list)  # positions after each round

    @property
    def settled(self) -> bool:
        return all(i or s or f for i, s, f in zip(self.in_band, self.saturated, self.frozen))

    def copy(self) -> RegulationReport:
        """An equal report that shares no list with this one."""
        return RegulationReport(self.rounds, self.solves, self.iterations, self.final_taps.copy(),
                                self.frozen.copy(), self.saturated.copy(), self.in_band.copy(),
                                [row.copy() for row in self.tap_trace])


def tap_update(xfmr: OltcTransformer, v_controlled: float) -> int:
    """Single-step deadband rule: returns -1, 0 or +1.

    Raising the tap raises the turns ratio on the high-voltage side, which
    pulls the controlled low-side voltage down; saturated taps stay put.
    Given a case's ``oltcs`` table and an array of controlled voltages, it
    returns the array of steps.
    """
    up = (v_controlled > xfmr.v_set + xfmr.deadband / 2) & (xfmr.tap < xfmr.tap_max)
    down = (v_controlled < xfmr.v_set - xfmr.deadband / 2) & (xfmr.tap > xfmr.tap_min)
    return up * 1 - (down > up)    # up wins where both hold


class TapStepper:
    """The one-step tap rule shared by :func:`_regulate` and the OPF
    relaxation loop, for cases of one structure at once: row k of each
    array is case k, one column per transformer.  Each transformer freezes
    for the rest of the run the moment its proposed step reverses the last
    step it took (anti-cycling)."""

    def __init__(self, stack: CaseStack, at: np.ndarray, start=()):
        """``stack``: the copies.  ``stack.oltcs`` holds the tap rule's
        columns as (B, transformers) arrays, whose taps :meth:`apply` moves
        in place, and from here on the stepper keeps each copy's tap-changer
        branch ratios at :func:`netmodel.tap_ratios` of its taps.  ``at``:
        each transformer's controlled bus position.  ``start``: a walk's
        start row, one tap per transformer: every copy's taps move there,
        and that move counts as each tap's last step, so reversing it
        freezes the tap."""
        self.oltcs, self.at = stack.oltcs, at
        self._ratio, self._ref = stack.branches.ratio, stack.template.oltcs.branch_ref
        self.frozen = np.zeros(self.oltcs.tap.shape, dtype=bool)
        self._last = np.zeros(self.oltcs.tap.shape, dtype=int)
        self.apply(np.subtract(start, self.oltcs.tap) if len(start) else 0)

    def propose(self, v: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """One delta (-1, 0 or +1) per transformer from each case's solved
        controlled voltages (a row of ``v``, one per transformer); a
        reversal freezes its transformer and proposes 0, and so does every
        case not ``live``."""
        deltas = tap_update(self.oltcs, v)
        deltas[self.frozen] = 0
        if live is not None:
            deltas[~live] = 0
        reverse = deltas * self._last < 0
        self.frozen |= reverse   # oscillation: park it for the run
        deltas[reverse] = 0
        return deltas

    def apply(self, deltas: np.ndarray) -> None:
        """Move every tap by its delta, and its branch ratio with it."""
        self.oltcs.tap += deltas
        self._last = np.where(deltas != 0, deltas, self._last)
        self._ratio[:, self._ref] = tap_ratios(self.oltcs)


def _regulate(st: powerflow._Structure, stack: CaseStack, opts: SolverOptions, max_rounds: int,
               prefix: list[list[int]] = ()):
    """:func:`regulate` of the copies of a stack, which it moves in
    place: taps, branch ratios, voltages and generator outputs, these last
    two from each copy's last convergent solve.  Returns per copy that
    solve, as (:class:`powerflow._Solved`, row) or None, and its report or
    its error; the walk starts after ``prefix``, each tap of which moved
    one way only.

    The copies' inputs are gathered once (:func:`powerflow._inputs`): a tap
    moves only branch ratios, and the injections a solve reads, P at the
    PV and PQ buses and Q at the PQ buses, are no output of one.  Each
    round solves the copies whose taps moved from their last solve, and
    each copy's last convergent voltages and injections are written onto
    the stack once, at the end (:func:`powerflow._store`)."""
    B, t = len(stack), stack.oltcs
    if st.tap_at is None:
        st.tap_at = _find(st.ids, stack.template.oltcs.controlled_bus)
    at = st.tap_at
    stepper = TapStepper(stack, at, prefix[-1] if prefix else ())
    iterations, rounds = np.zeros(B, dtype=int), np.full(B, len(prefix))
    traces = [[list(row) for row in prefix] for _ in range(B)]
    errors: list[Exception | None] = [None] * B
    last: list[tuple | None] = [None] * B
    meter = powerflow._METER.get()
    ratio, Sbus, vm, va = powerflow._inputs(st, stack, np.arange(B))
    v_set = vm[:, st.set_pos]
    # per copy, of its last convergent solve: the voltages V and injections
    # S, held as one solve's own arrays until a solve keeps only some copies,
    # and its controlled |V|
    V, S, own = None, None, False
    v_at = np.zeros(t.tap.shape)

    def settle(items: np.ndarray, sol: powerflow._Solved) -> np.ndarray:
        """File the solve ``sol`` of the copies ``items``; the ones still going."""
        nonlocal V, S, own
        iterations[items] += np.where(sol.singular, 0, sol.iterations)
        ok = sol.converged & ~sol.singular
        good, rows = slice(None), range(len(items))
        if not ok.all():
            for j in (~ok).nonzero()[0].tolist():
                k = items[j]
                errors[k] = sol.solution(j, st) if sol.singular[j] else RegulationError(
                    ("power flow diverged before any tap adjustment" if last[k] is None
                     else f"power flow diverged in regulation round {rounds[k]}")
                    + f"; largest mismatch at bus {st.ids.item(sol.worst[j])}",
                    None if last[k] is None else last[k][0].solution(last[k][1], st))
            good = ok.nonzero()[0]
            items, rows = items[good], good.tolist()
        if V is None or len(items) == B:   # the first solve, or every copy's
            V, S, own = sol.V, sol.S, False
        elif len(items):
            if not own:   # the solve's arrays stay as it left them
                V, S, own = V.copy(), S.copy(), True
            V[items], S[items] = sol.V[good], sol.S[good]
        v_at[items] = np.abs(sol.V.take(at, axis=1)[good])
        for j, k in zip(rows, items.tolist()):
            last[k] = sol, j
        return items

    active = settle(np.arange(B), powerflow._newton(st, ratio, Sbus, vm, va, opts))
    del ratio, vm, va
    for _ in range(max_rounds - len(prefix)):
        if not active.size:
            break
        live = None
        if active.size < B:
            live = np.zeros(B, dtype=bool)
            live[active] = True
        deltas = stepper.propose(v_at, live)
        moved = deltas.any(axis=1).nonzero()[0]
        if not moved.size:
            break
        stepper.apply(deltas)
        rounds[moved] += 1
        if meter is not None:
            meter.tap_rounds += len(moved)
        for k, taps in zip(moved.tolist(), t.tap[moved].tolist()):
            traces[k].append(taps)
        # each moved copy starts from its last solve, as the stack would hold it
        rows = slice(None) if moved.size == B else moved
        vm = np.abs(V[rows])
        vm[:, st.set_pos] = v_set[rows]
        active = settle(moved, powerflow._newton(st, stack.branches.ratio[moved], Sbus[rows], vm,
                                                 np.angle(V[rows]), opts))

    done = np.array([k for k, solved in enumerate(last) if solved is not None], dtype=int)
    if done.size:
        rows = slice(None) if done.size == B else done
        powerflow._store(st.shares, stack, rows, np.abs(V[rows]), np.angle(V[rows]),
                         S.real[rows], S.imag[rows])
    in_band = (np.abs(v_at - t.v_set) <= t.deadband / 2).tolist()
    saturated = ((t.tap == t.tap_min) | (t.tap == t.tap_max)).tolist()
    frozen, taps = stepper.frozen.tolist(), t.tap.tolist()
    out: list[RegulationReport | Exception] = []
    for k, (n, its) in enumerate(zip(rounds.tolist(), iterations.tolist())):
        # a copy is solved once, then once in every round that moved it
        out.append(errors[k] if errors[k] is not None else RegulationReport(
            rounds=n, solves=n - len(prefix) + 1, iterations=its, final_taps=taps[k],
            frozen=frozen[k], saturated=saturated[k], in_band=in_band[k], tap_trace=traces[k]))
    return last, out


def regulate(
    case: NetworkCase,
    opts: SolverOptions | None = None,
    max_rounds: int = 30,
) -> tuple[PowerFlowSolution, RegulationReport]:
    """Alternate power-flow solves with simultaneous one-step tap updates until
    every controlled voltage is in band or its transformer is saturated.

    Two anti-cycling safeguards are always active: the hard ``max_rounds``
    cap, and per-transformer freezing the moment a tap reverses its previous
    direction.  The case is mutated in place (taps, ratios, stored voltages
    and generator outputs) so later calls warm-start from the settled state.
    Returns the last solution and the report; raises a
    :class:`RegulationError` when a solve diverges, the power flow's error
    when a Jacobian is singular.
    """
    st = powerflow._structure(case)
    last, (result,) = _regulate(st, CaseStack.of(case), opts or SolverOptions(), max_rounds)
    if isinstance(result, Exception):
        raise result
    sol, row = last[0]
    return sol.solution(row, st), result
