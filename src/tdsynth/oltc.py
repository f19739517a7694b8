"""Discrete tap-changer control and the solve/adjust outer loop.

A tap moves by at most one position per round.  All transformers of a case
are updated simultaneously from the same solved voltage profile (Jacobi
style), which keeps the result independent of transformer ordering.

:func:`regulate_batch` regulates cases of one structure (the power flow's
batch, :func:`powerflow.solve_batch`) together: each round solves the cases
whose taps moved as one batch, and each case keeps its own
:class:`TapStepper`, so one tap rule decides every case, and a case's result
does not depend on the batch around it.  :func:`regulate` is the one-item
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import powerflow
from .netmodel import NetworkCase, OltcTransformer, _find
# ``solve`` is bound here too: perfbench/selftest.py checks that the tracer
# rebinds it in this module
from .powerflow import PowerFlowSolution, SolverOptions, apply_solution, solve  # noqa: F401


class RegulationError(RuntimeError):
    """Power flow diverged inside the regulation loop; carries the last
    convergent state (None if the very first solve failed)."""

    def __init__(self, message: str, last_solution: PowerFlowSolution | None):
        super().__init__(message)
        self.last_solution = last_solution


@dataclass
class RegulationReport:
    rounds: int = 0
    solves: int = 0
    iterations: int = 0          # NR iterations over all solves
    steps: list[str] = field(default_factory=list)   # each one's linear-solve path
    final_taps: list[int] = field(default_factory=list)
    frozen: list[bool] = field(default_factory=list)
    saturated: list[bool] = field(default_factory=list)
    in_band: list[bool] = field(default_factory=list)
    tap_trace: list[list[int]] = field(default_factory=list)  # positions after each round

    @property
    def settled(self) -> bool:
        return all(i or s or f for i, s, f in zip(self.in_band, self.saturated, self.frozen))


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
    """The one-step tap rule shared by :func:`regulate_batch` and the OPF
    relaxation loop, for cases of one structure at once: row k of each
    array is case k, one column per transformer.  Each transformer freezes
    for the rest of the run the moment its proposed step reverses the last
    step it took (anti-cycling)."""

    def __init__(self, cases: list[NetworkCase]):
        self.cases = cases
        self.oltcs = SimpleNamespace(**{   # the tap rule's columns, stacked
            f: np.array([getattr(c.oltcs, f) for c in cases])
            for f in ("v_set", "deadband", "tap", "tap_min", "tap_max", "tap_step")})
        self.frozen = np.zeros(self.oltcs.tap.shape, dtype=bool)
        self._last = np.zeros(self.oltcs.tap.shape, dtype=int)
        # the controlled buses' positions; the cases share their bus ids
        self.at = _find(cases[0].buses.id, np.array([c.oltcs.controlled_bus for c in cases]))
        self._row = np.arange(len(cases))[:, None]

    def propose(self, v_mag: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
        """One delta (-1, 0 or +1) per transformer from each case's solved
        voltage profile (a row of ``v_mag``); a reversal freezes its
        transformer and proposes 0, and so does every case not ``live``."""
        deltas = tap_update(self.oltcs, v_mag[self._row, self.at])
        deltas[self.frozen] = 0
        if live is not None:
            deltas[~live] = 0
        reverse = deltas * self._last < 0
        self.frozen |= reverse   # oscillation: park it for the run
        deltas[reverse] = 0
        return deltas

    def apply(self, deltas: np.ndarray) -> None:
        """Move every tap by its delta and refresh its branch ratio."""
        t = self.oltcs
        t.tap += deltas
        self._last = np.where(deltas != 0, deltas, self._last)
        ratio = 1.0 + t.tap * t.tap_step
        for k in deltas.any(axis=1).nonzero()[0].tolist():
            case = self.cases[k]
            case.oltcs.tap[:] = t.tap[k]
            case.branches.ratio[case.oltcs.branch_ref] = ratio[k]


def regulate_batch(
    cases: list[NetworkCase],
    opts: SolverOptions | None = None,
    max_rounds: int = 30,
) -> list[tuple[PowerFlowSolution, RegulationReport] | Exception]:
    """Alternate power-flow solves with simultaneous one-step tap updates until
    every controlled voltage is in band or its transformer is saturated, for
    every case of one structure at once.

    Two anti-cycling safeguards are always active: the hard ``max_rounds``
    cap, and per-transformer freezing the moment a tap reverses its previous
    direction.  Each case is mutated in place (taps, ratios, stored
    voltages) so later calls warm-start from the settled state.  Returns,
    per case, its last solution and report, or its error: a
    :class:`RegulationError` when a solve diverges, the power flow's error
    when a Jacobian is singular.
    """
    if not cases:
        return []
    opts = opts or SolverOptions()
    for case in cases:
        case.sync_ratios()
    structure = powerflow._structure(cases)
    reports = [RegulationReport() for _ in cases]
    sols: list[PowerFlowSolution | None] = [None] * len(cases)
    errors: list[Exception | None] = [None] * len(cases)

    def settle(items: list[int]) -> list[int]:
        """Solve the cases ``items`` as one batch; the ones still going."""
        results = powerflow._solve(structure, [cases[k] for k in items], opts)
        going = []
        for k, res in zip(items, results):
            report = reports[k]
            report.solves += 1
            if isinstance(res, Exception):
                errors[k] = res
                continue
            report.iterations += res.iterations
            report.steps += res.steps
            if not res.converged:
                last = sols[k]
                errors[k] = RegulationError(
                    "power flow diverged before any tap adjustment" if last is None
                    else f"power flow diverged in regulation round {report.rounds}", last)
                continue
            sols[k] = res
            apply_solution(cases[k], res)
            going.append(k)
        return going

    active = settle(list(range(len(cases))))
    stepper = TapStepper(cases)
    for _ in range(max_rounds):
        if not active:
            break
        live = np.zeros(len(cases), dtype=bool)
        live[active] = True
        v_mag = np.zeros((len(cases), structure.adm.n))
        v_mag[active] = [sols[k].v_mag for k in active]
        deltas = stepper.propose(v_mag, live)
        moved = np.flatnonzero(deltas.any(axis=1)).tolist()
        if not moved:
            break
        stepper.apply(deltas)
        for k in moved:
            reports[k].rounds += 1
            reports[k].tap_trace.append(cases[k].oltcs.tap.tolist())
        active = settle(moved)

    out: list[tuple[PowerFlowSolution, RegulationReport] | Exception] = []
    for k, (case, sol, report, error) in enumerate(zip(cases, sols, reports, errors)):
        if error is not None:
            out.append(error)
            continue
        t = case.oltcs
        report.final_taps = t.tap.tolist()
        report.frozen = stepper.frozen[k].tolist()
        report.saturated = ((t.tap == t.tap_min) | (t.tap == t.tap_max)).tolist()
        v = sol.v_mag[stepper.at[k]]
        report.in_band = (np.abs(v - t.v_set) <= t.deadband / 2).tolist()
        out.append((sol, report))
    return out


def regulate(
    case: NetworkCase,
    opts: SolverOptions | None = None,
    max_rounds: int = 30,
) -> tuple[PowerFlowSolution, RegulationReport]:
    """:func:`regulate_batch` of one case; raises its error."""
    (result,) = regulate_batch([case], opts, max_rounds)
    if isinstance(result, Exception):
        raise result
    return result
