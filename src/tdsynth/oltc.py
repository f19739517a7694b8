"""Discrete tap-changer control and the solve/adjust outer loop.

A tap moves by at most one position per round.  All transformers are updated
simultaneously from the same solved voltage profile (Jacobi style), which
keeps the result independent of transformer ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .netmodel import NetworkCase, OltcTransformer
from .powerflow import PowerFlowSolution, SolverOptions, apply_solution, solve


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
    """
    if v_controlled > xfmr.v_set + xfmr.deadband / 2 and xfmr.tap < xfmr.tap_max:
        return 1
    if v_controlled < xfmr.v_set - xfmr.deadband / 2 and xfmr.tap > xfmr.tap_min:
        return -1
    return 0


class TapStepper:
    """The one-step tap rule shared by :func:`regulate` and the OPF relaxation
    loop.  Each transformer freezes for the rest of the run the moment its
    proposed step reverses the last step it took (anti-cycling)."""

    def __init__(self, case: NetworkCase):
        self.case = case
        self.frozen = [False] * len(case.oltcs)
        self._last = [0] * len(case.oltcs)
        self._idx = case.bus_index()

    def propose(self, v_mag) -> list[int]:
        """One delta (-1, 0 or +1) per transformer from a solved voltage
        profile; a reversal freezes its transformer and proposes 0."""
        deltas = []
        for i, t in enumerate(self.case.oltcs):
            if self.frozen[i]:
                deltas.append(0)
                continue
            d = tap_update(t, float(v_mag[self._idx[t.controlled_bus]]))
            if d != 0 and d == -self._last[i]:
                self.frozen[i] = True  # oscillation: park it for the run
                d = 0
            deltas.append(d)
        return deltas

    def apply(self, deltas: list[int]) -> None:
        """Move every tap by its delta and refresh its branch ratio."""
        for i, (t, d) in enumerate(zip(self.case.oltcs, deltas)):
            if d:
                t.tap += d
                t.sync_branch(self.case)
                self._last[i] = d


def regulate(
    case: NetworkCase,
    opts: SolverOptions | None = None,
    max_rounds: int = 30,
) -> tuple[PowerFlowSolution, RegulationReport]:
    """Alternate power-flow solves with simultaneous one-step tap updates until
    every controlled voltage is in band or its transformer is saturated.

    Two anti-cycling safeguards are always active: the hard ``max_rounds``
    cap, and per-transformer freezing the moment a tap reverses its previous
    direction.  The case is mutated in place (taps, ratios, stored voltages)
    so later calls warm-start from the settled state.
    """
    opts = opts or SolverOptions()
    idx = case.bus_index()
    report = RegulationReport()

    for t in case.oltcs:
        t.sync_branch(case)

    sol = solve(case, opts)
    report.solves += 1
    if not sol.converged:
        raise RegulationError("power flow diverged before any tap adjustment", None)
    apply_solution(case, sol)

    stepper = TapStepper(case)
    report.frozen = stepper.frozen
    for _ in range(max_rounds):
        deltas = stepper.propose(sol.v_mag)
        if not any(deltas):
            break
        stepper.apply(deltas)
        report.rounds += 1
        report.tap_trace.append([t.tap for t in case.oltcs])
        new_sol = solve(case, opts)
        report.solves += 1
        if not new_sol.converged:
            raise RegulationError(
                f"power flow diverged in regulation round {report.rounds}", sol
            )
        sol = new_sol
        apply_solution(case, sol)

    report.final_taps = [t.tap for t in case.oltcs]
    report.saturated = [t.tap in (t.tap_min, t.tap_max) for t in case.oltcs]
    report.in_band = [
        abs(float(sol.v_mag[idx[t.controlled_bus]]) - t.v_set) <= t.deadband / 2
        for t in case.oltcs
    ]
    return sol, report
