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

from . import powerflow
from .netmodel import NetworkCase, OltcTransformer
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
        for t in case.oltcs:
            t.sync_branch(case)
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
    steppers = {k: TapStepper(cases[k]) for k in active}
    for k, stepper in steppers.items():
        reports[k].frozen = stepper.frozen
    for _ in range(max_rounds):
        moved = []
        for k in active:
            deltas = steppers[k].propose(sols[k].v_mag)
            if any(deltas):
                steppers[k].apply(deltas)
                reports[k].rounds += 1
                reports[k].tap_trace.append([t.tap for t in cases[k].oltcs])
                moved.append(k)
        if not moved:
            break
        active = settle(moved)

    out: list[tuple[PowerFlowSolution, RegulationReport] | Exception] = []
    for case, sol, report, error in zip(cases, sols, reports, errors):
        if error is not None:
            out.append(error)
            continue
        idx = case.bus_index()
        report.final_taps = [t.tap for t in case.oltcs]
        report.saturated = [t.tap in (t.tap_min, t.tap_max) for t in case.oltcs]
        report.in_band = [
            abs(float(sol.v_mag[idx[t.controlled_bus]]) - t.v_set) <= t.deadband / 2
            for t in case.oltcs
        ]
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
