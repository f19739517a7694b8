"""Machine speed during a timed command, for speed-corrected times.

On a shared host the CPU speed a process gets drifts by up to 2x, over
fractions of a second as well as over minutes, and it moves every command
alike.  No number of repeats inside a run of a minute averages that out,
so raw wall times of the same code spread across runs by 0.2 or more.

:class:`Probe` measures the speed while a command runs.  A background
thread of the same process wakes every ``PERIOD_S``, runs one fixed unit of
work (interpreter bytecode plus small numpy array calls, the mix tdsynth
runs) and records the unit's thread CPU time, which leaves out the time
the thread waited for the GIL.  ``factor`` is the mean unit time over the
command divided by ``UNIT_REF_S``, the unit's time at the reference speed;
a timed command reports ``wall / factor``: its seconds at the reference
speed.  A program change moves that number as it moves the wall time,
since the unit never runs tdsynth code.  The raw wall times go to the run
record beside the corrected ones.

The probe's own work takes about ``UNIT_REF_S / PERIOD_S`` (4%) of the
command's time, in every run alike.
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.025
UNIT_REF_S = 0.001   # one unit's thread CPU time at the reference speed

_V = np.random.default_rng(0).random(64)
_IDX = np.arange(0, 64, 3)


def unit() -> None:
    """One fixed unit of work, about 1 ms at the reference speed.  It calls
    no BLAS: OpenBLAS gives every thread that calls it a buffer of tens of
    MB, which would show in ``peak_rss_mb``."""
    acc: dict[int, int] = {}
    for i in range(4500):
        acc[i % 31] = acc.get(i % 31, 0) + i * i % 7
    for _ in range(60):
        x = _V * 1.5 + _V
        float(x[_IDX].sum())


class Probe:
    """``with Probe() as p: ...`` then ``p.factor``: the slowdown against
    the reference speed while the block ran (1.0 if it ended before the
    first unit)."""

    def __init__(self) -> None:
        # A running sum, not a list of samples: floats that this thread keeps
        # alive pin the allocator pools the command frees, which raised the
        # peak RSS of inspect-800x by 20-40 MB, differently in every run.
        self.units = 0
        self.unit_s = 0.0   # summed thread CPU time of the units
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            unit()
            self.unit_s += time.thread_time() - start
            self.units += 1

    @property
    def factor(self) -> float:
        if not self.units:
            return 1.0
        return self.unit_s / self.units / UNIT_REF_S
