"""Exponentially damped load averages.

OpenMP's dynamic-thread heuristic (``gomp_dynamic_max_threads``) uses the
15-minute host load average; §4.1 of the paper points out how coarse
that signal is.  We model the three classic windows as continuous
exponential moving averages of the number of runnable tasks:

    load <- load * exp(-dt/tau) + n_runnable * (1 - exp(-dt/tau))

The window lengths are configurable because simulated benchmarks run for
tens of seconds rather than tens of minutes; the *relative* coarseness
(window >> run time of a parallel region) is preserved, which is all the
dynamic-policy comparison needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LoadAvgParams", "LoadTracker"]


@dataclass(frozen=True)
class LoadAvgParams:
    """Time constants of the three load-average windows (seconds)."""

    tau_1: float = 6.0
    tau_5: float = 30.0
    tau_15: float = 90.0


@dataclass
class LoadTracker:
    """Continuous-time load-average tracker fed by the world's accrual loop."""

    params: LoadAvgParams = field(default_factory=LoadAvgParams)
    load_1: float = 0.0
    load_5: float = 0.0
    load_15: float = 0.0

    def advance(self, dt: float, n_runnable: int) -> None:
        """Fold ``dt`` seconds at ``n_runnable`` tasks into the averages."""
        if dt <= 0.0:
            return
        n = float(n_runnable)
        params = self.params
        d1 = math.exp(-dt / params.tau_1)
        d5 = math.exp(-dt / params.tau_5)
        d15 = math.exp(-dt / params.tau_15)
        self.load_1 = self.load_1 * d1 + n * (1.0 - d1)
        self.load_5 = self.load_5 * d5 + n * (1.0 - d5)
        self.load_15 = self.load_15 * d15 + n * (1.0 - d15)

    def seed(self, value: float) -> None:
        """Preload all three averages (warm-started testbed).

        Benchmarking machines rarely start from an idle load average: in
        the paper's methodology every result is the mean of 10 runs, so
        by the time a run is measured the 15-minute average reflects a
        continuously saturated host.  Experiments that study the
        ``n_onln - loadavg`` dynamic-threads formula seed the tracker to
        the saturation level rather than simulating hours of warm-up.
        """
        self.load_1 = self.load_5 = self.load_15 = float(value)

    def as_tuple(self) -> tuple[float, float, float]:
        """The ``/proc/loadavg``-style triple."""
        return (self.load_1, self.load_5, self.load_15)
