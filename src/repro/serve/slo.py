"""Service-level objectives for latency-oriented workloads.

An :class:`Slo` states the latency a service promises at a given
percentile ("p99 under 500 ms") and the trailing window over which
compliance is judged.  The *burn rate* — observed percentile latency
divided by the target — is the control signal the autoscaler reacts to:
1.0 means the service is exactly at its objective, above 1.0 it is
burning error budget, well below 1.0 it is over-provisioned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServeError
from repro.serve.latency import LatencyRecorder

__all__ = ["Slo"]


@dataclass(frozen=True)
class Slo:
    """A latency objective: ``percentile`` latency must stay <= ``target``."""

    target: float           # seconds
    percentile: float = 99.0
    window: float = 5.0     # trailing seconds judged by burn_rate

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ServeError(f"SLO target must be positive, got {self.target}")
        if not 0.0 < self.percentile <= 100.0:
            raise ServeError(
                f"SLO percentile must be in (0, 100], got {self.percentile}")
        if self.window <= 0:
            raise ServeError(f"SLO window must be positive, got {self.window}")

    def burn_rate(self, recorder: LatencyRecorder, now: float) -> float:
        """Observed/target latency ratio over the trailing window.

        An empty window (no completions — either no traffic or a stalled
        service) reports 0.0; the autoscaler pairs this with queue depth,
        which catches the stalled case.
        """
        observed = recorder.percentile_since(now - self.window, self.percentile)
        if observed is None:
            return 0.0
        return observed / self.target
