"""CFS fluid scheduler."""

from repro.kernel.sched.fair import FairScheduler, GroupAlloc, waterfill
from repro.kernel.sched.period import (SCHED_LATENCY, SCHED_MIN_GRANULARITY,
                                       SCHED_NR_LATENCY, scheduling_period)

__all__ = [
    "FairScheduler", "GroupAlloc", "waterfill",
    "SCHED_LATENCY", "SCHED_MIN_GRANULARITY", "SCHED_NR_LATENCY",
    "scheduling_period",
]
