"""The elastic heap controller (§4.2).

Every :data:`POLL_INTERVAL` (10 s in the paper) the controller reads the
container's effective memory from its ``sys_namespace`` and moves the
heap's dynamic bound::

    VirtualMax = E_MEM - NON_HEAP_OVERHEAD
    YoungMax   = VirtualMax / 3,   OldMax = 2*VirtualMax / 3

Expansion is trivial — raise ``VirtualMax`` and let the adaptive sizing
algorithm grow into it.  Shrinkage distinguishes the paper's three
scenarios:

1. committed sizes already below the new maxes → only the limits move;
2. committed above a new max but *used* below it → instruct the sizing
   algorithm to release committed memory down to the max;
3. used data above a new max → invoke the corresponding GC to free
   space, retrying every poll until it succeeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import EventHandle, EventLoop
from repro.units import mib

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.jvm import Jvm

__all__ = ["ElasticHeapController"]

#: VirtualMax never shrinks below this floor (a heap must exist).
MIN_VIRTUAL_MAX = mib(16)

#: Native (non-heap) memory a JVM occupies: metaspace, code cache, stacks.
NON_HEAP_OVERHEAD = mib(64)

#: Seconds between polls (§4.2 queries sys_namespace every 10 s); also the
#: JVM's wait before retrying a promotion that found no room.
POLL_INTERVAL = 10.0


class ElasticHeapController:
    """Periodically retargets ``VirtualMax`` to the effective memory."""

    def __init__(self, jvm: "Jvm"):
        self.jvm = jvm
        self._timer: EventHandle | None = None
        self.polls = 0
        self.shrink_gcs_requested = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self, events: EventLoop) -> None:
        if self._timer is not None and self._timer.active:
            return
        self._timer = events.call_every(POLL_INTERVAL, self.poll,
                                        name=f"elastic-heap:{self.jvm.name}")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- the 10-second adjustment ------------------------------------------------

    def target_virtual_max(self) -> int:
        """VirtualMax derived from the current effective memory."""
        e_mem = self.jvm.container.e_mem
        return max(MIN_VIRTUAL_MAX, e_mem - NON_HEAP_OVERHEAD)

    def poll(self) -> None:
        self.polls += 1
        jvm = self.jvm
        if jvm.finished:
            self.stop()
            return
        heap = jvm.heap
        new_vmax = min(self.target_virtual_max(), heap.reserved)
        shrinking = new_vmax < heap.virtual_max
        heap.set_virtual_max(new_vmax)
        if not shrinking:
            # Expansion: adaptive sizing will grow into the new bound.
            return
        # Shrink scenario 2: release committed memory above the new maxes
        # where no live data is in the way.
        heap.clamp_committed_to_maxes()
        jvm.sync_memory_charge()
        # Shrink scenario 3: used space crosses a max -> only a GC helps.
        if heap.needs_gc_to_shrink:
            self.shrink_gcs_requested += 1
            jvm.request_shrink_gc()
