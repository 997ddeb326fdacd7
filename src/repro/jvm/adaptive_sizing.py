"""HotSpot's adaptive size policy (simplified to its feedback essentials).

After every collection the policy adjusts the *committed* generation
sizes within the dynamic maxes (``YoungMax``/``OldMax``):

* the young generation is sized so minor collections do not fire more
  often than a target interval — allocation-heavy applications therefore
  grow eden aggressively (fewer, cheaper-per-byte collections), exactly
  the behaviour that lets a vanilla JVM with a 32 GB ``MaxHeapSize``
  inflate its footprint far past a 1 GB container limit (Fig. 11) while
  the elastic JVM, running the *same* policy under a dynamic
  ``VirtualMax``, stays inside it;
* the young generation shrinks again when collections become rare and
  occupancy is low (footprint goal);
* the old generation keeps promotion headroom above its occupancy and
  shrinks after a major collection that leaves it sparsely used.

GC-overhead (GC time / total time) is tracked as an EMA for reporting
and as a secondary growth trigger.
"""

from __future__ import annotations

from repro.jvm.heap import Heap

__all__ = ["BaseSizePolicy", "AdaptiveSizePolicy", "ThroughputSizePolicy"]

# Feedback thresholds of the size policy.

#: Minor collections closer together than this trigger young growth.
TARGET_MINOR_INTERVAL = 0.25
#: Minor collections farther apart than this (with low occupancy)
#: allow the young generation to shrink.
SHRINK_MINOR_INTERVAL = 2.0
#: Secondary trigger: grow when GC overhead exceeds this target.
GC_OVERHEAD_TARGET = 0.10
#: Young-generation growth factor.
YOUNG_GROW_FACTOR = 1.5
#: Shrink factor when far under target and under-occupied.
YOUNG_SHRINK_FACTOR = 0.8
#: Old generation keeps this much headroom over its occupancy.
OLD_HEADROOM = 1.3
#: Old shrinks when occupancy falls below this fraction of committed.
OLD_SHRINK_OCCUPANCY = 0.35
#: Smoothing weight for the GC-overhead moving average.
EMA_WEIGHT = 0.3


class BaseSizePolicy:
    """Shared machinery of heap sizing strategies.

    §4.2 notes the elastic heap "does not rely on specific sizing
    algorithms and is complementary to the existing approaches": the JVM
    accepts any strategy with this surface.  Subclasses implement the
    growth/shrink feedback; promotion-room management and generation
    rebalancing are common to all of them.
    """

    def __init__(self):
        self.gc_overhead_ema = 0.0
        self.minor_gcs_observed = 0
        self._last_mutator_wall = float("inf")

    # -- feedback (subclass responsibility) ----------------------------------

    def observe_minor(self, heap: Heap, *, gc_wall: float,
                      mutator_wall: float) -> None:
        raise NotImplementedError

    def observe_major(self, heap: Heap) -> None:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------------

    def _update_overhead(self, gc_wall: float, mutator_wall: float) -> float:
        total = gc_wall + mutator_wall
        overhead = gc_wall / total if total > 0 else 0.0
        self.gc_overhead_ema = ((1 - EMA_WEIGHT) * self.gc_overhead_ema
                                + EMA_WEIGHT * overhead)
        self.minor_gcs_observed += 1
        self._last_mutator_wall = mutator_wall
        return overhead

    def _shrink_after_major(self, heap: Heap) -> None:
        """Footprint-goal shrinking, only after *full* collections.

        Parallel Scavenge releases committed memory after full GCs,
        never in response to external memory pressure between them —
        exactly the limitation §4.2 points out ("the sizing algorithm
        cannot ... shrink the heap in response to memory pressure in a
        container").
        """
        if heap.old_used < int(heap.old_committed * OLD_SHRINK_OCCUPANCY):
            heap.resize_old(int(heap.old_used * OLD_HEADROOM))
        else:
            self._track_old(heap)
        if (self._last_mutator_wall > SHRINK_MINOR_INTERVAL
                and heap.young_used < heap.young_committed // 4):
            heap.resize_young(int(heap.young_committed * YOUNG_SHRINK_FACTOR))

    def shrink_young_for_promotion(self, heap: Heap, incoming: int) -> bool:
        """Last-resort generation rebalancing before an OOM.

        Parallel Scavenge's adaptive generation sizing moves the
        young/old boundary: when long-lived data outgrows the old
        generation, the young generation shrinks toward its floor so its
        budget can hold the promoted data (at the cost of much more
        frequent minor collections — the "more frequent GCs" price §5.3
        reports for constrained heaps).  Returns True if the promotion
        now fits.
        """
        needed = int((heap.old_used + incoming) * 1.02)
        heap.resize_young(heap.virtual_max - needed)
        heap.resize_old(needed)
        return heap.old_committed >= heap.old_used + incoming

    def ensure_promotion_room(self, heap: Heap, incoming: int) -> bool:
        """Grow the old generation to fit ``incoming`` promoted bytes.

        Returns False when even the dynamic max cannot fit them — the
        caller must run a major GC (and may still fail afterwards).
        """
        needed = heap.old_used + incoming
        if needed <= heap.old_committed:
            return True
        heap.resize_old(int(needed * OLD_HEADROOM))
        return heap.old_committed >= needed

    def _track_old(self, heap: Heap) -> None:
        """Keep promotion headroom above old occupancy."""
        target = int(heap.old_used * OLD_HEADROOM)
        if target > heap.old_committed:
            heap.resize_old(target)


class AdaptiveSizePolicy(BaseSizePolicy):
    """The default PS-flavoured strategy: frequency- and overhead-driven.

    The young generation grows while minor collections fire faster than
    the target interval (allocation pressure) or while the GC-overhead
    EMA exceeds its target.  This is the strategy whose growth inflates
    a vanilla 32 GB-MaxHeap JVM past a 1 GB container limit (Fig. 11).
    """

    def observe_minor(self, heap: Heap, *, gc_wall: float,
                      mutator_wall: float) -> None:
        self._update_overhead(gc_wall, mutator_wall)
        if (mutator_wall < TARGET_MINOR_INTERVAL
                or self.gc_overhead_ema > GC_OVERHEAD_TARGET):
            heap.resize_young(int(heap.young_committed * YOUNG_GROW_FACTOR))
        self._track_old(heap)

    def observe_major(self, heap: Heap) -> None:
        self._shrink_after_major(heap)


class ThroughputSizePolicy(BaseSizePolicy):
    """An alternative strategy driven purely by the GC-overhead EMA.

    Ignores collection frequency: the heap grows only while measured GC
    overhead exceeds the target (a GCTimeRatio-style throughput goal).
    Exists to demonstrate §4.2's claim that the elastic heap "is
    independent from the original sizing algorithm": VirtualMax bounds
    either strategy identically (see the ablation bench).
    """

    def observe_minor(self, heap: Heap, *, gc_wall: float,
                      mutator_wall: float) -> None:
        self._update_overhead(gc_wall, mutator_wall)
        if self.gc_overhead_ema > GC_OVERHEAD_TARGET:
            heap.resize_young(int(heap.young_committed * YOUNG_GROW_FACTOR))
        self._track_old(heap)

    def observe_major(self, heap: Heap) -> None:
        self._shrink_after_major(heap)
