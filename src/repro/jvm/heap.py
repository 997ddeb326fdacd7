"""The generational heap of the simulated HotSpot JVM.

Follows the Parallel Scavenge layout of §4.2 (Fig. 5): a young
generation (eden + survivor spaces) and an old generation with a fixed
1:2 young:old target ratio, each with three sizes:

* **used** — bytes occupied by (live or dead) objects;
* **committed** — memory actually allocated to the JVM (this is what is
  charged against the container's memory cgroup);
* **reserved** — the static ``MaxHeapSize`` address-space ceiling.

The elastic heap adds the dynamic limits ``VirtualMax`` (total),
``YoungMax`` and ``OldMax`` (per generation, preserving the ratio); the
adaptive size policy may commit memory only below these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import JvmError
from repro.units import mib

__all__ = ["HeapSnapshot", "Heap", "YOUNG_FRACTION", "EDEN_FRACTION"]

#: Young generation's share of the total heap (young:old = 1:2).
YOUNG_FRACTION = 1.0 / 3.0
#: Eden's share of the young generation (the rest is survivor space).
EDEN_FRACTION = 0.8

#: Committed sizes never shrink below these floors.
MIN_YOUNG_COMMITTED = mib(4)
MIN_OLD_COMMITTED = mib(8)


@dataclass(frozen=True)
class HeapSnapshot:
    """A point-in-time view (used for the Fig. 12 traces)."""

    time: float
    used: int
    committed: int
    virtual_max: int


class Heap:
    """Generational heap state and resize arithmetic.

    The class is deliberately side-effect free with respect to the
    kernel: committed-size changes return nothing, and the JVM charges
    the delta of :attr:`committed_total` against the memory cgroup.
    """

    def __init__(self, reserved: int, *, initial_committed: int,
                 virtual_max: int | None = None):
        if reserved <= 0:
            raise JvmError(f"reserved heap must be positive, got {reserved}")
        self.reserved = int(reserved)
        self.virtual_max = int(virtual_max) if virtual_max is not None else self.reserved
        if self.virtual_max > self.reserved:
            raise JvmError("VirtualMax cannot exceed the reserved size")
        initial_committed = max(int(initial_committed),
                                MIN_YOUNG_COMMITTED + MIN_OLD_COMMITTED)
        initial_committed = min(initial_committed, self.virtual_max)
        self.young_committed = max(MIN_YOUNG_COMMITTED,
                                   int(initial_committed * YOUNG_FRACTION))
        self.old_committed = max(MIN_OLD_COMMITTED,
                                 initial_committed - self.young_committed)
        self.eden_used = 0
        self.survivor_used = 0
        self.old_used = 0
        #: Truly live bytes within the old generation (survives major GC).
        self.old_live = 0

    # -- dynamic limits ------------------------------------------------------

    @property
    def young_max(self) -> int:
        """Dynamic cap on the young generation (YoungMax, §4.2).

        The 1:2 young:old target ratio caps the young generation at a
        third of ``VirtualMax``.
        """
        return max(MIN_YOUNG_COMMITTED, int(self.virtual_max * YOUNG_FRACTION))

    @property
    def old_max(self) -> int:
        """Dynamic cap on the old generation (OldMax, §4.2).

        The old generation may occupy whatever ``VirtualMax`` the young
        generation is not using: in Parallel Scavenge the generation
        boundary is adaptive, so a long-lived data set can fill most of
        the heap while the young generation shrinks (the ratio is the
        *young* generation's cap, not a hard old-gen ceiling).
        """
        return max(MIN_OLD_COMMITTED,
                   self.virtual_max - max(self.young_committed,
                                          MIN_YOUNG_COMMITTED))

    def set_virtual_max(self, new_virtual_max: int) -> None:
        """Move the dynamic heap bound (clamped to the reserved size)."""
        if new_virtual_max <= 0:
            raise JvmError(f"VirtualMax must be positive, got {new_virtual_max}")
        self.virtual_max = min(int(new_virtual_max), self.reserved)

    # -- derived sizes ----------------------------------------------------------

    @property
    def committed_total(self) -> int:
        return self.young_committed + self.old_committed

    @property
    def used_total(self) -> int:
        return self.eden_used + self.survivor_used + self.old_used

    @property
    def young_used(self) -> int:
        return self.eden_used + self.survivor_used

    @property
    def eden_capacity(self) -> int:
        return int(self.young_committed * EDEN_FRACTION)

    @property
    def survivor_capacity(self) -> int:
        return self.young_committed - self.eden_capacity

    @property
    def eden_free(self) -> int:
        return max(0, self.eden_capacity - self.eden_used)

    # -- committed-size adjustments (the sizing policy's surface) --------------

    def resize_young(self, target_committed: int) -> None:
        """Set the young generation's committed size within its bounds."""
        cap = min(self.young_max, self.virtual_max - self.old_committed)
        target = max(MIN_YOUNG_COMMITTED, min(int(target_committed), cap))
        target = max(target, self.young_used)  # cannot drop below live data
        self.young_committed = target

    def resize_old(self, target_committed: int) -> None:
        """Set the old generation's committed size within its bounds."""
        target = max(MIN_OLD_COMMITTED, min(int(target_committed), self.old_max))
        target = max(target, self.old_used)
        self.old_committed = target

    def clamp_committed_to_maxes(self) -> None:
        """Shrink committed sizes that exceed the (lowered) dynamic maxes,
        as far as used data allows — shrink scenario 2 of §4.2."""
        if self.young_committed > self.young_max:
            self.young_committed = max(self.young_used, self.young_max,
                                       MIN_YOUNG_COMMITTED)
        if self.old_committed > self.old_max:
            self.old_committed = max(self.old_used, self.old_max,
                                     MIN_OLD_COMMITTED)

    @property
    def needs_gc_to_shrink(self) -> bool:
        """True when used data itself exceeds a dynamic max — shrink
        scenario 3 of §4.2: only a collection can release the space."""
        return self.young_used > self.young_max or self.old_used > self.old_max

    # -- allocation-side mutations (driven by the JVM) ----------------------------

    def allocate_eden(self, nbytes: int) -> None:
        if nbytes < 0:
            raise JvmError(f"cannot allocate negative bytes: {nbytes}")
        self.eden_used += nbytes

    def check_invariants(self) -> None:
        """Raise :class:`JvmError` if any structural invariant is broken.

        Called by stress tests (and available to debugging sessions) to
        catch accounting bugs at the moment they happen rather than as
        downstream weirdness.
        """
        problems = []
        if not (0 <= self.eden_used):
            problems.append(f"eden_used negative: {self.eden_used}")
        if self.eden_used > self.eden_capacity:
            problems.append(f"eden over capacity: {self.eden_used} > "
                            f"{self.eden_capacity}")
        if not (0 <= self.survivor_used <= self.survivor_capacity):
            problems.append(f"survivor out of range: {self.survivor_used} / "
                            f"{self.survivor_capacity}")
        if not (0 <= self.old_used <= self.old_committed):
            problems.append(f"old out of range: {self.old_used} / "
                            f"{self.old_committed}")
        if not (0 <= self.old_live <= max(self.old_used, 1)):
            problems.append(f"old_live {self.old_live} exceeds old_used "
                            f"{self.old_used}")
        if self.young_committed < MIN_YOUNG_COMMITTED:
            problems.append(f"young below floor: {self.young_committed}")
        if self.old_committed < MIN_OLD_COMMITTED:
            problems.append(f"old below floor: {self.old_committed}")
        if self.virtual_max > self.reserved:
            problems.append(f"VirtualMax {self.virtual_max} exceeds reserved "
                            f"{self.reserved}")
        if problems:
            raise JvmError("heap invariant violation: " + "; ".join(problems))

    def snapshot(self, now: float) -> HeapSnapshot:
        return HeapSnapshot(time=now, used=self.used_total,
                            committed=self.committed_total,
                            virtual_max=self.virtual_max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Heap young {self.young_used}/{self.young_committed} "
                f"old {self.old_used}/{self.old_committed} "
                f"vmax={self.virtual_max}>")
