"""Swap device model and the swapped-memory slowdown.

Actual page-granular swap traffic is far below the level of detail the
paper's experiments need; what matters is (a) how many of a cgroup's
bytes are on the swap device and (b) how much that slows the cgroup
down.  A cgroup whose working set is partially swapped keeps faulting
pages in and out, so its useful progress rate is scaled by

    1 / (1 + penalty * swapped / (resident + swapped))

With ``penalty = SWAP_PENALTY`` a mostly-swapped working set runs one to
two orders of magnitude slower — the "performance collapse" of §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MemoryError_

__all__ = ["SWAP_PENALTY", "SwapDevice", "swap_slowdown_multiplier"]

#: Slowdown coefficient: progress multiplier is 1/(1 + penalty*frac),
#: where frac is the hot-working-set fraction that is swapped out.
SWAP_PENALTY = 25.0


@dataclass
class SwapDevice:
    """A finite swap area tracking used capacity."""

    capacity: int
    used: int = 0
    swapouts: int = field(default=0)
    swapins: int = field(default=0)

    def reserve(self, nbytes: int) -> int:
        """Swap out up to ``nbytes``; returns the amount actually taken."""
        if nbytes < 0:
            raise MemoryError_(f"cannot swap out negative bytes: {nbytes}")
        granted = min(nbytes, self.capacity - self.used)
        self.used += granted
        self.swapouts += granted
        return granted

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of swap space (swap-in or discard)."""
        if nbytes < 0:
            raise MemoryError_(f"cannot release negative swap bytes: {nbytes}")
        if nbytes > self.used:
            raise MemoryError_(
                f"releasing {nbytes} swap bytes but only {self.used} in use")
        self.used -= nbytes
        self.swapins += nbytes

    @property
    def free(self) -> int:
        return self.capacity - self.used


def swap_slowdown_multiplier(resident: int, swapped: int, penalty: float,
                             hot_bytes: int | None = None) -> float:
    """Progress-rate multiplier for a cgroup with ``swapped`` bytes out.

    Reclaim takes the coldest pages first, so only swapped bytes that
    cut into the *hot* working set cause fault storms.  ``hot_bytes`` is
    the runtime's hint of its hot set (a JVM reports live data plus the
    young generation); ``None`` treats the whole charge as hot.
    """
    total = resident + swapped
    if total <= 0 or swapped <= 0:
        return 1.0
    hot_swapped = swapped
    if hot_bytes is not None:
        cold = total - max(0, min(hot_bytes, total))
        hot_swapped = swapped - cold
        if hot_swapped <= 0:
            return 1.0
    return 1.0 / (1.0 + penalty * (hot_swapped / total))
