"""kswapd: background and direct reclaim policies.

Stateless policy functions used by the memory manager.  Background
reclaim ("kswapd") takes memory only from cgroups whose resident size
exceeds their soft limit, proportionally to their overage, until the
free-memory target is met.  Direct reclaim (free below the *min*
watermark) takes from *any* cgroup proportionally to resident size —
"indiscriminately frees memory from any containers, including those that
do not exceed their soft limits" (§3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup

__all__ = ["soft_limit_victims", "plan_background_reclaim", "plan_direct_reclaim"]


def soft_limit_victims(cgroups: list["Cgroup"]) -> list[tuple["Cgroup", int]]:
    """Cgroups above their soft limit with their overage in bytes."""
    victims: list[tuple[Cgroup, int]] = []
    for cg in cgroups:
        mem = cg.memory
        soft = mem.soft_limit_in_bytes
        if soft is not None:
            over = mem.resident - soft
            if over > 0:
                victims.append((cg, over))
    return victims


def plan_background_reclaim(cgroups: list["Cgroup"], need: int) -> list[tuple["Cgroup", int]]:
    """Distribute ``need`` reclaim bytes over soft-limit overages.

    Returns (cgroup, bytes_to_swap_out) pairs; the total is
    ``min(need, total_overage)``.  The distribution is proportional to
    each victim's overage, mirroring the "gradually reclaim memory until
    usage falls below the soft limit" behaviour.
    """
    return _split_proportionally(soft_limit_victims(cgroups), need)


def plan_direct_reclaim(cgroups: list["Cgroup"], need: int) -> list[tuple["Cgroup", int]]:
    """Distribute ``need`` reclaim bytes proportionally to resident size."""
    holders = [(cg, cg.memory.resident) for cg in cgroups if cg.memory.resident > 0]
    return _split_proportionally(holders, need)


def _split_proportionally(holders: list[tuple["Cgroup", int]],
                          need: int) -> list[tuple["Cgroup", int]]:
    """Take ``min(need, total)`` bytes, each holder's share proportional
    to its bytes; the last holder takes the rounding remainder."""
    total = sum([held for _, held in holders])
    if need <= 0 or total <= 0:
        return []
    take_total = need if need < total else total
    plan: list[tuple[Cgroup, int]] = []
    remaining = take_total
    last = len(holders) - 1
    for i, (cg, held) in enumerate(holders):
        if i == last:
            take = held if held < remaining else remaining
        else:
            take = round(take_total * held / total)
            if held < take:
                take = held
            if remaining < take:
                take = remaining
        if take > 0:
            plan.append((cg, take))
            remaining -= take
    return plan
