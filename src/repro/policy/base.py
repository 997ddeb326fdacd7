"""The SchedPolicy / ReclaimPolicy interfaces: what a kernel policy owns.

The simulator splits its kernel into *mechanism* and *policy*, mirroring
how plugsched carves the Linux scheduler into a hot-swappable module:

* **Mechanism** (stays in :mod:`repro.kernel`) — dirty sets, cached
  contention domains, the two-level completion index, CPU/byte ledgers,
  PSI and throttle accrual, watermark bookkeeping, OOM kills of the
  charging cgroup.  It is policy-agnostic and identical under every
  policy.
* **Policy** (subclasses here) — the decisions: how a contention
  domain's capacity is divided among its cgroups, when quota clipping
  counts as throttling, and which cgroups lose pages when the host
  needs memory back.

Policies are stateless, so a hot-swap
(:meth:`repro.world.World.swap_policy`, the simulator analogue of
plugsched's install/uninstall) just replaces the instance.  Everything
the conservation invariants audit (work integrals, throttle counters,
byte ledgers) lives on the mechanism side and survives a swap
untouched — the world asserts exactly that around every swap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup
    from repro.kernel.sched.fair import GroupAlloc

__all__ = ["SchedPolicy", "ReclaimPolicy"]


class SchedPolicy:
    """Decides how one contention domain's capacity is divided.

    Subclasses override :meth:`solve` (the allocation itself),
    :meth:`throttle_clip` (what counts as quota throttling), and
    :meth:`rate_cap` (the lawful per-group rate ceiling the invariant
    checker enforces).  The mechanism calls :meth:`solve` once per
    (re-)solved contention domain with the member cgroups in canonical
    ``seq`` order.  The returned list must hold exactly one row per
    member, in the same order, each the tuple
    ``(cgroup, n_threads, weight, cap, rate, efficiency, demand,
    pressure, quota, soft_capped)`` (:data:`~repro.kernel.sched.fair.ROW_FIELDS`)
    whose ``cgroup`` is that member; anything else raises
    :class:`~repro.errors.PolicyError`.  The mechanism then publishes
    the rows itself, into one pooled :class:`GroupAlloc` per cgroup —
    a slotted dataclass, so it takes no attributes beyond its fields —
    and that published snapshot is what :meth:`throttle_clip` reads.
    A pure policy's rows are memoized exactly as returned, cgroup
    references included (the memo's row budget bounds them), and may
    be published to another domain with identical inputs.

    No :meth:`solve`, pure or not, may read a member's
    ``progress_multiplier``: the mechanism scales published thread
    rates by it, and a change to it alone (swap slowdown) re-solves no
    domain in incremental mode.
    """

    #: Registry name; also what ``GroupAlloc`` provenance reports show.
    name = "sched-policy"

    #: Declares :meth:`solve` a pure function of the domain-solve key
    #: (members' shares/quota/mask/runnable count, capacity).
    #: Pure policies may be memoized by the scheduler: identical inputs
    #: are answered from a cache of previously-solved rows instead of
    #: re-running :meth:`solve`.  A policy whose allocations depend on
    #: anything else must leave this False.
    pure = False

    def solve(self, members: "list[Cgroup]", capacity: float) -> "list[tuple]":
        """Allocate ``capacity`` cores over ``members``: one row each."""
        raise NotImplementedError

    def throttle_clip(self, g: "GroupAlloc") -> float:
        """Per-second ``throttled_time`` accrual rate for ``g``'s row.

        A function of the published row's fields alone: the mechanism
        evaluates it once per publication, and while it is positive
        accrues ``clip * dt`` of throttled time (and ``dt`` of throttled
        wall) on every accrual step until the row is republished.
        """
        return 0.0

    def rate_cap(self, quota_cores: float, cpuset_size: float) -> float:
        """Largest lawful instantaneous rate for a group (invariant cap)."""
        return min(quota_cores, cpuset_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ReclaimPolicy:
    """Decides which cgroups give up memory.

    The mechanism (:class:`~repro.kernel.mm.memcg.MemoryManager`) keeps
    the watermarks, the swap device, and every ledger, and OOM-kills the
    charging cgroup when a charge cannot be placed; it asks the policy
    only for *plans* — ``(cgroup, bytes)`` lists it then executes in one
    pass (``MemoryManager._swap_out_plan``), clipping each entry to the
    victim's resident bytes and the swap device's free room.  Plans must
    be deterministic functions of the passed groups (canonical
    hierarchy-walk order) and must not mutate anything.
    """

    name = "reclaim-policy"

    def plan_background(self, groups: "list[Cgroup]",
                        need: int) -> "list[tuple[Cgroup, int]]":
        """kswapd plan: which groups lose how many bytes to reach need."""
        raise NotImplementedError

    def plan_direct(self, groups: "list[Cgroup]",
                    need: int) -> "list[tuple[Cgroup, int]]":
        """Direct-reclaim plan (free fell below the min watermark).

        ``groups`` already excludes the charging cgroup — self-reclaim
        during a charge is the mechanism's concern, not a policy choice.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
