"""The SchedPolicy / ReclaimPolicy interfaces: what a kernel policy owns.

The simulator splits its kernel into *mechanism* and *policy*, mirroring
how plugsched carves the Linux scheduler into a hot-swappable module:

* **Mechanism** (stays in :mod:`repro.kernel`) — dirty sets, cached
  contention domains, the two-level completion index, CPU/byte ledgers,
  PSI accrual plumbing, watermark bookkeeping.  It is policy-agnostic
  and identical under every policy.
* **Policy** (subclasses here) — the decisions: how a contention
  domain's capacity is divided among its cgroups, when quota clipping
  counts as throttling, which cgroups lose pages when the host needs
  memory back, and who dies on OOM.

A policy instance may keep internal state, but it must be able to pack
it into a JSON-able dict (:meth:`export_state`) and absorb a
predecessor's dict (:meth:`import_state`): that is the **state-handoff
contract** behind :meth:`repro.world.World.swap_policy`, the simulator
analogue of plugsched's install/uninstall.  Everything the conservation
invariants audit (work integrals, throttle counters, byte ledgers)
lives on the mechanism side and survives a swap untouched — the world
asserts exactly that around every swap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup
    from repro.kernel.sched.fair import GroupAlloc, SchedParams

__all__ = ["SchedPolicy", "ReclaimPolicy"]


class SchedPolicy:
    """Decides how one contention domain's capacity is divided.

    Subclasses override :meth:`solve` (the allocation itself),
    :meth:`throttle_accrue` (what counts as quota throttling), and
    :meth:`rate_cap` (the lawful per-group rate ceiling the invariant
    checker enforces).  The mechanism calls :meth:`solve` once per
    (re-)solved contention domain with the member cgroups in canonical
    ``seq`` order; the returned :class:`GroupAlloc` list must be in the
    same order and is published to the cgroups by the mechanism.
    """

    #: Registry name; also what ``GroupAlloc`` provenance reports show.
    name = "sched-policy"

    #: Declares :meth:`solve` a pure function of the domain-solve key
    #: (members' shares/quota/mask/runnable count, capacity, params).
    #: Pure policies may be memoized by the scheduler: identical inputs
    #: are answered from a cache of previously-solved rows instead of
    #: re-running :meth:`solve`.  A policy that keeps internal state
    #: that influences allocations must leave this False.
    pure = False

    def solve(self, members: "list[Cgroup]", capacity: float,
              params: "SchedParams") -> "list[GroupAlloc]":
        """Allocate ``capacity`` cores over ``members``; set efficiency."""
        raise NotImplementedError

    #: Declares :meth:`throttle_accrue` a function of the group's
    #: published allocation row alone (no per-call state).  Row-static
    #: policies expose the decision through :meth:`throttle_clip`, which
    #: the scheduler evaluates once per publication instead of on every
    #: accrual step; :meth:`throttle_accrue` remains the reference
    #: semantics and the fallback for stateful policies.
    throttle_static = False

    def throttle_accrue(self, g: "GroupAlloc", dt: float) -> None:
        """Accrue throttled_time/throttled_wall for one group over ``dt``."""
        raise NotImplementedError

    def throttle_clip(self, g: "GroupAlloc") -> float:
        """Per-second ``throttled_time`` accrual rate for ``g``'s row.

        Only consulted when :attr:`throttle_static` is True.  A positive
        return means the mechanism accrues ``clip * dt`` of throttled
        time (and ``dt`` of throttled wall) per accrual step until the
        group's row is republished — exactly what calling
        :meth:`throttle_accrue` every step would have produced.
        """
        return 0.0

    def rate_cap(self, quota_cores: float, cpuset_size: float) -> float:
        """Largest lawful instantaneous rate for a group (invariant cap)."""
        return min(quota_cores, cpuset_size)

    # -- state handoff (plugsched install/uninstall) ----------------------

    def export_state(self) -> dict:
        """Pack policy-internal state for a successor (JSON-able)."""
        return {}

    def import_state(self, state: dict) -> None:
        """Absorb a predecessor's exported state.  Unknown keys are the
        predecessor's private business and must be ignored, not errors —
        swaps between arbitrary policy pairs have to stay total."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ReclaimPolicy:
    """Decides which cgroups give up memory, and who dies on OOM.

    The mechanism (:class:`~repro.kernel.mm.memcg.MemoryManager`) keeps
    the watermarks, the swap device, and every ledger; it asks the
    policy only for *plans* — ``(cgroup, bytes)`` lists it then executes
    via its own ``_swap_out`` path.  Plans must be deterministic
    functions of the passed groups (canonical hierarchy-walk order) and
    must not mutate anything.
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

    def oom_victim(self, charger: "Cgroup",
                   groups: "list[Cgroup]") -> "Cgroup":
        """Pick the cgroup to OOM-kill when a charge cannot be placed.

        The built-in policies all return ``charger`` (the memcg-style
        "the group that hit its limit dies"); the hook exists so a
        policy can model a global badness score instead.
        """
        return charger

    # -- state handoff ----------------------------------------------------

    def export_state(self) -> dict:
        return {}

    def import_state(self, state: dict) -> None:
        """Absorb a predecessor's exported state (ignore unknown keys)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
