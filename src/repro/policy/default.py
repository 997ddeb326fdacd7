"""The stock kernel policy: CFS-style fair sharing + memcg reclaim.

``DefaultSchedPolicy`` is the exact allocation arithmetic the engine
shipped with before the policy boundary existed — weighted max-min
waterfill capped by ``min(quota, |cpuset|, n_threads)``, context-switch
and interference efficiency penalties, quota-clipping throttle
accounting.  The golden-trace fixture (``tests/golden/``) pins it:
every result here must stay byte-identical to the pre-refactor
``FairScheduler._solve_component``.  The solve is written in column
form — one pass gathers each member's inputs into columns,
:func:`share_out` (the part the burstable policy shares) solves them
and emits the publication rows — but every arithmetic operation and
its operand order is the original's, which is what keeps the bytes.

``DefaultReclaimPolicy`` delegates to the stateless kswapd planners
(soft-limit-overage-proportional background reclaim, residency-
proportional direct reclaim).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING

from repro.kernel.mm.kswapd import plan_background_reclaim, plan_direct_reclaim
from repro.kernel.sched.fair import (EPS, GroupAlloc, component_pressures,
                                     waterfill)
from repro.policy.base import ReclaimPolicy, SchedPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup

__all__ = ["DefaultSchedPolicy", "DefaultReclaimPolicy", "share_out",
           "CSW_OVERHEAD", "INTERFERENCE"]

#: Context-switch overhead coefficient (κ) for oversubscribed groups:
#: progress is scaled by ``1/(1 + κ·(n/rate − 1))``.
CSW_OVERHEAD = 0.05
#: Cross-container interference coefficient (γ).  Groups whose cpusets
#: overlap other busy groups lose efficiency proportionally to the
#: oversubscription of their contention domain (cache pollution,
#: wake-up latency).  A container with a *dedicated* cpuset is immune
#: — which is why the paper observes that JDK 9's CPU-affinity
#: isolation yields steadier GC times than the work-conserving
#: adaptive approach as co-runner count grows (§5.2, Fig. 7).
#: Independent threads tolerate interference fairly well; the GC cost
#: model layers an extra sensitivity on top for synchronizing teams.
INTERFERENCE = 0.05


def share_out(members: "list[Cgroup]", n_threads: list[int],
              weights: list[float], caps: list[float],
              demands: list[float], quotas: list[float],
              masks: list[tuple[int, ...]], capacity: float,
              soft_capped: list[bool] | None = None) -> list[tuple]:
    """Waterfill ``capacity`` over capped columns and emit solve rows.

    The solve body every built-in sched policy shares once it has
    gathered its members' columns (index ``i`` is ``members[i]``) and
    set their caps: rates from :func:`waterfill`, domain pressures from
    :func:`component_pressures`, then one pass that applies the
    context-switch penalty (:data:`CSW_OVERHEAD`) for oversubscribed
    groups and the interference penalty (:data:`INTERFERENCE`) from the
    domain pressure, and appends each
    member's row in :data:`~repro.kernel.sched.fair.ROW_FIELDS` order.
    ``soft_capped`` is the rows' flag column (all False when omitted).
    """
    if soft_capped is None:
        soft_capped = repeat(False)
    rates = waterfill(weights, caps, capacity)
    pressures = component_pressures(masks, n_threads, rates)
    kappa = CSW_OVERHEAD
    gamma = INTERFERENCE
    eps = EPS
    rows = []
    append = rows.append
    for cg, n, weight, cap, rate, demand, pressure, quota, soft in zip(
            members, n_threads, weights, caps, rates, demands, pressures,
            quotas, soft_capped):
        if rate > eps and n > rate:
            oversub = n / rate - 1.0
            efficiency = 1.0 / (1.0 + kappa * oversub)
        else:
            efficiency = 1.0
        if pressure > 1.0:
            efficiency *= 1.0 / (1.0 + gamma * (pressure - 1.0))
        append((cg, n, weight, cap, rate, efficiency, demand, pressure,
                quota, soft))
    return rows


class DefaultSchedPolicy(SchedPolicy):
    """Fluid CFS: shares-weighted waterfill under quota/cpuset/demand caps."""

    name = "default"
    #: Stateless: allocations depend only on the domain-solve inputs,
    #: so the scheduler may memoize per-domain solves.
    pure = True

    def solve(self, members: "list[Cgroup]", capacity: float) -> list[tuple]:
        ns: list[int] = []
        weights: list[float] = []
        caps: list[float] = []
        demands: list[float] = []
        quotas: list[float] = []
        masks: list[tuple[int, ...]] = []
        for cg in members:
            n = cg.n_runnable()
            fn = float(n)
            mask = cg.effective_cpuset().as_tuple()
            mask_size = float(len(mask))
            cpu = cg.cpu
            quota = cpu.quota_cores
            ns.append(n)
            weights.append(float(cpu.shares))
            caps.append(min(quota, mask_size, fn))
            demands.append(min(fn, mask_size))
            quotas.append(quota)
            masks.append(mask)
        return share_out(members, ns, weights, caps, demands, quotas, masks,
                         capacity)

    def throttle_clip(self, g: GroupAlloc) -> float:
        # Throttling: demand the quota clipped (the fluid analogue of
        # cpu.stat's throttled_time).
        quota = g.quota
        if quota != float("inf"):
            clipped = g.demand - quota
            if clipped > 0.0 and g.rate >= quota - 1e-9:
                return clipped
        return 0.0


class DefaultReclaimPolicy(ReclaimPolicy):
    """memcg-style reclaim: soft-limit overage first, then residency."""

    name = "default"

    def plan_background(self, groups: "list[Cgroup]",
                        need: int) -> "list[tuple[Cgroup, int]]":
        return plan_background_reclaim(groups, need)

    def plan_direct(self, groups: "list[Cgroup]",
                    need: int) -> "list[tuple[Cgroup, int]]":
        return plan_direct_reclaim(groups, need)
