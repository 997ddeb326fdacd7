"""Burstable CPU policy: shares-only until the domain is contended.

The "CPU-Limits kill Performance" direction from PAPERS.md: hard CFS
quotas throttle a container even when the host has idle cores, so a
latency service pays tail latency for capacity nobody else wanted.
This policy removes the hard quota while a contention domain has slack
and lets quotas re-assert only under pressure:

* **Uncontended domain** (sum of burst demands ``min(|cpuset|, n)``
  fits in the domain's capacity): every group is capped only by its
  cpuset and its own runnable threads — quota-free bursting.  No
  throttle time accrues; idle capacity is genuinely free.
* **Contended domain** (burst demand exceeds capacity): contention is
  exactly the condition under which CPU PSI "some" goes positive, so
  this is the deterministic analogue of PSI-triggered throttling —
  quotas come back as *soft caps* and the allocation collapses to the
  default policy's.  Groups whose quota actually clips their demand
  are flagged ``soft_capped`` and accrue throttle time exactly as the
  default policy would, so ``cpu.stat`` reflects only pressure-induced
  throttling.

Because the contended branch reproduces the default arithmetic, a
fleet under ``burstable`` diverges from ``default`` only while slack
exists — which is precisely the claim the policy-diff fuzzer and the
``exp_policy`` experiment quantify.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.sched.fair import EPS, GroupAlloc
from repro.policy.base import SchedPolicy
from repro.policy.default import share_out

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup

__all__ = ["BurstableSchedPolicy"]


class BurstableSchedPolicy(SchedPolicy):
    """No hard quota; shares + pressure-triggered soft throttling."""

    name = "burstable"
    #: Stateless: the soft-cap decision is recomputed from the same
    #: inputs every solve, so memoization is sound.
    pure = True

    def solve(self, members: "list[Cgroup]", capacity: float) -> list[tuple]:
        ns: list[int] = []
        weights: list[float] = []
        caps: list[float] = []
        demands: list[float] = []
        quotas: list[float] = []
        masks: list[tuple[int, ...]] = []
        burst_total = 0.0
        for cg in members:
            n = cg.n_runnable()
            fn = float(n)
            mask = cg.effective_cpuset().as_tuple()
            mask_size = float(len(mask))
            cpu = cg.cpu
            burst_cap = min(mask_size, fn)
            ns.append(n)
            weights.append(float(cpu.shares))
            caps.append(burst_cap)
            demands.append(min(fn, mask_size))
            quotas.append(cpu.quota_cores)
            masks.append(mask)
            burst_total += burst_cap
        soft_capped = None
        if burst_total > capacity + EPS:
            # The domain is under pressure: quotas re-assert as soft caps
            # (and only now can throttle time accrue).
            soft_capped = [quota < cap - EPS
                           for quota, cap in zip(quotas, caps)]
            caps = [min(quota, cap) if soft else cap
                    for quota, cap, soft in zip(quotas, caps, soft_capped)]
        return share_out(members, ns, weights, caps, demands, quotas, masks,
                         capacity, soft_capped)

    def throttle_clip(self, g: GroupAlloc) -> float:
        # Same clipping arithmetic as the default policy, but only for
        # groups whose quota was re-asserted by domain pressure: a
        # quota'd group bursting through idle capacity is *not*
        # throttled, which is the whole point of the policy.
        if g.soft_capped:
            quota = g.quota
            clipped = g.demand - quota
            if clipped > 0.0 and g.rate >= quota - 1e-9:
                return clipped
        return 0.0

    def rate_cap(self, quota_cores: float, cpuset_size: float) -> float:
        # Bursting may lawfully exceed the quota; cpuset stays binding.
        return cpuset_size
