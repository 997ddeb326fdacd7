"""Algorithm 1 — the calculation of effective CPU.

Effective CPU is "the maximum amount of CPU time that can be utilized by
a container, given its resource limit and share", expressed as a whole
number of dedicated-CPU equivalents (§3.1).  The computation has two
parts:

* **Static bounds**, kept current by ``ns_monitor`` as containers
  come/go and cgroup settings change (see :mod:`repro.core.ns_monitor`
  for which events rewrite whose bounds)::

      LOWER_CPU_i = min(l_i/t, |M_i|, ceil(w_i / sum(w_j) * |P|))
      UPPER_CPU_i = min(l_i/t, |M_i|)

  where ``l_i/t`` is the quota in cores (``cfs_quota_us/cfs_period_us``),
  ``M_i`` the cpuset, ``w`` the shares, and ``P`` the online CPU set.

* **A dynamic adjustment** run every update period ``t``: while the host
  has slack CPU, a container using more than ``UTIL_THRSHD`` (95%) of
  its effective capacity grows by one CPU (up to the upper bound); when
  the host has no idle CPU, effective CPU decays by one per period back
  toward the lower bound.  Changes are limited to ±1 per update "to
  prevent abrupt fluctuations".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.kernel.cgroup import Cgroup

__all__ = ["UTIL_THRESHOLD", "CpuViewParams", "CpuBounds", "cpu_bounds_key",
           "compute_cpu_bounds", "step_effective_cpu"]

#: The paper's empirically chosen UTIL_THRSHD.
UTIL_THRESHOLD = 0.95

#: Host idle capacity (core-seconds per window second) above which the
#: system is considered to have slack.
SLACK_EPS = 1e-6


@dataclass(frozen=True)
class CpuViewParams:
    """Tunables of the effective-CPU update rule."""

    util_threshold: float = UTIL_THRESHOLD
    #: Disable the dynamic adjustment: E_CPU stays pinned at the static
    #: lower bound.  This is the LXCFS / cgroup-namespace behaviour the
    #: paper contrasts against ("these approaches only export the
    #: resource constraints set by the administrator but do not reflect
    #: the actual amount of resources", §1) — used by the ablation bench.
    dynamic: bool = True


@dataclass(frozen=True)
class CpuBounds:
    """The static [LOWER_CPU, UPPER_CPU] range of Algorithm 1."""

    lower: int
    upper: int

    def clamp(self, e_cpu: int) -> int:
        return max(self.lower, min(self.upper, e_cpu))


def _as_cpu_count(cores: float) -> int:
    """Integerize a fractional core capacity as a CPU count (floor, min 1).

    A container throttled to e.g. 2.5 cores cannot keep 3 CPUs busy, so
    its count is 2; sub-core quotas still present one CPU because a
    container always has at least one schedulable CPU.
    """
    if cores == float("inf"):
        return 1 << 30
    return max(1, math.floor(cores + 1e-9))


def cpu_bounds_key(cg: Cgroup) -> tuple[int, int, int]:
    """Everything of ``cg`` its bounds read: ``(shares, quota CPUs, |cpuset|)``.

    Two containers with equal keys have equal bounds at every share total.
    """
    return (cg.cpu.shares, _as_cpu_count(cg.quota_cores),
            len(cg.effective_cpuset()))


def compute_cpu_bounds(cg: Cgroup, total_shares: int, ncpus: int) -> CpuBounds:
    """Static bounds for one container's effective CPU.

    ``total_shares`` is the sum of the ``cpu.shares`` of every container
    that owns a ``sys_namespace`` (including ``cg`` itself) — the
    contention set over which the share fraction ``w_i / sum(w_j)`` is
    taken.
    """
    shares, quota_cpus, mask_cpus = cpu_bounds_key(cg)
    if total_shares <= 0:
        share_cpus = ncpus
    else:
        share_cpus = math.ceil(shares / total_shares * ncpus - 1e-9)
    share_cpus = max(1, share_cpus)
    upper = max(1, min(quota_cpus, mask_cpus))
    lower = max(1, min(quota_cpus, mask_cpus, share_cpus))
    return CpuBounds(lower=lower, upper=min(upper, ncpus))


def step_effective_cpu(e_cpu: int, bounds: CpuBounds, *, usage: float,
                       capacity_window: float, slack: float,
                       params: CpuViewParams | None = None) -> int:
    """One dynamic-adjustment step of Algorithm 1 (lines 8–17).

    Parameters
    ----------
    e_cpu:
        Current effective CPU count.
    usage:
        The container's CPU consumption over the closing window, in
        core-seconds (``u_i``).
    capacity_window:
        ``E_CPU_i * t`` — the capacity of the current effective CPUs over
        the window.
    slack:
        Host idle capacity integrated over the window (core-seconds);
        positive means ``p_slack > 0``.
    """
    p = params or CpuViewParams()
    e_cpu = bounds.clamp(e_cpu)
    if not p.dynamic:
        return bounds.lower
    if slack > SLACK_EPS:
        utilization = usage / capacity_window if capacity_window > 0 else 0.0
        if utilization > p.util_threshold and e_cpu < bounds.upper:
            return e_cpu + 1
        return e_cpu
    if e_cpu > bounds.lower:
        return e_cpu - 1
    return e_cpu
