"""Algorithm 2 — the calculation of effective memory.

Effective memory starts at the container's **soft limit** and may expand
toward its **hard limit** while the system has no memory shortage.  The
expansion rule (lines 5–12) is deliberately conservative because
"over-committing memory can cause memory thrashing and performance
collapse" (§3.1):

* the container must be using more than 90% of its current effective
  memory (it actually needs more);
* the increment is 10% of the remaining headroom to the hard limit;
* the expected impact on system-wide free memory is *predicted* from
  the previous window — ``(pfree - cfree) / (cmem - pmem)`` estimates
  how many bytes of host free memory one byte of this container's
  growth consumes — and the expansion is granted only if the predicted
  free memory stays above the **high** watermark, i.e. would not wake
  kswapd.

Whenever the system is short on memory and kswapd is reclaiming (free
below the **low** watermark), effective memory resets to the soft limit
(lines 13–14).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemViewParams", "MemorySample", "step_effective_memory"]

#: Usage fraction of effective memory above which expansion is considered.
USAGE_THRESHOLD = 0.90
#: Clamp on the free-memory-impact ratio (guards the prediction when the
#: previous window had tiny or negative usage growth).
MAX_IMPACT_RATIO = 10.0


@dataclass(frozen=True)
class MemViewParams:
    """Tunables of the effective-memory update rule."""

    #: Expansion step as a fraction of the remaining headroom to the hard limit.
    increment_frac: float = 0.10
    #: Disable the dynamic expansion: E_MEM stays pinned at the soft
    #: limit (the static-limits view of LXCFS / cgroup namespaces).
    dynamic: bool = True


@dataclass(frozen=True)
class MemorySample:
    """Inputs observed at an update boundary (all bytes)."""

    cfree: int   # system-wide free memory now
    pfree: int   # system-wide free memory at the previous update
    cmem: int    # container usage now
    pmem: int    # container usage at the previous update


def _impact_ratio(sample: MemorySample) -> float:
    """Estimated host-free-memory bytes consumed per byte of growth.

    Algorithm 2 line 8 uses ``(pfree - cfree) / (cmem - pmem)``.  The
    paper notes this "could be an over-estimation"; we additionally guard
    the degenerate windows: no usage growth defaults the ratio to 1 (a
    byte of growth costs a byte of free memory), and the ratio is clamped
    to ``[0, MAX_IMPACT_RATIO]``.
    """
    d_mem = sample.cmem - sample.pmem
    if d_mem <= 0:
        return 1.0
    ratio = (sample.pfree - sample.cfree) / d_mem
    return min(max(ratio, 0.0), MAX_IMPACT_RATIO)


def step_effective_memory(e_mem: int, *, soft_limit: int, hard_limit: int,
                          sample: MemorySample, low_mark: int, high_mark: int,
                          reclaiming: bool = False,
                          params: MemViewParams | None = None) -> int:
    """One update step of Algorithm 2.

    Returns the new effective memory in bytes.  ``soft_limit`` and
    ``hard_limit`` must already be finite (callers cap them at host
    capacity for containers without configured limits).  ``reclaiming``
    flags that kswapd ran during the closing window: because the
    simulator's reclaim is instantaneous, the updater may never *observe*
    free memory below the low watermark, so the reclaim activity itself
    also counts as a shortage (Algorithm 2 line 13: "Reset effective
    memory if reclaiming memory").
    """
    p = params or MemViewParams()
    e_mem = max(min(e_mem, hard_limit), min(soft_limit, hard_limit))
    if not p.dynamic:
        return min(soft_limit, hard_limit)
    if reclaiming or sample.cfree <= low_mark:
        # Memory shortage: kswapd is (or was just) reclaiming.
        return min(soft_limit, hard_limit)
    if e_mem >= hard_limit:
        return hard_limit
    usage_frac = sample.cmem / e_mem if e_mem > 0 else 1.0
    if usage_frac <= USAGE_THRESHOLD:
        return e_mem
    headroom = hard_limit - e_mem
    # Snap the last sub-MiB of headroom so E actually reaches the hard
    # limit instead of stalling asymptotically a few bytes short.
    delta = headroom if headroom <= 1 << 20 else int(headroom * p.increment_frac)
    if delta <= 0:
        return e_mem
    predicted_drop = int(_impact_ratio(sample) * delta)
    if sample.cfree - predicted_drop > high_mark:
        return min(hard_limit, e_mem + delta)
    return e_mem
