"""One cluster host and its control-plane shadow.

A :class:`Host` is an independent simulated :class:`~repro.world.World`
— its own event loop, scheduler and memory manager — plus the pods
running on it; the :class:`~repro.cluster.cluster.Cluster` advances
every host in lockstep epochs.  A :class:`HostLedger` is the scheduler's
view of the same host: declared request totals (for the static
baseline) and live view/usage totals (for adaptive-view packing), all
refreshed from the host's report row at each epoch barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.pod import PlacedPod
from repro.par.seeds import derive_seed
from repro.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pod import PodRecord

__all__ = ["Host", "HostLedger"]


class Host:
    """A simulated machine in the cluster: one world and its pods."""

    def __init__(self, name: str, *, ncpus: int, memory: int, seed: int = 0,
                 view_update_period: float | None = 1.0,
                 engine: str = "incremental", trace: bool = False,
                 sched_policy: str = "default",
                 reclaim_policy: str = "default"):
        self.name = name
        self.world = World(ncpus, memory,
                           seed=derive_seed("cluster-host", name, seed),
                           sys_ns_update_period=view_update_period,
                           engine=engine, trace=trace,
                           sched_policy=sched_policy,
                           reclaim_policy=reclaim_policy)
        # Stable span addressing: this host's spans are "<name>:<id>",
        # which is what migration chains reference across re-homes.
        self.world.trace.log_id = name
        self.pods: dict[str, PlacedPod] = {}

    @property
    def ncpus(self) -> int:
        return self.world.host.ncpus

    @property
    def mem_capacity(self) -> int:
        return self.world.mm.available_capacity

    @property
    def now(self) -> float:
        return self.world.now

    def view_cpu_footprint(self) -> float:
        """Cores occupied per the adaptive views: Σ min(E_CPU, quota)."""
        return sum(p.view_cpu_footprint() for p in self.pods.values())

    def free_mem_view(self) -> int:
        """Actually-free bytes on the host (the E_MEM numerator's source)."""
        return self.world.mm.free

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name!r} pods={len(self.pods)} t={self.now:.1f}s>"


class HostLedger:
    """Control-plane shadow of one host.

    The surface the placement strategies read
    (``free_cpu_request``/``free_cpu_view``/``free_mem_view``/…), backed
    entirely by barrier-cached values and incremental deltas — no live
    ``World`` access, so every decision within an epoch sees the same
    state whatever the worlds are doing.  The incremental ``demand_cpu``
    sum keeps migration probes O(1) per host.
    """

    def __init__(self, name: str, *, ncpus: int, mem_capacity: int):
        self.name = name
        self.ncpus = ncpus
        self.mem_capacity = mem_capacity
        self.pods: dict[str, PodRecord] = {}
        #: Declared request totals (the static scheduler's ledger).
        self.requested_cpu = 0.0
        self.requested_mem = 0
        #: Incremental Σ live demand — updated on admit/burst/migrate,
        #: never recomputed O(pods) in the rebalance loop.
        self.demand_cpu = 0.0
        #: Barrier-cached free bytes, adjusted by admission/migration
        #: deltas between barriers.
        self.mem_free = mem_capacity
        #: Per-pod view footprints plus their running sum, kept exactly
        #: consistent: every update goes through :meth:`set_view`.
        self._view_cpu: dict[str, float] = {}
        self._view_sum = 0.0

    # -- static (request-based) accounting ---------------------------------

    def free_cpu_request(self) -> float:
        return self.ncpus - self.requested_cpu

    def free_mem_request(self) -> int:
        return self.mem_capacity - self.requested_mem

    # -- live (view-based) accounting ---------------------------------------

    def view_cpu_footprint(self) -> float:
        return self._view_sum

    def free_cpu_view(self) -> float:
        return self.ncpus - self._view_sum

    def free_mem_view(self) -> int:
        return self.mem_free

    # -- bookkeeping --------------------------------------------------------

    def set_view(self, pod_name: str, value: float) -> None:
        """Set one pod's view footprint, keeping the running sum exact."""
        self._view_sum += value - self._view_cpu.get(pod_name, 0.0)
        self._view_cpu[pod_name] = value

    def account_add(self, rec: "PodRecord") -> None:
        self.pods[rec.name] = rec
        self.requested_cpu += rec.spec.cpu_request
        self.requested_mem += rec.spec.mem_request
        self.demand_cpu += rec.demand
        self.set_view(rec.name, rec.view_cpu_footprint())

    def account_remove(self, rec: "PodRecord") -> None:
        del self.pods[rec.name]
        self.requested_cpu -= rec.spec.cpu_request
        self.requested_mem -= rec.spec.mem_request
        self.demand_cpu -= rec.demand
        self._view_sum -= self._view_cpu.pop(rec.name, 0.0)

    def refresh_views(self) -> None:
        """Recompute the view sum from per-pod records (barrier resync).

        Rebuilding in sorted pod order gives a canonical float-summation
        order, independent of admission and migration history."""
        self._view_cpu = {name: self.pods[name].view_cpu_footprint()
                          for name in sorted(self.pods)}
        self._view_sum = sum(self._view_cpu.values())
        self.demand_cpu = sum(self.pods[name].demand
                              for name in sorted(self.pods))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HostLedger {self.name!r} pods={len(self.pods)} "
                f"req_cpu={self.requested_cpu:.1f}/{self.ncpus}>")
