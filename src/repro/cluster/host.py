"""One cluster host: a simulated world, its pods, and the placement
surface the scheduler reads.

A :class:`Host` is an independent simulated :class:`~repro.world.World`
— its own event loop, scheduler and memory manager — plus the pods
running on it; the :class:`~repro.cluster.cluster.Cluster` advances
every host in lockstep epochs.

Placement and migration decisions read the host's placement surface:
declared request totals (for the static baseline) and view/usage totals
(for adaptive-view packing).  :meth:`Host.barrier` refreshes it from the
world at each epoch barrier; between barriers only the cluster's own
decisions move it, by the deltas they apply (admission, burst,
migration).  A decision never reads the live world, so a pod admitted
this epoch counts its predicted quota, not its fresh container's view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.rng import derive_seed
from repro.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pod import PlacedPod

__all__ = ["Host"]

#: Adaptive-view refresh period of every host world, in seconds.
VIEW_UPDATE_PERIOD = 1.0


class Host:
    """A simulated machine in the cluster: one world and its pods."""

    def __init__(self, name: str, *, ncpus: int, memory: int, seed: int = 0,
                 engine: str = "incremental", trace: bool = False,
                 sched_policy: str = "default",
                 reclaim_policy: str = "default"):
        self.name = name
        self.world = World(ncpus, memory,
                           seed=derive_seed("cluster-host", name, seed),
                           sys_ns_update_period=VIEW_UPDATE_PERIOD,
                           engine=engine, trace=trace,
                           sched_policy=sched_policy,
                           reclaim_policy=reclaim_policy)
        # Stable span addressing: this host's spans are "<name>:<id>",
        # which is what migration chains reference across re-homes.
        self.world.trace.log_id = name
        self.ncpus = self.world.host.ncpus
        self.mem_capacity = self.world.mm.available_capacity
        self.pods: dict[str, PlacedPod] = {}
        #: Declared request totals (the static scheduler's ledger).
        self.requested_cpu = 0.0
        self.requested_mem = 0
        #: Running Σ pod demand — updated on admit/burst/migrate, so the
        #: rebalancer's probes are O(1) per host.
        self.demand_cpu = 0.0
        #: Free bytes as of the last barrier, moved by admission and
        #: migration deltas between barriers.
        self.mem_free = self.world.mm.free
        #: Running Σ pod view footprint (``min(E_CPU, quota)``).
        self._view_sum = 0.0

    @property
    def now(self) -> float:
        return self.world.now

    # -- static (request-based) accounting ---------------------------------

    def free_cpu_request(self) -> float:
        return self.ncpus - self.requested_cpu

    def free_mem_request(self) -> int:
        return self.mem_capacity - self.requested_mem

    # -- view-based accounting ----------------------------------------------

    def free_cpu_view(self) -> float:
        return self.ncpus - self._view_sum

    def free_mem_view(self) -> int:
        return self.mem_free

    # -- bookkeeping --------------------------------------------------------

    # A pod's footprint changes only through the methods below and
    # barrier(), so what each one adds or takes off is exactly the pod's
    # share of the running sums.

    def account_add(self, pod: "PlacedPod") -> None:
        self.pods[pod.name] = pod
        self.requested_cpu += pod.spec.cpu_request
        self.requested_mem += pod.spec.mem_request
        self.demand_cpu += pod.demand
        self._view_sum += pod.view_cpu_footprint()

    def account_remove(self, pod: "PlacedPod") -> None:
        del self.pods[pod.name]
        self.requested_cpu -= pod.spec.cpu_request
        self.requested_mem -= pod.spec.mem_request
        self.demand_cpu -= pod.demand
        self._view_sum -= pod.view_cpu_footprint()

    def set_demand(self, pod: "PlacedPod", demand: float) -> None:
        """Move one of this host's pods to CPU demand ``demand``."""
        view = pod.view_cpu_footprint()
        self.demand_cpu += demand - pod.demand
        pod.set_demand(demand)
        self._view_sum += pod.view_cpu_footprint() - view

    def barrier(self) -> dict:
        """Refresh the placement surface from the world (epoch barrier).

        Reads each pod's CPU time, resident bytes, ``E_CPU`` and quota
        back from its container, and rebuilds the view and demand sums
        in sorted pod order — a canonical float-summation order,
        independent of admission and migration history.  Returns the
        host's barrier row: per-pod ``[name, cpu_time, mem_usage,
        e_cpu, quota]`` in sorted-name order plus free memory.
        """
        names = sorted(self.pods)
        rows = []
        for name in names:
            pod = self.pods[name]
            cg = pod.container.cgroup
            pod.live_cpu_time = cg.total_cpu_time
            pod.live_bytes = cg.memory.usage_in_bytes
            pod.e_cpu = float(pod.container.sys_ns.e_cpu)
            pod.quota_cores = cg.quota_cores
            rows.append([name, pod.live_cpu_time, pod.live_bytes,
                         pod.e_cpu, pod.quota_cores])
        self.mem_free = self.world.mm.free
        self._view_sum = sum(self.pods[name].view_cpu_footprint()
                             for name in names)
        self.demand_cpu = sum(self.pods[name].demand for name in names)
        return {"host": self.name, "now": self.world.now,
                "mem_free": self.mem_free, "pods": rows}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Host {self.name!r} pods={len(self.pods)} "
                f"req_cpu={self.requested_cpu:.1f}/{self.ncpus} "
                f"t={self.now:.1f}s>")
