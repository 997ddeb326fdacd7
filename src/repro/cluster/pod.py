"""Cluster-level workload units: pod specs and placed pods.

A :class:`PodSpec` is the cluster analogue of a ``docker run`` request:
it carries both the *declared* resource requests (what a static
scheduler packs on) and the *actual* demand profile (what the pod will
really consume once running — the signal the adaptive views surface).
The gap between the two is the overcommit opportunity the view-based
scheduler exploits.

A :class:`PlacedPod` is one admitted pod for its whole life: the live
container on its current host, the values placement reads (refreshed
at each epoch barrier, moved between barriers only by the cluster's
own decisions), and the ledgers that survive migration (CPU time on
earlier hosts, bytes moved).  A re-home swaps its host and container;
the record stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.container.spec import ContainerSpec
from repro.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host

__all__ = ["PodSpec", "Footprint", "PlacedPod", "quota_cores"]

#: CFS period every pod container runs under.
_PERIOD_US = 100_000


def _quota_us(demand: float, period_us: int) -> int:
    return max(1000, int(round(demand * period_us)))


def quota_cores(demand: float) -> float:
    """The CFS quota (in cores) a pod at ``demand`` actually runs under,
    including the 1 ms quota floor."""
    return _quota_us(demand, _PERIOD_US) / _PERIOD_US


@dataclass(frozen=True)
class Footprint:
    """The resource shape a scheduler sizes a pod by.

    ``cpu_request``/``mem_request`` are the declared (static) values;
    ``cpu_live``/``mem_live`` are the live signal — current effective
    demand for a new pod, the adaptive-view footprint for a running one.
    Each strategy reads the pair it believes in.
    """

    cpu_request: float
    mem_request: int
    cpu_live: float
    mem_live: int


@dataclass(frozen=True)
class PodSpec:
    """One schedulable unit of cluster work.

    Attributes
    ----------
    cpu_request / mem_request:
        Declared requests — what the pod *asks* for.  The static
        baseline bin-packs on these.
    cpu_demand / mem_demand:
        Actual steady demand — the CPU quota the pod runs under and the
        resident bytes it charges at admission.
    burst_demand / burst_at:
        Optional demand phase change: at simulated time ``burst_at`` the
        pod's CPU demand (and quota) becomes ``burst_demand``.  Bursts
        are what make view-packed hosts run hot and give the migration
        rebalancer something to do.
    gang:
        Optional gang id.  Pods sharing a gang id are ranks of one
        tightly-coupled job: a gang-aware strategy places all of them
        in the same scheduling round or none at all.
    """

    name: str
    cpu_request: float
    mem_request: int
    cpu_demand: float
    mem_demand: int
    burst_demand: float | None = None
    burst_at: float | None = None
    gang: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterError("pod name cannot be empty")
        if self.cpu_demand < 0.02:
            raise ClusterError(
                f"pod {self.name!r}: cpu_demand must be >= 0.02 cores "
                f"(cfs quota floor), got {self.cpu_demand}")
        if self.cpu_request < self.cpu_demand:
            raise ClusterError(
                f"pod {self.name!r}: cpu_request {self.cpu_request} below "
                f"cpu_demand {self.cpu_demand}")
        if self.mem_demand <= 0:
            raise ClusterError(
                f"pod {self.name!r}: mem_demand must be positive")
        if self.mem_request < self.mem_demand:
            raise ClusterError(
                f"pod {self.name!r}: mem_request {self.mem_request} below "
                f"mem_demand {self.mem_demand}")
        if (self.burst_demand is None) != (self.burst_at is None):
            raise ClusterError(
                f"pod {self.name!r}: burst_demand and burst_at must be "
                f"set together")
        if self.burst_demand is not None and self.burst_demand < 0.02:
            raise ClusterError(
                f"pod {self.name!r}: burst_demand must be >= 0.02 cores")

    def demand_at(self, now: float) -> float:
        """Effective CPU demand at simulated time ``now``."""
        if self.burst_at is not None and now >= self.burst_at:
            return self.burst_demand  # type: ignore[return-value]
        return self.cpu_demand

    def footprint(self, now: float = 0.0) -> Footprint:
        """The admission-time footprint of a not-yet-placed pod."""
        return Footprint(cpu_request=self.cpu_request,
                         mem_request=self.mem_request,
                         cpu_live=self.demand_at(now),
                         mem_live=self.mem_demand)


class PlacedPod:
    """One admitted pod, on whichever host it runs now.

    :meth:`start` puts it on a host: a fresh container there, and fresh
    placement values.  Between epoch barriers those values move only by
    the cluster's own decisions (admission, burst, migration); at each
    barrier :meth:`Host.barrier` reads them back from the container.
    """

    def __init__(self, spec: PodSpec, placed_at: float):
        self.spec = spec
        self.placed_at = placed_at
        #: Live CPU demand (tracks burst phase changes).
        self.demand = spec.demand_at(placed_at)
        #: Incarnation: how many times the pod has been re-homed.
        self.migrations = 0
        #: CPU seconds consumed on *previous* hosts.
        self.cpu_time_retired = 0.0
        #: Bytes carried across migrations, cumulative.
        self.bytes_migrated = 0
        #: Epoch-window bookmark for attained-rate sampling.
        self.last_cpu_time = 0.0
        #: Epochs in which the pod's attained rate missed its SLO.
        self.violation_epochs = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def start(self, host: "Host", nbytes: int, **span_fields) -> None:
        """Run the pod on ``host``: a container at its current demand
        quota, ``nbytes`` charged, and its demand thread started.

        The pod is modelled as an open-loop CPU sink: one thread with an
        effectively infinite work segment, throttled by the cgroup quota
        to the pod's demand.  Attained rate = min(demand, fair share),
        which is exactly the fluid signal the adaptive views measure.
        ``span_fields`` annotate the container's lifetime span (the
        pod's incarnation chain).
        """
        world = host.world
        spec = self.spec
        self.host = host
        self.container = world.containers.create(ContainerSpec(
            name=spec.name,
            cpu_shares=max(2, int(round(spec.cpu_request * 1024))),
            cpus=quota_cores(self.demand),
            cpu_period_us=_PERIOD_US,
            memory_limit=max(spec.mem_request, spec.mem_demand)))
        world.trace.annotate_span(self.container.life_span, pod=spec.name,
                                  **span_fields)
        world.mm.charge(self.container.cgroup, nbytes)
        self.container.spawn_thread("main").assign_work(1e15)
        #: CPU seconds on the current host, as of the last barrier.
        self.live_cpu_time = 0.0
        #: Resident bytes, as of the last barrier.
        self.live_bytes = nbytes
        #: E_CPU as of the last barrier.  Until its first barrier on
        #: this host the pod counts +inf, so its quota bounds the
        #: footprint: a fresh container's E_CPU starts at its lower
        #: bound (Algorithm 1 line 6) — 1 core unless its quota and
        #: share are larger — which says nothing about what the pod
        #: will occupy.
        self.e_cpu = math.inf
        #: CFS quota in cores: predicted on start and burst, read back
        #: at every barrier.
        self.quota_cores = quota_cores(self.demand)

    def set_demand(self, demand: float) -> None:
        """Move the running pod to CPU demand ``demand`` (its quota)."""
        self.demand = demand
        self.quota_cores = quota_cores(demand)
        self.container.cgroup.set_cpu_quota(_quota_us(demand, _PERIOD_US),
                                            _PERIOD_US)

    @property
    def total_cpu_time(self) -> float:
        """Pod-lifetime CPU seconds, across every host it has run on."""
        return self.cpu_time_retired + self.live_cpu_time

    def view_cpu_footprint(self) -> float:
        """The adaptive-view footprint: ``min(E_CPU, quota)`` in cores.

        ``E_CPU`` is what the container can effectively obtain
        (Algorithm 1); the quota is what it is currently asking the CFS
        for.  The min is the cores the pod occupies for packing
        purposes — it follows bursts (quota raises) and contention
        (E_CPU shrinks) without trusting the declared request.
        """
        return min(self.e_cpu, self.quota_cores)

    def footprint(self) -> Footprint:
        return Footprint(cpu_request=self.spec.cpu_request,
                         mem_request=self.spec.mem_request,
                         cpu_live=self.view_cpu_footprint(),
                         mem_live=self.live_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PlacedPod {self.name!r} on {self.host.name} "
                f"demand={self.demand:.2f} migrations={self.migrations}>")
