"""SLO-driven vertical autoscaling over adaptive resource views.

The control plane closes the paper's loop at fleet scale.  Each tick it
reads, per managed service:

* the **serving signals** — SLO burn rate over the trailing window and
  the worst per-replica backlog; and
* the **adaptive view** — each container's ``sys_namespace`` effective
  CPU, i.e. what the container can actually obtain right now given
  host-wide contention (not just its configured limit).

and then *vertically* rescales the containers' cgroup settings:
``cpu.cfs_quota_us`` (and proportional ``cpu.shares``) up on budget
burn or backlog, down when the service is comfortably under target.
Every quota or shares write raises a cgroup event, which ``ns_monitor``
turns into refreshed bounds.  A shares write moves the share total every
``sys_namespace``'s lower bound is taken over, so a scale-up of one
service immediately shrinks what co-located views report, exactly the
feedback the paper builds for a single host, exercised here as a closed
control loop.

Scale-up is multiplicative (a 4x spike is caught in a couple of
periods), scale-down additive (no oscillation on noisy signals), the
classic AIMD-flavoured asymmetry.  Grants are clamped so the summed
reservation never exceeds host capacity minus a configurable reserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ServeError
from repro.serve.balancer import Balancer
from repro.serve.latency import LatencyRecorder
from repro.serve.slo import Slo
from repro.serve.workload import ServiceReplica

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.container import Container
    from repro.sim.events import EventHandle
    from repro.world import World

__all__ = ["AutoscalerParams", "ManagedService", "Autoscaler"]

UP_BURN = 1.0           # scale up when burn rate exceeds this
DOWN_BURN = 0.5         # scale down only when burn is below this
GROW_MIN = 1.5          # min multiplicative scale-up when triggered
GROW_MAX = 2.0          # max multiplicative scale-up per tick
STEP_DOWN = 0.5         # max additive scale-down, cores per tick
QUEUE_HIGH = 8          # per-replica outstanding that forces scale-up
MEM_HEADROOM = 1.5      # memory limit = headroom * resident
MEM_FLOOR = 64 * 1024 * 1024    # memory limit floor, bytes
UTIL_TARGET = 0.65      # utilization the scale-down law converges to
UTIL_HIGH = 0.85        # burn only counts when this capacity-bound
PRESSURE_HIGH = 0.10    # avg10 some-stall fraction threshold


@dataclass(frozen=True)
class AutoscalerParams:
    """Tunables of the vertical autoscaler."""

    period: float = 1.0          # control-loop tick, seconds
    min_cores: float = 0.5       # per-replica quota floor
    max_cores: float = 4.0       # per-replica quota ceiling
    host_reserve: float = 1.0    # cores left unreserved on the host
    #: Accept PSI cpu pressure (avg10 some-stall fraction above
    #: ``PRESSURE_HIGH``) as capacity-bound evidence alongside
    #: utilization and queueing.  Stall time is the signal utilization
    #: cannot fake: a replica at 60% utilization that still accumulates
    #: stall is quota-throttled at its bursts, exactly the case
    #: "CPU-limits kill performance" documents.  Off by default;
    #: ablated in exp_serve.
    use_pressure: bool = False

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ServeError(f"period must be positive, got {self.period}")
        if not 0 < self.min_cores <= self.max_cores:
            raise ServeError(
                f"need 0 < min_cores <= max_cores, got "
                f"[{self.min_cores}, {self.max_cores}]")
        if self.host_reserve < 0:
            raise ServeError(f"host_reserve cannot be negative, got {self.host_reserve}")


@dataclass
class ManagedService:
    """Autoscaler-side state for one service."""

    name: str
    replicas: list[ServiceReplica]
    balancer: Balancer
    recorder: LatencyRecorder
    slo: Slo
    cores: float                         # current per-replica quota
    cores_history: list[tuple[float, float]] = field(default_factory=list)
    #: Window bookmark for usage accounting (cpu.stat analogue).
    last_cpu_time: float = 0.0
    last_usage: float = 0.0              # cores consumed over the last tick
    #: Open "autoscaler.episode" span id while capacity is elevated.
    scale_span: int = 0

    @property
    def containers(self) -> list["Container"]:
        return [r.container for r in self.replicas]

    @property
    def total_cores(self) -> float:
        return self.cores * len(self.replicas)


class Autoscaler:
    """Periodic vertical rescaler for a set of managed services."""

    def __init__(self, world: "World", params: AutoscalerParams | None = None):
        self.world = world
        self.params = params or AutoscalerParams()
        self.services: dict[str, ManagedService] = {}
        self.ticks = 0
        self.scale_ups = 0
        self.scale_downs = 0
        #: (time, summed reserved cores) after every tick.
        self.history: list[tuple[float, float]] = []
        self.reserved_core_seconds = 0.0
        self._last_accrual = world.clock.now
        self._timer: "EventHandle | None" = None

    # -- registration -----------------------------------------------------

    def manage(self, name: str, replicas: list[ServiceReplica],
               balancer: Balancer, recorder: LatencyRecorder, slo: Slo, *,
               initial_cores: float | None = None) -> ManagedService:
        """Put a service under management and apply its initial quota."""
        if name in self.services:
            raise ServeError(f"service {name!r} already managed")
        if not replicas:
            raise ServeError(f"service {name!r} has no replicas")
        p = self.params
        cores = p.min_cores if initial_cores is None else float(initial_cores)
        if not p.min_cores <= cores <= p.max_cores:
            raise ServeError(
                f"service {name!r}: initial_cores {cores} outside "
                f"[{p.min_cores}, {p.max_cores}]")
        floor_total = (sum(s.total_cores for s in self.services.values())
                       + p.min_cores * len(replicas))
        if floor_total > self._capacity() + 1e-9:
            raise ServeError(
                f"service {name!r}: minimum reservations ({floor_total:.2f} "
                f"cores) exceed host capacity minus reserve "
                f"({self._capacity():.2f})")
        service = ManagedService(name=name, replicas=list(replicas),
                                 balancer=balancer, recorder=recorder,
                                 slo=slo, cores=cores)
        service.last_cpu_time = self._cpu_time(service)
        self._accrue()
        self.services[name] = service
        self._apply_cores(service, cores, force=True)
        return service

    def add_replica(self, name: str, replica: ServiceReplica) -> None:
        """Bring a horizontally-added replica under vertical management.

        The usage bookmark is advanced by the newcomer's accumulated CPU
        time so the next ``_window_usage`` sees only *window* deltas,
        not a step; the current per-replica quota is applied (clamped —
        more replicas may shrink what each can reserve).
        """
        service = self._get(name)
        if replica in service.replicas:
            raise ServeError(f"replica already managed by {name!r}")
        self._accrue()
        service.replicas.append(replica)
        service.last_cpu_time += replica.container.cgroup.total_cpu_time
        self._apply_cores(service, self._clamp_to_host(service, service.cores),
                          force=True)

    def remove_replica(self, name: str, replica: ServiceReplica) -> None:
        """Release a replica from management (HPA scale-in)."""
        service = self._get(name)
        if replica not in service.replicas:
            raise ServeError(f"replica not managed by {name!r}")
        if len(service.replicas) == 1:
            raise ServeError(f"cannot remove the last replica of {name!r}")
        self._accrue()
        service.replicas.remove(replica)
        service.last_cpu_time -= replica.container.cgroup.total_cpu_time

    def _get(self, name: str) -> ManagedService:
        try:
            return self.services[name]
        except KeyError:
            raise ServeError(f"no managed service named {name!r}") from None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._timer is not None and self._timer.active:
            raise ServeError("autoscaler already running")
        self._timer = self.world.events.call_every(self.params.period,
                                                   self._tick, name="autoscaler")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._accrue()
        for service in self.services.values():
            if service.scale_span:
                self.world.trace.end_span(service.scale_span,
                                          to_cores=service.cores)
                service.scale_span = 0

    # -- accounting -------------------------------------------------------

    @property
    def total_reserved(self) -> float:
        """Summed quota across all managed containers, in cores."""
        return sum(s.total_cores for s in self.services.values())

    def _accrue(self) -> None:
        now = self.world.clock.now
        self.reserved_core_seconds += self.total_reserved * (now - self._last_accrual)
        self._last_accrual = now

    def finalize(self) -> None:
        """Close the reserved-core integral at the current time."""
        self._accrue()

    def _capacity(self) -> float:
        return self.world.host.ncpus - self.params.host_reserve

    # -- the control loop -------------------------------------------------

    def _tick(self) -> None:
        self.ticks += 1
        self._accrue()
        now = self.world.clock.now
        p = self.params
        for service in self.services.values():
            burn = service.slo.burn_rate(service.recorder, now)
            backlog = service.balancer.max_outstanding()
            queued = service.balancer.max_queue_depth()
            view_cpu = min(r.container.sys_ns.e_cpu for r in service.replicas)
            usage = self._window_usage(service)
            utilization = (usage / service.total_cores
                           if service.total_cores > 0 else 0.0)
            psi = max(r.container.cgroup.pressure.cpu.avg("some", 10.0)
                      for r in service.replicas)
            desired = service.cores
            overloaded = backlog >= QUEUE_HIGH
            capacity_bound = (utilization > UTIL_HIGH or queued > 0
                              or (p.use_pressure and psi > PRESSURE_HIGH))
            burning = burn > UP_BURN and capacity_bound
            if overloaded or burning:
                # Growth proportional to how hard the budget burns: a
                # marginal violation nudges capacity, a deep spike (or a
                # stalled queue, where burn lags) doubles it.
                factor = GROW_MAX if overloaded else min(
                    GROW_MAX, max(GROW_MIN, burn))
                desired = service.cores * factor
            elif burn < DOWN_BURN and queued == 0:
                # Shrink toward the quota at which the windowed
                # consumption would sit at UTIL_TARGET — never below
                # measured demand, so the down-path cannot oscillate
                # under the workload — rate-limited to STEP_DOWN/tick.
                floor = usage / (UTIL_TARGET * len(service.replicas))
                desired = max(floor, service.cores - STEP_DOWN)
            desired = max(p.min_cores, min(p.max_cores, desired))
            desired = self._clamp_to_host(service, desired)
            if desired > service.cores + 1e-9:
                self.scale_ups += 1
                if service.scale_span == 0:
                    service.scale_span = self.world.trace.begin_span(
                        "autoscaler.episode", service.name,
                        from_cores=service.cores, burn=round(burn, 4))
            elif desired < service.cores - 1e-9:
                self.scale_downs += 1
                if service.scale_span:
                    self.world.trace.end_span(service.scale_span,
                                              to_cores=desired)
                    service.scale_span = 0
            self._apply_cores(service, desired)
            service.cores_history.append((now, service.cores))
            self._manage_memory(service)
            self.world.trace.emit(
                "autoscaler.tick", service.name, burn=round(burn, 4),
                backlog=backlog, view_cpu=view_cpu,
                utilization=round(utilization, 4),
                pressure=round(psi, 4), cores=service.cores)
        self.history.append((now, self.total_reserved))

    @staticmethod
    def _cpu_time(service: ManagedService) -> float:
        return sum(r.container.cgroup.total_cpu_time for r in service.replicas)

    def _window_usage(self, service: ManagedService) -> float:
        """Cores consumed over the closing tick (windowed, not sampled).

        An instantaneous ``cpu_rate`` sample is 0 whenever the tick
        lands between requests, which would make a sampling-based
        controller collapse quotas under bursty traffic; integrating
        ``total_cpu_time`` over the window (the ``cpu.stat`` analogue)
        is what real vertical autoscalers read, and what Algorithm 1
        itself consumes.
        """
        total = self._cpu_time(service)
        usage = (total - service.last_cpu_time) / self.params.period
        service.last_cpu_time = total
        service.last_usage = usage
        return usage

    def _clamp_to_host(self, service: ManagedService, desired: float) -> float:
        """Never let the summed reservation exceed host capacity - reserve."""
        others = self.total_reserved - service.total_cores
        available = self._capacity() - others
        per_replica = available / len(service.replicas)
        return max(self.params.min_cores, min(desired, per_replica))

    def _apply_cores(self, service: ManagedService, cores: float, *,
                     force: bool = False) -> None:
        if not force and abs(cores - service.cores) <= 1e-9:
            service.cores = cores
            return
        service.cores = cores
        for container in service.containers:
            period_us = container.spec.cpu_period_us
            quota_us = max(1000, int(round(cores * period_us)))
            container.cgroup.set_cpu_quota(quota_us, period_us)
            # Keep shares proportional to the grant so the CFS weight
            # (and with it the view's share-derived lower bound) follows.
            container.cgroup.set_cpu_shares(max(2, int(round(cores * 1024))))

    def _manage_memory(self, service: ManagedService) -> None:
        for container in service.containers:
            resident = container.cgroup.memory.resident
            limit = max(MEM_FLOOR, int(resident * MEM_HEADROOM))
            current = container.cgroup.memory.limit_in_bytes
            # Hysteresis: only rewrite the limit on a >10% move.
            if current is None or abs(limit - current) > 0.1 * current:
                container.cgroup.set_memory_limit(limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Autoscaler services={len(self.services)} "
                f"reserved={self.total_reserved:.2f} cores>")
