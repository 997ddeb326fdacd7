"""Horizontal pod autoscaling, layered over vertical rescaling.

The :class:`HorizontalAutoscaler` adds/removes *replicas* of a service
while the existing :class:`repro.serve.Autoscaler` (the VPA axis)
resizes each replica's quota.  Both controllers read the same signals —
SLO burn rate, queue depth, utilization — which is precisely why they
interfere: a burst can be answered by either axis, and when both react
the service overshoots, the VPA then shrinks quotas, utilization on the
extra replicas collapses, the HPA scales in, and the loop can oscillate.
The ``oscillations`` counter (direction flips of the scaling decisions)
makes that interference measurable; ``exp_cluster`` sweeps HPA-only,
VPA-only, and both.

Scale-in is graceful: the victim replica is removed from routing and
keeps draining its accepted requests; only once idle is it stopped and
its container destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ClusterError
from repro.serve.autoscaler import QUEUE_HIGH
from repro.serve.balancer import Balancer
from repro.serve.latency import LatencyRecorder
from repro.serve.slo import Slo
from repro.serve.workload import ServiceReplica

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.autoscaler import Autoscaler
    from repro.sim.events import EventHandle
    from repro.world import World

__all__ = ["HpaParams", "HorizontalAutoscaler"]

UP_BURN = 1.0           # scale out when burn exceeds this (with a queue)
DOWN_BURN = 0.3         # scale in only when burn is below this...
SCALE_IN_UTIL = 0.4     # ...and utilization below this


@dataclass(frozen=True)
class HpaParams:
    """Tunables of the horizontal autoscaler."""

    period: float = 1.0          # control-loop tick, seconds
    min_replicas: int = 1
    max_replicas: int = 8
    cooldown: float = 3.0        # min seconds between scaling actions

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ClusterError(f"period must be positive, got {self.period}")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ClusterError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{self.min_replicas}, {self.max_replicas}]")
        if self.cooldown < 0:
            raise ClusterError(
                f"cooldown cannot be negative, got {self.cooldown}")


class HorizontalAutoscaler:
    """Replica-count controller for one service.

    ``factory(index)`` must return a *started* :class:`ServiceReplica`
    (container created, workers spawned); the HPA owns routing
    membership, vertical-autoscaler registration, and teardown of
    drained replicas.
    """

    def __init__(self, world: "World", name: str, balancer: Balancer,
                 recorder: LatencyRecorder, slo: Slo, *,
                 factory: Callable[[int], ServiceReplica],
                 params: HpaParams | None = None,
                 vertical: "Autoscaler | None" = None,
                 cores_per_replica: float = 1.0):
        self.world = world
        self.name = name
        self.balancer = balancer
        self.recorder = recorder
        self.slo = slo
        self.factory = factory
        self.params = params or HpaParams()
        self.vertical = vertical
        self.cores_per_replica = cores_per_replica
        self.ticks = 0
        self.scale_outs = 0
        self.scale_ins = 0
        #: (time, delta, replicas_after) for every scaling action.
        self.events: list[tuple[float, int, int]] = []
        #: (time, replicas) sampled every tick.
        self.replica_history: list[tuple[float, int]] = []
        self._next_index = len(balancer.replicas)
        self._last_action = -float("inf")
        #: Per-container CPU-time bookmarks for windowed utilization.
        self._cpu_marks: dict[str, float] = {
            r.container.name: r.container.cgroup.total_cpu_time
            for r in balancer.replicas}
        self._timer: "EventHandle | None" = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._timer is not None and self._timer.active:
            raise ClusterError("horizontal autoscaler already running")
        self._timer = self.world.events.call_every(self.params.period,
                                                   self._tick, name="hpa")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._reap()

    @property
    def replicas(self) -> int:
        return len(self.balancer.replicas)

    def oscillations(self) -> int:
        """Direction flips in the scaling-action sequence.

        Healthy control scales out through a burst and in afterwards —
        one flip.  Every extra flip is a replica added and shed (or vice
        versa) without the workload changing: HPA/VPA interference.
        """
        deltas = [d for _, d, _ in self.events]
        return sum(1 for a, b in zip(deltas, deltas[1:]) if a * b < 0)

    # -- control loop ------------------------------------------------------

    def _tick(self) -> None:
        self.ticks += 1
        self._reap()
        now = self.world.clock.now
        p = self.params
        burn = self.slo.burn_rate(self.recorder, now)
        backlog = self.balancer.max_outstanding()
        queued = self.balancer.max_queue_depth()
        utilization = self._utilization()
        n = self.replicas
        in_cooldown = now - self._last_action < p.cooldown
        if (not in_cooldown and n < p.max_replicas
                and (backlog >= QUEUE_HIGH
                     or (burn > UP_BURN and queued > 0))):
            self._scale_out(now)
        elif (not in_cooldown and n > p.min_replicas
              and burn < DOWN_BURN and queued == 0
              and utilization < SCALE_IN_UTIL):
            self._scale_in(now)
        self.replica_history.append((now, self.replicas))
        self.world.trace.emit(
            "hpa.tick", self.name, burn=round(burn, 4), backlog=backlog,
            utilization=round(utilization, 4), replicas=self.replicas)

    def _scale_out(self, now: float) -> None:
        replica = self.factory(self._next_index)
        self._next_index += 1
        self.balancer.add(replica)
        self._cpu_marks[replica.container.name] = \
            replica.container.cgroup.total_cpu_time
        if self.vertical is not None:
            self.vertical.add_replica(self.name, replica)
        self.scale_outs += 1
        self._last_action = now
        self.events.append((now, +1, self.replicas))
        self.world.trace.emit("hpa.scale_out", self.name,
                              replicas=self.replicas)

    def _scale_in(self, now: float) -> None:
        # Shed the youngest routed replica (LIFO keeps the stable core).
        replica = self.balancer.replicas[-1]
        self.balancer.remove(replica)
        self._cpu_marks.pop(replica.container.name, None)
        if self.vertical is not None:
            self.vertical.remove_replica(self.name, replica)
        self.scale_ins += 1
        self._last_action = now
        self.events.append((now, -1, self.replicas))
        self.world.trace.emit("hpa.scale_in", self.name,
                              replicas=self.replicas)

    def _reap(self) -> None:
        """Stop and destroy replicas that finished draining."""
        for replica in self.balancer.reap_drained():
            replica.stop()
            self.world.containers.destroy(replica.container)
            self.world.trace.emit("hpa.reaped", replica.container.name)

    def _utilization(self) -> float:
        """Windowed CPU usage of routed replicas over their quota."""
        usage = 0.0
        for r in self.balancer.replicas:
            total = r.container.cgroup.total_cpu_time
            mark = self._cpu_marks.get(r.container.name, total)
            usage += (total - mark) / self.params.period
            self._cpu_marks[r.container.name] = total
        if self.vertical is not None and self.name in self.vertical.services:
            cores = self.vertical.services[self.name].cores
        else:
            cores = self.cores_per_replica
        capacity = cores * max(1, self.replicas)
        return usage / capacity if capacity > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HorizontalAutoscaler {self.name!r} "
                f"replicas={self.replicas} outs={self.scale_outs} "
                f"ins={self.scale_ins}>")
