"""Runner for native (non-JVM) workloads inside containers or cgroups.

Used for the sysbench co-runners of Fig. 8, the background memory hog of
Fig. 2(b), and generic host load in tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import WorkloadError
from repro.kernel.cgroup import Cgroup
from repro.kernel.task import SimThread, ThreadTeam
from repro.workloads.base import NativeWorkload

if TYPE_CHECKING:  # pragma: no cover
    from repro.container.container import Container
    from repro.world import World

__all__ = ["NativeProcess", "MemoryHog"]


class NativeProcess:
    """Executes a :class:`NativeWorkload` on simulated threads."""

    def __init__(self, world: "World", cgroup: Cgroup, workload: NativeWorkload,
                 *, on_done: Callable[["NativeProcess"], None] | None = None):
        self.world = world
        self.cgroup = cgroup
        self.workload = workload
        self.on_done = on_done
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._team = ThreadTeam(
            lambda name: SimThread(name, cgroup, created_at=world.clock.now),
            f"{workload.name}/t")
        self._charged = 0

    @classmethod
    def in_container(cls, container: "Container", workload: NativeWorkload,
                     *, on_done: Callable[["NativeProcess"], None] | None = None,
                     ) -> "NativeProcess":
        return cls(container.world, container.cgroup, workload, on_done=on_done)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def duration(self) -> float:
        if self.started_at is None or self.finished_at is None:
            raise WorkloadError(f"{self.workload.name}: not finished yet")
        return self.finished_at - self.started_at

    def start(self) -> None:
        if self.started_at is not None:
            raise WorkloadError(f"{self.workload.name}: already started")
        self.started_at = self.world.clock.now
        wl = self.workload
        if wl.resident_memory > 0:
            self.world.mm.charge(self.cgroup, wl.resident_memory)
            self._charged = wl.resident_memory
        self._team.run(wl.total_work, wl.threads, 0.0, self._on_join)

    def _on_join(self) -> None:
        self._team.exit()
        self.finished_at = self.world.clock.now
        if self._charged:
            self.world.mm.uncharge(self.cgroup, self._charged)
            self._charged = 0
            self.world.mm.rebalance()
        if self.on_done is not None:
            self.on_done(self)

    def cancel(self) -> None:
        """Abort the workload, releasing its threads and memory."""
        self._team.exit()
        if self._charged:
            self.world.mm.uncharge(self.cgroup, self._charged)
            self._charged = 0
        if self.finished_at is None:
            self.finished_at = self.world.clock.now


class MemoryHog:
    """A background process that gradually occupies host memory.

    Fig. 2(b) runs "a memory-intensive workload in the background to
    cause memory shortage on the machine".  The hog charges memory in
    steps until it reaches its target (or the host runs dry), holding it
    until released.
    """

    def __init__(self, world: "World", target: int, *, cgroup: Cgroup | None = None,
                 step: int | None = None, interval: float = 0.5,
                 name: str = "memhog"):
        if target <= 0:
            raise WorkloadError("memory hog target must be positive")
        self.world = world
        self.target = target
        self.cgroup = cgroup if cgroup is not None else world.cgroups.root
        self.step = step if step is not None else max(1, target // 20)
        self.interval = interval
        self.name = name
        self.charged = 0
        self._timer = None

    def start(self) -> None:
        if self._timer is not None:
            raise WorkloadError(f"{self.name}: already started")
        self._timer = self.world.events.call_every(
            self.interval, self._grow, name=self.name)

    def _grow(self) -> None:
        want = min(self.step, self.target - self.charged)
        headroom = self.world.mm.free - self.world.mm.watermarks.min
        want = min(want, max(0, headroom))
        if want > 0:
            self.world.mm.charge(self.cgroup, want)
            self.charged += want
        if self.charged >= self.target and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def release(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.charged:
            self.world.mm.uncharge(self.cgroup, self.charged)
            self.charged = 0
            self.world.mm.rebalance()
