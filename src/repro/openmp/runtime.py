"""The OpenMP runtime: fork/join execution of parallel regions.

Unlike the JVM, "OpenMP creates threads when a parallel region is
executed" (§5.2): at each region entry the runtime consults its
thread-count policy, forks a team of that size, divides the region's
work statically among the team, and joins at the implicit barrier.  Each
team thread pays a per-thread fork/sync cost, so over-threading a small
CPU allocation slows the region both through time-slicing (scheduler)
and synchronization (runtime) — the two failure modes Fig. 10 shows for
the static and dynamic policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.container.container import Container
from repro.errors import OpenMpError
from repro.kernel.task import SimThread, ThreadTeam
from repro.openmp.policy import OmpPolicy, thread_count
from repro.workloads.base import OmpWorkload

__all__ = ["OmpStats", "OpenMpRuntime"]


@dataclass
class OmpStats:
    """Counters reported by one OpenMP program run."""

    started_at: float = 0.0
    finished_at: float | None = None
    completed: bool = False
    regions_executed: int = 0
    #: (time, team size) per parallel region.
    team_history: list[tuple[float, int]] = field(default_factory=list)

    @property
    def execution_time(self) -> float:
        if self.finished_at is None:
            return float("nan")
        return self.finished_at - self.started_at

    @property
    def mean_team_size(self) -> float:
        if not self.team_history:
            return 0.0
        return sum(n for _, n in self.team_history) / len(self.team_history)


class OpenMpRuntime:
    """Executes an :class:`OmpWorkload` inside a container."""

    def __init__(self, container: Container, workload: OmpWorkload,
                 policy: OmpPolicy, *, num_threads_env: int | None = None,
                 name: str | None = None):
        self.container = container
        self.world = container.world
        self.workload = workload
        self.policy = policy
        self.num_threads_env = num_threads_env
        self.name = name or f"{container.name}.{workload.name}"
        self.stats = OmpStats()
        self.started = False
        self.finished = False
        self._master: SimThread | None = None
        self._team = ThreadTeam(container.spawn_thread, f"{self.name}-omp")
        self._iter = 0
        self._region_idx = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.started:
            raise OpenMpError(f"{self.name}: already started")
        self.started = True
        self.stats.started_at = self.world.clock.now
        self._master = self.container.spawn_thread(f"{self.name}-master")
        self._next_region()

    # -- region state machine ----------------------------------------------------

    def _next_region(self) -> None:
        wl = self.workload
        if self._region_idx >= len(wl.regions):
            self._region_idx = 0
            self._iter += 1
        if self._iter >= wl.iterations:
            self._finish()
            return
        region = wl.regions[self._region_idx]
        self._region_idx += 1
        if region.serial_work > 0:
            assert self._master is not None
            self._master.assign_work(region.serial_work,
                                     lambda _t, r=region: self._enter_parallel(r))
        else:
            self._enter_parallel(region)

    def _enter_parallel(self, region) -> None:
        if self._master is not None:
            self._master.block()
        if region.parallel_work <= 0:
            self._on_join()
            return
        n = thread_count(self.policy, self.container,
                         num_threads_env=self.num_threads_env)
        self.stats.team_history.append((self.world.clock.now, n))
        # The team grows lazily to the largest region seen.
        self._team.run(region.parallel_work, n, self.workload.sync_per_thread,
                       self._on_join)

    def _on_join(self) -> None:
        self.stats.regions_executed += 1
        self._next_region()

    def _finish(self) -> None:
        self.finished = True
        self.stats.completed = True
        self.stats.finished_at = self.world.clock.now
        if self._master is not None:
            self._master.exit()
        self._team.exit()
