"""Simulated kernel threads (the scheduler's unit of execution).

A :class:`SimThread` executes a sequence of *work segments*, each a fixed
amount of CPU work in cpu-seconds.  The scheduler assigns every runnable
thread's cgroup a progress rate; the world advances the per-cgroup
progress integrals between events and pops the segment-completion
callbacks that fall due.  Runtimes (JVM, OpenMP, workload drivers) build
their behaviour out of segments, blocking, and waking.

Accounting is **lazily accrued**: every runnable thread of a cgroup
progresses at the same rate, so the engine keeps one cumulative progress
integral per cgroup (:attr:`~repro.kernel.cgroup.Cgroup.progress_acc`)
and resolves a thread's remaining work against it on demand.  A thread
records the integral value at which its current segment completes
(``_target``); ``remaining`` is simply ``target - progress_acc``.  The
accumulators are materialized back into the thread whenever it stops
running (block/exit) or is handed a new segment, so blocked threads keep
exact totals without participating in any per-event work.

A :class:`ThreadTeam` is the fork-join shape every parallel runtime
shares: a GC collection (§4.1), an OpenMP parallel region (§5.2), a JVM
mutator phase and a native process each split one piece of work over a
team of threads, and the last thread to reach the barrier releases the
program.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.cgroup import Cgroup

__all__ = ["ThreadState", "SimThread", "ThreadTeam", "WORK_EPS"]

#: Remaining work below this is treated as completed (guards float drift).
WORK_EPS = 1e-12


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    EXITED = "exited"


class SimThread:
    """A schedulable thread bound to a cgroup.

    Accounting views (resolved lazily against the cgroup's integrals
    while the thread runs, materialized when it stops):

    * ``progress_rate`` — cores of *useful* progress per second (includes
      oversubscription and memory-pressure penalties).
    * ``cpu_time`` — total CPU seconds *charged* to the thread (occupancy,
      which can exceed useful progress when thrashing).
    """

    _next_tid = [100]

    __slots__ = (
        "tid", "name", "cgroup", "state", "on_segment_done", "created_at",
        "_work", "_target", "_base_progress", "_base_occupancy",
        "_cpu_time", "_progress_done",
    )

    def __init__(self, name: str, cgroup: "Cgroup", *, created_at: float = 0.0):
        SimThread._next_tid[0] += 1
        self.tid = SimThread._next_tid[0]
        self.name = name
        self.cgroup = cgroup
        self.state = ThreadState.BLOCKED
        self.on_segment_done: Callable[["SimThread"], None] | None = None
        self.created_at = created_at
        self._work = 0.0             # remaining work while not runnable
        self._target = 0.0           # progress_acc value at completion
        self._base_progress = 0.0
        self._base_occupancy = 0.0
        self._cpu_time = 0.0
        self._progress_done = 0.0
        cgroup.attach_thread(self)

    # -- work assignment -------------------------------------------------

    def assign_work(self, cpu_seconds: float,
                    on_done: Callable[["SimThread"], None] | None = None) -> None:
        """Give the thread a new work segment and make it runnable."""
        if self.state is ThreadState.EXITED:
            raise SchedulerError(f"cannot assign work to exited thread {self.name!r}")
        if cpu_seconds < 0:
            raise SchedulerError(f"negative work segment {cpu_seconds!r} for {self.name!r}")
        if self.state is ThreadState.RUNNABLE:
            # Replacing the segment of a running thread: fold the partial
            # progress into the totals, then re-anchor at the new target.
            self._settle()
            self._work = float(cpu_seconds)
            self.on_segment_done = on_done
            self._restart()
        else:
            self._work = float(cpu_seconds)
            self.on_segment_done = on_done
            self._set_state(ThreadState.RUNNABLE)

    def block(self) -> None:
        """Park the thread (e.g. a mutator stopped at a GC safepoint)."""
        if self.state is ThreadState.EXITED:
            raise SchedulerError(f"cannot block exited thread {self.name!r}")
        self._set_state(ThreadState.BLOCKED)

    def wake(self) -> None:
        """Resume a blocked thread with its remaining segment intact."""
        if self.state is ThreadState.EXITED:
            raise SchedulerError(f"cannot wake exited thread {self.name!r}")
        self._set_state(ThreadState.RUNNABLE)

    def exit(self) -> None:
        """Terminate the thread permanently."""
        self._set_state(ThreadState.EXITED)

    def _set_state(self, new: ThreadState) -> None:
        if new is self.state:
            return
        old = self.state
        if old is ThreadState.RUNNABLE:
            self._settle()
        self.state = new
        if new is ThreadState.RUNNABLE:
            self._restart()
        self.cgroup.on_thread_state_change(self, old, new)

    # -- lazy accrual plumbing --------------------------------------------

    def _settle(self) -> None:
        """Materialize lazily-accrued progress/occupancy into the totals."""
        cg = self.cgroup
        self._progress_done += cg.progress_acc - self._base_progress
        self._cpu_time += cg.occupancy_acc - self._base_occupancy
        self._work = max(0.0, self._target - cg.progress_acc)
        self._base_progress = cg.progress_acc
        self._base_occupancy = cg.occupancy_acc

    def _restart(self) -> None:
        """Anchor the segment in the cgroup's progress coordinates."""
        cg = self.cgroup
        self._base_progress = cg.progress_acc
        self._base_occupancy = cg.occupancy_acc
        self._target = cg.progress_acc + self._work
        cg._enqueue_completion(self)

    # -- accounting views ---------------------------------------------------

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.RUNNABLE

    @property
    def remaining(self) -> float:
        """CPU-seconds of work left in the current segment."""
        if self.state is ThreadState.RUNNABLE:
            return max(0.0, self._target - self.cgroup.progress_acc)
        return self._work

    @property
    def progress_rate(self) -> float:
        """Useful progress rate while runnable (cores), else 0."""
        if self.state is ThreadState.RUNNABLE:
            return self.cgroup._thread_rate
        return 0.0

    @property
    def cpu_time(self) -> float:
        """Total CPU seconds charged to the thread (occupancy)."""
        if self.state is ThreadState.RUNNABLE:
            return self._cpu_time + (self.cgroup.occupancy_acc
                                     - self._base_occupancy)
        return self._cpu_time

    @property
    def progress_done(self) -> float:
        """Total useful progress accrued over the thread's lifetime."""
        if self.state is ThreadState.RUNNABLE:
            return self._progress_done + (self.cgroup.progress_acc
                                          - self._base_progress)
        return self._progress_done

    @property
    def segment_finished(self) -> bool:
        # The epsilon scales with the target because the progress integral
        # is cumulative: after advancing exactly time-to-completion, the
        # residual is on the order of ulp(target), not an absolute bound.
        return (self.state is ThreadState.RUNNABLE
                and self._target - self.cgroup.progress_acc
                <= WORK_EPS + 1e-15 * self._target)

    def _finish_segment(self) -> None:
        """Snap a due segment to exactly zero remaining work."""
        self._target = self.cgroup.progress_acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimThread {self.name} tid={self.tid} {self.state.value} "
                f"remaining={self.remaining:.6f}>")


class ThreadTeam:
    """A fork-join team of threads that park between runs.

    :meth:`run` gives each of the first ``n`` threads one segment: an
    equal share of the work plus the barrier cost, which grows with the
    team size.  Each thread that finishes is parked; the last one calls
    the run's ``on_done``.  Threads are spawned on demand, named
    ``prefix`` plus their index, and live until :meth:`exit`.
    """

    __slots__ = ("threads", "_spawn", "_prefix", "_on_done", "_running")

    def __init__(self, spawn: Callable[[str], SimThread], prefix: str):
        self.threads: list[SimThread] = []
        self._spawn = spawn
        self._prefix = prefix
        self._on_done: Callable[[], None] | None = None
        self._running = 0

    @property
    def busy(self) -> bool:
        """Whether a run is in flight."""
        return self._on_done is not None

    def grow(self, n: int) -> None:
        """Spawn threads until the team has at least ``n``."""
        threads = self.threads
        while len(threads) < n:
            threads.append(self._spawn(f"{self._prefix}{len(threads)}"))

    def run(self, work: float, n: int, sync_per_thread: float,
            on_done: Callable[[], None]) -> None:
        """Run ``work`` cpu-seconds on ``n`` threads, then call ``on_done``."""
        if self.busy:
            raise SchedulerError(f"team {self._prefix!r} is already running")
        if n < 1:
            raise SchedulerError(f"team {self._prefix!r} needs >= 1 thread, got {n}")
        if work < 0:
            raise SchedulerError(f"team work cannot be negative: {work}")
        self.grow(n)
        self._on_done = on_done
        self._running = n
        segment = work / n + sync_per_thread * n
        for thread in self.threads[:n]:
            thread.assign_work(segment, self._thread_done)

    def _thread_done(self, thread: SimThread) -> None:
        thread.block()
        self._running -= 1
        if self._running == 0:
            on_done = self._on_done
            self._on_done = None
            assert on_done is not None
            on_done()

    def exit(self) -> None:
        """Terminate every thread, dropping any run in flight."""
        self._on_done = None
        for thread in self.threads:
            thread.exit()
