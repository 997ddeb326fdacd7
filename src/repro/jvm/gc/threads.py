"""The GC worker pool: simulated GC threads running one collection.

Workers are created once at JVM launch ("we launch as many GC threads as
possible according to the number of online CPUs, retaining the potential
to expand the JVM with more CPUs", §4.1) and sleep between collections.
Each collection activates a *subset* of them — the count chosen by the
static/dynamic/adaptive policy — and gives each active worker one
segment: an equal share of the collection's work plus the barrier cost,
which grows with the team size.  The last worker to finish ends the
collection.

HotSpot feeds its workers from a central task queue so that faster
threads fetch more tasks.  The fluid scheduler runs every thread of a
container at one rate and the workers start together, so such a queue
would always deal the grains out evenly; one equal segment per worker
gives the same timing in one completion per worker (EXPERIMENTS.md,
known deviation 8).
"""

from __future__ import annotations

from typing import Callable

from repro.container.container import Container
from repro.errors import JvmError
from repro.kernel.task import SimThread

__all__ = ["GcWorkerPool"]


class GcWorkerPool:
    """A fixed pool of GC threads executing one collection at a time."""

    def __init__(self, container: Container, n_created: int, *,
                 sync_per_thread: float, name: str = "gc"):
        if n_created < 1:
            raise JvmError(f"GC pool needs >= 1 thread, got {n_created}")
        self.container = container
        self.n_created = n_created
        self.sync_per_thread = sync_per_thread
        self.workers: list[SimThread] = [
            container.spawn_thread(f"{name}-worker{i}") for i in range(n_created)]
        self._on_done: Callable[[], None] | None = None
        self._running = 0

    @property
    def collecting(self) -> bool:
        return self._on_done is not None

    def collect(self, work: float, n_active: int,
                on_done: Callable[[], None]) -> None:
        """Run ``work`` cpu-seconds on ``n_active`` workers, then call back."""
        if self.collecting:
            raise JvmError("a collection is already in progress")
        if work < 0:
            raise JvmError(f"GC work cannot be negative: {work}")
        n = max(1, min(n_active, self.n_created))
        self._on_done = on_done
        self._running = n
        segment = work / n + self.sync_per_thread * n
        for worker in self.workers[:n]:
            worker.assign_work(segment, self._worker_done)

    def _worker_done(self, worker: SimThread) -> None:
        worker.block()
        self._running -= 1
        if self._running == 0:
            on_done = self._on_done
            self._on_done = None
            assert on_done is not None
            on_done()

    def shutdown(self) -> None:
        """Terminate all workers (JVM exit), dropping any collection in flight."""
        self._on_done = None
        for w in self.workers:
            if w.state.value != "exited":
                w.exit()
