"""The simulated HotSpot JVM.

Ties together the detection policies, the generational heap, the
Parallel Scavenge GC team, the adaptive size policy, and (for the
paper's JVM) the elastic-heap controller.

Execution model
---------------
Mutators run in *phases*: each phase is exactly the aggregate CPU work
after which eden fills at the workload's allocation rate (or the rest of
the benchmark, whichever is smaller).  When a phase ends the JVM is at a
safepoint: allocation is materialized in eden, and if eden is full a
stop-the-world minor collection runs on the GC team — mutators
stay parked for the duration, so GC wall time directly extends execution
time, exactly the accounting the paper's figures use.

The number of workers activated per collection is the policy under
study::

    STATIC    N_gc = N
    DYNAMIC   N_gc = min(N, N_active)            # HotSpot heuristic
    ADAPTIVE  N_gc = min(N, N_active, E_CPU)     # §4.1

with ``N`` created at launch from the CPU-detection policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.container.container import Container
from repro.errors import JvmError, OutOfMemoryError
from repro.jvm.adaptive_sizing import AdaptiveSizePolicy, BaseSizePolicy
from repro.jvm.detect import (detect_cpus, detect_max_heap,
                              hotspot_ci_compiler_count,
                              hotspot_parallel_gc_threads)
from repro.jvm.elastic_heap import (MIN_VIRTUAL_MAX, NON_HEAP_OVERHEAD,
                                    POLL_INTERVAL, ElasticHeapController)
from repro.jvm.flags import GcThreadMode, HeapDetectMode, JvmConfig
from repro.jvm.gc.parallel_scavenge import (SYNC_PER_THREAD,
                                            dynamic_active_workers,
                                            gc_work_inflation, major_gc_work,
                                            minor_gc_work)
from repro.jvm.heap import Heap, HeapSnapshot
from repro.kernel.task import SimThread, ThreadTeam
from repro.units import mib
from repro.workloads.base import JavaWorkload

__all__ = ["JvmStats", "Jvm"]

#: Fraction of the live set resident in the young generation at any
#: instant.  Survivors of a minor GC are capped by this: objects die
#: young, so growing eden does not grow the absolute survivor volume —
#: it lowers the survival *rate* (weak generational hypothesis).
YOUNG_LIVE_FRACTION = 0.15


@dataclass
class JvmStats:
    """Counters and traces reported by one JVM run."""

    started_at: float = 0.0
    finished_at: float | None = None
    completed: bool = False
    oom: bool = False
    oom_reason: str = ""
    minor_gcs: int = 0
    major_gcs: int = 0
    gc_time: float = 0.0
    mutator_work_done: float = 0.0
    gc_threads_created: int = 0
    jit_threads_created: int = 0
    detected_cpus: int = 0
    #: Actual mutator work executed, including the seeded jitter.
    effective_total_work: float = 0.0
    #: (time, activated workers) per collection — Fig. 8(b)'s trace.
    gc_thread_history: list[tuple[float, int]] = field(default_factory=list)
    #: Wall duration of every stop-the-world pause, in collection order.
    gc_pauses: list[float] = field(default_factory=list)
    #: (time, used, committed, VirtualMax) — Fig. 12's traces.
    heap_trace: list[HeapSnapshot] = field(default_factory=list)

    @property
    def execution_time(self) -> float:
        if self.finished_at is None:
            return float("nan")
        return self.finished_at - self.started_at

    @property
    def mean_gc_threads(self) -> float:
        if not self.gc_thread_history:
            return 0.0
        return sum(n for _, n in self.gc_thread_history) / len(self.gc_thread_history)

    def gc_pause_percentile(self, q: float) -> float:
        """The q-th percentile stop-the-world pause (q in [0, 100]).

        Pause-time distributions are how latency-sensitive services judge
        GC tuning; over-threaded teams fatten the tail.
        """
        if not self.gc_pauses:
            return 0.0
        if not (0.0 <= q <= 100.0):
            raise JvmError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self.gc_pauses)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]

    @property
    def max_gc_pause(self) -> float:
        return max(self.gc_pauses, default=0.0)


class Jvm:
    """One JVM process running a :class:`JavaWorkload` inside a container."""

    def __init__(self, container: Container, workload: JavaWorkload,
                 config: JvmConfig, *,
                 name: str | None = None, trace_heap: bool = False,
                 work_jitter: float = 0.0,
                 jit_warmup_work: float = 0.0,
                 sizing_policy: BaseSizePolicy | None = None):
        self.container = container
        self.world = container.world
        self.workload = workload
        self.config = config
        self.sizing = (sizing_policy if sizing_policy is not None
                       else AdaptiveSizePolicy())
        self.name = name or f"{container.name}.jvm"
        self.trace_heap = trace_heap
        self.stats = JvmStats()
        self.heap: Heap | None = None
        self.launched = False
        self.finished = False
        if not (0.0 <= work_jitter < 1.0):
            raise JvmError(f"work_jitter must be in [0,1), got {work_jitter}")
        if jit_warmup_work < 0:
            raise JvmError(f"jit_warmup_work cannot be negative: {jit_warmup_work}")
        #: Seeded per-JVM run-length variation (for sensitivity studies;
        #: 0.0 keeps runs bit-for-bit deterministic across configs).
        self.work_jitter = work_jitter
        #: CPU work of JIT warm-up compilation, split over the compiler
        #: threads at launch.  0.0 disables the JIT model entirely so the
        #: calibrated experiments are unaffected by it.
        self.jit_warmup_work = jit_warmup_work
        # internals -------------------------------------------------------
        self._gc = ThreadTeam(container.spawn_thread, f"{self.name}-worker")
        self._mutators = ThreadTeam(container.spawn_thread,
                                    f"{self.name}-mutator")
        self._jit_threads: list[SimThread] = []
        self._elastic: ElasticHeapController | None = None
        self._charged = 0
        self._remaining_work = workload.total_work
        self._phase_work = 0.0
        self._last_gc_end = 0.0
        self._gc_started_at = 0.0
        self._gc_span = 0
        self._pending_promote: int | None = None
        self._retry_handle = None   # pending promotion-retry one-shot
        self._promotion_retries = 0
        self._shrink_gc_requested = False
        self._old_live_target = int(workload.live_set * workload.old_live_frac)

    # -- launch ------------------------------------------------------------

    def launch(self) -> None:
        """Start the JVM: detection, heap setup, threads, first phase."""
        if self.launched:
            raise JvmError(f"JVM {self.name!r} already launched")
        self.launched = True
        now = self.world.clock.now
        self.stats.started_at = now
        self._last_gc_end = now

        ncpus = detect_cpus(self.container, self.config.cpu_detect)
        self.stats.detected_cpus = ncpus
        n_created = self.config.gc_threads or hotspot_parallel_gc_threads(ncpus)
        self.stats.gc_threads_created = n_created
        self.stats.jit_threads_created = hotspot_ci_compiler_count(ncpus)

        # Seeded run-length jitter (off by default).
        if self.work_jitter > 0.0:
            rng = self.world.rng.stream(f"jvm-jitter:{self.name}")
            factor = 1.0 + self.work_jitter * (2.0 * rng.random() - 1.0)
            self._remaining_work = self.workload.total_work * factor
        self.stats.effective_total_work = self._remaining_work

        reserved = detect_max_heap(self.container, self.config)
        if self.config.heap_detect is HeapDetectMode.ELASTIC and self.config.xmx is None:
            virtual_max = max(MIN_VIRTUAL_MAX,
                              min(reserved,
                                  self.container.e_mem - NON_HEAP_OVERHEAD))
        else:
            virtual_max = reserved
        initial = self.config.xms or max(virtual_max // 4, mib(16))
        self.heap = Heap(reserved, initial_committed=min(initial, virtual_max),
                         virtual_max=virtual_max)

        self._gc.grow(n_created)
        self._mutators.grow(self.workload.app_threads)
        if self.jit_warmup_work > 0.0:
            # JIT warm-up: the tiered compilers churn through the hot
            # methods concurrently with early mutation, one more way a
            # mis-detected CPU count wastes a constrained container's
            # cycles (§2.2).
            per_thread = self.jit_warmup_work / self.stats.jit_threads_created
            for i in range(self.stats.jit_threads_created):
                t = self.container.spawn_thread(f"{self.name}-C2-{i}")
                t.assign_work(per_thread, lambda th: th.exit())
                self._jit_threads.append(t)
        if not self.sync_memory_charge():
            return
        if (self.config.heap_detect is HeapDetectMode.ELASTIC
                and self.config.xmx is None):
            self._elastic = ElasticHeapController(self)
            self._elastic.start(self.world.events)
        self._record_heap(now)
        self._begin_phase()

    # -- memory charging -----------------------------------------------------

    def sync_memory_charge(self) -> bool:
        """Reconcile the cgroup charge with committed + overhead.

        Returns False if the charge OOM-killed the JVM.
        """
        assert self.heap is not None
        target = self.heap.committed_total + NON_HEAP_OVERHEAD
        delta = target - self._charged
        try:
            if delta > 0:
                self.world.mm.charge(self.container.cgroup, delta)
            elif delta < 0:
                self.world.mm.uncharge(self.container.cgroup, -delta)
                self.world.mm.rebalance()
        except OutOfMemoryError as exc:
            self._fail(f"container OOM-killed: {exc}")
            return False
        self._charged = target
        # Hot-set hint for the swap model: live data plus the (constantly
        # recycled) young generation plus native overhead.
        self.container.cgroup.memory.hot_bytes = (
            self.workload.live_set + self.heap.young_committed
            + NON_HEAP_OVERHEAD)
        self.world.mm.refresh_pressure(self.container.cgroup)
        return True

    # -- mutation phases -----------------------------------------------------------

    def _begin_phase(self) -> None:
        if self.finished:
            return
        assert self.heap is not None
        if self._shrink_gc_requested:
            self._shrink_gc_requested = False
            self._start_gc("major")
            return
        if self._remaining_work <= 1e-12:
            self._finish_ok()
            return
        wl = self.workload
        if wl.alloc_rate > 0:
            fill_work = self.heap.eden_free / wl.alloc_rate
            if fill_work <= 1e-9:
                self._start_gc("minor")
                return
            phase_work = min(self._remaining_work, fill_work)
        else:
            phase_work = self._remaining_work
        self._phase_work = phase_work
        # Mutators share no barrier cost: x / n + 0.0 * n is exactly x / n.
        self._mutators.run(phase_work, wl.app_threads, 0.0, self._end_phase)

    def _end_phase(self) -> None:
        assert self.heap is not None
        wl = self.workload
        allocated = min(int(self._phase_work * wl.alloc_rate), self.heap.eden_free)
        self.heap.allocate_eden(allocated)
        self._remaining_work -= self._phase_work
        self.stats.mutator_work_done += self._phase_work
        if self._remaining_work <= 1e-12:
            self._finish_ok()
        elif self._shrink_gc_requested:
            self._start_gc("major")
        elif self.heap.eden_free <= 0 or (
                wl.alloc_rate > 0 and self.heap.eden_free < wl.alloc_rate * 1e-9):
            self._start_gc("minor")
        else:
            self._begin_phase()

    # -- GC orchestration ------------------------------------------------------------

    def _gc_cores_available(self) -> float:
        """Cores the GC team can realistically occupy (for the LHP model)."""
        return self.world.sched.fair_share_estimate(self.container.cgroup)

    def _gc_domain_pressure(self) -> float:
        """Co-runner pressure around the container at collection start."""
        return self.world.sched.contention_pressure(self.container.cgroup)

    def _gc_team_size(self, heap_used: int) -> int:
        n = self.stats.gc_threads_created
        mode = self.config.gc_thread_mode
        if mode is GcThreadMode.STATIC:
            return n
        n_active = dynamic_active_workers(n, self.workload.app_threads,
                                          heap_used)
        if mode is GcThreadMode.DYNAMIC:
            return min(n, n_active)
        # ADAPTIVE: N_gc = min(N, N_active, E_CPU) — the §4.1 formula.
        return max(1, min(n, n_active, self.container.e_cpu))

    def _start_gc(self, kind: str) -> None:
        """Stop the world and run a ``"minor"`` or ``"major"`` collection."""
        assert self.heap is not None
        heap = self.heap
        minor = kind == "minor"
        n_gc = self._gc_team_size(heap.young_used if minor else heap.old_used)
        now = self.world.clock.now
        if minor:
            self.stats.minor_gcs += 1
        else:
            self.stats.major_gcs += 1
        self.stats.gc_thread_history.append((now, n_gc))
        self._gc_started_at = now
        self._gc_span = self.world.trace.begin_span(
            "jvm.gc", f"{self.name} {kind} GC", team=n_gc)
        if minor:
            surviving = self._surviving_bytes(heap.eden_used)
            work = minor_gc_work(heap.eden_used, surviving)
        else:
            surviving = 0
            work = major_gc_work(heap.old_used)
        work *= gc_work_inflation(n_gc, self._gc_cores_available(),
                                  domain_pressure=self._gc_domain_pressure())
        self._gc.run(work, n_gc, SYNC_PER_THREAD,
                     lambda: self._end_gc(kind, surviving))

    def _surviving_bytes(self, eden_used: int) -> int:
        """Minor-GC survivors: rate-based but capped by the young live set."""
        by_rate = int(eden_used * self.workload.survivor_frac)
        cap = max(mib(2), int(self.workload.live_set * YOUNG_LIVE_FRACTION))
        return min(by_rate, cap)

    def _end_gc(self, kind: str, surviving: int) -> None:
        """Account and trace the pause, then apply the collection."""
        assert self.heap is not None
        heap = self.heap
        now = self.world.clock.now
        gc_wall = now - self._gc_started_at
        mutator_wall = self._gc_started_at - self._last_gc_end
        self.stats.gc_time += gc_wall
        self.stats.gc_pauses.append(gc_wall)
        self._last_gc_end = now
        minor = kind == "minor"
        if minor:
            fields = {"surviving": surviving}
        else:
            fields = {"reclaimed": heap.old_used - heap.old_live}
        self.world.trace.emit("jvm.gc", f"{self.name} {kind} GC",
                              wall=round(gc_wall, 6), **fields,
                              team=self.stats.gc_thread_history[-1][1])
        self.world.trace.end_span(self._gc_span, **fields)

        if minor:
            # Scavenge: eden empties; survivors either stay in survivor
            # space or are promoted (tenuring + overflow).
            promoted = int(surviving * self.workload.promote_frac)
            to_survivor = surviving - promoted
            if to_survivor > heap.survivor_capacity:
                promoted += to_survivor - heap.survivor_capacity
                to_survivor = heap.survivor_capacity
            heap.eden_used = 0
            heap.survivor_used = to_survivor
            self.sizing.observe_minor(heap, gc_wall=gc_wall,
                                      mutator_wall=mutator_wall)
            if not self.sizing.ensure_promotion_room(heap, promoted):
                # Promotion failure: a full collection must make room first.
                self._pending_promote = promoted
                if self.sync_memory_charge():
                    self._start_gc("major")
                return
            self._apply_promotion(promoted)
        else:
            # A full collection leaves only live data in the old generation.
            heap.old_used = heap.old_live
            self.sizing.observe_major(heap)
            if self._pending_promote is not None:
                promoted = self._pending_promote
                self._pending_promote = None
                if not self._promote(promoted):
                    return
        self._resume()

    def _resume(self) -> None:
        """Reconcile the charge, record the heap, and begin the next phase."""
        if self.sync_memory_charge():
            self._record_heap(self.world.clock.now)
            self._begin_phase()

    def _promote(self, promoted: int) -> bool:
        """Make room for ``promoted`` bytes and apply them if it fits."""
        if not self._make_promotion_room(promoted):
            return False
        self._promotion_retries = 0
        self._apply_promotion(promoted)
        return True

    def _apply_promotion(self, promoted: int) -> None:
        assert self.heap is not None
        self.heap.old_used += promoted
        # Early promotions build the long-lived data set; once it is
        # complete, further promotions are garbage a major GC reclaims.
        self.heap.old_live = min(self._old_live_target,
                                 self.heap.old_live + promoted)

    #: Retries (one per elastic poll interval) before giving up on the
    #: effective memory growing enough to fit pending promotions.
    MAX_PROMOTION_RETRIES = 60

    def _make_promotion_room(self, promoted: int) -> bool:
        """Find space for ``promoted`` bytes after a full collection.

        Preference order: (1) grow the old generation within the current
        dynamic bounds; (2) for the elastic heap, wait for effective
        memory — the heap is *supposed* to expand toward the hard limit
        as demand mounts (Fig. 12); (3) rebalance the generation boundary
        (shrink young); (4) OutOfMemoryError.  Returns True if the caller
        may apply the promotion now; False means a retry was scheduled or
        the JVM died.
        """
        assert self.heap is not None
        heap = self.heap
        if self.sizing.ensure_promotion_room(heap, promoted):
            return True
        can_grow = (self._elastic is not None
                    and self._promotion_retries < self.MAX_PROMOTION_RETRIES
                    and heap.virtual_max
                    < self.container.sys_ns.hard_limit - NON_HEAP_OVERHEAD)
        if can_grow:
            self._await_heap_growth(promoted)
            return False
        if self.sizing.shrink_young_for_promotion(heap, promoted):
            return True
        self._fail(
            f"java.lang.OutOfMemoryError: old generation cannot fit "
            f"{promoted} promoted bytes (old_used={heap.old_used}, "
            f"old_max={heap.old_max}, retries={self._promotion_retries})")
        return False

    def _await_heap_growth(self, promoted: int) -> None:
        """Park the JVM until effective memory grows.

        The elastic JVM *waits for its resource view*: it commits the
        old generation up to the current maximum — memory-starved
        HotSpot touches every page it may legally commit, which is what
        drives the container's usage toward 90% of effective memory and
        lets Algorithm 2 expand it — and retries at the next elastic
        poll ("if a single GC may not be able to free enough space, we
        invoke GCs every 10s until success", §4.2).  Extra collections
        are pointless while mutators are parked (no new garbage), so the
        retry merely re-checks after VirtualMax moves.
        """
        assert self.heap is not None
        self._promotion_retries += 1
        self._pending_promote = promoted
        self.world.trace.emit("jvm.heap_wait",
                              f"{self.name} awaiting effective-memory growth",
                              promoted=promoted, retry=self._promotion_retries,
                              virtual_max=self.heap.virtual_max)
        self.heap.resize_old(self.heap.old_max)
        if not self.sync_memory_charge():
            return
        self._record_heap(self.world.clock.now)
        self._retry_handle = self.world.events.call_after(
            POLL_INTERVAL, self._retry_promotion,
            name=f"{self.name}:promotion-retry")

    def _retry_promotion(self) -> None:
        self._retry_handle = None
        if self.finished or self._pending_promote is None:
            return
        assert self.heap is not None
        if self._elastic is not None:
            self._elastic.poll()  # pick up the latest effective memory now
        promoted = self._pending_promote
        self._pending_promote = None
        if self._promote(promoted):
            self._resume()
        # else: another retry was scheduled, or the JVM died with OOM.

    def kill(self, reason: str = "killed") -> None:
        """Terminate the JVM abruptly (OOM-killer / docker kill semantics).

        All threads exit, all charged memory is released, and the run is
        reported as failed.  Safe to call at any point, including during
        a stop-the-world collection.
        """
        if not self.finished:
            self._fail(reason)

    def request_shrink_gc(self) -> None:
        """Elastic-heap shrink scenario 3: collect at the next safepoint."""
        self._shrink_gc_requested = True
        if (not self._gc.busy and not self._mutators.busy
                and self._pending_promote is None and not self.finished):
            # Idle at a safepoint right now (e.g. between launch and
            # phase).  A JVM holding a promotion is not idle: it waits
            # for heap growth or is retrying, and the collection runs
            # when it resumes, so at most one retry is ever pending.
            self._begin_phase()

    # -- completion ------------------------------------------------------------------

    def _record_heap(self, now: float) -> None:
        if self.trace_heap and self.heap is not None:
            self.stats.heap_trace.append(self.heap.snapshot(now))

    def _finish_ok(self) -> None:
        self.stats.completed = True
        self._teardown()

    def _fail(self, reason: str) -> None:
        self.stats.oom = True
        self.stats.oom_reason = reason
        self.world.trace.emit("jvm.fail", f"{self.name} died", reason=reason)
        self._teardown()

    def _teardown(self) -> None:
        if self.finished:
            return
        self.finished = True
        now = self.world.clock.now
        self.stats.finished_at = now
        self._record_heap(now)
        if self._elastic is not None:
            self._elastic.stop()
        if self._retry_handle is not None:
            # A promotion retry scheduled while awaiting heap growth must
            # die with the JVM: left active it keeps the event loop
            # non-idle and accumulates a dead callback per kill.
            self._retry_handle.cancel()
            self._retry_handle = None
        self._mutators.exit()
        for t in self._jit_threads:
            t.exit()
        if self._gc.busy:
            # A kill mid-collection: close the collection's span with the
            # reason, or it stays open for the life of the world.
            self.world.trace.end_span(self._gc_span, killed=self.stats.oom_reason)
        self._gc.exit()
        if self._charged > 0:
            self.world.mm.uncharge(self.container.cgroup,
                                   min(self._charged,
                                       self.container.cgroup.memory.usage_in_bytes))
            self._charged = 0
            self.world.mm.rebalance()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Jvm {self.name} workload={self.workload.name} "
                f"finished={self.finished}>")
