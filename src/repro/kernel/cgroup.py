"""Control groups: the resource-control half of container isolation.

Mirrors the Linux cgroup-v1 controllers the paper relies on:

* **cpu** — ``cpu.shares``, ``cpu.cfs_quota_us``, ``cpu.cfs_period_us``;
* **cpuset** — ``cpuset.cpus``;
* **memory** — ``memory.limit_in_bytes``, ``memory.soft_limit_in_bytes``
  plus usage accounting maintained by :mod:`repro.kernel.mm`.

Configuration changes publish :class:`CgroupEvent` notifications; the
paper's ``ns_monitor`` subscribes to these to refresh ``sys_namespace``
bounds (§3.2: "We modify the source code of cgroups to invoke ns_monitor
if a sys_namespace exists for a control group and there is a change to
the cgroups settings").
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import TYPE_CHECKING, Callable

from repro.errors import CgroupError
from repro.kernel.cpu import CpuSet, HostCpus
from repro.kernel.task import WORK_EPS, ThreadState
from repro.obs.pressure import CgroupPressure

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import SimThread
    from repro.sim.clock import SimClock

__all__ = [
    "DEFAULT_SHARES",
    "DEFAULT_PERIOD_US",
    "CgroupEventKind",
    "CgroupEvent",
    "CpuController",
    "CpusetController",
    "MemoryController",
    "Cgroup",
    "CgroupRoot",
]

#: Linux default for ``cpu.shares``.
DEFAULT_SHARES = 1024
#: Linux default for ``cpu.cfs_period_us``.
DEFAULT_PERIOD_US = 100_000


class CgroupEventKind(enum.Enum):
    CREATED = "created"
    DESTROYED = "destroyed"
    CPU_CHANGED = "cpu_changed"
    MEMORY_CHANGED = "memory_changed"


class CgroupEvent:
    """A change notification delivered to cgroup-event subscribers."""

    __slots__ = ("kind", "cgroup")

    def __init__(self, kind: CgroupEventKind, cgroup: "Cgroup"):
        self.kind = kind
        self.cgroup = cgroup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CgroupEvent({self.kind.value}, {self.cgroup.name!r})"


class CpuController:
    """``cpu`` controller state for one cgroup."""

    __slots__ = ("shares", "cfs_quota_us", "cfs_period_us")

    def __init__(self) -> None:
        self.shares = DEFAULT_SHARES
        self.cfs_quota_us: int | None = None  # None == -1 == unlimited
        self.cfs_period_us = DEFAULT_PERIOD_US

    @property
    def quota_cores(self) -> float:
        """CPU limit in units of cores (``quota/period``); inf if unlimited."""
        if self.cfs_quota_us is None:
            return float("inf")
        return self.cfs_quota_us / self.cfs_period_us


class CpusetController:
    """``cpuset`` controller state: the CPUs the group may run on."""

    __slots__ = ("cpus",)

    def __init__(self) -> None:
        self.cpus: CpuSet | None = None  # None == inherit all host CPUs


class MemoryController:
    """``memory`` controller state and accounting.

    ``resident`` + ``swapped`` is the total charge against the group;
    only ``resident`` occupies physical memory.  The fields are mutated
    exclusively by :class:`repro.kernel.mm.memcg.MemoryManager`.
    """

    __slots__ = ("limit_in_bytes", "soft_limit_in_bytes", "resident", "swapped",
                 "oom_killed", "swapin_total", "swapout_total", "hot_bytes",
                 "charge_total", "uncharge_total", "intent")

    def __init__(self) -> None:
        self.limit_in_bytes: int | None = None
        self.soft_limit_in_bytes: int | None = None
        self.resident = 0
        self.swapped = 0
        self.oom_killed = False
        self.swapin_total = 0
        self.swapout_total = 0
        #: Lifetime charge ledger, maintained by the memory manager.  The
        #: balance invariant every checker run asserts:
        #: ``charge_total - uncharge_total == resident + swapped``.
        self.charge_total = 0
        self.uncharge_total = 0
        #: Runtime hint: hot working-set bytes (None = everything hot).
        #: Used by the swap slowdown model — reclaim evicts cold pages
        #: first, so only hot-set evictions cause fault storms.
        self.hot_bytes: int | None = None
        #: Declared memory intent ("scratch" | "cache" | "heap" | None).
        #: Advisory: only intent-aware reclaim policies read it.
        self.intent: str | None = None

    @property
    def usage_in_bytes(self) -> int:
        """Total bytes charged to the group (resident + swapped)."""
        return self.resident + self.swapped

    @property
    def hard_limit(self) -> float:
        return float("inf") if self.limit_in_bytes is None else float(self.limit_in_bytes)

    @property
    def soft_limit(self) -> float:
        return (float("inf") if self.soft_limit_in_bytes is None
                else float(self.soft_limit_in_bytes))


class Cgroup:
    """One node of the cgroup hierarchy.

    Scheduling/accounting fields (``cpu_rate``, ``window_usage`` ...) are
    maintained by the fair scheduler; they live here because Algorithm 1
    consumes per-cgroup usage.
    """

    def __init__(self, name: str, parent: "Cgroup | None", root: "CgroupRoot"):
        self.name = name
        self.parent = parent
        self.root = root
        #: Absolute path, fixed at creation: cgroups are never renamed or
        #: re-parented.
        if parent is None:
            self.path = "/"
        else:
            prefix = parent.path
            self.path = (prefix + name if prefix.endswith("/")
                         else f"{prefix}/{name}")
        #: Creation sequence number; the canonical deterministic ordering
        #: of groups (snapshot order, completion-firing order).
        self.seq = root._next_seq()
        self.children: dict[str, Cgroup] = {}
        self.cpu = CpuController()
        self.cpuset = CpusetController()
        self.memory = MemoryController()
        self.threads: set[SimThread] = set()
        self._runnable: set[SimThread] = set()
        self.destroyed = False
        # Scheduler-maintained state --------------------------------------
        self.cpu_rate = 0.0            # cores currently allocated
        self.total_cpu_time = 0.0      # integral of cpu_rate
        self.window_usage = 0.0        # cpu-seconds since last sys_ns update
        self.progress_multiplier = 1.0 # memory-pressure penalty (set by mm)
        # Lazy-accrual integrals: every runnable thread of a group
        # progresses at the same rate, so the engine advances these two
        # cumulative integrals per group and threads resolve their own
        # remaining work / cpu time against them on demand.
        self.progress_acc = 0.0        # per-thread useful progress integral
        self.occupancy_acc = 0.0       # per-thread occupancy integral
        self._thread_rate = 0.0        # d(progress_acc)/dt (set by scheduler)
        self._occ_rate = 0.0           # d(occupancy_acc)/dt (set by scheduler)
        #: Completion index: min-heap of ``(target, tid, thread)`` keyed by
        #: the progress_acc value at which each runnable segment completes.
        #: Entries are invalidated lazily (valid iff the thread is still
        #: runnable with that exact target).
        self._work_heap: list[tuple[float, int, "SimThread"]] = []
        #: Push id of this group's latest scheduler completion-heap entry.
        self._sched_entry_seq = -1
        #: Integral of demand the CFS quota clipped (core-seconds): the
        #: fluid analogue of cpu.stat's throttled_time.
        self.throttled_time = 0.0
        #: Wall seconds spent with the quota actively clipping demand;
        #: cpu.stat derives nr_throttled from this at the configured
        #: period (every period inside a throttled stretch counts).
        self.throttled_wall = 0.0
        #: PSI-style stall accounting (cpu/memory some+full).  On the
        #: root cgroup this holds the *host-wide* pressure, mirroring
        #: how /proc/pressure reads the root group in Linux.
        self.pressure = CgroupPressure()
        if root._clock is not None:
            self.pressure.bind_clock(root._clock)

    # -- hierarchy ---------------------------------------------------------

    def create_child(self, name: str) -> "Cgroup":
        if self.destroyed:
            raise CgroupError(f"cannot create child under destroyed cgroup {self.path!r}")
        if not name or "/" in name:
            raise CgroupError(f"invalid cgroup name {name!r}")
        if name in self.children:
            raise CgroupError(f"cgroup {name!r} already exists under {self.path!r}")
        child = Cgroup(name, self, self.root)
        self.children[name] = child
        # The newest child is walked right after its parent.
        live = self.root._live
        live.insert(live.index(self) + 1, child)
        self.root._notify(CgroupEvent(CgroupEventKind.CREATED, child))
        return child

    def destroy(self) -> None:
        """Remove an empty cgroup from the hierarchy."""
        if self.parent is None:
            raise CgroupError("cannot destroy the root cgroup")
        if self.children:
            raise CgroupError(f"cgroup {self.path!r} still has children")
        live = [t for t in self.threads if t.state.value != "exited"]
        if live:
            raise CgroupError(
                f"cgroup {self.path!r} still has {len(live)} live threads")
        if self.memory.usage_in_bytes:
            # Linux rmdir on a charged memcg fails with EBUSY; letting a
            # charged group vanish here silently drops bytes from host
            # accounting (meminfo drift under churn).
            raise CgroupError(
                f"cgroup {self.path!r} still holds "
                f"{self.memory.usage_in_bytes} charged bytes")
        self.destroyed = True
        # Fold the group's time integrals into root-level retired
        # accumulators so conservation invariants survive churn.
        self.root.retired_cpu_time += self.total_cpu_time
        self.root.retired_throttled_time += self.throttled_time
        del self.parent.children[self.name]
        self.root._live.remove(self)
        self.root._notify(CgroupEvent(CgroupEventKind.DESTROYED, self))

    # -- configuration (the "echo > cgroupfs" surface) -----------------------

    def set_cpu_shares(self, shares: int) -> None:
        if shares < 2:
            raise CgroupError(f"cpu.shares must be >= 2, got {shares}")
        self.cpu.shares = int(shares)
        self.root._notify(CgroupEvent(CgroupEventKind.CPU_CHANGED, self))
        self.root.scheduler_dirty(self)

    def set_cpu_quota(self, quota_us: int | None, period_us: int | None = None) -> None:
        """Set ``cfs_quota_us``/``cfs_period_us``; ``quota_us=None`` lifts it."""
        if period_us is not None:
            if period_us < 1000:
                raise CgroupError(f"cfs_period_us must be >= 1000, got {period_us}")
            self.cpu.cfs_period_us = int(period_us)
        if quota_us is not None and quota_us <= 0:
            raise CgroupError(f"cfs_quota_us must be positive or None, got {quota_us}")
        self.cpu.cfs_quota_us = None if quota_us is None else int(quota_us)
        self.root._notify(CgroupEvent(CgroupEventKind.CPU_CHANGED, self))
        self.root.scheduler_dirty(self)

    def set_cpuset(self, cpus: CpuSet | str | None) -> None:
        if isinstance(cpus, str):
            cpus = CpuSet.parse(cpus)
        if cpus is not None:
            if not cpus:
                raise CgroupError("cpuset.cpus cannot be empty")
            self.root.host.validate_mask(cpus)
        self.cpuset.cpus = cpus
        self.root._notify(CgroupEvent(CgroupEventKind.CPU_CHANGED, self))
        # Topology edits change contention-domain structure host-wide.
        self.root.scheduler_dirty(self, topology=True)

    def set_memory_limit(self, limit: int | None) -> None:
        if limit is not None and limit <= 0:
            raise CgroupError(f"memory.limit_in_bytes must be positive, got {limit}")
        self.memory.limit_in_bytes = limit
        self.root._notify(CgroupEvent(CgroupEventKind.MEMORY_CHANGED, self))

    def set_memory_soft_limit(self, limit: int | None) -> None:
        if limit is not None and limit <= 0:
            raise CgroupError(f"memory.soft_limit_in_bytes must be positive, got {limit}")
        self.memory.soft_limit_in_bytes = limit
        self.root._notify(CgroupEvent(CgroupEventKind.MEMORY_CHANGED, self))

    def set_memory_intent(self, intent: str | None) -> None:
        """Declare what the group's memory is *for* (reclaim-policy hint).

        Advisory: the declared intent never changes residency or charge
        accounting, only how intent-aware reclaim policies rank victims,
        so no MEMORY_CHANGED event fires.
        """
        if intent is not None:
            from repro.policy.intent import INTENTS
            if intent not in INTENTS:
                raise CgroupError(
                    f"memory intent must be one of {INTENTS} or None, "
                    f"got {intent!r}")
        self.memory.intent = intent

    # -- derived CPU attributes ---------------------------------------------

    def effective_cpuset(self) -> CpuSet:
        """The group's CPU mask, inheriting the full host set when unset."""
        return self.cpuset.cpus if self.cpuset.cpus is not None else self.root.host.online

    @property
    def quota_cores(self) -> float:
        return self.cpu.quota_cores

    @property
    def nr_throttled(self) -> int:
        """``cpu.stat``'s ``nr_throttled``: the CFS periods inside the
        throttled wall time (every period of a throttled stretch
        counts).  Lifting the quota stops it growing but keeps it."""
        return int(self.throttled_wall / (self.cpu.cfs_period_us / 1e6))

    # -- thread membership ----------------------------------------------------

    def attach_thread(self, thread: "SimThread") -> None:
        if self.destroyed:
            raise CgroupError(f"cannot attach thread to destroyed cgroup {self.path!r}")
        self.threads.add(thread)
        if thread.runnable:
            self._runnable.add(thread)
        self.root.scheduler_dirty(self)

    def on_thread_state_change(self, thread: "SimThread", old: "ThreadState",
                               new: "ThreadState") -> None:
        if thread.runnable:
            self._runnable.add(thread)
        else:
            self._runnable.discard(thread)
            if new.value == "exited":
                self.threads.discard(thread)
        self.root.scheduler_dirty(self)

    @property
    def runnable_threads(self) -> set["SimThread"]:
        return self._runnable

    def n_runnable(self) -> int:
        return len(self._runnable)

    # -- completion index -----------------------------------------------------

    def _enqueue_completion(self, thread: "SimThread") -> None:
        """Index a (re)anchored segment by its work-at-completion target."""
        heapq.heappush(self._work_heap, (thread._target, thread.tid, thread))
        self.root.completion_changed(self)

    def _completion(self, thread: "SimThread | None" = None
                    ) -> tuple["SimThread | None", float]:
        """A segment's thread and its seconds to completion at the current rate.

        With no ``thread``, the segment is the group's earliest-completing
        runnable one (``(None, inf)`` if there is none); stale index
        entries (blocked/exited threads, replaced segments) are popped
        off the front on the way.  The one copy of the completion
        arithmetic: both modes of the scheduler's completion queries
        read it.
        """
        runnable = ThreadState.RUNNABLE
        if thread is None:
            heap = self._work_heap
            while heap:
                target, _tid, thread = heap[0]
                if thread.state is runnable and thread._target == target:
                    break
                heapq.heappop(heap)
            else:
                return None, float("inf")
        elif thread.state is not runnable:
            return thread, float("inf")
        else:
            target = thread._target
        rate = self._thread_rate
        if rate <= 0.0:
            return thread, float("inf")
        remaining = target - self.progress_acc
        if remaining <= WORK_EPS + 1e-15 * target:
            return thread, 0.0
        return thread, remaining / rate

    def _pop_due(self) -> list["SimThread"]:
        """Pop and return all currently-due runnable threads, tid-sorted."""
        heap = self._work_heap
        due: list[SimThread] = []
        seen: set[int] = set()
        while heap:
            target, tid, thr = heap[0]
            if not (thr.runnable and thr._target == target):
                heapq.heappop(heap)
                continue
            if not thr.segment_finished:
                break
            heapq.heappop(heap)
            if tid not in seen:
                seen.add(tid)
                due.append(thr)
        due.sort(key=lambda t: t.tid)
        return due

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cgroup {self.path} threads={len(self.threads)}>"


class CgroupRoot:
    """Owner of the hierarchy, the event bus, and the host topology."""

    def __init__(self, host: HostCpus):
        self.host = host
        self._seq = itertools.count()
        self._clock: "SimClock | None" = None
        self._subscribers: list[Callable[[CgroupEvent], None]] = []
        self._dirty_hook: Callable[["Cgroup | None", bool], None] | None = None
        self._completion_hook: Callable[["Cgroup"], None] | None = None
        #: CPU-time integrals of destroyed cgroups: without these, every
        #: container churn cycle would subtract its consumed CPU seconds
        #: from the host-wide conservation sum.
        self.retired_cpu_time = 0.0
        self.retired_throttled_time = 0.0
        self.root = Cgroup("", None, self)
        #: Every live cgroup in :meth:`walk` order, kept up to date by
        #: ``create_child`` and ``destroy``.
        self._live: list[Cgroup] = [self.root]

    def _next_seq(self) -> int:
        return next(self._seq)

    def bind_clock(self, clock: "SimClock") -> None:
        """Attach the sim clock the PSI accumulators fold against.

        A :class:`~repro.kernel.sched.fair.FairScheduler` built on a root
        with no clock binds one that reads its own accrued time.
        """
        self._clock = clock
        for cg in self.walk():
            cg.pressure.bind_clock(clock)

    # -- event bus ------------------------------------------------------------

    def subscribe(self, fn: Callable[[CgroupEvent], None]) -> None:
        """Register a cgroup-event subscriber (e.g. ns_monitor)."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[CgroupEvent], None]) -> None:
        self._subscribers.remove(fn)

    def _notify(self, event: CgroupEvent) -> None:
        for fn in list(self._subscribers):
            fn(event)

    # -- scheduler coupling -----------------------------------------------------

    def set_dirty_hook(self, fn: Callable[["Cgroup | None", bool, bool], None]
                       ) -> None:
        """Install the scheduler's invalidation callback.

        Called as ``fn(cgroup, topology, rates_only)``: ``cgroup`` is the
        group whose runnable set or cpu parameters changed (None =
        invalidate everything), ``topology=True`` means cpuset structure
        changed and cached contention domains are host-wide stale, and
        ``rates_only=True`` means only the group's
        ``progress_multiplier`` moved, which scales its published thread
        rate but is no input of any domain solve.
        """
        self._dirty_hook = fn

    def scheduler_dirty(self, cgroup: "Cgroup | None" = None, *,
                        topology: bool = False,
                        rates_only: bool = False) -> None:
        if self._dirty_hook is not None:
            self._dirty_hook(cgroup, topology, rates_only)

    def set_completion_hook(self, fn: Callable[["Cgroup"], None]) -> None:
        """Install the scheduler's "completion index changed" callback."""
        self._completion_hook = fn

    def completion_changed(self, cgroup: "Cgroup") -> None:
        if self._completion_hook is not None:
            self._completion_hook(cgroup)

    # -- traversal ---------------------------------------------------------------

    def walk(self) -> list[Cgroup]:
        """Every live cgroup, root first, depth-first, newest child first.

        A copy of the list ``create_child`` and ``destroy`` keep in this
        order, so the caller may create or destroy groups while it reads
        it.  The order is that of a stack walk pushing each group's
        children oldest first; reclaim depends on it (the last victim of
        a plan takes the remainder, and ``rebalance`` stops partway).
        """
        return self._live.copy()

    def lookup(self, path: str) -> Cgroup:
        """Resolve an absolute cgroup path like ``/docker/c1``."""
        if not path.startswith("/"):
            raise CgroupError(f"cgroup path must be absolute, got {path!r}")
        cg = self.root
        for part in path.strip("/").split("/"):
            if not part:
                continue
            try:
                cg = cg.children[part]
            except KeyError:
                raise CgroupError(f"no cgroup at {path!r}") from None
        return cg
