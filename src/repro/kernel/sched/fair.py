"""Fluid model of the Linux Completely Fair Scheduler with cgroup support.

Instead of simulating per-tick context switches, the scheduler solves a
**weighted max-min (water-filling) allocation** of the host's CPU
capacity over the leaf cgroups that currently have runnable threads,
re-solving whenever the runnable set or any cpu-cgroup parameter
changes.  This is the classic fluid/GPS approximation of CFS: over any
scheduling period, CFS hands each contending group CPU time proportional
to ``cpu.shares``, capped by its quota (``cfs_quota_us/cfs_period_us``),
its cpuset size, and its own demand (one core per runnable thread).

The model keeps the two properties Algorithm 1 of the paper depends on:

* **work conservation** — capacity is never left idle while some group
  could use more (`pslack` is only positive when every group is capped);
* **share-proportional contention** — groups contending for the same
  CPUs receive time in proportion to their shares.

Oversubscribed groups (more runnable threads than allocated cores) pay a
context-switch efficiency penalty: occupancy stays at the allocation but
useful *progress* is scaled by ``1/(1 + CSW_OVERHEAD*(n/alloc - 1))``
(:data:`repro.policy.default.CSW_OVERHEAD`).
This is what makes over-threading (15 GC threads on a 4-core share)
mechanically slower, reproducing the paper's motivation experiments.

Engine modes
------------

The scheduler runs in one of two modes that share every piece of
allocation and accrual arithmetic and therefore produce byte-identical
traces; they differ only in asymptotic cost:

* ``incremental`` (default) — cpuset-overlap *contention domains* are
  cached and only the domains touched by a dirty cgroup are re-solved;
  segment completions are discovered through a two-level completion
  index (a per-cgroup heap of work-at-completion targets feeding a
  group-level time heap) instead of scanning every runnable thread.
* ``scan`` — the brute-force reference: every invalidation triggers a
  full re-solve and completions are found by scanning all runnable
  threads.  Used by tests and the ``bench_engine.py`` step-count pins
  to prove the incremental bookkeeping exact.

Per-event cost is O(busy groups) for accrual (threads resolve their
work lazily against per-group progress integrals maintained here) and
O(affected domain) for re-solves, instead of O(threads) + O(groups²).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter, is_not, itemgetter
from typing import TYPE_CHECKING

from repro.errors import PolicyError
from repro.kernel.cgroup import Cgroup, CgroupRoot
from repro.kernel.cpu import HostCpus

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import SimThread
    from repro.policy.base import SchedPolicy

__all__ = ["GroupAlloc", "ROW_FIELDS", "waterfill",
           "component_pressures", "cpu_stall", "FairScheduler"]

#: Allocation below this is treated as zero.
EPS = 1e-9

#: Any completion-heap entry within this window of the heap head is
#: re-evaluated exactly, so the heap orders candidates while fresh
#: arithmetic decides, keeping both modes byte-identical.  Entries drift
#: from freshly-computed completion times by float rounding: a few ulp
#: of the estimate, which stays below this window only for estimates up
#: to ~4e6 s (one ulp there is ~4.7e-10 s).  Beyond that a drifted entry
#: could fall outside the window, and a reported completion time could
#: be off by that drift.  That is harmless because no run reaches such
#: times: the estimates that large are spinners (``assign_work(1e9)``,
#: 1e9-2e11 s out), which never complete within a run's horizon.
_CAND_WINDOW = 1e-9

#: Budget of the domain-solve memo, in member rows summed over every
#: entry; the table is cleared wholesale when an insert would pass it.
#: It is also how many rows one domain may insert without a hit before
#: it stops being keyed.  Sized from perfbench: a ``serve_fleet`` case
#: holds 1.8k-4.3k rows and its longest miss streak is 39 solves (565
#: rows), so every hit survives, while ``wide_domain``'s one ~500-member
#: domain, which misses every step, stops being keyed after ~33 solves;
#: its peak RSS fell from ~85 MiB (an 8192-entry cap) to ~37 MiB.
_SOLVE_CACHE_ROWS = 16384

#: The row a sched policy's ``solve`` returns for each member, in member
#: order; publication copies it into the member's pooled GroupAlloc.
ROW_FIELDS = ("cgroup", "n_threads", "weight", "cap", "rate", "efficiency",
              "demand", "pressure", "quota", "soft_capped")


@dataclass(slots=True)
class GroupAlloc:
    """One cgroup's slice of the current allocation snapshot.

    The published form of a solve row (:data:`ROW_FIELDS`): one pooled
    object per busy cgroup, rewritten in place at each publication.
    Slotted, so it carries only the fields below.  The swap slowdown is
    no field: publication (:meth:`FairScheduler._publish_rows`) reads the
    cgroup's ``progress_multiplier`` when it writes the thread rate, and
    a group whose slowdown alone moved is republished from ``_row``.
    """

    cgroup: Cgroup
    n_threads: int
    weight: float
    cap: float          # min(quota, |cpuset|, n_threads)
    rate: float = 0.0   # cores allocated
    efficiency: float = 1.0
    demand: float = 0.0   # min(n_threads, |cpuset|), cached for accrual
    pressure: float = 0.0  # contention-domain pressure, memoized
    quota: float = float("inf")  # quota_cores, cached for accrual
    #: Policy flag: the quota re-asserted itself under domain pressure
    #: (burstable policy); throttle time accrues only while set.
    soft_capped: bool = False
    #: The solve row last published into this (pooled) object; lets
    #: re-publication skip groups whose solve output did not change,
    #: and is what a rates-only republish publishes again.
    _row: tuple | None = field(default=None, repr=False, compare=False)
    #: ``policy.throttle_clip`` evaluated at publication: the per-second
    #: throttled_time accrual rate the mechanism applies each step
    #: without calling back into the policy.
    _clip: float = field(default=0.0, repr=False, compare=False)

    @property
    def per_thread_progress(self) -> float:
        """Useful progress rate of each thread in the group (cores)."""
        if self.n_threads == 0:
            return 0.0
        return (self.rate / self.n_threads) * self.efficiency

    @property
    def per_thread_occupancy(self) -> float:
        """CPU occupancy charged to each thread (cores)."""
        if self.n_threads == 0:
            return 0.0
        return self.rate / self.n_threads


def cpu_stall(g: GroupAlloc) -> tuple[float, float]:
    """A published row's PSI cpu fractions ``(some, full)``.

    ``some`` is the unmet share of runnable demand and ``full`` is 1 when
    the group is runnable but making no progress, both clamped the way
    :meth:`~repro.obs.pressure.PressureStall.advance` clamps them.  A
    function of row fields only, so publication evaluates it once for
    every accrual step until the next.
    """
    demand = g.demand
    rate = g.rate
    unmet = demand - rate
    some = unmet / demand if unmet > 0.0 and demand > 0 else 0.0
    full = 1.0 if (g.n_threads > 0 and rate <= EPS) else 0.0
    # Branchy clamps: same values as min(1, max(0, x)), fewer calls.
    if not some > 0.0:
        some = 0.0
    if some > 1.0:
        some = 1.0
    if not full > 0.0:
        full = 0.0
    if full > some:
        full = some
    return some, full


class _ElapsedClock:
    """The clock of a scheduler run outside a world: its accrued time."""

    __slots__ = ("_sched",)

    def __init__(self, sched: "FairScheduler"):
        self._sched = sched

    @property
    def now(self) -> float:
        return self._sched._time


@dataclass
class _Component:
    """A cached contention domain: a connected component of cpuset overlap.

    ``mask_count`` tracks how many members carry each distinct cpuset
    mask: a member whose mask is still held by another member can leave
    (and a member whose exact mask is already present can enter) without
    changing the component's connectivity or CPU set, so partial
    re-solves can update membership in place instead of re-running
    union-find.
    """

    members: list[Cgroup] = field(default_factory=list)  # seq-sorted
    cpus: set[int] = field(default_factory=set)
    capacity: float = 0.0
    mask_count: dict = field(default_factory=dict)
    #: Memo rows this domain inserted since its last hit; once it
    #: reaches ``_SOLVE_CACHE_ROWS`` the domain is no longer keyed.
    memo_miss_rows: int = 0


def waterfill(weights: list[float], caps: list[float], capacity: float) -> list[float]:
    """Weighted max-min allocation of ``capacity`` under per-entry caps.

    Repeatedly hands each still-active entry its weighted fair share of
    the remaining capacity; entries whose fair share meets their cap are
    frozen at the cap and removed.  Terminates in at most ``len(weights)``
    rounds.  The result is work-conserving: total allocated equals
    ``min(capacity, sum(caps))`` (up to float tolerance).
    """
    n = len(weights)
    if n != len(caps):
        raise ValueError("weights and caps must have equal length")
    alloc = [0.0] * n
    active = [i for i in range(n) if caps[i] > EPS and weights[i] > 0.0]
    remaining = float(capacity)
    while active and remaining > EPS:
        total_w = sum(weights[i] for i in active)
        # Entries whose weighted fair share would exceed their cap are
        # frozen at the cap; if none, the fair split is final.
        frozen = [i for i in active
                  if caps[i] <= remaining * weights[i] / total_w + EPS]
        if not frozen:
            for i in active:
                alloc[i] = remaining * weights[i] / total_w
            return alloc
        for i in frozen:
            alloc[i] = caps[i]
            remaining -= caps[i]
        remaining = max(0.0, remaining)
        frozen_set = set(frozen)
        active = [i for i in active if i not in frozen_set]
    return alloc


def component_pressures(masks: list[tuple[int, ...]], n_threads: list[int],
                        rates: list[float]) -> list[float]:
    """Runnable-thread pressure of each group's contention domain.

    Row *i* is a group with cpuset mask ``masks[i]`` (a sorted CPU-id
    tuple), ``n_threads[i]`` runnable threads and allocation
    ``rates[i]``.  The contention domain of group *i* is the union of
    the cpusets of all groups whose cpusets intersect its own; pressure
    is the runnable threads in the domain divided by the domain's CPU
    count.  *Other* groups contribute all their runnable threads (their
    time-slicing pollutes caches and preempts this group's lock
    holders); the group's *own* threads count only up to its own
    allocation — time-slicing among your own threads is the
    ``CSW_OVERHEAD`` term, not cross-container interference.  A group
    with a dedicated cpuset therefore never pays interference,
    however many threads it runs (JDK 9's isolation in Fig. 7).

    Batched by distinct mask: fleets share a handful of cpuset masks,
    so the pairwise work is O(distinct masks²), not O(groups²).  Mask
    tuples are not hash-cached and neighbours usually share one mask
    object, so a mask is looked up only when the object changes.

    Module-level (not scheduler state) so sched policies can share it.
    """
    distinct: dict[tuple[int, ...], list] = {}  # key -> [cpu set, n total]
    last = info = None
    for key, n in zip(masks, n_threads):
        if key is not last:
            last = key
            info = distinct.get(key)
            if info is None:
                info = distinct[key] = [set(key), 0]
        info[1] += n
    stats: dict[tuple[int, ...], tuple[int, int]] = {}
    items = list(distinct.items())
    for key, (cpus, _n) in items:
        total = 0                   # exact: integer thread counts
        domain: set[int] = set(cpus)
        for key2, (cpus2, n2) in items:
            if cpus & cpus2:
                total += n2
                domain |= cpus2
        stats[key] = (total, len(domain))
    pressures: list[float] = []
    last = None
    for key, n, rate in zip(masks, n_threads, rates):
        if key is not last:
            last = key
            total, domain_size = stats[key]
        threads = (min(float(n), rate) + float(total - n))
        pressures.append(threads / domain_size if domain_size else 0.0)
    return pressures


class FairScheduler:
    """Scheduler mechanism: snapshots, accrual, and slack accounting.

    Allocation *decisions* are delegated to a pluggable
    :class:`~repro.policy.base.SchedPolicy` (see :mod:`repro.policy`);
    this class keeps the policy-agnostic machinery — dirty sets, cached
    contention domains, the completion index, and every conservation
    ledger — so policies can be hot-swapped mid-run without touching
    audited state.
    """

    def __init__(self, host: HostCpus, cgroups: CgroupRoot, *,
                 incremental: bool = True,
                 policy: "SchedPolicy | str | None" = None):
        self.host = host
        self.cgroups = cgroups
        from repro.policy import make_sched_policy
        self.policy = make_sched_policy(
            "default" if policy is None else policy)
        self._incremental = incremental
        self._snapshot: list[GroupAlloc] = []
        #: One GroupAlloc per busy group: publication writes the solved
        #: fields into a stable object per group instead of allocating
        #: fresh ones, so the seq-sorted snapshot only needs rebuilding
        #: when the busy *membership* changes.
        self._galloc: dict[Cgroup, GroupAlloc] = {}
        self._members_changed = True
        self._n_run_total = 0
        #: ``sum`` of the snapshot's rates, in snapshot order, as of the
        #: last publication (rates change nowhere else).
        self._allocated = 0.0
        #: While a partial re-solve publishes: the dirty set it was
        #: triggered by (None means treat every group as dirty).
        self._publish_dirty: set[Cgroup] | None = None
        #: Domain-solve memo: enabled only for pure (stateless) policies
        #: in incremental mode; scan stays the uncached reference.
        self._solve_cache: dict | None = None
        #: Member rows held by ``_solve_cache``, summed over its entries.
        self.memo_rows = 0
        #: Memo activity since construction, for the profiler report:
        #: lookups answered, lookups missed, and solves of domains that
        #: had stopped being keyed.
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_bypassed = 0
        #: PSI activity since construction, for the profiler report:
        #: accumulators restalled (their averages folded) and busy rows
        #: accrued, summed over steps.
        self.psi_folds = 0
        self.psi_row_steps = 0
        self._refresh_solve_cache()
        self._dirty_all = True
        #: Dirty groups -> rates only: True while only the group's
        #: ``progress_multiplier`` moved since the last reallocate.
        self._dirty_groups: dict[Cgroup, bool] = {}
        # Cached contention domains (incremental mode).
        self._comps: dict[int, _Component] = {}
        self._comp_of: dict[Cgroup, int] = {}
        self._cpu_comp: dict[int, int] = {}
        self._comp_ids = itertools.count()
        # Group-level completion heap: (est. completion time, push id,
        # cgroup).  An entry is current iff its push id matches the
        # cgroup's ``_sched_entry_seq``; stale entries drop lazily.
        self._cheap: list[tuple[float, int, Cgroup]] = []
        self._push_ids = itertools.count()
        #: Groups whose head segment is due but progressing at zero rate
        #: (a zero-work segment in an unallocated group): they have no
        #: finite completion time yet must still fire.
        self._due_zero: set[Cgroup] = set()
        self._time = 0.0               # internal timebase (sum of advances)
        self.total_idle_time = 0.0      # integral of unallocated capacity
        self.window_idle = 0.0          # idle capacity since last sys_ns window reset
        if cgroups._clock is None:
            # Outside a world the PSI accumulators fold against the
            # time accrued here; a world binds its own clock instead.
            cgroups.bind_clock(_ElapsedClock(self))
        cgroups.set_dirty_hook(self.mark_dirty)
        cgroups.set_completion_hook(self.note_completion_change)

    @property
    def incremental(self) -> bool:
        return self._incremental

    # -- invalidation ----------------------------------------------------------

    def mark_dirty(self, cgroup: Cgroup | None = None,
                   topology: bool = False, rates_only: bool = False) -> None:
        """Invalidate the allocation.

        ``cgroup`` scopes the invalidation to that group's contention
        domain; ``None`` or ``topology=True`` (a cpuset edit changed the
        domain structure itself) invalidates globally.  ``rates_only``
        says only the group's ``progress_multiplier`` moved: no solve
        input changed, so incremental mode queues the group for a
        thread-rate refresh instead of dirtying its domain.  Scan mode
        re-solves everything regardless.
        """
        if cgroup is None or topology or not self._incremental:
            self._dirty_all = True
        elif rates_only:
            self._dirty_groups.setdefault(cgroup, True)
        else:
            self._dirty_groups[cgroup] = False

    @property
    def dirty(self) -> bool:
        return self._dirty_all or bool(self._dirty_groups)

    # -- solving ---------------------------------------------------------------

    def reallocate(self) -> list[GroupAlloc]:
        """Re-solve the allocation for the current runnable set.

        Incremental mode re-solves only the contention domains reachable
        from dirty cgroups, then republishes each still-busy group queued
        as rates-only from the row it already holds, so the one
        publication path (:meth:`_publish_rows`) rewrites its thread rate
        and memory stall; scan mode (and topology/global invalidation)
        rebuilds everything.  Both paths share :meth:`_solve_component`,
        so partial re-solves are bit-identical to full ones.
        """
        if self._incremental and not self._dirty_all:
            dirty = set()
            rated = []
            for cg, rates_only in self._dirty_groups.items():
                if rates_only:
                    rated.append(cg)
                else:
                    dirty.add(cg)
            self._dirty_groups.clear()
            # Publication may skip heap re-pushes for groups outside this
            # set whose solve output is unchanged (their live entries are
            # still exact; head changes notify separately).
            self._publish_dirty = dirty
            self._solve_partial(dirty)
            galloc = self._galloc
            rated = [cg for cg in rated if cg in galloc]
            if rated:
                # No solve input moved: none of these is dirty, so a
                # group whose thread rate holds keeps its heap entry.
                rated.sort(key=attrgetter("seq"))
                self._publish_dirty = set()
                self._publish_rows(rated, [galloc[cg]._row for cg in rated])
            self._publish_dirty = None
        else:
            self._solve_full()
            self._dirty_groups.clear()
        self._dirty_all = False
        if self._members_changed:
            # Publication pools GroupAlloc objects per cgroup, so the
            # seq-sorted snapshot stays valid while the busy membership
            # is unchanged; only rate/efficiency fields were rewritten.
            self._snapshot = sorted(self._galloc.values(),
                                    key=lambda g: g.cgroup.seq)
            self._members_changed = False
        self._n_run_total = sum(map(attrgetter("n_threads"), self._snapshot))
        self._allocated = sum(map(attrgetter("rate"), self._snapshot))
        self._restall_host()
        return self._snapshot

    def _restall_host(self) -> None:
        """Point the root's PSI pair at the snapshot's host-wide stall.

        The root cgroup carries host-wide pressure, mirroring how
        /proc/pressure reads the root group in Linux: cpu ``some`` is
        the unmet share of total runnable demand, ``full`` is 1 while
        demand gets no CPU at all; memory ``some``/``full`` are the
        worst and the best group's swap slowdown.  Demands are whole
        cores, so their sum is exact in any order, and ``1 - m`` is
        monotone in ``m``, so the slowdown extremes come from the
        multipliers' extremes.
        """
        snapshot = self._snapshot
        allocated = self._allocated
        total_demand = sum(map(attrgetter("demand"), snapshot))
        if total_demand > 0:
            # The clamps of the reference PressureStall.advance.
            some = min(1.0, max(0.0, total_demand - allocated) / total_demand)
            full = min(some, 1.0 if allocated <= EPS else 0.0)
        else:
            some = full = 0.0
        root = self.cgroups.root.pressure
        p = root.cpu
        if some != p.some_rate or full != p.full_rate:
            p.restall(some, full)
            self.psi_folds += 1
        if snapshot:
            mults = list(map(attrgetter("cgroup.progress_multiplier"),
                             snapshot))
            some = min(1.0, max(0.0, 1.0 - min(mults)))
            full = min(some, max(0.0, 1.0 - max(mults)))
        else:
            some = full = 0.0
        p = root.memory
        if some != p.some_rate or full != p.full_rate:
            p.restall(some, full)
            self.psi_folds += 1

    def _solve_full(self) -> None:
        for cg in list(self._galloc):
            if cg.destroyed:
                self._retire(cg)
        busy: list[Cgroup] = []
        for cg in self.cgroups.walk():
            if cg.n_runnable() == 0:
                if cg in self._galloc:
                    self._retire(cg)
                else:
                    cg.cpu_rate = 0.0
                continue
            busy.append(cg)
        self._comps.clear()
        self._comp_of.clear()
        self._cpu_comp.clear()
        self._register_components(busy)

    def _solve_partial(self, dirty: set[Cgroup]) -> None:
        # Fast path: every dirty group either stays put, leaves a
        # component in which another member holds the identical cpuset
        # mask, or enters a component that already contains its exact
        # mask.  None of those can change domain connectivity or any
        # component's CPU set (cpuset *edits* invalidate globally via
        # ``topology=True``), so membership is updated in place and the
        # affected components re-solved — re-running union-find would
        # reproduce them exactly.
        resolve: set[int] = set()
        leavers: list[tuple[Cgroup, _Component, tuple]] = []
        enterers: list[tuple[Cgroup, int, tuple]] = []
        # Mask counts as they would stand after the pending fast ops:
        # two leavers sharing a mask held twice must not both pass.
        delta: dict[tuple[int, tuple], int] = {}
        fast = True
        for cg in dirty:
            gone = cg.destroyed or cg.n_runnable() == 0
            galloc_entry = cg in self._galloc
            if galloc_entry:
                comp_id = self._comp_of[cg]
                if not gone:
                    resolve.add(comp_id)
                    continue
                comp = self._comps[comp_id]
                mask = cg.effective_cpuset().as_tuple()
                key = (comp_id, mask)
                if comp.mask_count.get(mask, 0) + delta.get(key, 0) >= 2:
                    delta[key] = delta.get(key, 0) - 1
                    leavers.append((cg, comp, mask))
                    resolve.add(comp_id)
                else:
                    fast = False
                    break
            elif gone:
                cg.cpu_rate = 0.0
            else:
                mask = cg.effective_cpuset().as_tuple()
                comp_id = self._cpu_comp.get(mask[0]) if mask else None
                if comp_id is not None:
                    key = (comp_id, mask)
                    comp = self._comps[comp_id]
                    if comp.mask_count.get(mask, 0) + delta.get(key, 0) >= 1:
                        delta[key] = delta.get(key, 0) + 1
                        enterers.append((cg, comp_id, mask))
                        resolve.add(comp_id)
                        continue
                fast = False
                break
        if fast:
            for cg, comp, mask in leavers:
                comp.mask_count[mask] -= 1
                comp.members.remove(cg)
                self._retire(cg)
            for cg, comp_id, mask in enterers:
                comp = self._comps[comp_id]
                comp.mask_count[mask] = comp.mask_count.get(mask, 0) + 1
                insort(comp.members, cg, key=lambda c: c.seq)
                self._comp_of[cg] = comp_id
            for comp_id in sorted(resolve):
                self._solve_component(self._comps[comp_id])
            return
        affected: set[int] = set()
        entering: list[Cgroup] = []
        for cg in dirty:
            if cg.destroyed or cg.n_runnable() == 0:
                if cg in self._galloc:
                    affected.add(self._comp_of[cg])
                    self._retire(cg)
                else:
                    cg.cpu_rate = 0.0
                continue
            if cg in self._galloc:
                affected.add(self._comp_of[cg])
            else:
                entering.append(cg)
        # A group entering the busy set merges every existing domain its
        # cpuset touches (found through the cpu -> domain map).
        for cg in entering:
            for cpu in cg.effective_cpuset():
                comp_id = self._cpu_comp.get(cpu)
                if comp_id is not None:
                    affected.add(comp_id)
        if not affected and not entering:
            return
        pool: list[Cgroup] = list(entering)
        for comp_id in affected:
            comp = self._comps.pop(comp_id)
            for cpu in comp.cpus:
                if self._cpu_comp.get(cpu) == comp_id:
                    del self._cpu_comp[cpu]
            for cg in comp.members:
                if self._comp_of.get(cg) == comp_id:
                    del self._comp_of[cg]
                    pool.append(cg)
        self._register_components(pool)

    def _retire(self, cg: Cgroup) -> None:
        """Drop a no-longer-busy group from all engine indexes.

        Its PSI accumulators stop stalling: from here their averages
        decay, folded on the next read or restall.
        """
        if self._galloc.pop(cg, None) is not None:
            self._members_changed = True
        if cg.parent is not None:
            pressure = cg.pressure
            for p in (pressure.cpu, pressure.memory):
                if p.some_rate or p.full_rate:
                    p.restall(0.0, 0.0)
                    self.psi_folds += 1
        self._comp_of.pop(cg, None)
        self._due_zero.discard(cg)
        cg.cpu_rate = 0.0
        cg._thread_rate = 0.0
        cg._occ_rate = 0.0
        cg._sched_entry_seq = -1

    def _register_components(self, pool: list[Cgroup]) -> None:
        """Partition ``pool`` into cpuset-overlap components and solve each.

        Union-find over CPU ids: O(groups + cpus) instead of the pairwise
        O(groups²) mask comparison.
        """
        if not pool:
            return
        pool = sorted(pool, key=lambda c: c.seq)
        masks = [cg.effective_cpuset().as_tuple() for cg in pool]
        # Fleets share a handful of masks (usually just the full host
        # set), so union the *distinct* masks, not one per group.
        by_mask: dict[tuple[int, ...], list[int]] = {}
        for i, mask in enumerate(masks):
            by_mask.setdefault(mask, []).append(i)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for mask in by_mask:
            first = mask[0]
            if first not in parent:
                parent[first] = first
            r = find(first)
            for cpu in mask[1:]:
                if cpu not in parent:
                    parent[cpu] = r
                else:
                    rc = find(cpu)
                    if rc != r:
                        parent[rc] = r
        grouped: dict[int, list[tuple[int, ...]]] = {}
        for mask in by_mask:
            grouped.setdefault(find(mask[0]), []).append(mask)
        for mask_list in grouped.values():
            idxs = sorted(i for mask in mask_list for i in by_mask[mask])
            members = [pool[i] for i in idxs]     # seq-sorted: pool is
            cpus: set[int] = set()
            for mask in mask_list:
                cpus.update(mask)
            comp_id = next(self._comp_ids)
            mask_count = {mask: len(by_mask[mask]) for mask in mask_list}
            comp = _Component(members, cpus, float(len(cpus)), mask_count)
            self._comps[comp_id] = comp
            for cg in members:
                self._comp_of[cg] = comp_id
            for cpu in cpus:
                self._cpu_comp[cpu] = comp_id
            self._solve_component(comp)

    def _solve_component(self, comp: _Component) -> None:
        """Solve one contention domain and publish rates to its groups.

        The arithmetic lives in the policy (:meth:`_policy_solve`);
        publication — copying each row into its group's pooled
        GroupAlloc, pushing rates to the cgroups, refreshing the
        completion index — is mechanism and is
        identical under every policy.  Shared verbatim by full and
        partial re-solves, so identical (seq-ordered) inputs yield
        bit-identical rates regardless of what else was re-solved.
        A solve that is not one :data:`ROW_FIELDS` row per member, in
        member order, raises :class:`PolicyError`; the memo keeps the
        rows exactly as returned.

        The memo is skipped for a domain that has inserted a whole
        ``_SOLVE_CACHE_ROWS`` of rows without a hit: keying it costs a
        row per member and the table would only cycle.
        """
        members = comp.members
        capacity = comp.capacity
        cache = self._solve_cache
        key = rows = None
        if cache is not None:
            if comp.memo_miss_rows >= _SOLVE_CACHE_ROWS:
                self.memo_bypassed += 1
            else:
                key = self._solve_key(members, capacity)
                rows = cache.get(key)
                if rows is None:
                    self.memo_misses += 1
                else:
                    self.memo_hits += 1
                    comp.memo_miss_rows = 0
        if rows is None:
            rows = self._policy_solve(members, capacity)
            try:
                ok = (len(rows) == len(members) and not any(
                    map(is_not, map(itemgetter(0), rows), members)))
            except (TypeError, IndexError):
                ok = False
            if not ok:
                raise PolicyError(
                    f"sched policy {self.policy.name!r} must return one "
                    f"row per member, in member order, each "
                    f"({', '.join(ROW_FIELDS)}) "
                    f"(got {len(rows)} for {len(members)} members)")
            if key is not None:
                self._memo_insert(comp, key, rows)
        self._publish_rows(members, rows)

    def _memo_insert(self, comp: _Component, key, rows: list) -> None:
        """Memoize a missed domain solve within the row budget.

        The rows are kept exactly as the policy returned them, so the
        memo holds a reference to each row's cgroup (destroyed ones
        included) until the table is cleared; ``_SOLVE_CACHE_ROWS``
        bounds those references along with the rows.
        """
        n = len(rows)
        comp.memo_miss_rows += n
        if n > _SOLVE_CACHE_ROWS:
            return
        if self.memo_rows + n > _SOLVE_CACHE_ROWS:
            self._solve_cache.clear()
            self.memo_rows = 0
        self._solve_cache[key] = rows
        self.memo_rows += n

    def _solve_key(self, members: list[Cgroup], capacity: float):
        """Hashable domain-solve inputs, for the pure-policy memo table.

        A pure policy's solve is a function of exactly these values: the
        seq-ordered members' shares, quota, mask, and runnable count, and
        the domain capacity.  ``progress_multiplier`` is deliberately
        absent — it scales published rates, not the solve.
        """
        return (capacity, tuple(
            (cg.cpu.shares, cg.cpu.cfs_quota_us, cg.cpu.cfs_period_us,
             cg.n_runnable(),
             None if cg.cpuset.cpus is None else cg.cpuset.cpus.as_tuple())
            for cg in members))

    def _publish_rows(self, members: list[Cgroup], rows: list) -> None:
        """Publish solved rows to their groups through the GroupAlloc pool.

        Row ``i`` is published to ``members[i]``; its own cgroup field
        is ignored, so a memo hit solved for another domain with the
        same inputs publishes correctly.

        A row that matches the one the group already holds in all but
        the memoized domain pressure (it is the same object on a
        rates-only republish) skips the copy: neither the throttle clip
        nor the cpu stall reads the pressure.  Every row then ends in
        one tail, the only writer of a busy group's thread rate and
        memory stall: those read ``progress_multiplier``, which can move
        under an unchanged row.

        Each non-root group's PSI pair is pointed at the published
        stall: its cpu fractions (:func:`cpu_stall`) and its swap
        slowdown, ``1 - progress_multiplier`` clamped to [0, 1], which
        hits every thread uniformly, so ``some == full``.  An
        accumulator whose fractions change folds its averages up to now
        (:meth:`PressureStall.restall
        <repro.obs.pressure.PressureStall.restall>`); the folds of one
        call share their window decays.
        """
        galloc = self._galloc
        incremental = self._incremental
        dirty = self._publish_dirty
        clip_fn = self.policy.throttle_clip
        reindex: list[Cgroup] = []
        gap_decays: dict[float, tuple[float, ...]] = {}
        folds = 0
        for cg, row in zip(members, rows):
            g = galloc.get(cg)
            if g is None:
                g = GroupAlloc(cg, 0, 0.0, 0.0)
                galloc[cg] = g
                self._members_changed = True
                changed = True
            elif (old := g._row) is row:
                changed = False
            elif (old is not None and old[4] == row[4]
                    and old[1:7] == row[1:7] and old[8:] == row[8:]):
                # Only the memoized domain pressure may have moved (the
                # common uncontended-fleet case, where another group's
                # thread count shifts the shared pressure but nobody's
                # rates).
                if old[7] != row[7]:
                    g.pressure = row[7]
                g._row = row
                changed = False
            else:
                changed = True
            if changed:
                g._row = row
                (_, n, g.weight, g.cap, rate, efficiency,
                 g.demand, g.pressure, g.quota, g.soft_capped) = row
                g.n_threads = n
                g.rate = rate
                g.efficiency = efficiency
                g._clip = clip_fn(g)
                if cg.parent is not None:
                    some, full = cpu_stall(g)
                    p = cg.pressure.cpu
                    if some != p.some_rate or full != p.full_rate:
                        p.restall(some, full, gap_decays)
                        folds += 1
                cg.cpu_rate = rate
                # GroupAlloc.per_thread_occupancy, written out.
                cg._occ_rate = rate / n if n else 0.0
            else:
                n = g.n_threads
            mult = cg.progress_multiplier
            if cg.parent is not None:
                frac = 1.0 - mult
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                p = cg.pressure.memory
                if frac != p.some_rate:
                    p.restall(frac, frac, gap_decays)
                    folds += 1
            tr = (g.rate / n) * g.efficiency * mult if n else 0.0
            if tr != cg._thread_rate:
                cg._thread_rate = tr
                if incremental:
                    reindex.append(cg)
            elif incremental and (changed or dirty is None or cg in dirty
                                  or cg._sched_entry_seq == -1):
                # A clean group with a live heap entry keeps it: the
                # entry was computed from these same rates, and
                # completion-head changes re-push through
                # ``note_completion_change`` regardless.
                reindex.append(cg)
        self.psi_folds += folds
        if reindex:
            self._reindex(reindex)

    def _policy_solve(self, members: list[Cgroup],
                      capacity: float) -> list[tuple]:
        """Policy indirection for one domain solve.

        A separate method (rather than calling ``self.policy.solve``
        inline) so the profiler can wrap it: the wrap survives
        :meth:`set_policy` because the indirection, not the policy
        instance, carries the instrumentation.
        """
        return self.policy.solve(members, capacity)

    def set_policy(self, policy: "SchedPolicy | str") -> dict:
        """Hot-swap the scheduling policy (plugsched-style).

        Policies are stateless, so the new instance simply replaces the
        old one and every domain is marked dirty so the next
        :meth:`reallocate` re-solves the whole host under the new policy.
        Mechanism ledgers are not touched —
        :meth:`repro.world.World.swap_policy` asserts that.

        Returns the handoff record ``{"from", "to"}``.
        """
        from repro.policy import make_sched_policy
        new = make_sched_policy(policy)
        old = self.policy
        self.policy = new
        self._refresh_solve_cache()
        # Drop cached publication rows: an identical row under the new
        # policy can still mean a different throttle clip, so every
        # group must take the full publish path once.
        for g in self._galloc.values():
            g._row = None
        self.mark_dirty()
        return {"from": old.name, "to": new.name}

    def _refresh_solve_cache(self) -> None:
        """(Re)arm the domain-solve memo for the current policy.

        Only pure policies (solve a function of the key built by
        :meth:`_solve_key`) may be memoized, and only in incremental
        mode — scan stays the uncached brute-force reference.
        """
        if self._incremental and getattr(self.policy, "pure", False):
            self._solve_cache = {}
        else:
            self._solve_cache = None
        self.memo_rows = 0

    # -- completion index ------------------------------------------------------

    def note_completion_change(self, cg: Cgroup) -> None:
        """A thread (re)anchored a segment: refresh the group's heap entry.

        Catches completion-head changes that do not dirty the allocation
        (assigning work to an already-runnable thread).
        """
        if self._incremental and cg in self._galloc:
            self._reindex((cg,))

    def _reindex(self, groups) -> None:
        """(Re)index each group's earliest completion in the group-level heap.

        One call per publish, per ``pop_finished`` wave, or per head
        change.  Push ids follow ``groups`` order.  Superseded entries
        stay in the heap (they are skipped by push id) until they
        dominate it; only the set of live entries is ever read.
        """
        now = self._time
        due_zero = self._due_zero
        push_ids = self._push_ids
        heap = self._cheap
        inf = float("inf")
        for cg in groups:
            head, ttc = cg._completion()
            due_zero.discard(cg)
            if ttc == inf:
                cg._sched_entry_seq = -1
                if head is not None and head.segment_finished:
                    due_zero.add(cg)
                continue
            push_id = next(push_ids)
            cg._sched_entry_seq = push_id
            heapq.heappush(heap, (now + ttc, push_id, cg))
        # Compact once superseded entries dominate the heap.
        if len(heap) > 64 and len(heap) > 4 * len(self._galloc):
            live = [e for e in heap if e[1] == e[2]._sched_entry_seq]
            heapq.heapify(live)
            self._cheap = live

    def next_completion(self) -> float:
        """Seconds until the earliest runnable segment completes (inf if none)."""
        if not self._incremental:
            best = float("inf")
            for g in self._snapshot:
                cg = g.cgroup
                for t in cg.runnable_threads:
                    ttc = cg._completion(t)[1]
                    if ttc < best:
                        best = ttc
            return best
        if self.dirty:
            self.reallocate()
        # Every live entry within ``_CAND_WINDOW`` of the earliest live
        # one is a candidate, and fresh arithmetic decides among them.
        # By the heap property the entries up to that limit form a
        # subtree hanging from the root, so a best-first walk over heap
        # indices visits them in estimate order and stops at the first
        # one past the limit, without popping anything.
        heap = self._cheap
        n = len(heap)
        inf = float("inf")
        best = limit = inf
        frontier = [(heap[0][0], 0)] if n else []
        while frontier:
            t_est, i = heapq.heappop(frontier)
            if t_est > limit:
                break
            _, push_id, cg = heap[i]
            if push_id == cg._sched_entry_seq:
                if limit == inf:
                    limit = t_est + _CAND_WINDOW
                ttc = cg._completion()[1]
                if ttc < best:
                    best = ttc
            for c in (2 * i + 1, 2 * i + 2):
                if c < n:
                    heapq.heappush(frontier, (heap[c][0], c))
        return best

    def pop_finished(self) -> "list[SimThread]":
        """Pop every thread whose current segment is due, in canonical order.

        Canonical order — groups by creation ``seq``, threads by tid —
        is identical across engine modes, so completion callbacks fire
        in the same order and traces stay byte-identical.
        """
        if not self._incremental:
            finished: list[SimThread] = []
            for g in self._snapshot:
                cg = g.cgroup
                due = [t for t in cg.runnable_threads if t.segment_finished]
                if due:
                    due.sort(key=lambda t: t.tid)
                    finished.extend(due)
                    cg._pop_due()       # keep the (unused) index trimmed
            return finished
        if self.dirty:
            self.reallocate()
        heap = self._cheap
        limit = self._time + _CAND_WINDOW
        candidates = set(self._due_zero)
        while heap:
            t_est, push_id, cg = heap[0]
            if push_id == cg._sched_entry_seq:
                if t_est > limit:
                    break
                candidates.add(cg)
            heapq.heappop(heap)
        if not candidates:
            return []
        finished = []
        ordered = sorted(candidates, key=lambda c: c.seq)
        for cg in ordered:
            finished.extend(cg._pop_due())
        self._reindex(ordered)
        return finished

    # -- queries ---------------------------------------------------------------

    @property
    def snapshot(self) -> list[GroupAlloc]:
        return self._snapshot

    @property
    def elapsed(self) -> float:
        """Total simulated seconds accrued through :meth:`advance`."""
        return self._time

    def conservation_error(self) -> float:
        """Host CPU-time conservation residual, in core-seconds.

        Every accrued interval splits the host's capacity exactly between
        allocated group time and idle time, so over any run::

            sum(total_cpu_time) + retired_cpu_time + total_idle_time
                == capacity * elapsed

        up to float accumulation.  The invariant checker asserts the
        residual stays within tolerance; nonzero drift means an accrual
        path skipped a group (or double-charged one).
        """
        used = sum(cg.total_cpu_time for cg in self.cgroups.walk())
        used += self.cgroups.retired_cpu_time
        return (used + self.total_idle_time
                - self.host.capacity * self._time)

    def total_allocated(self) -> float:
        return self._allocated

    def idle_capacity(self) -> float:
        """Instantaneous unallocated host capacity in cores."""
        return max(0.0, self.host.capacity - self.total_allocated())

    def n_runnable_total(self) -> int:
        # Maintained at reallocate time: n_threads fields only change
        # during publication, so the cached sum equals a fresh sum over
        # the snapshot at every point in between.
        return self._n_run_total

    # -- accrual (called by the world between events) -----------------------------

    def advance(self, dt: float) -> None:
        """Accrue ``dt`` seconds of CPU usage at the current snapshot.

        O(busy groups) in one flat loop: per-group progress/occupancy
        integrals advance here; threads resolve their own accounting
        against them lazily.  No hierarchy walk happens per event.

        PSI stall totals are exact integrals and accrue here, each
        accumulator at the fractions it was restalled to at the last
        publication (:meth:`_publish_rows`, :meth:`_restall_host`).  The
        windowed averages take no work per step: they are folded only
        when a group's fractions change, or on read.
        """
        if dt <= 0.0:
            return
        self._time += dt
        idle = max(0.0, self.host.capacity - self._allocated)
        self.total_idle_time += idle * dt
        self.window_idle += idle * dt
        snapshot = self._snapshot
        self.psi_row_steps += len(snapshot)
        for g in snapshot:
            cg = g.cgroup
            used = g.rate * dt
            cg.total_cpu_time += used
            cg.window_usage += used
            # Throttle accounting is a policy decision (the default
            # policy clips demand at the quota; burstable only accrues
            # while a soft cap is asserted), evaluated at publication.
            clip = g._clip
            if clip > 0.0:
                cg.throttled_time += clip * dt
                cg.throttled_wall += dt
            cg.progress_acc += cg._thread_rate * dt
            cg.occupancy_acc += cg._occ_rate * dt
            if cg.parent is None:
                continue
            pressure = cg.pressure
            p = pressure.cpu
            some = p.some_rate
            if some:
                p.some_total += some * dt
                p.full_total += p.full_rate * dt
            p = pressure.memory
            some = p.some_rate
            if some:
                p.some_total += some * dt
                p.full_total += p.full_rate * dt
        root = self.cgroups.root.pressure
        for p in (root.cpu, root.memory):
            some = p.some_rate
            if some:
                p.some_total += some * dt
                p.full_total += p.full_rate * dt

    def contention_pressure(self, cgroup: Cgroup) -> float:
        """The current contention-domain pressure around ``cgroup``.

        Used by runtimes whose synchronizing phases (stop-the-world GC)
        are more interference-sensitive than independent threads.  A
        busy group reads the value computed at solve time.  An offline
        group (e.g. mutators parked at a safepoint) gets the pressure its
        threads would face on its cpuset: its row of
        :func:`component_pressures` when it joins the busy groups with
        no runnable thread of its own.
        """
        if self.dirty:
            self.reallocate()
        g = self._galloc.get(cgroup)
        if g is not None:
            return g.pressure
        groups = [g.cgroup for g in self._snapshot] + [cgroup]
        masks = [cg.effective_cpuset().as_tuple() for cg in groups]
        n_threads = [g.n_threads for g in self._snapshot] + [0]
        return component_pressures(masks, n_threads,
                                   [0.0] * len(groups))[-1]

    def fair_share_estimate(self, cgroup: Cgroup) -> float:
        """Steady-state cores this cgroup can count on while contended.

        ``min(quota, |cpuset|, weight share of the host)`` over the groups
        that currently have runnable threads.  Used by runtimes to reason
        about oversubscription independent of instantaneous blocking.
        """
        if self.dirty:
            self.reallocate()
        active_weight = sum(g.weight for g in self._snapshot
                            if g.cgroup is not cgroup)
        w = float(cgroup.cpu.shares)
        share = self.host.capacity * w / (active_weight + w)
        return max(1e-9, min(cgroup.quota_cores,
                             float(len(cgroup.effective_cpuset())), share))

    # -- sys_namespace window helpers ----------------------------------------------

    def reset_window(self, cgroup: Cgroup) -> float:
        """Return and clear a cgroup's CPU usage for the closing window."""
        used = cgroup.window_usage
        cgroup.window_usage = 0.0
        return used

    def take_window_idle(self) -> float:
        """Return and clear the host idle-capacity integral for the window."""
        idle = self.window_idle
        self.window_idle = 0.0
        return idle
