"""Pluggable invariant suite over :meth:`World.invariant_snapshot`.

Each invariant inspects the live world plus the current and previous
snapshots and returns a list of violation strings (empty = healthy).
The runner evaluates the suite at every op boundary and at the horizon,
so a violation pinpoints the first op after which the property broke.

These are *laws of the simulation*, not tunables: CPU time is conserved
exactly (allocated + idle + retired == capacity x elapsed), the memory
ledger balances (charged - uncharged == resident + swapped), PSI totals
only grow and full never exceeds some, throttling counters stay within
their periods, the paper's resource views stay inside Algorithm 1/2
bounds, what the accrual step caches per published row still
matches the row, the completion heap indexes every busy group's next
segment completion, and the domain-solve memo stays within its budget.
Any engine that breaks one of these is wrong no matter what the
workload did.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.effective_cpu import compute_cpu_bounds
from repro.kernel.sched import fair
from repro.kernel.sched.fair import EPS, cpu_stall

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World

__all__ = ["Invariant", "default_suite", "check_all"]

#: Relative tolerance for float conservation sums.  Accruals are exact
#: splits per advance, but thousands of additions accumulate ulp noise
#: proportional to the running totals.
_REL_EPS = 1e-9
_ABS_EPS = 1e-6


class Invariant:
    """One checkable property.  Subclasses override :meth:`check`."""

    name = "invariant"

    def check(self, world: "World", snap: dict, prev: dict | None) -> list[str]:
        raise NotImplementedError

    def _v(self, msg: str) -> str:
        return f"{self.name}: {msg}"


class CpuConservation(Invariant):
    """allocated + idle + retired == capacity * elapsed, exactly-ish."""

    name = "cpu_conservation"

    def check(self, world, snap, prev):
        sched = snap["sched"]
        budget = snap["ncpus"] * sched["elapsed"]
        err = sched["conservation_error"]
        tol = _ABS_EPS + _REL_EPS * max(1.0, budget)
        out = []
        if abs(err) > tol:
            out.append(self._v(
                f"cpu time leaked: error={err!r} over budget={budget!r}"))
        if sched["total_idle_time"] < -tol:
            out.append(self._v(
                f"negative idle time {sched['total_idle_time']!r}"))
        return out


class AllocationCaps(Invariant):
    """Instantaneous rates respect quota, cpuset and host capacity.

    The quota/cpuset cap is policy-defined (``SchedPolicy.rate_cap``):
    the default policy binds both, burstable lets rates lawfully exceed
    the quota while the domain has slack.
    """

    name = "allocation_caps"

    def check(self, world, snap, prev):
        out = []
        total = 0.0
        rate_cap = world.sched.policy.rate_cap
        for g in snap["groups"]:
            rate = g["cpu_rate"]
            if rate < -_ABS_EPS:
                out.append(self._v(f"{g['path']}: negative rate {rate!r}"))
            cap = rate_cap(g["quota_cores"], float(g["cpuset_size"]))
            if rate > cap + _ABS_EPS:
                out.append(self._v(
                    f"{g['path']}: rate {rate!r} exceeds cap {cap!r} "
                    f"(quota={g['quota_cores']!r}, cpuset={g['cpuset_size']})"))
            if g["n_runnable"] == 0 and rate > _ABS_EPS:
                out.append(self._v(
                    f"{g['path']}: idle group has rate {rate!r}"))
            total += rate
        if total > snap["ncpus"] + _ABS_EPS:
            out.append(self._v(
                f"sum of rates {total!r} exceeds {snap['ncpus']} cpus"))
        return out


class MemoryLedger(Invariant):
    """Exact integer accounting for every byte ever charged."""

    name = "memory_ledger"

    def check(self, world, snap, prev):
        out = []
        mm = snap["mm"]
        sum_resident = sum_swapped = 0
        for g in snap["groups"]:
            balance = g["charge_total"] - g["uncharge_total"]
            usage = g["resident"] + g["swapped"]
            if balance != usage:
                out.append(self._v(
                    f"{g['path']}: ledger balance {balance} != "
                    f"resident+swapped {usage}"))
            if g["resident"] < 0 or g["swapped"] < 0:
                out.append(self._v(
                    f"{g['path']}: negative bytes resident={g['resident']} "
                    f"swapped={g['swapped']}"))
            if g["resident"] > g["hard_limit"]:
                out.append(self._v(
                    f"{g['path']}: resident {g['resident']} over hard "
                    f"limit {g['hard_limit']}"))
            sum_resident += g["resident"]
            sum_swapped += g["swapped"]
        if sum_resident != mm["total_resident"]:
            out.append(self._v(
                f"sum(resident)={sum_resident} != "
                f"total_resident={mm['total_resident']}"))
        if mm["free"] != mm["available"] - sum_resident:
            out.append(self._v(
                f"free={mm['free']} != available-{sum_resident}"))
        if mm["free"] < 0:
            out.append(self._v(f"negative free memory {mm['free']}"))
        swap_used = mm["swap_capacity"] - mm["swap_free"]
        if sum_swapped != swap_used:
            out.append(self._v(
                f"sum(swapped)={sum_swapped} != swap device used "
                f"{swap_used}"))
        return out


class PsiSanity(Invariant):
    """PSI stall totals are monotone, bounded by wall time, full<=some."""

    name = "psi_sanity"

    def check(self, world, snap, prev):
        out = []
        elapsed = snap["now"]
        prev_groups = ({g["path"]: g for g in prev["groups"]}
                       if prev is not None else {})
        for g in snap["groups"]:
            for res in ("cpu", "mem"):
                some = g[f"psi_{res}_some"]
                full = g[f"psi_{res}_full"]
                if some < 0 or full < 0:
                    out.append(self._v(
                        f"{g['path']}: negative {res} stall totals"))
                if full > some + _ABS_EPS:
                    out.append(self._v(
                        f"{g['path']}: {res} full {full!r} > some {some!r}"))
                if some > elapsed + _ABS_EPS:
                    out.append(self._v(
                        f"{g['path']}: {res} some {some!r} exceeds wall "
                        f"time {elapsed!r}"))
                pg = prev_groups.get(g["path"])
                if pg is not None and some < pg[f"psi_{res}_some"] - 1e-12:
                    out.append(self._v(
                        f"{g['path']}: {res} some total went backwards "
                        f"({pg[f'psi_{res}_some']!r} -> {some!r})"))
        return out


class ThrottleCounters(Invariant):
    """``cpu.stat`` stays consistent: nr_throttled <= nr_periods etc."""

    name = "throttle_counters"

    def check(self, world, snap, prev):
        out = []
        elapsed = snap["now"]
        for g in snap["groups"]:
            if g["throttled_time"] < -_ABS_EPS:
                out.append(self._v(
                    f"{g['path']}: negative throttled_time"))
            if g["throttled_wall"] > elapsed + _ABS_EPS:
                out.append(self._v(
                    f"{g['path']}: throttled_wall {g['throttled_wall']!r} "
                    f"exceeds wall time {elapsed!r}"))
        for cg in world.cgroups.walk():
            if cg.cpu.cfs_quota_us is None:
                continue
            stat = world.cgroupfs.read(
                world.cgroupfs.path_of(cg, "cpu", "cpu.stat"))
            fields = dict(line.split() for line in stat.splitlines())
            if int(fields["nr_throttled"]) > int(fields["nr_periods"]):
                out.append(self._v(
                    f"{cg.path}: nr_throttled {fields['nr_throttled']} > "
                    f"nr_periods {fields['nr_periods']}"))
        return out


class ViewBounds(Invariant):
    """Algorithm 1/2: resource views stay inside their bounds.

    The bounds themselves must be current: each registered namespace's
    bounds equal a from-scratch :func:`compute_cpu_bounds` at the share
    total of all registered namespaces, whichever events ``ns_monitor``
    chose to act on.
    """

    name = "view_bounds"

    def check(self, world, snap, prev):
        out = []
        ncpus = snap["ncpus"]
        namespaces = world.ns_monitor.namespaces
        total = sum(ns.cgroup.cpu.shares for ns in namespaces)
        for ns in namespaces:
            want = compute_cpu_bounds(ns.cgroup, total, ncpus)
            if ns.bounds != want:
                out.append(self._v(
                    f"{ns.cgroup.name}: stale bounds [{ns.bounds.lower}, "
                    f"{ns.bounds.upper}], total shares {total} give "
                    f"[{want.lower}, {want.upper}]"))
        for c in snap["containers"]:
            lo, hi = c["bound_lower"], c["bound_upper"]
            if not (1 <= lo <= hi <= ncpus):
                out.append(self._v(
                    f"{c['name']}: bounds [{lo}, {hi}] outside [1, {ncpus}]"))
            if not (lo <= c["e_cpu"] <= hi):
                out.append(self._v(
                    f"{c['name']}: E_CPU={c['e_cpu']} outside "
                    f"bounds [{lo}, {hi}]"))
            if c["e_mem"] < 0 or c["e_mem"] > c["hard_limit"]:
                out.append(self._v(
                    f"{c['name']}: E_MEM={c['e_mem']} outside "
                    f"[0, hard={c['hard_limit']}]"))
        return out


class AccrualInputs(Invariant):
    """Publication-cached accrual inputs match their row, from scratch.

    The accrual step reads the throttle clip computed once at
    publication, the snapshot's rate total cached at reallocation, and
    the stall fractions each PSI accumulator holds as its rates.  A
    publication path that forgot to refresh one would accrue from a
    stale row without breaking any law above, so each busy group's clip
    is recomputed from its current row here, and so are the PSI rates:
    a busy non-root group's cpu pair is its row's stall, an idle
    group's pairs are zero, and the root's cpu pair is the host-wide
    stall of the snapshot.  While nothing is pending (no re-solve and
    no queued rate-only refresh), the rates publication wrote to each
    busy cgroup (``cpu_rate``, ``_thread_rate``, ``_occ_rate``) are
    also recomputed from its row and ``progress_multiplier``, by the
    per-thread ``GroupAlloc`` properties, independently of what
    publication calls, and so are the memory PSI rates, from the swap
    slowdown.
    """

    name = "accrual_inputs"

    def check(self, world, snap, prev):
        out = []
        sched = world.sched
        clip_fn = sched.policy.throttle_clip
        dirty = sched.dirty

        def rates(path, resource, stall, want):
            held = (stall.some_rate, stall.full_rate)
            if held != want:
                out.append(self._v(
                    f"{path}: {resource} PSI rates {held!r}, want {want!r}"))

        total_demand = 0.0
        mem_some, mem_full = 0.0, (1.0 if sched.snapshot else 0.0)
        for g in sched.snapshot:
            cg = g.cgroup
            if g._clip != clip_fn(g):
                out.append(self._v(
                    f"{cg.path}: cached throttle clip {g._clip!r}, "
                    f"row gives {clip_fn(g)!r}"))
            total_demand += g.demand
            mem = min(1.0, max(0.0, 1.0 - cg.progress_multiplier))
            mem_some, mem_full = max(mem_some, mem), min(mem_full, mem)
            if cg.parent is not None:
                rates(cg.path, "cpu", cg.pressure.cpu, cpu_stall(g))
                if not dirty:
                    rates(cg.path, "memory", cg.pressure.memory, (mem, mem))
            if not dirty:
                published = (cg.cpu_rate, cg._thread_rate, cg._occ_rate)
                want = (g.rate,
                        g.per_thread_progress * cg.progress_multiplier,
                        g.per_thread_occupancy)
                if published != want:
                    out.append(self._v(
                        f"{cg.path}: published rates {published!r}, row "
                        f"gives {want!r}"))
        busy = {g.cgroup for g in sched.snapshot}
        for cg in world.cgroups.walk():
            if cg.parent is not None and cg not in busy:
                rates(cg.path, "cpu", cg.pressure.cpu, (0.0, 0.0))
                rates(cg.path, "memory", cg.pressure.memory, (0.0, 0.0))
        total = sum(g.rate for g in sched.snapshot)
        if sched.total_allocated() != total:
            out.append(self._v(
                f"cached total_allocated {sched.total_allocated()!r}, "
                f"snapshot rates sum to {total!r}"))
        root = world.cgroups.root
        some = (min(1.0, max(0.0, total_demand - total) / total_demand)
                if total_demand > 0 else 0.0)
        full = 1.0 if total_demand > 0 and total <= EPS else 0.0
        rates("/ (host)", "cpu", root.pressure.cpu, (some, min(some, full)))
        if not dirty:
            rates("/ (host)", "memory", root.pressure.memory,
                  (mem_some, min(mem_some, mem_full)))
        return out


class CompletionIndex(Invariant):
    """The completion heap indexes each busy group's next completion.

    Incremental mode finds completions through the group-level heap, so
    a publish that skipped re-indexing a group whose rate moved would
    fire its segment late (or early) without breaking any ledger.  While
    no re-solve is pending, every busy group whose earliest runnable
    segment has a finite time to completion holds exactly one live
    entry, and that entry's estimate is ``elapsed + ttc`` within
    ``max(_CAND_WINDOW, 4 ulp(est))`` (estimates of far-off completions
    drift by a few ulp, which grows past the window beyond ~4e6 s);
    every other busy group holds none, and one whose due segment sits
    at zero rate is in ``_due_zero``.  No live entry or ``_due_zero``
    member is outside the busy set.  Reads both heaps without popping.
    """

    name = "completion_index"

    def check(self, world, snap, prev):
        sched = world.sched
        if not sched.incremental or sched.dirty:
            return []
        out = []
        busy = sched._galloc
        due_zero = sched._due_zero
        live: dict = {}
        for est, push_id, cg in sched._cheap:
            if push_id == cg._sched_entry_seq:
                live.setdefault(cg, []).append(est)
        for cg in live:
            if cg not in busy:
                out.append(self._v(f"{cg.path}: live heap entry, not busy"))
        for cg in due_zero:
            if cg not in busy:
                out.append(self._v(f"{cg.path}: in _due_zero, not busy"))
        elapsed = sched.elapsed
        for g in sched.snapshot:
            cg = g.cgroup
            head = min((e for e in cg._work_heap
                        if e[2].runnable and e[2]._target == e[0]),
                       key=lambda e: (e[0], e[1]), default=None)
            ttc = (cg._completion(head[2])[1] if head is not None
                   else float("inf"))
            ests = live.get(cg, [])
            if ttc == float("inf"):
                if ests:
                    out.append(self._v(
                        f"{cg.path}: {len(ests)} live heap entries, but no "
                        f"segment with a finite completion time"))
                if (head is not None and head[2].segment_finished
                        and cg not in due_zero):
                    out.append(self._v(
                        f"{cg.path}: due segment at zero rate is not in "
                        f"_due_zero"))
                continue
            if len(ests) != 1:
                out.append(self._v(
                    f"{cg.path}: {len(ests)} live heap entries for a "
                    f"segment due in {ttc!r} s"))
                continue
            est = ests[0]
            want = elapsed + ttc
            if abs(est - want) > max(fair._CAND_WINDOW, 4 * math.ulp(est)):
                out.append(self._v(
                    f"{cg.path}: heap estimate {est!r}, fresh "
                    f"elapsed + ttc {want!r}"))
        return out


class SolveMemo(Invariant):
    """The domain-solve memo's running row count is its real size.

    The scheduler tracks the rows held by ``_solve_cache`` beside the
    table so inserts can keep it within ``_SOLVE_CACHE_ROWS``; a path
    that cleared or replaced the table without resetting the count would
    either overrun the budget or clear it on every insert, and neither
    shows in any result.  O(entries) per check.
    """

    name = "solve_memo"

    def check(self, world, snap, prev):
        out = []
        sched = world.sched
        cache = sched._solve_cache
        actual = sum(len(r) for r in cache.values()) if cache else 0
        if sched.memo_rows != actual:
            out.append(self._v(
                f"running row count {sched.memo_rows}, table holds "
                f"{actual} rows"))
        if actual > fair._SOLVE_CACHE_ROWS:
            out.append(self._v(
                f"table holds {actual} rows, budget "
                f"{fair._SOLVE_CACHE_ROWS}"))
        return out


class EventHeapIntegrity(Invariant):
    """Lazy-cancellation bookkeeping matches a direct heap recount."""

    name = "event_heap"

    def check(self, world, snap, prev):
        out = []
        ev = snap["events"]
        if ev["tracked_cancelled"] != ev["cancelled"]:
            out.append(self._v(
                f"cancel counter {ev['tracked_cancelled']} != actual "
                f"cancelled entries {ev['cancelled']}"))
        if ev["flag_errors"]:
            out.append(self._v(
                f"{ev['flag_errors']} heap entries with stale _in_heap flag"))
        if ev["live"] + ev["cancelled"] != ev["heap_size"]:
            out.append(self._v("heap recount does not partition the heap"))
        nxt = world.events.next_event_time()
        if nxt is not None and nxt < snap["now"] - 1e-12:
            out.append(self._v(f"pending event at {nxt!r} is in the past "
                               f"(now={snap['now']!r})"))
        return out


class ClockLoad(Invariant):
    """Time flows forward; load averages stay finite and non-negative."""

    name = "clock_load"

    def check(self, world, snap, prev):
        out = []
        if prev is not None:
            if snap["now"] < prev["now"]:
                out.append(self._v(
                    f"clock went backwards {prev['now']!r} -> {snap['now']!r}"))
            if snap["steps"] < prev["steps"]:
                out.append(self._v("step counter went backwards"))
        for i, load in enumerate(snap["loadavg"]):
            if not (load >= 0.0) or load != load or load == float("inf"):
                out.append(self._v(f"loadavg[{i}] unhealthy: {load!r}"))
        return out


def default_suite() -> list[Invariant]:
    return [
        CpuConservation(),
        AllocationCaps(),
        MemoryLedger(),
        PsiSanity(),
        ThrottleCounters(),
        ViewBounds(),
        AccrualInputs(),
        CompletionIndex(),
        SolveMemo(),
        EventHeapIntegrity(),
        ClockLoad(),
    ]


def check_all(suite: list[Invariant], world: "World", snap: dict,
              prev: dict | None) -> list[str]:
    """Run every invariant; concatenate violations."""
    out: list[str] = []
    for inv in suite:
        out.extend(inv.check(world, snap, prev))
    return out
