"""The incremental engine's determinism and exactness contracts.

Three layers of evidence that the O(changed) engine is *identical* to
the brute-force reference, not merely close:

* **Golden trace** — a committed JSONL fixture that both engine modes
  must reproduce byte-for-byte, run after run, pinned through the root
  ``conftest.py``'s ``pin`` fixture (re-pin procedure in its
  docstring); a mismatch names the first line and value that moved.
* **Property tests** — the two-level completion index against a
  brute-force scan over every runnable thread, on randomized fleets.
* **Paired stepping** — two worlds (one per engine) driven through the
  same randomized perturbation script must agree on every float they
  expose at every step.

Equal-rate pileups, where whole cohorts finish on one tick, get their
own property test: both modes must emit the canonical in-batch order.
A wide-domain lockstep test drives up to 96 groups sharing one cpuset,
so single publishes re-index about as many groups as the completion
heap holds.  A swapping lockstep test moves memory slowdowns under
burst/think groups, the rate-only refresh that re-solves no domain.
``World.step(until)`` and the read-only completion walk have their own
property tests.
"""

from __future__ import annotations

import heapq
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.container.spec import ContainerSpec
from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.sched import fair
from repro.kernel.sched.fair import FairScheduler
from repro.kernel.task import SimThread
from repro.units import gib, mib
from repro.world import World
from tests.engine_scenarios import GOLDEN_PATH, run_scenario


class TestGoldenTrace:
    def test_incremental_matches_committed_fixture(self, pin):
        pin.jsonl(GOLDEN_PATH, run_scenario("incremental"))

    def test_scan_matches_committed_fixture(self, pin):
        pin.jsonl(GOLDEN_PATH, run_scenario("scan"))

    def test_repeat_runs_byte_identical(self):
        assert run_scenario("incremental") == run_scenario("incremental")

    def test_deterministic_run_never_imports_numpy(self):
        # numpy is imported lazily, on the first random draw: a run that
        # draws none must not pay its resident memory.  A fresh
        # interpreter, because this test process has numpy loaded.
        paths = [str(Path(repro.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parents[1])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        code = ("import sys\n"
                "from tests.engine_scenarios import run_scenario\n"
                "run_scenario('incremental')\n"
                "print('numpy' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            World(ncpus=2, engine="psychic")
        with pytest.raises(SimulationError):
            World(ncpus=2, engine="vector")

    def test_modes_expose_engine_attr(self):
        assert World(ncpus=2).engine == "incremental"
        assert World(ncpus=2, engine="scan").engine == "scan"
        assert World(ncpus=2, engine="scan").sched.incremental is False


def _random_fleet(rng: random.Random, ncpus: int = 8):
    """A scheduler over a random hierarchy with random runnable threads."""
    host = HostCpus(ncpus)
    root = CgroupRoot(host)
    sched = FairScheduler(host, root)
    groups = []
    threads = []
    for i in range(rng.randrange(1, 7)):
        cg = root.root.create_child(f"g{i}")
        if rng.random() < 0.4:
            lo = rng.randrange(0, ncpus - 1)
            hi = rng.randrange(lo, ncpus - 1)
            cg.set_cpuset(f"{lo}-{hi + 1}")
        if rng.random() < 0.3:
            cg.set_cpu_quota(rng.randrange(50_000, 400_000))
        if rng.random() < 0.3:
            cg.set_cpu_shares(rng.choice((256, 512, 2048)))
        groups.append(cg)
        for j in range(rng.randrange(0, 4)):
            t = SimThread(f"t{i}.{j}", cg)
            t.assign_work(rng.uniform(0.01, 2.0))
            threads.append(t)
    return sched, groups, threads


def _brute_force_next_completion(sched) -> float:
    best = float("inf")
    for g in sched.snapshot:
        for t in g.cgroup.runnable_threads:
            best = min(best, t.cgroup._completion(t)[1])
    return best


class TestCompletionIndexProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_index_matches_brute_force_scan(self, seed):
        rng = random.Random(seed)
        sched, groups, threads = _random_fleet(rng)
        sched.reallocate()
        for _ in range(60):
            # Random perturbation: advance, assign, block, wake.
            op = rng.random()
            if op < 0.45 and threads:
                t = rng.choice(threads)
                t.assign_work(rng.uniform(0.0, 1.5))
            elif op < 0.6 and threads:
                t = rng.choice(threads)
                if t.runnable:
                    t.block()
                else:
                    t.wake()
            elif op < 0.75:
                ttc = sched.next_completion()
                dt = rng.uniform(0.001, 0.3)
                if ttc != float("inf"):
                    dt = min(dt, ttc)
                sched.advance(dt)
            if sched.dirty:
                sched.reallocate()
            assert sched.next_completion() == _brute_force_next_completion(sched)

    @pytest.mark.parametrize("seed", range(6))
    def test_pop_finished_matches_scan_of_due_threads(self, seed):
        rng = random.Random(1000 + seed)
        sched, groups, threads = _random_fleet(rng)
        sched.reallocate()
        for _ in range(40):
            ttc = sched.next_completion()
            if ttc == float("inf"):
                for t in threads:
                    if not t.runnable:
                        t.wake()
                        t.assign_work(rng.uniform(0.01, 0.5))
                        break
                else:
                    break
                sched.reallocate()
                continue
            sched.advance(ttc)
            expected = sorted(
                (t for g in sched.snapshot
                 for t in g.cgroup.runnable_threads if t.segment_finished),
                key=lambda t: (t.cgroup.seq, t.tid))
            got = sched.pop_finished()
            assert got == expected
            assert expected, "advancing by next_completion must make a thread due"
            for t in got:
                t._finish_segment()
                t.assign_work(rng.uniform(0.01, 0.8))
            if sched.dirty:
                sched.reallocate()


class TestPairedEngines:
    @pytest.mark.parametrize("seed", range(4))
    def test_worlds_agree_step_by_step(self, seed):
        rng = random.Random(2000 + seed)
        worlds = [World(ncpus=6, engine=e, seed=seed)
                  for e in ("incremental", "scan")]
        containers = []
        for w in worlds:
            cs = [w.containers.create(ContainerSpec(
                f"c{i}", cpuset="0-2" if i == 0 else None,
                memory_limit=mib(64))) for i in range(3)]
            for i, c in enumerate(cs):
                for j in range(i + 1):
                    c.spawn_thread(f"w{j}").assign_work(0.05 * (j + 1))
            containers.append(cs)
        script = [(rng.uniform(0.01, 0.2), rng.randrange(3), rng.random())
                  for _ in range(30)]
        for dt, idx, action in script:
            for w, cs in zip(worlds, containers):
                w.run(until=w.now + dt)
                t = cs[idx].spawn_thread("x") if action < 0.2 else None
                if t is not None:
                    t.assign_work(0.03)
                elif action < 0.4:
                    cs[idx].cgroup.set_cpu_shares(
                        256 + int(action * 1000))
            a, b = worlds
            assert a.now == b.now
            assert a.sched.total_allocated() == b.sched.total_allocated()
            assert a.loadavg.load_1 == b.loadavg.load_1
            for ca, cb in zip(*containers):
                assert ca.cgroup.cpu_rate == cb.cgroup.cpu_rate
                assert ca.cgroup.total_cpu_time == cb.cgroup.total_cpu_time
                assert ca.cgroup.progress_acc == cb.cgroup.progress_acc
                assert (ca.cgroup.pressure.cpu.some_total
                        == cb.cgroup.pressure.cpu.some_total)


class TestTieBreakProperty:
    """Equal-weight/equal-cap pileups: the degenerate case where every
    group gets the same rate and whole cohorts finish on the same tick.
    Both engine modes must emit the identical (cgroup seq, tid)
    completion order — the canonical order the telemetry contract
    depends on."""

    @settings(max_examples=40, deadline=None)
    @given(n_groups=st.integers(min_value=1, max_value=5),
           n_threads=st.integers(min_value=1, max_value=4),
           ncpus=st.integers(min_value=1, max_value=8),
           quantum=st.integers(min_value=1, max_value=50))
    def test_pileup_completion_order_identical(self, n_groups, n_threads,
                                               ncpus, quantum):
        work = quantum * 0.01
        orders = []
        for incremental in (True, False):
            host = HostCpus(ncpus)
            root = CgroupRoot(host)
            sched = FairScheduler(host, root, incremental=incremental)
            for i in range(n_groups):
                cg = root.root.create_child(f"g{i}")
                for j in range(n_threads):
                    SimThread(f"t{j}", cg).assign_work(work)
            sched.reallocate()
            order = []
            while True:
                ttc = sched.next_completion()
                if ttc == float("inf"):
                    break
                sched.advance(ttc)
                done = sched.pop_finished()
                assert done, "advance(next_completion) must finish a thread"
                # The canonical in-batch order is (cgroup seq, tid).
                keys = [(t.cgroup.seq, t.tid) for t in done]
                assert keys == sorted(keys)
                # tids/seqs are process-global counters, so compare the
                # two fleets by stable names instead.
                order.append([(t.cgroup.name, t.name) for t in done])
                for t in done:
                    # As World.run does for a segment with no
                    # continuation: park the thread so it cannot spin.
                    t._finish_segment()
                    t.block()
                if sched.dirty:
                    sched.reallocate()
            orders.append(order)
        assert orders[0] == orders[1]


class _CompactionCounting(FairScheduler):
    """Counts completion-heap compactions.

    A compaction must leave only live entries in the heap: that is what
    bounds the heap by the busy groups rather than by history.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compacted = 0

    def _reindex(self, groups):
        heap = self._cheap
        super()._reindex(groups)
        if self._cheap is not heap:
            self.compacted += 1
            stale = [e for e in self._cheap
                     if e[1] != e[2]._sched_entry_seq]
            assert not stale, f"{len(stale)} superseded entries survived"


def _lockstep_wide_domain(n_groups: int, ncpus: int, seed: int,
                          steps: int = 150) -> list[_CompactionCounting]:
    """Burst/think loops on single-thread groups sharing the whole host,
    stepped in lockstep on both engines; returns the two schedulers.

    A finished burst either thinks (blocks, then wakes with a new burst:
    the domain re-solves, so one publish moves every member's rate) or
    chains straight into the next burst (no re-solve: only that group is
    re-indexed).  Every step asserts both engines report the same
    ``next_completion()`` and pop the same threads in the same order.
    """
    rng = random.Random(seed)
    shares = [rng.choice((256, 512, 1024, 2048)) for _ in range(n_groups)]
    sides = []
    for incremental in (True, False):
        host = HostCpus(ncpus)
        root = CgroupRoot(host)
        sched = _CompactionCounting(host, root, incremental=incremental)
        threads = []
        for i, w in enumerate(shares):
            cg = root.root.create_child(f"g{i}")
            cg.set_cpu_shares(w)
            threads.append(SimThread(f"t{i}", cg))
        sides.append((sched, threads))
    wake_at: dict[int, float] = {i: 0.0 for i in range(n_groups)}
    now = 0.0
    for _ in range(steps):
        woken = sorted(i for i, t in wake_at.items() if t - now <= 1e-12)
        for i in woken:
            del wake_at[i]
            work = rng.expovariate(1.0 / 0.05)
            for _sched, threads in sides:
                threads[i].assign_work(work)
        for sched, _threads in sides:
            if sched.dirty:
                sched.reallocate()
        ttc = [sched.next_completion() for sched, _threads in sides]
        assert ttc[0] == ttc[1]
        dt = min(ttc[0], min(wake_at.values(), default=float("inf")) - now)
        if dt == float("inf"):
            break
        for sched, _threads in sides:
            sched.advance(dt)
        now += dt
        done = [sched.pop_finished() for sched, _threads in sides]
        assert ([t.name for t in done[0]] == [t.name for t in done[1]])
        for t in done[0]:
            i = int(t.name[1:])
            think = rng.random() < 0.6
            draw = rng.expovariate(1.0 / (0.5 if think else 0.05))
            for _sched, threads in sides:
                threads[i]._finish_segment()
                if think:
                    threads[i].block()
                else:
                    threads[i].assign_work(draw)
            if think:
                wake_at[i] = now + draw
    return [sched for sched, _threads in sides]


class TestWideDomainLockstep:
    """Up to 96 groups in one domain: a publish re-indexes about as many
    groups as the completion heap holds, a pop or chained burst only
    one, and the heap is compacted along the way, all against the scan
    reference."""

    @settings(max_examples=20, deadline=None)
    @given(n_groups=st.integers(min_value=2, max_value=96),
           ncpus=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**16))
    @example(n_groups=96, ncpus=8, seed=0)
    def test_pop_order_and_next_completion_identical(self, n_groups, ncpus,
                                                     seed):
        _lockstep_wide_domain(n_groups, ncpus, seed)

    def test_reaches_compaction(self):
        incremental, scan = _lockstep_wide_domain(96, 8, 0)
        assert incremental.compacted > 0
        assert scan.compacted == 0


def _memory_op(w, groups, op: tuple) -> None:
    """Apply one drawn memory edit to ``w``: a charge, an uncharge, a
    hot-set hint with its ``refresh_pressure``, or a swap-in pass."""
    kind, i, frac = op
    cg = groups[i % len(groups)]
    mem = cg.memory
    if kind == "charge":
        # Bounded well inside swap, so no charge is OOM-killed.
        nbytes = int(mib(48) * frac) + 1
        if w.mm.swap.free > nbytes + mib(64):
            w.mm.charge(cg, nbytes)
    elif kind == "uncharge":
        w.mm.uncharge(cg, int(mem.usage_in_bytes * frac))
    elif kind == "hot":
        mem.hot_bytes = (None if frac < 0.2
                         else int(mem.usage_in_bytes * frac))
        w.mm.refresh_pressure(cg)
    else:
        w.mm.rebalance()


def _lockstep_swapping(n_groups: int, ncpus: int, seed: int,
                       steps: int = 120) -> list[World]:
    """Burst/think groups in a small-memory world whose charges, uncharges
    and hot-set hints move swap slowdowns between steps, stepped in
    lockstep on both engines; returns the two worlds.

    A slowdown that moves while nothing else does re-solves no domain in
    incremental mode (the rate-only refresh) and the whole host in scan
    mode.  Every step asserts both engines report the same
    ``next_completion()`` and pop the same threads in the same order.
    """
    rng = random.Random(seed)
    limits = [rng.choice((None, mib(32), mib(96))) for _ in range(n_groups)]
    sides = []
    for engine in ("incremental", "scan"):
        # 640 MiB less the 512 MiB kernel reserve: reclaim runs early.
        w = World(ncpus=ncpus, memory=mib(640), engine=engine, seed=seed)
        groups, threads = [], []
        for i, limit in enumerate(limits):
            cg = w.cgroups.root.create_child(f"g{i}")
            cg.set_memory_limit(limit)
            cg.set_memory_soft_limit(mib(16))
            groups.append(cg)
            threads.append(SimThread(f"t{i}", cg))
        sides.append((w, groups, threads))
    wake_at: dict[int, float] = {i: 0.0 for i in range(n_groups)}
    now = 0.0
    for _ in range(steps):
        for _op in range(rng.choice((0, 1, 1, 3))):
            op = (rng.choice(("charge", "charge", "uncharge", "hot",
                              "rebalance")),
                  rng.randrange(n_groups), rng.random())
            for w, groups, _threads in sides:
                _memory_op(w, groups, op)
        woken = sorted(i for i, t in wake_at.items() if t - now <= 1e-12)
        for i in woken:
            del wake_at[i]
            work = rng.expovariate(1.0 / 0.05)
            for _w, _groups, threads in sides:
                threads[i].assign_work(work)
        for w, _groups, _threads in sides:
            if w.sched.dirty:
                w.sched.reallocate()
        ttc = [w.sched.next_completion() for w, _g, _t in sides]
        assert ttc[0] == ttc[1]
        dt = min(ttc[0], min(wake_at.values(), default=float("inf")) - now)
        if dt == float("inf"):
            break
        now += dt
        for w, _groups, _threads in sides:
            w._accrue_to(now)
        done = [w.sched.pop_finished() for w, _g, _t in sides]
        assert [t.name for t in done[0]] == [t.name for t in done[1]]
        for t in done[0]:
            i = int(t.name[1:])
            think = rng.random() < 0.5
            draw = rng.expovariate(1.0 / (0.2 if think else 0.05))
            for _w, _groups, threads in sides:
                threads[i]._finish_segment()
                if think:
                    threads[i].block()
                else:
                    threads[i].assign_work(draw)
            if think:
                wake_at[i] = now + draw
    return [w for w, _groups, _threads in sides]


class TestSwappingLockstep:
    """Memory slowdowns moving under burst/think groups: the incremental
    engine refreshes thread rates without re-solving, and must agree
    with the scan reference step by step and in the final snapshot."""

    @settings(max_examples=25, deadline=None)
    @given(n_groups=st.integers(min_value=1, max_value=12),
           ncpus=st.integers(min_value=1, max_value=6),
           seed=st.integers(min_value=0, max_value=2**16))
    @example(n_groups=8, ncpus=4, seed=0)
    def test_pop_order_and_snapshot_identical(self, n_groups, ncpus, seed):
        incremental, scan = _lockstep_swapping(n_groups, ncpus, seed)
        assert incremental.invariant_snapshot() == scan.invariant_snapshot()

    def test_slowdowns_really_move(self, monkeypatch):
        """The lockstep is not vacuous: reclaim runs, and rate-only
        refreshes move busy groups' thread rates."""
        moved = []
        publish = FairScheduler._publish_rows

        def counted(self, members, rows):
            # Only the rates-only republish runs with an empty dirty set.
            if self._publish_dirty != set():
                return publish(self, members, rows)
            before = [cg._thread_rate for cg in members]
            publish(self, members, rows)
            moved.extend(cg for cg, tr in zip(members, before)
                         if cg._thread_rate != tr)
        monkeypatch.setattr(FairScheduler, "_publish_rows", counted)
        incremental, _scan = _lockstep_swapping(8, 4, 0)
        assert incremental.mm.kswapd_runs > 0
        assert incremental.mm.direct_reclaims > 0
        assert len(moved) > 10


class TestRateOnlyRefresh:
    """A charge that only moves the memory slowdown re-solves nothing in
    incremental mode, and still re-solves the host in scan mode."""

    @staticmethod
    def _swapping_charge(engine, monkeypatch):
        calls = {"_solve_component": 0, "_solve_key": 0}
        for name in calls:
            real = getattr(FairScheduler, name)

            def counted(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(FairScheduler, name, counted)
        w = World(ncpus=2, memory=gib(1), engine=engine)
        cg = w.cgroups.root.create_child("c")
        cg.set_memory_limit(mib(64))
        other = w.cgroups.root.create_child("d")
        for c in (cg, other):
            SimThread("t", c).assign_work(1e9)
        w.sched.reallocate()
        before = dict(calls)
        w.mm.charge(cg, mib(96))            # 32 MiB past the hard limit
        assert cg.progress_multiplier < 1.0
        assert w.sched.dirty
        w.sched.reallocate()
        assert not w.sched.dirty
        return w, cg, {k: calls[k] - before[k] for k in calls}

    def test_incremental_refreshes_without_solving(self, monkeypatch):
        w, cg, calls = self._swapping_charge("incremental", monkeypatch)
        assert calls == {"_solve_component": 0, "_solve_key": 0}
        g = w.sched._galloc[cg]
        assert (cg._thread_rate == g.per_thread_progress
                * cg.progress_multiplier < g.per_thread_progress)

    def test_scan_still_resolves(self, monkeypatch):
        w, cg, calls = self._swapping_charge("scan", monkeypatch)
        assert calls["_solve_component"] >= 1
        g = w.sched._galloc[cg]
        assert (cg._thread_rate == g.per_thread_progress
                * cg.progress_multiplier < g.per_thread_progress)


class TestRunUntilAccrual:
    def test_trailing_gap_accrues_usage_not_just_clock(self):
        # A busy thread with no events pending: run(until=) must charge
        # the whole interval, not silently jump the clock over the tail.
        world = World(ncpus=2)
        c = world.containers.create(ContainerSpec("c"))
        c.spawn_thread("w").assign_work(1e9)
        world.run(until=5.0)
        assert world.now == 5.0
        assert c.cgroup.total_cpu_time == pytest.approx(5.0)
        # Idle accounting covers the same stretch on the host side.
        assert world.sched.total_idle_time == pytest.approx(5.0)

    def test_loadavg_sees_trailing_gap(self):
        world = World(ncpus=2)
        c = world.containers.create(ContainerSpec("c"))
        for i in range(4):
            c.spawn_thread(f"w{i}").assign_work(1e9)
        world.run(until=60.0)
        # 4 runnable threads sustained for a minute: load_1 approaches 4.
        assert world.loadavg.load_1 > 2.0


class TestStepUntil:
    """``World.step(until)``, the one stepping path: a step whose next
    event or completion lies beyond ``until`` accrues up to ``until``
    and reports that nothing fired."""

    @staticmethod
    def _busy_world(seed: int):
        world = World(ncpus=2, seed=seed)
        c = world.containers.create(ContainerSpec("c"))
        rng = random.Random(seed)
        for i in range(3):
            c.spawn_thread(f"w{i}").assign_work(rng.uniform(0.001, 0.05))
        return world, c

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           fracs=st.lists(st.floats(min_value=0.0, max_value=2.0),
                          min_size=1, max_size=30))
    @example(seed=0, fracs=[0.5, 1.5, 0.0, 0.99, 2.0])
    def test_never_passes_until(self, seed, fracs):
        world, c = self._busy_world(seed)
        for frac in fracs:
            now = world.now
            t_event = world.events.next_event_time()
            nxt = min(now + world.sched.next_completion(),
                      float("inf") if t_event is None else t_event)
            until = now + frac * (nxt - now)
            steps, cpu = world.steps, c.cgroup.total_cpu_time
            busy = c.cgroup.n_runnable() > 0
            fired = world.step(until)
            if nxt > until:
                assert fired is False
                assert world.steps == steps
                assert world.now == until
                assert world.sched.elapsed == pytest.approx(until, abs=1e-9)
                if busy and until > now:
                    assert c.cgroup.total_cpu_time > cpu
            else:
                assert fired is True
                assert world.steps == steps + 1
                # Events within the same-instant window of the step's
                # target fire with it, never further.
                assert world.now <= until + 1e-9

    def test_idle_world_neither_steps_nor_accrues(self):
        world = World(ncpus=2)
        assert world.step(5.0) is False
        assert world.step() is False
        assert world.now == 0.0
        assert world.sched.elapsed == 0.0
        assert world.steps == 0


class TestReadOnlyCompletionWalk:
    """``next_completion()`` walks the completion heap without popping:
    superseded entries inside the candidate window stay where they are,
    and the answer is the fresh minimum over the live in-window entries."""

    @settings(max_examples=60, deadline=None)
    @given(works=st.lists(st.sampled_from((0.5, 1.0, 1.0, 2.0)),
                          min_size=2, max_size=12),
           shares=st.lists(st.sampled_from((512, 1024, 1024)),
                           min_size=12, max_size=12),
           edits=st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                                    st.sampled_from((None, 0.5, 1.0, 3.0))),
                          max_size=16))
    def test_read_only_and_fresh_minimum(self, works, shares, edits):
        host = HostCpus(4)
        root = CgroupRoot(host)
        sched = FairScheduler(host, root)
        threads = []
        for i, work in enumerate(works):
            cg = root.root.create_child(f"g{i}")
            cg.set_cpu_shares(shares[i])
            t = SimThread(f"t{i}", cg)
            t.assign_work(work)
            threads.append(t)
        sched.reallocate()
        for i, work in edits:
            t = threads[i % len(threads)]
            if work is None:
                # Re-index with nothing changed: the old entry goes stale
                # at the very same estimate.
                sched.note_completion_change(t.cgroup)
            else:
                # A new segment supersedes the old entry, earlier or later.
                t.assign_work(work)
            if sched.dirty:
                sched.reallocate()
        heap = sched._cheap
        live = [e for e in heap if e[1] == e[2]._sched_entry_seq]
        head = min(live)
        # Guarantee a stale entry inside the window: supersede the head.
        sched.note_completion_change(head[2])
        heap = sched._cheap
        before = list(heap)
        live = [e for e in heap if e[1] == e[2]._sched_entry_seq]
        limit = min(e[0] for e in live) + fair._CAND_WINDOW
        assert any(e[1] != e[2]._sched_entry_seq and e[0] <= limit
                   for e in heap)
        got = sched.next_completion()
        assert sched._cheap is heap and heap == before
        assert got == min(e[2]._completion()[1] for e in live
                          if e[0] <= limit)
        assert got == _brute_force_next_completion(sched)

    def test_fresh_arithmetic_decides_within_the_window(self):
        """A head whose estimate drifted below another candidate's is
        not taken on trust: every in-window entry is recomputed."""
        host = HostCpus(2)
        root = CgroupRoot(host)
        sched = FairScheduler(host, root)
        groups = []
        for i, work in enumerate((1.0, 1.0 + 1e-10)):
            cg = root.root.create_child(f"g{i}")
            SimThread(f"t{i}", cg).assign_work(work)
            groups.append(cg)
        sched.reallocate()
        early, late = groups
        est = next(e[0] for e in sched._cheap
                   if e[1] == early._sched_entry_seq)
        # Supersede the later group's entry with one drifted a quarter
        # window below the earlier group's estimate.
        late._sched_entry_seq = push_id = 1 << 40
        heapq.heappush(sched._cheap,
                       (est - fair._CAND_WINDOW / 4, push_id, late))
        assert sched._cheap[0][2] is late
        got = sched.next_completion()
        assert got == early._completion()[1] < late._completion()[1]
