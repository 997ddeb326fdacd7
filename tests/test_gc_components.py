"""Tests for GC building blocks: cost model, the fork-join worker team."""

import pytest

from repro.errors import JvmError, SchedulerError
from repro.jvm.gc.parallel_scavenge import (INTERFERENCE_SENSITIVITY,
                                            LHP_OVERSUB_CAP,
                                            LOCK_HOLDER_PREEMPTION,
                                            MAJOR_FIXED, MINOR_FIXED,
                                            dynamic_active_workers,
                                            gc_work_inflation, major_gc_work,
                                            minor_gc_work)
from repro.container.spec import ContainerSpec
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.kernel.task import ThreadState, ThreadTeam
from repro.openmp.policy import OmpPolicy
from repro.openmp.runtime import OpenMpRuntime
from repro.units import gib, mib
from repro.workloads.base import JavaWorkload, OmpRegion, OmpWorkload
from repro.world import World

class TestCostModel:
    def test_minor_work_monotone_in_bytes(self):
        a = minor_gc_work(mib(100), mib(10))
        b = minor_gc_work(mib(200), mib(10))
        c = minor_gc_work(mib(200), mib(40))
        assert MINOR_FIXED < a < b < c

    def test_copy_dominates_scan(self):
        """A surviving byte costs far more than a scanned one."""
        scan_only = minor_gc_work(mib(100), 0) - MINOR_FIXED
        copy_only = minor_gc_work(0, mib(100)) - MINOR_FIXED
        assert copy_only > 10 * scan_only

    def test_major_work(self):
        assert major_gc_work(0) == MAJOR_FIXED
        assert major_gc_work(gib(1)) > major_gc_work(mib(100))

    def test_negative_rejected(self):
        with pytest.raises(JvmError):
            minor_gc_work(-1, 0)
        with pytest.raises(JvmError):
            major_gc_work(-1)


class TestWorkInflation:
    def test_no_inflation_when_fitting(self):
        assert gc_work_inflation(4, 4.0) == 1.0
        assert gc_work_inflation(2, 8.0) == 1.0

    def test_inflation_grows_with_oversubscription(self):
        a = gc_work_inflation(6, 4.0)
        b = gc_work_inflation(9, 4.0)
        assert 1.0 < a < b

    def test_inflation_saturates(self):
        """15 threads and 10 threads on 4 cores are almost equally bad
        (the Fig. 2(a) auto_JVM8 ~ auto_JVM9 effect)."""
        b = gc_work_inflation(10, 4.0)
        c = gc_work_inflation(15, 4.0)
        assert c == pytest.approx(b, rel=0.12)
        assert c == 1.0 + LOCK_HOLDER_PREEMPTION * LHP_OVERSUB_CAP

    def test_interference_term(self):
        calm = gc_work_inflation(4, 4.0, domain_pressure=1.0)
        busy = gc_work_inflation(4, 4.0, domain_pressure=3.0)
        assert calm == 1.0
        assert busy == pytest.approx(1.0 + INTERFERENCE_SENSITIVITY * 2.0)

    def test_validation(self):
        with pytest.raises(JvmError):
            gc_work_inflation(0, 4.0)
        with pytest.raises(JvmError):
            gc_work_inflation(4, 0.0)


class TestDynamicActiveWorkers:
    def test_scales_with_mutators(self):
        few = dynamic_active_workers(16, 2, mib(10))
        many = dynamic_active_workers(16, 12, mib(10))
        assert few < many

    def test_scales_with_heap(self):
        small = dynamic_active_workers(16, 1, mib(50))
        big = dynamic_active_workers(16, 1, gib(2))
        assert small < big

    def test_capped_by_pool(self):
        assert dynamic_active_workers(4, 100, gib(64)) == 4

    def test_at_least_one(self):
        assert dynamic_active_workers(8, 1, 0) >= 1

    def test_bad_pool_rejected(self):
        with pytest.raises(JvmError):
            dynamic_active_workers(0, 1, 0)


class TestWorkerPool:
    """The GC team is a :class:`ThreadTeam`; so are OpenMP regions."""

    def _world(self):
        world = World(ncpus=4, memory=gib(8))
        container = world.containers.create(ContainerSpec("c0"))
        return world, container

    def _team(self, c, n, prefix="gc-worker"):
        team = ThreadTeam(c.spawn_thread, prefix)
        team.grow(n)
        return team

    def _cpu(self, team):
        return [w.cpu_time for w in team.threads]

    def test_collection_completes_and_calls_back(self):
        world, c = self._world()
        pool = self._team(c, 4)
        done = []
        pool.run(0.4, 2, 1e-4, lambda: done.append(world.now))
        world.run(until=10.0)
        assert len(done) == 1
        # 0.4 cpu-sec over 2 workers on idle 4 cores: 0.2s + 2 x 1e-4 sync.
        assert done[0] == pytest.approx(0.2 + 2e-4, rel=1e-9)
        assert not pool.busy

    def test_each_active_worker_charged_share_plus_barrier(self):
        for work, n_active, sync in [(0.4, 2, 1e-4), (1.0, 3, 2e-4),
                                     (0.3, 1, 5e-4), (0.0, 4, 1e-3)]:
            world, c = self._world()
            pool = self._team(c, 4)
            calls = []
            pool.run(work, n_active, sync, lambda: calls.append(world.now))
            world.run(until=10.0)
            assert len(calls) == 1
            expected = work / n_active + sync * n_active
            cpu = self._cpu(pool)
            assert cpu[:n_active] == pytest.approx([expected] * n_active, rel=1e-9)
            assert cpu[n_active:] == [0.0] * (4 - n_active)

    def test_callback_fires_once_per_collection(self):
        world, c = self._world()
        pool = self._team(c, 3)
        calls = []
        pool.run(0.3, 3, 1e-4, lambda: calls.append("a"))
        world.run(until=5.0)
        pool.run(0.3, 2, 1e-4, lambda: calls.append("b"))
        world.run(until=10.0)
        assert calls == ["a", "b"]

    def test_single_worker_serializes(self):
        world, c = self._world()
        pool = self._team(c, 4)
        done = []
        pool.run(0.4, 1, 0.0, lambda: done.append(world.now))
        world.run(until=10.0)
        assert done[0] == pytest.approx(0.4, rel=0.01)

    def test_team_grows_to_a_larger_run(self):
        world, c = self._world()
        pool = self._team(c, 2)
        done = []
        pool.run(0.2, 4, 1e-4, lambda: done.append(True))
        world.run(until=10.0)
        assert done == [True]
        # Grown to the run's 4 threads, which also sets the barrier.
        assert self._cpu(pool) == pytest.approx([0.05 + 4e-4] * 4, rel=1e-9)

    def test_grows_in_order_and_only_when_needed(self):
        world, c = self._world()
        pool = ThreadTeam(c.spawn_thread, "t")
        assert pool.threads == []
        pool.grow(2)
        pool.grow(1)
        pool.run(0.1, 3, 0.0, lambda: None)
        assert [w.name for w in pool.threads] == ["c0/t0", "c0/t1", "c0/t2"]
        assert c.threads == pool.threads

    def test_negative_work_rejected(self):
        world, c = self._world()
        pool = self._team(c, 2)
        with pytest.raises(SchedulerError):
            pool.run(-1.0, 1, 0.0, lambda: None)
        assert not pool.busy

    def test_concurrent_collection_rejected(self):
        world, c = self._world()
        pool = self._team(c, 2)
        pool.run(1.0, 1, 0.0, lambda: None)
        with pytest.raises(SchedulerError):
            pool.run(1.0, 1, 0.0, lambda: None)

    def test_workers_sleep_between_collections(self):
        world, c = self._world()
        pool = self._team(c, 3)
        done = []
        pool.run(0.1, 2, 0.0, lambda: done.append(True))
        world.run(until=5.0)
        assert done
        assert all(not w.runnable for w in pool.threads)
        assert all(w.state is ThreadState.BLOCKED for w in pool.threads)

    def test_shutdown(self):
        world, c = self._world()
        pool = self._team(c, 2)
        pool.exit()
        assert all(w.state.value == "exited" for w in pool.threads)

    def test_shutdown_mid_collection_drops_it(self):
        world, c = self._world()
        pool = self._team(c, 2)
        done = []
        pool.run(1.0, 2, 0.0, lambda: done.append(True))
        world.run(until=0.1)
        pool.exit()
        assert not pool.busy
        world.run(until=5.0)
        assert done == []

    def test_empty_pool_rejected(self):
        world, c = self._world()
        pool = self._team(c, 2)
        with pytest.raises(SchedulerError):
            pool.run(1.0, 0, 0.0, lambda: None)
        assert not pool.busy

    def test_jvm_creates_gc_workers_then_mutators_then_jit(self):
        world, c = self._world()
        wl = JavaWorkload(name="app", app_threads=2, total_work=1.0,
                          alloc_rate=mib(40), live_set=mib(64),
                          min_heap=mib(128))
        jvm = Jvm(c, wl, JvmConfig.adaptive(gc_threads=3),
                  jit_warmup_work=0.01)
        jvm.launch()
        names = [t.name.split("-", 1)[1] for t in c.threads]
        jit = jvm.stats.jit_threads_created
        assert names == (["worker0", "worker1", "worker2",
                          "mutator0", "mutator1"]
                         + [f"C2-{i}" for i in range(jit)])

    def test_openmp_region_runs_on_a_team(self):
        """Each region forks the team (grown lazily to the largest region)
        and charges every member its share plus the per-thread barrier."""
        world, c = self._world()
        wl = OmpWorkload(name="np", iterations=2, sync_per_thread=1e-4,
                         regions=(OmpRegion(0.0, 0.3), OmpRegion(0.0, 0.0)))
        rt = OpenMpRuntime(c, wl, OmpPolicy.STATIC, num_threads_env=3)
        rt.start()
        world.run(until=10.0)
        assert rt.stats.completed
        assert rt.stats.regions_executed == 4
        team = [t for t in c.threads if "-omp" in t.name]
        assert [t.name for t in team] == [f"c0/c0.np-omp{i}" for i in range(3)]
        assert [t.cpu_time for t in team] == pytest.approx(
            [2 * (0.3 / 3 + 1e-4 * 3)] * 3, rel=1e-9)
        assert all(t.state is ThreadState.EXITED for t in c.threads)
