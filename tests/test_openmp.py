"""Tests for the OpenMP runtime and its thread-count policies."""

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import OpenMpError, WorkloadError
from repro.kernel.loadavg import LoadAvgParams
from repro.openmp.policy import OmpPolicy, gomp_dynamic_max_threads, thread_count
from repro.openmp.runtime import OpenMpRuntime
from repro.units import gib
from repro.workloads.base import OmpRegion, OmpWorkload
from repro.workloads.npb import NPB_NAMES, npb
from repro.world import World


def program(*, serial=0.0, parallel=1.0, iters=3, sync=0.0):
    return OmpWorkload(name="toy",
                       regions=(OmpRegion(serial_work=serial,
                                          parallel_work=parallel),),
                       iterations=iters, sync_per_thread=sync)


def world_with_container(*, cpus=None, ncpus=8, seed_load=None):
    world = World(ncpus=ncpus, memory=gib(16),
                  loadavg_params=LoadAvgParams(tau_1=60, tau_5=300, tau_15=900))
    if seed_load is not None:
        world.loadavg.seed(seed_load)
    c = world.containers.create(ContainerSpec("c0", cpus=cpus))
    return world, c


class TestGompFormula:
    @pytest.mark.parametrize("n_onln,load,expected", [
        (20, 0.0, 20),
        (20, 5.4, 15),   # rounds the load
        (20, 19.6, 1),   # floor at one thread
        (20, 50.0, 1),
        (4, 1.0, 3),
    ])
    def test_dynamic_max_threads(self, n_onln, load, expected):
        assert gomp_dynamic_max_threads(n_onln, load) == expected


class TestThreadCount:
    def test_static_uses_host_cpus(self):
        _, c = world_with_container(cpus=2.0)
        assert thread_count(OmpPolicy.STATIC, c) == 8

    def test_dynamic_subtracts_loadavg(self):
        _, c = world_with_container(seed_load=6.0)
        assert thread_count(OmpPolicy.DYNAMIC, c) == 2

    def test_adaptive_reads_effective_cpu(self):
        _, c = world_with_container(cpus=3.0)
        assert thread_count(OmpPolicy.ADAPTIVE, c) == 3

    def test_omp_num_threads_overrides(self):
        _, c = world_with_container(cpus=2.0)
        for policy in OmpPolicy:
            assert thread_count(policy, c, num_threads_env=5) == 5

    def test_bad_env_rejected(self):
        _, c = world_with_container()
        with pytest.raises(OpenMpError):
            thread_count(OmpPolicy.STATIC, c, num_threads_env=0)


class TestRuntime:
    def test_executes_all_regions(self):
        world, c = world_with_container()
        rt = OpenMpRuntime(c, program(iters=5), OmpPolicy.ADAPTIVE)
        rt.start()
        assert world.run_until(lambda: rt.finished, timeout=1000)
        assert rt.stats.regions_executed == 5
        assert rt.stats.completed
        assert len(rt.stats.team_history) == 5

    def test_perfect_speedup_without_sync(self):
        world, c = world_with_container(ncpus=8)
        rt = OpenMpRuntime(c, program(parallel=8.0, iters=1),
                           OmpPolicy.STATIC)
        rt.start()
        world.run_until(lambda: rt.finished, timeout=1000)
        assert rt.stats.execution_time == pytest.approx(1.0, rel=0.01)

    def test_serial_sections_run_on_master(self):
        world, c = world_with_container()
        rt = OpenMpRuntime(c, program(serial=0.5, parallel=0.0, iters=2),
                           OmpPolicy.ADAPTIVE)
        rt.start()
        world.run_until(lambda: rt.finished, timeout=1000)
        assert rt.stats.execution_time == pytest.approx(1.0, rel=0.01)
        assert rt.stats.team_history == []  # empty parallel regions skipped

    def test_sync_cost_penalizes_big_teams(self):
        def run(policy, seed_load):
            world, c = world_with_container(cpus=2.0, ncpus=8,
                                            seed_load=seed_load)
            rt = OpenMpRuntime(c, program(parallel=2.0, iters=10, sync=5e-3),
                               policy)
            rt.start()
            world.run_until(lambda: rt.finished, timeout=1000)
            return rt.stats.execution_time
        over_threaded = run(OmpPolicy.STATIC, None)    # 8 threads on 2 cores
        right_sized = run(OmpPolicy.ADAPTIVE, None)    # 2 threads
        assert right_sized < over_threaded

    def test_dynamic_collapses_on_busy_host(self):
        world, c = world_with_container(seed_load=8.0)
        rt = OpenMpRuntime(c, program(iters=4), OmpPolicy.DYNAMIC)
        rt.start()
        world.run_until(lambda: rt.finished, timeout=1000)
        assert rt.stats.mean_team_size == 1.0

    def test_double_start_rejected(self):
        world, c = world_with_container()
        rt = OpenMpRuntime(c, program(), OmpPolicy.STATIC)
        rt.start()
        with pytest.raises(OpenMpError):
            rt.start()

    def test_threads_exit_at_completion(self):
        world, c = world_with_container()
        rt = OpenMpRuntime(c, program(iters=2), OmpPolicy.STATIC)
        rt.start()
        world.run_until(lambda: rt.finished, timeout=1000)
        assert c.cgroup.n_runnable() == 0


class TestNpbCatalog:
    def test_all_programs_present(self):
        assert set(NPB_NAMES) == {"is", "ep", "cg", "mg", "ft", "ua", "bt",
                                  "sp", "lu"}

    def test_lookup_and_unknown(self):
        assert npb("cg").name == "cg"
        with pytest.raises(WorkloadError):
            npb("nope")

    def test_ep_is_coarse_grained(self):
        """ep has few large regions and the lightest sync cost."""
        ep = npb("ep")
        assert ep.iterations <= min(npb(n).iterations for n in NPB_NAMES)
        assert ep.sync_per_thread <= min(npb(n).sync_per_thread
                                         for n in NPB_NAMES)

    def test_total_work_positive(self):
        for name in NPB_NAMES:
            wl = npb(name)
            assert wl.total_parallel_work > 0
            assert wl.total_serial_work >= 0


class TestMultiRegionPrograms:
    def test_heterogeneous_regions_execute_in_order(self):
        world, c = world_with_container(ncpus=4)
        wl = OmpWorkload(
            name="multi",
            regions=(OmpRegion(serial_work=0.5, parallel_work=4.0),
                     OmpRegion(serial_work=0.0, parallel_work=2.0),
                     OmpRegion(serial_work=0.25, parallel_work=0.0)),
            iterations=2, sync_per_thread=0.0)
        rt = OpenMpRuntime(c, wl, OmpPolicy.STATIC)
        rt.start()
        assert world.run_until(lambda: rt.finished, timeout=1000)
        assert rt.stats.regions_executed == 6
        # Two parallel regions per iteration enter the team path.
        assert len(rt.stats.team_history) == 4
        # serial: (0.5+0.25)*2 = 1.5s; parallel on 4 cores: (1+0.5)*2 = 3s.
        assert rt.stats.execution_time == pytest.approx(4.5, rel=0.01)

    def test_team_can_shrink_between_regions(self):
        """Adaptive team sizes follow E_CPU across regions."""
        world, c = world_with_container(ncpus=8)
        other = world.containers.create(ContainerSpec("noise"))
        wl = OmpWorkload(name="m", regions=(OmpRegion(0.0, 2.0),),
                         iterations=30, sync_per_thread=0.0)
        rt = OpenMpRuntime(c, wl, OmpPolicy.ADAPTIVE)
        rt.start()

        def wake_noise():
            for i in range(8):
                other.spawn_thread(f"n{i}").assign_work(1e9)
        world.events.call_at(3.0, wake_noise)
        assert world.run_until(lambda: rt.finished, timeout=2000)
        teams = [n for _, n in rt.stats.team_history]
        assert max(teams) > min(teams)  # shrank when the noise arrived
