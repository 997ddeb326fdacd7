"""Tests for JDK detection policies and JvmConfig presets."""

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import JvmError
from repro.jvm.detect import (detect_cpus, detect_max_heap,
                              hotspot_parallel_gc_threads)
from repro.jvm.flags import (CpuDetectMode, GcThreadMode, HeapDetectMode,
                             JvmConfig)
from repro.units import gib, mib
from repro.world import World


class TestHotspotFormula:
    @pytest.mark.parametrize("ncpus,expected", [
        (1, 1), (4, 4), (8, 8),
        (10, 9),    # 8 + 2*5/8 = 9
        (16, 13),   # 8 + 8*5/8 = 13
        (20, 15),   # the paper's testbed: 15 GC threads
        (64, 43),
    ])
    def test_parallel_gc_threads(self, ncpus, expected):
        assert hotspot_parallel_gc_threads(ncpus) == expected

    def test_rejects_zero(self):
        with pytest.raises(JvmError):
            hotspot_parallel_gc_threads(0)


@pytest.fixture
def world():
    return World(ncpus=20, memory=gib(128))


class TestDetectCpus:
    def test_host_mode_sees_host(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=2.0, cpuset="0-1"))
        assert detect_cpus(c, CpuDetectMode.HOST) == 20

    def test_jdk9_reads_cpuset(self, world):
        c = world.containers.create(ContainerSpec("c0", cpuset="0-1"))
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 2

    def test_jdk9_reads_quota(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=10.0))
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 10

    def test_jdk9_min_of_both(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=10.0, cpuset="0-3"))
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 4

    def test_jdk9_no_limits_sees_host(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 20

    def test_jdk10_uses_shares_without_limits(self, world):
        c = world.containers.create(ContainerSpec("c0", cpu_shares=1024))
        # shares/1024 = 1 core, floored at 2 (the paper's "2 GC threads").
        assert detect_cpus(c, CpuDetectMode.CGROUP_SHARES) == 2
        c2 = world.containers.create(ContainerSpec("c1", cpu_shares=4096))
        assert detect_cpus(c2, CpuDetectMode.CGROUP_SHARES) == 4

    def test_jdk10_prefers_explicit_limit(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=6.0,
                                                  cpu_shares=4096))
        assert detect_cpus(c, CpuDetectMode.CGROUP_SHARES) == 6

    def test_adaptive_reads_effective_cpu(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        world.containers.create(ContainerSpec("c1"))
        # Two equal containers: E_CPU initialized to the lower bound (10).
        assert c.sys_ns.e_cpu != 20 or True
        c2 = world.containers.get("c1")
        assert detect_cpus(c2, CpuDetectMode.ADAPTIVE) == c2.e_cpu == 10

    def test_subcore_quota_detects_one(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=0.5))
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 1


class TestDetectMaxHeap:
    def test_host_quarter(self, world):
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        cfg = JvmConfig.vanilla_jdk8()
        assert detect_max_heap(c, cfg) == gib(128) // 4

    def test_limit_quarter(self, world):
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        cfg = JvmConfig.jdk9()
        assert detect_max_heap(c, cfg) == gib(1) // 4

    def test_limit_quarter_falls_back_to_host(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        cfg = JvmConfig.jdk9()
        assert detect_max_heap(c, cfg) == gib(128) // 4

    def test_hard_and_soft(self, world):
        c = world.containers.create(ContainerSpec(
            "c0", memory_limit=gib(1), memory_soft_limit=mib(500)))
        assert detect_max_heap(c, JvmConfig.vanilla_jdk8(
            heap_detect=HeapDetectMode.HARD_LIMIT)) == gib(1)
        assert detect_max_heap(c, JvmConfig.vanilla_jdk8(
            heap_detect=HeapDetectMode.SOFT_LIMIT)) == mib(500)

    def test_hard_without_limit_rejected(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        with pytest.raises(JvmError):
            detect_max_heap(c, JvmConfig.vanilla_jdk8(
                heap_detect=HeapDetectMode.HARD_LIMIT))

    def test_explicit_xmx_wins(self, world):
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        cfg = JvmConfig.jdk9(xmx=mib(64))
        assert detect_max_heap(c, cfg) == mib(64)

    def test_elastic_reserves_most_of_host(self, world):
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        cfg = JvmConfig.adaptive()
        reserved = detect_max_heap(c, cfg)
        assert reserved > gib(100)  # "close to the size of physical memory"


class TestJvmConfig:
    def test_presets(self):
        assert JvmConfig.vanilla_jdk8().gc_thread_mode is GcThreadMode.STATIC
        assert JvmConfig.dynamic_jdk8().gc_thread_mode is GcThreadMode.DYNAMIC
        assert JvmConfig.jdk9().cpu_detect is CpuDetectMode.CGROUP_LIMIT
        assert JvmConfig.jdk10().cpu_detect is CpuDetectMode.CGROUP_SHARES
        adaptive = JvmConfig.adaptive()
        assert adaptive.cpu_detect is CpuDetectMode.ADAPTIVE
        assert adaptive.heap_detect is HeapDetectMode.ELASTIC
        assert adaptive.gc_thread_mode is GcThreadMode.ADAPTIVE

    def test_preset_overrides(self):
        cfg = JvmConfig.adaptive(heap_detect=HeapDetectMode.HOST_QUARTER,
                                 gc_threads=4)
        assert cfg.heap_detect is HeapDetectMode.HOST_QUARTER
        assert cfg.gc_threads == 4

    def test_validation(self):
        with pytest.raises(JvmError):
            JvmConfig(xms=0)
        with pytest.raises(JvmError):
            JvmConfig(xms=gib(2), xmx=gib(1))
        with pytest.raises(JvmError):
            JvmConfig(gc_threads=0)
