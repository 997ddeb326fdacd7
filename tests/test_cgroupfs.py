"""Tests for the cgroupfs file interface."""

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import CgroupError
from repro.kernel.cgroupfs import UNLIMITED_BYTES
from repro.units import gib, mib
from repro.world import World


@pytest.fixture
def env():
    world = World(ncpus=8, memory=gib(16))
    c = world.containers.create(ContainerSpec(
        "c1", cpu_shares=2048, cpus=2.0, cpuset="0-1",
        memory_limit=gib(1), memory_soft_limit=mib(256)))
    return world, c, world.cgroupfs


BASE = "/sys/fs/cgroup"


class TestReads:
    def test_cpu_files(self, env):
        _, c, fs = env
        assert fs.read(f"{BASE}/cpu/docker/c1/cpu.shares") == "2048"
        assert fs.read(f"{BASE}/cpu/docker/c1/cpu.cfs_quota_us") == "200000"
        assert fs.read(f"{BASE}/cpu/docker/c1/cpu.cfs_period_us") == "100000"

    def test_unlimited_quota_is_minus_one(self, env):
        world, _, fs = env
        world.containers.create(ContainerSpec("c2"))
        assert fs.read(f"{BASE}/cpu/docker/c2/cpu.cfs_quota_us") == "-1"

    def test_cpuset(self, env):
        _, _, fs = env
        assert fs.read(f"{BASE}/cpuset/docker/c1/cpuset.cpus") == "0-1"

    def test_memory_files(self, env):
        world, c, fs = env
        assert fs.read(f"{BASE}/memory/docker/c1/memory.limit_in_bytes") == \
            str(gib(1))
        assert fs.read(f"{BASE}/memory/docker/c1/memory.soft_limit_in_bytes") == \
            str(mib(256))
        world.mm.charge(c.cgroup, mib(10))
        assert fs.read(f"{BASE}/memory/docker/c1/memory.usage_in_bytes") == \
            str(mib(10))
        assert "rss" in fs.read(f"{BASE}/memory/docker/c1/memory.stat")

    def test_unlimited_memory_value(self, env):
        world, _, fs = env
        world.containers.create(ContainerSpec("c2"))
        assert fs.read(f"{BASE}/memory/docker/c2/memory.limit_in_bytes") == \
            str(UNLIMITED_BYTES)

    def test_cgroup_procs_lists_threads(self, env):
        _, c, fs = env
        t = c.spawn_thread("w")
        listing = fs.read(f"{BASE}/cpu/docker/c1/cgroup.procs")
        assert str(t.tid) in listing

    def test_root_cgroup_files(self, env):
        _, _, fs = env
        assert fs.read(f"{BASE}/cpu/cpu.shares") == "1024"

    @pytest.mark.parametrize("bad", [
        "/etc/passwd",
        f"{BASE}/blkio/docker/c1/blkio.weight",
        f"{BASE}/cpu/docker/c1/cpu.nonexistent",
        f"{BASE}/cpu/docker/nope/cpu.shares",
        f"{BASE}/cpu",
    ])
    def test_bad_paths_rejected(self, env, bad):
        _, _, fs = env
        with pytest.raises(CgroupError):
            fs.read(bad)


class TestWrites:
    def test_echo_shares_rebalances_views(self, env):
        world, c, fs = env
        c2 = world.containers.create(ContainerSpec("c2"))
        assert c2.sys_ns.bounds.lower == 3  # ceil(1024/3072 * 8)
        fs.write(f"{BASE}/cpu/docker/c1/cpu.shares", "1024")
        assert c.cgroup.cpu.shares == 1024
        # ns_monitor saw the event and recomputed bounds for everyone:
        # c2's guaranteed share rose as c1's weight fell.
        assert c2.sys_ns.bounds.lower == 4  # ceil(1024/2048 * 8)

    def test_write_quota(self, env):
        _, c, fs = env
        fs.write(f"{BASE}/cpu/docker/c1/cpu.cfs_quota_us", "400000")
        assert c.cgroup.quota_cores == 4.0
        fs.write(f"{BASE}/cpu/docker/c1/cpu.cfs_quota_us", "-1")
        assert c.cgroup.quota_cores == float("inf")

    def test_write_period(self, env):
        _, c, fs = env
        fs.write(f"{BASE}/cpu/docker/c1/cpu.cfs_period_us", "50000")
        assert c.cgroup.cpu.cfs_period_us == 50000

    def test_write_cpuset(self, env):
        _, c, fs = env
        fs.write(f"{BASE}/cpuset/docker/c1/cpuset.cpus", "2-5")
        assert c.cgroup.effective_cpuset().to_spec() == "2-5"

    def test_write_memory_limits(self, env):
        _, c, fs = env
        fs.write(f"{BASE}/memory/docker/c1/memory.limit_in_bytes", str(gib(2)))
        assert c.cgroup.memory.limit_in_bytes == gib(2)
        assert c.sys_ns.hard_limit == gib(2)  # ns_monitor refreshed
        fs.write(f"{BASE}/memory/docker/c1/memory.limit_in_bytes", "-1")
        assert c.cgroup.memory.limit_in_bytes is None

    def test_write_soft_limit_round_trip(self, env):
        _, c, fs = env
        path = f"{BASE}/memory/docker/c1/memory.soft_limit_in_bytes"
        fs.write(path, str(mib(512)))
        assert c.cgroup.memory.soft_limit_in_bytes == mib(512)
        assert fs.read(path) == str(mib(512))
        fs.write(path, "-1")                  # -1 means unlimited
        assert c.cgroup.memory.soft_limit_in_bytes is None
        assert fs.read(path) == str(UNLIMITED_BYTES)
        fs.write(path, str(mib(128)))
        assert fs.read(path) == str(mib(128))
        fs.write(path, str(UNLIMITED_BYTES))  # the value reads give back
        assert c.cgroup.memory.soft_limit_in_bytes is None

    def test_invalid_value_rejected(self, env):
        _, _, fs = env
        with pytest.raises(CgroupError):
            fs.write(f"{BASE}/cpu/docker/c1/cpu.shares", "lots")

    def test_readonly_file_rejected(self, env):
        _, _, fs = env
        with pytest.raises(CgroupError):
            fs.write(f"{BASE}/memory/docker/c1/memory.usage_in_bytes", "0")


class TestListing:
    def test_list_dir(self, env):
        _, _, fs = env
        files = fs.list_dir("cpu", "/docker/c1")
        assert "cpu.shares" in files and "cgroup.procs" in files
        with pytest.raises(CgroupError):
            fs.list_dir("net_cls")


class TestJdkDetectionViaCgroupfs:
    def test_jdk9_parses_the_same_files(self, env):
        """detect_cpus(CGROUP_LIMIT) goes through cgroupfs reads."""
        from repro.jvm.detect import detect_cpus
        from repro.jvm.flags import CpuDetectMode
        _, c, fs = env
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 2
        fs.write(f"{BASE}/cpuset/docker/c1/cpuset.cpus", "0-6")
        fs.write(f"{BASE}/cpu/docker/c1/cpu.cfs_quota_us", "-1")
        assert detect_cpus(c, CpuDetectMode.CGROUP_LIMIT) == 7
