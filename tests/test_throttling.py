"""Tests for CFS quota throttling accounting and cpu.stat."""

import pytest

from repro.container.spec import ContainerSpec
from repro.units import gib
from repro.world import World


@pytest.fixture
def world():
    return World(ncpus=8, memory=gib(16))


def busy(c, n):
    for i in range(n):
        c.spawn_thread(f"b{i}").assign_work(1e9)


class TestThrottledTime:
    def test_accrues_when_demand_exceeds_quota(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=2.0))
        busy(c, 6)  # demand 6 cores against a 2-core quota
        world.run(until=3.0)
        # 4 clipped cores * 3 s = 12 core-seconds throttled.
        assert c.cgroup.throttled_time == pytest.approx(12.0, rel=0.01)

    def test_zero_without_quota(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        busy(c, 6)
        world.run(until=3.0)
        assert c.cgroup.throttled_time == 0.0

    def test_zero_when_demand_within_quota(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=4.0))
        busy(c, 2)
        world.run(until=3.0)
        assert c.cgroup.throttled_time == 0.0

    def test_no_throttle_while_share_starved(self, world):
        """A container kept below its quota by *contention* (not the
        quota itself) is not 'throttled' in the cpu.stat sense."""
        c0 = world.containers.create(ContainerSpec("c0", cpus=6.0))
        c1 = world.containers.create(ContainerSpec("c1"))
        busy(c0, 8)
        busy(c1, 8)
        world.run(until=2.0)
        # Fair share is 4 < quota 6: rate never reaches the quota.
        assert c0.cgroup.throttled_time == 0.0


class TestCpuStatFile:
    def test_cpu_stat_contents(self, world):
        c = world.containers.create(ContainerSpec("c0", cpus=2.0))
        busy(c, 4)
        world.run(until=2.0)
        text = world.cgroupfs.read("/sys/fs/cgroup/cpu/docker/c0/cpu.stat")
        stats = dict(line.split() for line in text.splitlines())
        assert int(stats["throttled_time"]) == pytest.approx(2 * 2.0 * 1e9,
                                                             rel=0.01)
        assert int(stats["usage_usec"]) == pytest.approx(2 * 2.0 * 1e6,
                                                         rel=0.01)
        assert int(stats["nr_throttled"]) > 0

    def test_unlimited_group_reports_zero_throttles(self, world):
        c = world.containers.create(ContainerSpec("c0"))
        busy(c, 2)
        world.run(until=1.0)
        text = world.cgroupfs.read("/sys/fs/cgroup/cpu/docker/c0/cpu.stat")
        stats = dict(line.split() for line in text.splitlines())
        assert stats["nr_throttled"] == "0"
        assert stats["throttled_time"] == "0"

    def test_lifting_the_quota_keeps_the_counters(self, world):
        """``echo -1 > cpu.cfs_quota_us`` ends throttling; it must not
        reset cpu.stat's counters, and every reader reports one count."""
        from repro.obs.export import prometheus_text

        base = "/sys/fs/cgroup/cpu/docker/c0"
        c = world.containers.create(ContainerSpec("c0", cpus=1.0))
        busy(c, 3)

        def stat():
            text = world.cgroupfs.read(f"{base}/cpu.stat")
            return {k: int(v) for k, v in
                    (line.split() for line in text.splitlines())}

        world.run(until=2.0)
        throttled = stat()
        assert throttled["nr_throttled"] == throttled["nr_periods"] == 20
        world.cgroupfs.write(f"{base}/cpu.cfs_quota_us", "-1")
        world.run(until=2.5)
        lifted = stat()
        for key in ("nr_periods", "nr_throttled", "throttled_time",
                    "usage_usec"):
            assert lifted[key] >= throttled[key], key
        assert lifted["nr_throttled"] == 20
        assert lifted["nr_throttled"] <= lifted["nr_periods"]
        assert lifted["throttled_time"] == throttled["throttled_time"]
        assert c.cgroup.nr_throttled == 20
        assert ('repro_cpu_nr_throttled{cgroup="/docker/c0"} 20'
                in prometheus_text(world=world).splitlines())
