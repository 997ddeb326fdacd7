"""Tests for the cgroup hierarchy, controllers, and event bus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CgroupError
from repro.kernel.cgroup import (DEFAULT_SHARES, CgroupEventKind, CgroupRoot)
from repro.kernel.cpu import CpuSet, HostCpus
from repro.kernel.task import SimThread


@pytest.fixture
def root():
    return CgroupRoot(HostCpus(20))


class TestHierarchy:
    def test_root_path(self, root):
        assert root.root.path == "/"

    def test_child_paths(self, root):
        docker = root.root.create_child("docker")
        c1 = docker.create_child("c1")
        assert docker.path == "/docker"
        assert c1.path == "/docker/c1"

    def test_duplicate_child_rejected(self, root):
        root.root.create_child("a")
        with pytest.raises(CgroupError):
            root.root.create_child("a")

    def test_bad_names_rejected(self, root):
        with pytest.raises(CgroupError):
            root.root.create_child("")
        with pytest.raises(CgroupError):
            root.root.create_child("a/b")

    def test_lookup(self, root):
        c1 = root.root.create_child("docker").create_child("c1")
        assert root.lookup("/docker/c1") is c1
        assert root.lookup("/") is root.root

    def test_lookup_missing(self, root):
        with pytest.raises(CgroupError):
            root.lookup("/nope")

    def test_lookup_relative_rejected(self, root):
        with pytest.raises(CgroupError):
            root.lookup("docker")

    def test_destroy(self, root):
        c = root.root.create_child("c")
        c.destroy()
        assert "c" not in root.root.children
        with pytest.raises(CgroupError):
            root.lookup("/c")

    def test_destroy_root_rejected(self, root):
        with pytest.raises(CgroupError):
            root.root.destroy()

    def test_destroy_with_children_rejected(self, root):
        c = root.root.create_child("c")
        c.create_child("grand")
        with pytest.raises(CgroupError):
            c.destroy()

    def test_destroy_with_live_threads_rejected(self, root):
        c = root.root.create_child("c")
        SimThread("t", c)
        with pytest.raises(CgroupError):
            c.destroy()

    def test_destroy_after_threads_exit(self, root):
        c = root.root.create_child("c")
        t = SimThread("t", c)
        t.exit()
        c.destroy()

    def test_walk_visits_all(self, root):
        d = root.root.create_child("docker")
        d.create_child("c1")
        d.create_child("c2")
        paths = {cg.path for cg in root.walk()}
        assert paths == {"/", "/docker", "/docker/c1", "/docker/c2"}


def _stack_order(root):
    """The reference walk: a stack, each group's children pushed oldest
    first, so the newest child is visited first, depth-first."""
    order, stack = [], [root.root]
    while stack:
        cg = stack.pop()
        order.append(cg)
        stack.extend(cg.children.values())
    return order


class TestWalkOrder:
    """``walk()`` reads a list kept by create/destroy; it must stay the
    stack-walk order, which reclaim plans depend on."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)),
                        max_size=40))
    def test_kept_list_matches_stack_walk(self, ops):
        root = CgroupRoot(HostCpus(4))
        serial = 0
        for create, pick in ops:
            live = _stack_order(root)
            leaves = [cg for cg in live[1:] if not cg.children]
            if create or not leaves:
                serial += 1
                live[pick % len(live)].create_child(f"g{serial}")
            else:
                leaves[pick % len(leaves)].destroy()
            assert root.walk() == _stack_order(root)

    def test_walk_returns_a_copy(self, root):
        a = root.root.create_child("a")
        order = root.walk()
        order.clear()
        assert root.walk() == [root.root, a]
        for cg in root.walk():      # destroying while reading is safe
            if cg is not root.root:
                cg.destroy()
        assert root.walk() == [root.root]


class TestCpuController:
    def test_default_shares(self, root):
        assert root.root.cpu.shares == DEFAULT_SHARES

    def test_set_shares(self, root):
        c = root.root.create_child("c")
        c.set_cpu_shares(512)
        assert c.cpu.shares == 512

    def test_shares_minimum(self, root):
        with pytest.raises(CgroupError):
            root.root.create_child("c").set_cpu_shares(1)

    def test_quota_cores(self, root):
        c = root.root.create_child("c")
        assert c.quota_cores == float("inf")
        c.set_cpu_quota(400_000, 100_000)
        assert c.quota_cores == 4.0

    def test_quota_lift(self, root):
        c = root.root.create_child("c")
        c.set_cpu_quota(100_000)
        c.set_cpu_quota(None)
        assert c.quota_cores == float("inf")

    def test_bad_quota(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpu_quota(0)
        with pytest.raises(CgroupError):
            c.set_cpu_quota(1000, 10)

    def test_cpuset(self, root):
        c = root.root.create_child("c")
        c.set_cpuset("0-1")
        assert c.effective_cpuset() == CpuSet([0, 1])

    def test_cpuset_default_inherits_host(self, root):
        c = root.root.create_child("c")
        assert len(c.effective_cpuset()) == 20

    def test_cpuset_validated_against_host(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpuset("19-25")

    def test_cpuset_empty_rejected(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_cpuset(CpuSet([]))


class TestMemoryController:
    def test_defaults_unlimited(self, root):
        m = root.root.create_child("c").memory
        assert m.hard_limit == float("inf")
        assert m.soft_limit == float("inf")

    def test_set_limits(self, root):
        c = root.root.create_child("c")
        c.set_memory_limit(1 << 30)
        c.set_memory_soft_limit(1 << 29)
        assert c.memory.hard_limit == float(1 << 30)
        assert c.memory.soft_limit == float(1 << 29)

    def test_bad_limits(self, root):
        c = root.root.create_child("c")
        with pytest.raises(CgroupError):
            c.set_memory_limit(0)
        with pytest.raises(CgroupError):
            c.set_memory_soft_limit(-5)

    def test_usage_is_resident_plus_swapped(self, root):
        m = root.root.create_child("c").memory
        m.resident = 100
        m.swapped = 50
        assert m.usage_in_bytes == 150


class TestEventBus:
    def test_events_published(self, root):
        seen = []
        root.subscribe(lambda e: seen.append((e.kind, e.cgroup.name)))
        c = root.root.create_child("c")
        c.set_cpu_shares(2048)
        c.set_memory_limit(1 << 20)
        c.destroy()
        kinds = [k for k, _ in seen]
        assert kinds == [CgroupEventKind.CREATED, CgroupEventKind.CPU_CHANGED,
                         CgroupEventKind.MEMORY_CHANGED, CgroupEventKind.DESTROYED]

    def test_unsubscribe(self, root):
        seen = []
        fn = lambda e: seen.append(e)  # noqa: E731
        root.subscribe(fn)
        root.unsubscribe(fn)
        root.root.create_child("c")
        assert seen == []


class TestThreadMembership:
    def test_runnable_tracking(self, root):
        c = root.root.create_child("c")
        t = SimThread("t", c)
        assert c.n_runnable() == 0
        t.assign_work(1.0)
        assert c.n_runnable() == 1
        t.block()
        assert c.n_runnable() == 0
        t.wake()
        assert c.n_runnable() == 1
        t.exit()
        assert c.n_runnable() == 0
        assert t not in c.threads

    def test_dirty_hook_fires_on_state_change(self, root):
        calls = []
        root.set_dirty_hook(
            lambda cg, topology, rates_only: calls.append((cg, topology)))
        c = root.root.create_child("c")
        t = SimThread("t", c)
        t.assign_work(1.0)
        assert len(calls) >= 2  # attach + wake
