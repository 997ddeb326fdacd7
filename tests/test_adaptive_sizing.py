"""Tests for the adaptive size policy and the elastic-heap controller."""

import pytest

from repro.container.spec import ContainerSpec
from repro.jvm.adaptive_sizing import OLD_HEADROOM, AdaptiveSizePolicy
from repro.jvm.elastic_heap import (MIN_VIRTUAL_MAX, NON_HEAP_OVERHEAD,
                                    ElasticHeapController)
from repro.jvm.flags import JvmConfig
from repro.jvm.heap import Heap
from repro.jvm.jvm import Jvm
from repro.units import gib, mib
from repro.workloads.base import JavaWorkload
from repro.world import World


def heap(initial=gib(1), vmax=gib(8), reserved=gib(32)):
    return Heap(reserved, initial_committed=initial, virtual_max=vmax)


class TestAdaptiveSizePolicy:
    def test_grows_on_frequent_minors(self):
        p = AdaptiveSizePolicy()
        h = heap()
        before = h.young_committed
        p.observe_minor(h, gc_wall=0.01, mutator_wall=0.05)
        assert h.young_committed > before

    def test_grows_on_high_overhead(self):
        p = AdaptiveSizePolicy()
        h = heap()
        before = h.young_committed
        for _ in range(5):
            p.observe_minor(h, gc_wall=0.5, mutator_wall=1.0)  # 33% overhead
        assert h.young_committed > before

    def test_steady_when_on_target(self):
        p = AdaptiveSizePolicy()
        h = heap()
        before = h.young_committed
        p.observe_minor(h, gc_wall=0.005, mutator_wall=1.0)
        assert h.young_committed == before

    def test_no_shrink_on_minor_gcs(self):
        """PS cannot shrink between full collections (the §4.2 limitation
        the vanilla-JVM collapse of Fig. 11 depends on)."""
        p = AdaptiveSizePolicy()
        h = heap(initial=gib(4))
        before = h.young_committed
        for _ in range(10):
            p.observe_minor(h, gc_wall=0.001, mutator_wall=30.0)
        assert h.young_committed == before

    def test_shrink_after_major_when_idle(self):
        p = AdaptiveSizePolicy()
        h = heap(initial=gib(4))
        h.old_used = mib(64)
        before_young = h.young_committed
        before_old = h.old_committed
        p.observe_minor(h, gc_wall=0.001, mutator_wall=30.0)
        p.observe_major(h)
        assert h.old_committed < before_old
        assert h.young_committed < before_young

    def test_growth_capped_by_young_max(self):
        p = AdaptiveSizePolicy()
        h = heap(initial=gib(7), vmax=gib(8))
        for _ in range(20):
            p.observe_minor(h, gc_wall=0.5, mutator_wall=0.01)
        assert h.young_committed <= h.young_max

    def test_old_keeps_promotion_headroom(self):
        p = AdaptiveSizePolicy()
        h = heap()
        h.old_used = h.old_committed  # full
        p.observe_minor(h, gc_wall=0.001, mutator_wall=1.0)
        assert h.old_committed >= int(h.old_used * OLD_HEADROOM) \
            or h.old_committed == h.old_max

    def test_ensure_promotion_room(self):
        p = AdaptiveSizePolicy()
        h = heap()
        assert p.ensure_promotion_room(h, mib(10))
        h.old_used = h.old_committed
        assert p.ensure_promotion_room(h, mib(100))
        assert h.old_committed >= h.old_used + mib(100)

    def test_ensure_promotion_room_fails_at_old_max(self):
        p = AdaptiveSizePolicy()
        h = heap(vmax=gib(1), initial=gib(1))
        h.old_used = h.old_max
        assert not p.ensure_promotion_room(h, gib(1))


class TestElasticHeapController:
    def _jvm(self, *, soft=gib(1), hard=gib(4)):
        world = World(ncpus=4, memory=gib(16))
        c = world.containers.create(ContainerSpec(
            "c0", memory_limit=hard, memory_soft_limit=soft))
        wl = JavaWorkload(name="toy", app_threads=1, total_work=1e6,
                          alloc_rate=mib(10), live_set=mib(20))
        jvm = Jvm(c, wl, JvmConfig.adaptive())
        jvm.launch()
        return world, c, jvm

    def test_initial_virtual_max_from_soft_limit(self):
        _, c, jvm = self._jvm()
        assert jvm.heap.virtual_max == pytest.approx(
            gib(1) - NON_HEAP_OVERHEAD, rel=0.01)

    def test_poll_expands_with_effective_memory(self):
        world, c, jvm = self._jvm()
        world.mm.charge(c.cgroup, int(gib(0.85)))  # push usage over 90% of E
        world.run(until=30.0)
        assert c.e_mem > gib(1)
        assert jvm.heap.virtual_max > gib(1) - NON_HEAP_OVERHEAD

    def test_min_virtual_max_floor(self):
        world, c, jvm = self._jvm(soft=mib(8), hard=mib(64))
        world.run(until=11.0)
        assert jvm.heap.virtual_max >= MIN_VIRTUAL_MAX

    def test_controller_stops_with_jvm(self):
        world, c, jvm = self._jvm()
        jvm._teardown()
        polls = jvm._elastic.polls
        world.run(until=25.0)
        assert jvm._elastic.polls == polls

    def test_target_virtual_max(self):
        _, c, jvm = self._jvm()
        ctrl = ElasticHeapController(jvm)
        assert ctrl.target_virtual_max() == max(
            MIN_VIRTUAL_MAX, c.e_mem - NON_HEAP_OVERHEAD)


class TestThroughputSizePolicy:
    def test_grows_only_on_overhead(self):
        from repro.jvm.adaptive_sizing import ThroughputSizePolicy
        p = ThroughputSizePolicy()
        h = heap()
        before = h.young_committed
        # Frequent GCs but negligible overhead: no growth (unlike the
        # default frequency-driven strategy).
        p.observe_minor(h, gc_wall=0.0001, mutator_wall=0.05)
        assert h.young_committed == before
        for _ in range(5):
            p.observe_minor(h, gc_wall=0.5, mutator_wall=1.0)
        assert h.young_committed > before

    def test_shrinks_after_major_like_adaptive(self):
        """Footprint shrinking after a full GC is shared machinery: the
        throughput strategy releases exactly what the default does."""
        from repro.jvm.adaptive_sizing import ThroughputSizePolicy
        sizes = []
        for policy in (ThroughputSizePolicy(), AdaptiveSizePolicy()):
            h = heap(initial=gib(4))
            h.old_used = mib(64)
            before = (h.young_committed, h.old_committed)
            policy.observe_minor(h, gc_wall=0.001, mutator_wall=30.0)
            policy.observe_major(h)
            assert h.young_committed < before[0]
            assert h.old_committed < before[1]
            sizes.append((h.young_committed, h.old_committed))
        assert sizes[0] == sizes[1]

    def test_elastic_jvm_accepts_custom_policy(self):
        from repro.jvm.adaptive_sizing import ThroughputSizePolicy
        from repro.workloads.dacapo import dacapo
        import dataclasses
        world = World(ncpus=8, memory=gib(32))
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        wl = dataclasses.replace(dacapo("lusearch"), total_work=8.0)
        jvm = Jvm(c, wl, JvmConfig.adaptive(xms=mib(256)),
                  sizing_policy=ThroughputSizePolicy(), trace_heap=True)
        jvm.launch()
        assert world.run_until(lambda: jvm.finished, timeout=50000)
        assert jvm.stats.completed
        # VirtualMax bounds the alternative strategy just the same.
        assert max(s.committed for s in jvm.stats.heap_trace) <= gib(1)

    def test_base_policy_is_abstract(self):
        from repro.jvm.adaptive_sizing import BaseSizePolicy
        base = BaseSizePolicy()
        h = heap()
        with pytest.raises(NotImplementedError):
            base.observe_minor(h, gc_wall=0.1, mutator_wall=1.0)
        with pytest.raises(NotImplementedError):
            base.observe_major(h)
