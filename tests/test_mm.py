"""Tests for the memory manager: limits, watermarks, kswapd, swap."""

import pytest

from repro.errors import MemoryError_, OutOfMemoryError
from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.mm.kswapd import (plan_background_reclaim, plan_direct_reclaim,
                                    soft_limit_victims)
from repro.kernel.mm.memcg import KERNEL_RESERVED, MemoryManager
from repro.kernel.mm.swap import (SWAP_PENALTY, SwapDevice,
                                  swap_slowdown_multiplier)
from repro.kernel.mm.watermarks import Watermarks
from repro.units import gib, mib


@pytest.fixture
def env():
    root = CgroupRoot(HostCpus(4))
    mm = MemoryManager(gib(16), root)
    return root, mm


class TestWatermarks:
    def test_ordering_enforced(self):
        with pytest.raises(MemoryError_):
            Watermarks(min=10, low=5, high=20)
        with pytest.raises(MemoryError_):
            Watermarks(min=-1, low=5, high=20)

    def test_for_total(self):
        wm = Watermarks.for_total(1000)
        assert wm.min == 8 and wm.low == 15 and wm.high == 30

    def test_custom_fractions(self):
        wm = Watermarks.for_total(1000, min_frac=0.1, low_frac=0.2, high_frac=0.3)
        assert (wm.min, wm.low, wm.high) == (100, 200, 300)


class TestSwapDevice:
    def test_reserve_release(self):
        s = SwapDevice(capacity=100)
        assert s.reserve(60) == 60
        assert s.free == 40
        s.release(10)
        assert s.used == 50

    def test_reserve_partial_when_full(self):
        s = SwapDevice(capacity=100)
        assert s.reserve(150) == 100
        assert s.reserve(1) == 0

    def test_release_more_than_used_rejected(self):
        s = SwapDevice(capacity=100)
        s.reserve(10)
        with pytest.raises(MemoryError_):
            s.release(20)

    def test_negative_rejected(self):
        s = SwapDevice(capacity=100)
        with pytest.raises(MemoryError_):
            s.reserve(-1)
        with pytest.raises(MemoryError_):
            s.release(-1)


class TestSwapSlowdown:
    def test_no_swap_no_penalty(self):
        assert swap_slowdown_multiplier(100, 0, 40.0) == 1.0

    def test_half_swapped(self):
        assert swap_slowdown_multiplier(50, 50, 40.0) == pytest.approx(1 / 21)

    def test_mostly_swapped_is_order_of_magnitude(self):
        m = swap_slowdown_multiplier(1, 31, 40.0)
        assert m < 0.03  # 30x+ collapse

    def test_empty(self):
        assert swap_slowdown_multiplier(0, 0, 40.0) == 1.0


class TestChargeBasics:
    def test_charge_uncharge(self, env):
        root, mm = env
        c = root.root.create_child("c")
        mm.charge(c, mib(100))
        assert c.memory.resident == mib(100)
        assert mm.free == mm.available_capacity - mib(100)
        mm.uncharge(c, mib(40))
        assert c.memory.resident == mib(60)

    def test_negative_charge_rejected(self, env):
        root, mm = env
        c = root.root.create_child("c")
        with pytest.raises(MemoryError_):
            mm.charge(c, -1)

    def test_over_uncharge_rejected(self, env):
        root, mm = env
        c = root.root.create_child("c")
        mm.charge(c, 100)
        with pytest.raises(MemoryError_):
            mm.uncharge(c, 200)

    def test_uncharge_all(self, env):
        root, mm = env
        c = root.root.create_child("c")
        mm.charge(c, mib(10))
        mm.uncharge_all(c)
        assert c.memory.usage_in_bytes == 0

    def test_zero_charge_noop(self, env):
        root, mm = env
        c = root.root.create_child("c")
        mm.charge(c, 0)
        assert c.memory.resident == 0


class TestHardLimit:
    def test_excess_goes_to_swap(self, env):
        root, mm = env
        c = root.root.create_child("c")
        c.set_memory_limit(gib(1))
        mm.charge(c, gib(1) + mib(512))
        assert c.memory.resident == gib(1)
        assert c.memory.swapped == mib(512)
        assert c.memory.usage_in_bytes == gib(1) + mib(512)

    def test_swap_penalty_applied(self, env):
        root, mm = env
        c = root.root.create_child("c")
        c.set_memory_limit(gib(1))
        mm.charge(c, gib(2))
        # Half the charge is swapped and all of it is hot (no hint).
        assert c.memory.resident == c.memory.swapped == gib(1)
        assert c.progress_multiplier == 1 / (1 + SWAP_PENALTY * 0.5)

    def test_uncharge_prefers_swap(self, env):
        root, mm = env
        c = root.root.create_child("c")
        c.set_memory_limit(gib(1))
        mm.charge(c, gib(1) + mib(256))
        mm.uncharge(c, mib(256))
        assert c.memory.swapped == 0
        assert c.memory.resident == gib(1)
        assert c.progress_multiplier == 1.0

    def test_oom_when_swap_exhausted(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(1), root, swap_factor=0.25)
        c = root.root.create_child("c")
        c.set_memory_limit(mib(128))
        with pytest.raises(OutOfMemoryError) as exc:
            mm.charge(c, gib(1))
        assert exc.value.victim == "/c"
        assert c.memory.oom_killed
        assert mm.oom_kills == 1


class TestKswapdPolicies:
    def _mk(self, configs):
        root = CgroupRoot(HostCpus(2))
        out = []
        for i, (soft, resident) in enumerate(configs):
            cg = root.root.create_child(f"c{i}")
            if soft is not None:
                cg.set_memory_soft_limit(soft)
            cg.memory.resident = resident
            out.append(cg)
        return out

    def test_victims_only_above_soft(self):
        cgs = self._mk([(100, 150), (100, 80), (None, 1000)])
        victims = soft_limit_victims(cgs)
        assert [(cg.name, over) for cg, over in victims] == [("c0", 50)]

    def test_background_plan_proportional(self):
        cgs = self._mk([(100, 300), (100, 200)])  # overages 200, 100
        plan = plan_background_reclaim(cgs, 150)
        taken = {cg.name: n for cg, n in plan}
        assert taken["c0"] == 100 and taken["c1"] == 50

    def test_background_plan_capped_by_overage(self):
        cgs = self._mk([(100, 150)])
        plan = plan_background_reclaim(cgs, 1000)
        assert plan[0][1] == 50

    def test_background_plan_empty_cases(self):
        assert plan_background_reclaim([], 100) == []
        cgs = self._mk([(100, 50)])
        assert plan_background_reclaim(cgs, 100) == []
        cgs = self._mk([(100, 200)])
        assert plan_background_reclaim(cgs, 0) == []

    def test_direct_plan_proportional_to_resident(self):
        cgs = self._mk([(None, 300), (None, 100)])
        plan = plan_direct_reclaim(cgs, 100)
        taken = {cg.name: n for cg, n in plan}
        assert taken["c0"] == 75 and taken["c1"] == 25

    def test_direct_plan_totals(self):
        cgs = self._mk([(None, 60), (None, 40)])
        plan = plan_direct_reclaim(cgs, 1000)
        assert sum(n for _, n in plan) == 100


class TestSystemPressure:
    def test_kswapd_reclaims_over_soft_victims(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(8), root)
        hog = root.root.create_child("hog")
        hog.set_memory_soft_limit(mib(512))
        victim_free = mm.free
        mm.charge(hog, gib(4))  # way over soft, but no pressure yet
        assert hog.memory.swapped == 0
        # Now a second group demands memory that pushes free below low.
        c = root.root.create_child("c")
        mm.charge(c, victim_free - gib(4) - mm.watermarks.low + mib(64))
        assert mm.kswapd_runs >= 1
        assert hog.memory.swapped > 0          # reclaimed from the over-soft hog
        assert c.memory.swapped == 0           # the charger stayed resident
        assert mm.free >= mm.watermarks.low

    def test_direct_reclaim_when_no_soft_victims(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(8), root)
        a = root.root.create_child("a")   # no soft limit: kswapd can't touch it
        mm.charge(a, mm.free - mib(16))
        b = root.root.create_child("b")
        mm.charge(b, mib(512))            # forces direct reclaim
        assert mm.direct_reclaims >= 1
        assert a.memory.swapped > 0
        assert b.memory.resident > 0

    def test_rebalance_swaps_back_in(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(8), root)
        a = root.root.create_child("a")
        a.set_memory_soft_limit(mib(256))
        mm.charge(a, gib(2))
        b = root.root.create_child("b")
        mm.charge(b, mm.free - mib(32))   # trigger reclaim of a
        assert a.memory.swapped > 0
        mm.uncharge_all(b)                # pressure gone
        mm.rebalance()
        assert a.memory.swapped == 0
        assert a.memory.resident == gib(2)

    def test_rebalance_respects_hard_limit(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(8), root)
        a = root.root.create_child("a")
        a.set_memory_limit(gib(1))
        mm.charge(a, gib(2))  # 1 GiB resident, 1 GiB swapped
        mm.rebalance()
        assert a.memory.resident == gib(1)  # cannot exceed hard limit
        assert a.memory.swapped == gib(1)

    def test_meminfo(self, env):
        root, mm = env
        info = mm.meminfo()
        assert info["MemTotal"] == gib(16)
        assert info["MemFree"] == mm.free
        assert info["SwapTotal"] == mm.swap.capacity


class TestValidation:
    def test_bad_total(self):
        root = CgroupRoot(HostCpus(2))
        with pytest.raises(MemoryError_):
            MemoryManager(0, root)

    def test_reserved_exceeds_total(self):
        root = CgroupRoot(HostCpus(2))
        with pytest.raises(MemoryError_, match="kernel reserve"):
            MemoryManager(KERNEL_RESERVED, root)
        mm = MemoryManager(KERNEL_RESERVED + mib(1), root)
        assert mm.available_capacity == mm.free == mib(1)
