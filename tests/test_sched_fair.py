"""Tests for the fluid CFS scheduler: water-filling and accrual."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.sched.fair import (FairScheduler, component_pressures,
                                     waterfill)
from repro.kernel.sched.period import scheduling_period
from repro.kernel.task import SimThread
from repro.policy import default
from repro.policy.default import CSW_OVERHEAD, INTERFERENCE


class TestWaterfill:
    def test_uncontended_gets_cap(self):
        assert waterfill([1024.0], [4.0], 20.0) == [4.0]

    def test_equal_shares_split_evenly(self):
        alloc = waterfill([1.0, 1.0], [100.0, 100.0], 10.0)
        assert alloc == pytest.approx([5.0, 5.0])

    def test_weighted_split(self):
        alloc = waterfill([2.0, 1.0], [100.0, 100.0], 9.0)
        assert alloc == pytest.approx([6.0, 3.0])

    def test_cap_redistributes(self):
        # First entry capped at 2; the rest goes to the second.
        alloc = waterfill([1.0, 1.0], [2.0, 100.0], 10.0)
        assert alloc == pytest.approx([2.0, 8.0])

    def test_all_capped_leaves_slack(self):
        alloc = waterfill([1.0, 1.0], [3.0, 4.0], 20.0)
        assert alloc == pytest.approx([3.0, 4.0])

    def test_empty(self):
        assert waterfill([], [], 10.0) == []

    def test_zero_weight_gets_nothing(self):
        alloc = waterfill([0.0, 1.0], [10.0, 10.0], 10.0)
        assert alloc[0] == 0.0
        assert alloc[1] == pytest.approx(10.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            waterfill([1.0], [1.0, 2.0], 4.0)

    def test_three_way_cascade(self):
        # caps 1, 5, 100; equal weights; capacity 12.
        # Round 1: fair share 4 -> entry0 frozen at 1. Remaining 11 over two.
        # Round 2: fair share 5.5 -> entry1 frozen at 5. Remaining 6 to entry2.
        alloc = waterfill([1.0, 1.0, 1.0], [1.0, 5.0, 100.0], 12.0)
        assert alloc == pytest.approx([1.0, 5.0, 6.0])

    @given(
        st.lists(st.tuples(st.floats(min_value=1.0, max_value=4096.0),
                           st.floats(min_value=0.0, max_value=64.0)),
                 min_size=1, max_size=12),
        st.floats(min_value=0.5, max_value=128.0),
    )
    def test_waterfill_properties(self, entries, capacity):
        weights = [w for w, _ in entries]
        caps = [c for _, c in entries]
        alloc = waterfill(weights, caps, capacity)
        # 1. Feasibility: respects caps and non-negativity.
        for a, c in zip(alloc, caps):
            assert -1e-9 <= a <= c + 1e-6
        # 2. Work conservation: total == min(capacity, sum(caps)).
        assert sum(alloc) == pytest.approx(min(capacity, sum(caps)), rel=1e-6, abs=1e-6)
        # 3. Weighted fairness among unconstrained entries: any two entries
        # strictly below their caps have allocations proportional to weights.
        for i in range(len(alloc)):
            for j in range(len(alloc)):
                if alloc[i] < caps[i] - 1e-6 and alloc[j] < caps[j] - 1e-6:
                    assert alloc[i] * weights[j] == pytest.approx(
                        alloc[j] * weights[i], rel=1e-4, abs=1e-6)


@pytest.fixture
def setup():
    host = HostCpus(20)
    root = CgroupRoot(host)
    sched = FairScheduler(host, root)
    return host, root, sched


def _spawn_running(cg, n):
    threads = []
    for i in range(n):
        t = SimThread(f"t{i}", cg)
        t.assign_work(1e9)
        threads.append(t)
    return threads


class TestFairScheduler:
    def test_single_thread_gets_one_core(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        _spawn_running(cg, 1)
        sched.reallocate()
        assert cg.cpu_rate == pytest.approx(1.0)
        assert sched.idle_capacity() == pytest.approx(19.0)

    def test_demand_limited_by_thread_count(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        _spawn_running(cg, 5)
        sched.reallocate()
        assert cg.cpu_rate == pytest.approx(5.0)

    def test_quota_cap(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        cg.set_cpu_quota(400_000, 100_000)  # 4 cores
        _spawn_running(cg, 10)
        sched.reallocate()
        assert cg.cpu_rate == pytest.approx(4.0)

    def test_cpuset_cap(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        cg.set_cpuset("0-1")
        _spawn_running(cg, 8)
        sched.reallocate()
        assert cg.cpu_rate == pytest.approx(2.0)

    def test_share_contention(self, setup):
        _, root, sched = setup
        a = root.root.create_child("a")
        b = root.root.create_child("b")
        b.set_cpu_shares(2048)
        _spawn_running(a, 30)
        _spawn_running(b, 30)
        sched.reallocate()
        # 1024:2048 split of 20 cores.
        assert a.cpu_rate == pytest.approx(20 / 3)
        assert b.cpu_rate == pytest.approx(40 / 3)

    def test_work_conserving(self, setup):
        """A container may exceed its fair share when others are idle."""
        _, root, sched = setup
        a = root.root.create_child("a")
        b = root.root.create_child("b")
        _spawn_running(a, 20)
        _spawn_running(b, 2)  # b only demands 2 cores
        sched.reallocate()
        assert b.cpu_rate == pytest.approx(2.0)
        assert a.cpu_rate == pytest.approx(18.0)
        assert sched.idle_capacity() == pytest.approx(0.0)

    def test_five_equal_containers(self, setup):
        """The paper's Fig. 6 setup: 5 equal containers on 20 cores."""
        _, root, sched = setup
        cgs = [root.root.create_child(f"c{i}") for i in range(5)]
        for cg in cgs:
            _spawn_running(cg, 15)
        sched.reallocate()
        for cg in cgs:
            assert cg.cpu_rate == pytest.approx(4.0)

    def test_oversubscription_penalty(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        cg.set_cpu_quota(400_000, 100_000)  # 4 cores
        threads = _spawn_running(cg, 8)
        sched.reallocate()
        # 8 threads on 4 cores: occupancy 0.5 each, progress < 0.5.
        snap = sched.snapshot
        g = next(g for g in snap if g.cgroup is cg)
        assert g.per_thread_occupancy == pytest.approx(0.5)
        assert threads[0].progress_rate < 0.5
        # Domain pressure 4/20 < 1: no interference, only the csw term.
        assert g.pressure < 1.0
        assert threads[0].progress_rate == pytest.approx(
            0.5 / (1 + CSW_OVERHEAD * 1.0))

    def test_interference_only_on_overlapping_cpusets(self, setup):
        """A container with a dedicated cpuset is isolated from host-wide
        oversubscription; one on shared CPUs pays the penalty."""
        _, root, sched = setup
        pinned = root.root.create_child("pinned")
        pinned.set_cpuset("18-19")
        tp = _spawn_running(pinned, 2)
        shared = root.root.create_child("shared")
        shared.set_cpuset("0-17")
        ts = _spawn_running(shared, 2)
        noise = root.root.create_child("noise")
        noise.set_cpuset("0-17")
        _spawn_running(noise, 52)  # 54 threads on 18 CPUs: pressure 3.0
        sched.reallocate()
        # Neither group is oversubscribed (2 threads, 2 cores each), so
        # only interference can slow them.
        assert tp[0].progress_rate == pytest.approx(1.0)  # isolated
        assert ts[0].progress_rate < 1.0
        assert ts[0].progress_rate == pytest.approx(
            1.0 / (1 + INTERFERENCE * 2.0))

    def test_own_oversubscription_is_not_interference(self, setup):
        """A group alone on its own cpuset pays no interference penalty
        however many threads it runs — its own time-slicing is the
        CSW_OVERHEAD term (JDK 9's isolation property in Fig. 7)."""
        _, root, sched = setup
        cg = root.root.create_child("a")
        cg.set_cpuset("0-1")
        threads = _spawn_running(cg, 8)  # 8 threads on own 2-cpu domain
        sched.reallocate()
        # own contribution capped at the allocation (2): pressure 1.0,
        # so the only penalty is the csw term for oversubscription 3.
        g = next(g for g in sched.snapshot if g.cgroup is cg)
        assert g.pressure == pytest.approx(1.0)
        assert threads[0].progress_rate == pytest.approx(
            (2 / 8) / (1 + CSW_OVERHEAD * 3.0))

    def test_interference_from_other_groups_counts_fully(self, setup):
        _, root, sched = setup
        a = root.root.create_child("a")
        a.set_cpuset("0-1")
        ta = _spawn_running(a, 2)
        b = root.root.create_child("b")
        b.set_cpuset("0-1")
        _spawn_running(b, 6)
        sched.reallocate()
        # a gets 1 core (equal shares on 2 cpus); domain pressure:
        # own min(2, 1.0) + other 6 = 7 over 2 cpus -> 3.5; a's own 2
        # threads on 1 core also pay the csw term for oversubscription 1.
        assert ta[0].progress_rate == pytest.approx(
            (1 / 2) / (1 + CSW_OVERHEAD * 1.0) / (1 + INTERFERENCE * 2.5))

    def test_no_penalty_when_fully_provisioned(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        threads = _spawn_running(cg, 4)
        sched.reallocate()
        assert threads[0].progress_rate == pytest.approx(1.0)

    def test_progress_multiplier_applied(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        threads = _spawn_running(cg, 1)
        cg.progress_multiplier = 0.25
        sched.reallocate()
        assert threads[0].progress_rate == pytest.approx(0.25)

    def test_advance_accrues_usage_and_idle(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        _spawn_running(cg, 2)
        sched.reallocate()
        sched.advance(3.0)
        assert cg.total_cpu_time == pytest.approx(6.0)
        assert sched.total_idle_time == pytest.approx(54.0)

    def test_window_reset(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        _spawn_running(cg, 1)
        sched.reallocate()
        sched.advance(2.0)
        assert sched.reset_window(cg) == pytest.approx(2.0)
        assert cg.window_usage == 0.0
        assert sched.take_window_idle() == pytest.approx(38.0)
        assert sched.window_idle == 0.0

    def test_next_completion(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        t = SimThread("t", cg)
        t.assign_work(5.0)
        sched.reallocate()
        assert sched.next_completion() == pytest.approx(5.0)

    def test_next_completion_empty(self, setup):
        _, _, sched = setup
        sched.reallocate()
        assert sched.next_completion() == float("inf")

    def test_dirty_flag_on_thread_churn(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        sched.reallocate()
        assert not sched.dirty
        t = SimThread("t", cg)
        assert sched.dirty
        sched.reallocate()
        t.assign_work(1.0)
        assert sched.dirty

    def test_blocked_threads_get_no_cpu(self, setup):
        _, root, sched = setup
        cg = root.root.create_child("a")
        t = SimThread("t", cg)
        t.assign_work(1.0)
        t.block()
        sched.reallocate()
        assert cg.cpu_rate == 0.0

    @given(st.lists(st.tuples(
        st.integers(min_value=2, max_value=4096),   # shares
        st.integers(min_value=1, max_value=40),     # threads
        st.one_of(st.none(), st.integers(min_value=1, max_value=16)),  # quota cores
    ), min_size=1, max_size=8))
    def test_allocation_invariants(self, configs):
        host = HostCpus(20)
        root = CgroupRoot(host)
        sched = FairScheduler(host, root)
        cgs = []
        for i, (shares, nthreads, quota) in enumerate(configs):
            cg = root.root.create_child(f"c{i}")
            cg.set_cpu_shares(shares)
            if quota is not None:
                cg.set_cpu_quota(quota * 100_000, 100_000)
            _spawn_running(cg, nthreads)
            cgs.append(cg)
        sched.reallocate()
        total = sched.total_allocated()
        assert total <= host.capacity + 1e-6
        demand = sum(min(cg.quota_cores, cg.n_runnable(),
                         len(cg.effective_cpuset())) for cg in cgs)
        assert total == pytest.approx(min(host.capacity, demand), rel=1e-6)
        for cg in cgs:
            assert cg.cpu_rate <= min(cg.quota_cores, cg.n_runnable()) + 1e-6


class TestSchedulingPeriod:
    @pytest.mark.parametrize("n,expected", [
        (0, 0.024), (1, 0.024), (8, 0.024),
        (9, 0.027), (100, 0.300),
    ])
    def test_period_rule(self, n, expected):
        assert scheduling_period(n) == pytest.approx(expected)


class TestEfficiencyConstants:
    def test_custom_kappa(self, monkeypatch):
        """Each solve reads κ from ``repro.policy.default.CSW_OVERHEAD``."""
        monkeypatch.setattr(default, "CSW_OVERHEAD", 0.5)
        host = HostCpus(4)
        root = CgroupRoot(host)
        sched = FairScheduler(host, root)
        cg = root.root.create_child("a")
        threads = _spawn_running(cg, 8)
        sched.reallocate()
        # 8 threads on 4 cores -> oversub 1.0 -> eff 1/1.5.
        assert threads[0].progress_rate == pytest.approx(0.5 / 1.5)


class TestWaterfillAgainstReference:
    """Cross-check the iterative waterfill against an independent
    water-level reference implementation (binary search on the level)."""

    @staticmethod
    def _reference(weights, caps, capacity):
        # Allocation of entry i at water level L is min(cap_i, w_i * L);
        # find L such that the total equals min(capacity, sum(caps)).
        target = min(capacity, sum(caps))
        if target <= 0:
            return [0.0] * len(weights)

        def total(level):
            return sum(min(c, w * level) for w, c in zip(weights, caps)
                       if w > 0)
        lo, hi = 0.0, 1.0
        while total(hi) < target - 1e-12 and hi < 1e18:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if total(mid) < target:
                lo = mid
            else:
                hi = mid
        level = (lo + hi) / 2
        return [min(c, w * level) if w > 0 else 0.0
                for w, c in zip(weights, caps)]

    @given(
        st.lists(st.tuples(st.floats(min_value=1.0, max_value=4096.0),
                           st.floats(min_value=0.0, max_value=64.0)),
                 min_size=1, max_size=10),
        st.floats(min_value=0.5, max_value=128.0),
    )
    def test_matches_reference(self, entries, capacity):
        weights = [w for w, _ in entries]
        caps = [c for _, c in entries]
        fast = waterfill(weights, caps, capacity)
        ref = self._reference(weights, caps, capacity)
        for a, b in zip(fast, ref):
            assert a == pytest.approx(b, rel=1e-4, abs=1e-4)


class TestComponentPressuresAgainstReference:
    """The batched column form equals a brute-force pairwise domain
    computation, bit for bit, on random masks, thread counts and rates."""

    @staticmethod
    def _reference(masks, n_threads, rates):
        out = []
        for mask, n, rate in zip(masks, n_threads, rates):
            total = 0
            domain: set[int] = set()
            for other, n2 in zip(masks, n_threads):
                if set(mask) & set(other):
                    total += n2
                    domain |= set(other)
            threads = min(float(n), rate) + float(total - n)
            out.append(threads / len(domain) if domain else 0.0)
        return out

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                              st.integers(min_value=0, max_value=16),
                              st.floats(min_value=0.0, max_value=16.0),
                              st.booleans()),
                    min_size=1, max_size=12))
    def test_matches_reference(self, groups):
        shared: dict[int, tuple[int, ...]] = {}
        masks = []
        for bits, _n, _rate, share in groups:
            fresh = tuple(c for c in range(8) if bits >> c & 1)
            # Equal masks arrive both as one shared object and as
            # distinct equal tuples.
            masks.append(shared.setdefault(bits, fresh) if share else fresh)
        n_threads = [n for _, n, _, _ in groups]
        rates = [rate for _, _, rate, _ in groups]
        assert (component_pressures(masks, n_threads, rates)
                == self._reference(masks, n_threads, rates))


class TestOfflineContentionPressure:
    """A group with no runnable thread reads the pressure its threads
    would face on its cpuset: exactly what the pairwise overlap loop
    over the busy groups computes, on random masks."""

    @staticmethod
    def _overlap_loop(sched, cgroup):
        mask = set(cgroup.effective_cpuset())
        domain = set(mask)
        threads = 0.0
        for g in sched.snapshot:
            other = set(g.cgroup.effective_cpuset())
            if mask & other:
                domain |= other
                threads += g.n_threads
        return threads / len(domain) if domain else 0.0

    @staticmethod
    def _cpuset(cg, bits):
        # 0 leaves the cpuset unset: the group inherits the whole host.
        if bits:
            cg.set_cpuset(",".join(str(c) for c in range(8) if bits >> c & 1))

    @given(groups=st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                                     st.integers(min_value=0, max_value=5)),
                           max_size=10),
           offline=st.integers(min_value=0, max_value=255))
    def test_matches_overlap_loop(self, groups, offline):
        host = HostCpus(8)
        root = CgroupRoot(host)
        sched = FairScheduler(host, root)
        for i, (bits, n) in enumerate(groups):
            cg = root.root.create_child(f"g{i}")
            self._cpuset(cg, bits)
            for j in range(n):
                SimThread(f"t{i}.{j}", cg).assign_work(1.0)
        parked = root.root.create_child("parked")
        self._cpuset(parked, offline)
        SimThread("mutator", parked)
        sched.reallocate()
        assert parked not in {g.cgroup for g in sched.snapshot}
        assert (sched.contention_pressure(parked)
                == self._overlap_loop(sched, parked))
