"""Tests for the memory manager: limits, watermarks, kswapd, swap."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

    @given(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40),
           st.one_of(st.none(), st.integers(-2 ** 20, 2 ** 41)))
    def test_equals_reference(self, resident, swapped, hot_bytes):
        """The same bits as the formula with every clamp spelled out."""
        total = resident + swapped
        if total <= 0 or swapped <= 0:
            want = 1.0
        else:
            hot = total if hot_bytes is None else max(0, min(hot_bytes, total))
            hot_swapped = max(0, swapped - (total - hot))
            want = (1.0 if hot_swapped <= 0
                    else 1.0 / (1.0 + SWAP_PENALTY * (hot_swapped / total)))
        assert swap_slowdown_multiplier(resident, swapped, SWAP_PENALTY,
                                        hot_bytes) == want


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



# -- the one-pass plan executor and the planners against references ---------

def _reference_swap_out_plan(mm, plan):
    """The per-victim swap-out loop the plan executor replaced: clip to
    residency, reserve on the device, four ledgers, then the multiplier
    recurrence of ``refresh_pressure``, one victim at a time."""
    total = 0
    for cg, nbytes in plan:
        mem = cg.memory
        nbytes = min(nbytes, mem.resident)
        granted = mm.swap.reserve(nbytes)
        mem.resident -= granted
        mm._total_resident -= granted
        mem.swapped += granted
        mem.swapout_total += granted
        mm.refresh_pressure(cg)
        total += granted
    return total


def _reference_refresh_rates(sched, groups):
    """The rates-only refresh as a pass of its own, before publication
    took it over: each busy group's memory PSI restalled to its clamped
    swap slowdown (``some == full``), then its thread rate rewritten as
    ``(rate / n) * efficiency * progress_multiplier``, and the groups
    whose rate moved re-indexed."""
    changed = []
    gap_decays = {}
    for cg in groups:
        g = sched._galloc.get(cg)
        if g is not None:
            if cg.parent is not None:
                frac = 1.0 - cg.progress_multiplier
                if frac < 0.0:
                    frac = 0.0
                elif frac > 1.0:
                    frac = 1.0
                p = cg.pressure.memory
                if frac != p.some_rate:
                    p.restall(frac, frac, gap_decays)
                    sched.psi_folds += 1
            n = g.n_threads
            tr = (g.rate / n) * g.efficiency * cg.progress_multiplier if n \
                else 0.0
            if tr != cg._thread_rate:
                cg._thread_rate = tr
                changed.append(cg)
    if changed:
        sched._reindex(changed)


def _reclaim_world():
    """Six busy containers, each charged past its 32 MiB soft limit; c1
    is already partly swapped (its hard limit was lowered), so its
    memory PSI restalls from a nonzero stall."""
    from repro.container.spec import ContainerSpec
    from repro.world import World

    world = World(ncpus=4, memory=gib(2), seed=0)
    groups = []
    for i in range(6):
        c = world.containers.create(ContainerSpec(
            f"c{i}", memory_soft_limit=mib(32)))
        world.mm.charge(c.cgroup, mib(40 + 8 * i))
        for j in range(1 + i % 2):
            c.spawn_thread(f"w{j}").assign_work(1e9)
        groups.append(c.cgroup)
    groups[1].set_memory_limit(mib(36))
    world.run(until=0.1)
    return world, groups


def _ledger_state(world):
    """Every value the swap-out path and the rate refresh write."""
    mm, sched = world.mm, world.sched
    rows = []
    for cg in world.cgroups.walk():
        mem = cg.memory
        p = cg.pressure.memory
        rows.append((cg.path, mem.resident, mem.swapped, mem.swapout_total,
                     cg.progress_multiplier, cg._thread_rate, p.some_rate,
                     p.full_rate, tuple(p._some_avg), tuple(p._full_avg)))
    return {"groups": rows,
            "total_resident": mm.total_resident,
            "swap": (mm.swap.used, mm.swap.swapouts),
            "dirty": [(cg.path, rates_only)
                      for cg, rates_only in sched._dirty_groups.items()],
            "dirty_all": sched._dirty_all,
            "psi_folds": sched.psi_folds}


class TestPlanExecutorMatchesReference:
    """``MemoryManager._swap_out_plan`` applies a plan in one pass.  It
    must leave every ledger, multiplier and the scheduler's rates-only
    queue (contents and order) exactly as the per-victim reference does,
    and after the next reallocate, with the rates-only republish against
    the reference refresh, every memory PSI accumulator, thread rate and
    ``psi_folds`` too."""

    def _run_both(self, monkeypatch, make_plan):
        """Apply ``make_plan(world, groups)`` to two identical worlds, one
        through the executor and one through the references."""
        fast, fast_groups = _reclaim_world()
        ref, ref_groups = _reclaim_world()
        publish = ref.sched._publish_rows

        def publish_rows(members, rows):
            # The rates-only republish is the one publication made with
            # an empty dirty set.
            if ref.sched._publish_dirty == set():
                _reference_refresh_rates(ref.sched, members)
            else:
                publish(members, rows)
        monkeypatch.setattr(ref.sched, "_publish_rows", publish_rows)
        outcomes = []
        for world, groups, apply in (
                (fast, fast_groups, lambda mm, plan: mm._swap_out_plan(plan)),
                (ref, ref_groups, _reference_swap_out_plan)):
            plan = make_plan(world, groups)
            assert world.sched._dirty_groups == {}
            try:
                outcomes.append(("granted", apply(world.mm, plan)))
            except MemoryError_ as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert _ledger_state(fast) == _ledger_state(ref)
        folds = fast.sched.psi_folds
        for world in (fast, ref):
            assert world.mm.audit_resident() == 0
            assert world.mm.swap.used == sum(
                cg.memory.swapped for cg in world.cgroups.walk())
            world.sched.reallocate()
        assert _ledger_state(fast) == _ledger_state(ref)
        if outcomes[0] != ("granted", 0):
            assert fast.sched.psi_folds > folds    # the refresh restalled
        fast.run(until=0.3)
        ref.run(until=0.3)
        assert _ledger_state(fast) == _ledger_state(ref)
        return fast, outcomes[0]

    def test_plain_plan_queues_each_slowed_victim_once(self, monkeypatch):
        queued = []

        def make_plan(world, g):
            dirty = world.cgroups.scheduler_dirty
            monkeypatch.setattr(
                world.cgroups, "scheduler_dirty",
                lambda cg=None, topology=False, rates_only=False:
                (queued.append((cg.name, topology, rates_only)),
                 dirty(cg, topology=topology, rates_only=rates_only)))
            return [(g[2], mib(5)), (g[3], mib(9)), (g[5], mib(1))]

        self._run_both(monkeypatch, make_plan)
        assert queued[:3] == [("c2", False, True), ("c3", False, True),
                              ("c5", False, True)]
        assert queued[3:] == queued[:3]

    def test_swap_exhausted_partway(self, monkeypatch):
        def make_plan(world, g):
            swap = world.mm.swap
            swap.capacity = swap.used + mib(12)
            return [(g[2], mib(5)), (g[3], mib(9)), (g[4], mib(4)),
                    (g[5], mib(3))]

        world, outcome = self._run_both(monkeypatch, make_plan)
        assert outcome == ("granted", mib(12))
        assert world.mm.swap.free == 0
        c4 = world.cgroups.lookup("/docker/c4")
        assert c4.memory.swapout_total == 0 and c4.progress_multiplier == 1.0

    def test_same_group_twice_reads_residency_fresh(self, monkeypatch):
        def make_plan(world, g):
            return [(g[4], mib(30)), (g[2], mib(2)),
                    (g[4], g[4].memory.resident)]

        world, (kind, granted) = self._run_both(monkeypatch, make_plan)
        c4 = world.cgroups.lookup("/docker/c4")
        # The last entry asked for the residency before the first ran;
        # it was clipped to what the first left.
        assert kind == "granted" and granted == mib(2) + mib(72)
        assert c4.memory.resident == 0

    def test_hot_bytes_hint(self, monkeypatch):
        def make_plan(world, g):
            g[3].memory.hot_bytes = mib(20)
            g[5].memory.hot_bytes = 0
            return [(g[3], mib(10)), (g[3], mib(40)), (g[5], mib(8))]

        world, (kind, _) = self._run_both(monkeypatch, make_plan)
        c3 = world.cgroups.lookup("/docker/c3")
        c5 = world.cgroups.lookup("/docker/c5")
        assert kind == "granted"
        assert 0.0 < c3.progress_multiplier < 1.0
        assert c5.memory.swapped > 0 and c5.progress_multiplier == 1.0

    def test_negative_entry_raises_after_earlier_entries(self, monkeypatch):
        world, outcome = self._run_both(
            monkeypatch, lambda world, g: [(g[2], mib(5)), (g[3], mib(6)),
                                           (g[4], -1), (g[5], mib(7))])
        assert outcome == ("raised", "cannot swap out negative bytes: -1")
        swapped = {cg.name: cg.memory.swapout_total
                   for cg in world.cgroups.walk()}
        assert swapped["c2"] == mib(5) and swapped["c3"] == mib(6)
        assert swapped["c4"] == swapped["c5"] == 0


def _reference_soft_limit_victims(cgroups):
    victims = []
    for cg in cgroups:
        mem = cg.memory
        soft = mem.soft_limit
        if soft == float("inf"):
            continue
        over = mem.resident - int(soft)
        if over > 0:
            victims.append((cg, over))
    return victims


def _reference_split(holders, need):
    total = sum(held for _, held in holders)
    if need <= 0 or total <= 0:
        return []
    take_total = min(need, total)
    plan = []
    remaining = take_total
    for i, (cg, held) in enumerate(holders):
        if i == len(holders) - 1:
            take = min(held, remaining)
        else:
            take = min(held, int(round(take_total * held / total)))
            take = min(take, remaining)
        if take > 0:
            plan.append((cg, take))
            remaining -= take
    return plan


#: A group as (resident, soft limit): ``None`` is no soft limit, "at"
#: puts the soft limit exactly at the residency.  Residency stays below
#: 2**53 bytes, as it must on any host the manager accepts; soft limits
#: range past it, where ``float`` no longer holds every integer.
_GROUPS = st.lists(st.tuples(
    st.integers(0, 2 ** 50),
    st.one_of(st.none(), st.just("at"), st.integers(1, 2 ** 60))),
    max_size=12)
_NEED = st.one_of(st.just(0), st.integers(-2 ** 20, 2 ** 52))


class TestPlannersMatchReference:
    """The kswapd planners read ``soft_limit_in_bytes`` directly and
    split without ``min()``; their plans must equal the float-property
    reference for every group set and need: the same victims, bytes and
    integer types, in the same order."""

    @staticmethod
    def _groups(spec):
        root = CgroupRoot(HostCpus(2))
        out = []
        for i, (resident, soft) in enumerate(spec):
            cg = root.root.create_child(f"c{i}")
            if soft is not None:
                cg.set_memory_soft_limit(
                    max(resident, 1) if soft == "at" else soft)
            cg.memory.resident = resident
            out.append(cg)
        return out

    @staticmethod
    def _typed(plan):
        return [(cg.name, take, type(take)) for cg, take in plan]

    @given(_GROUPS, _NEED)
    @example([(mib(80), None), (mib(60), mib(48))], mib(8))    # no soft limit
    @example([(mib(48), "at"), (mib(60), mib(48))], mib(8))    # at the limit
    @example([(mib(80), mib(48)), (mib(60), mib(48))], 0)      # zero need
    @example([(3, 1), (3, 1), (3, 1)], 5)     # 2, 2, then the remainder 1
    def test_plans_equal_reference(self, spec, need):
        cgs = self._groups(spec)
        typed = self._typed
        victims = soft_limit_victims(cgs)
        assert typed(victims) == typed(_reference_soft_limit_victims(cgs))
        assert typed(plan_background_reclaim(cgs, need)) == typed(
            _reference_split(_reference_soft_limit_victims(cgs), need))
        holders = [(cg, cg.memory.resident) for cg in cgs
                   if cg.memory.resident > 0]
        assert typed(plan_direct_reclaim(cgs, need)) == typed(
            _reference_split(holders, need))

    def test_examples_reach_each_branch(self):
        """The pinned examples do what their comments say."""
        at = self._groups([(mib(48), "at"), (mib(60), None)])
        assert soft_limit_victims(at) == []
        cgs = self._groups([(3, 1), (3, 1), (3, 1)])
        assert [take for _, take in plan_background_reclaim(cgs, 5)] \
            == [2, 2, 1]
        assert plan_direct_reclaim(cgs, 0) == []
