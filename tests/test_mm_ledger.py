"""Memory charge/uncharge ledger and teardown-accounting invariants.

Pins the bug class the fuzzer's ``memory_ledger`` invariant watches
for: every byte ever charged is accounted (``charge_total -
uncharge_total == resident + swapped``), container teardown releases
swap reservations and hot-set hints, destroyed cgroups can never be
charged, and lowering a hard limit below usage reclaims (or kills)
immediately.
"""

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import CgroupError, MemoryError_, OutOfMemoryError
from repro.kernel.cgroup import CgroupRoot
from repro.kernel.cpu import HostCpus
from repro.kernel.mm.memcg import MemoryManager
from repro.units import gib, mib
from repro.world import World


def ledger_balanced(cg) -> bool:
    mem = cg.memory
    return mem.charge_total - mem.uncharge_total == mem.resident + mem.swapped


@pytest.fixture
def env():
    root = CgroupRoot(HostCpus(4))
    mm = MemoryManager(gib(4), root)
    return root, mm


class TestLedger:
    def test_charge_uncharge_balance(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        mm.charge(cg, mib(100))
        mm.uncharge(cg, mib(40))
        assert cg.memory.charge_total == mib(100)
        assert cg.memory.uncharge_total == mib(40)
        assert ledger_balanced(cg)

    def test_balance_survives_limit_spill_to_swap(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        cg.set_memory_limit(mib(50))
        mm.charge(cg, mib(120))               # 70 MiB forced to swap
        assert cg.memory.resident == mib(50)
        assert cg.memory.swapped == mib(70)
        assert ledger_balanced(cg)

    def test_failed_oom_charge_leaves_ledger_balanced(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(1), root, swap_factor=0.0)
        cg = root.root.create_child("a")
        cg.set_memory_limit(mib(64))
        with pytest.raises(OutOfMemoryError):
            mm.charge(cg, mib(256))           # no swap to absorb the excess
        assert cg.memory.oom_killed
        assert ledger_balanced(cg)
        assert mm.swap.used == 0              # partial grant was released

    def test_charge_to_destroyed_cgroup_rejected(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        cg.destroy()
        with pytest.raises(MemoryError_, match="destroyed"):
            mm.charge(cg, mib(1))
        assert cg.memory.charge_total == 0

    def test_destroy_refuses_charged_cgroup(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        mm.charge(cg, mib(8))
        with pytest.raises(CgroupError, match="charged bytes"):
            cg.destroy()
        mm.uncharge_all(cg)
        cg.destroy()                          # clean teardown succeeds


class TestEnforceLimit:
    def test_lowering_limit_below_usage_swaps_excess(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        mm.charge(cg, mib(200))
        cg.set_memory_limit(mib(80))          # event-driven enforce_limit
        assert cg.memory.resident == mib(80)
        assert cg.memory.swapped == mib(120)
        assert ledger_balanced(cg)

    def test_lowering_limit_without_swap_oom_kills(self):
        root = CgroupRoot(HostCpus(2))
        mm = MemoryManager(gib(1), root, swap_factor=0.0)
        cg = root.root.create_child("a")
        mm.charge(cg, mib(128))
        with pytest.raises(OutOfMemoryError):
            cg.set_memory_limit(mib(32))
        assert cg.memory.oom_killed

    def test_raising_limit_is_a_noop(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        mm.charge(cg, mib(64))
        before = (cg.memory.resident, cg.memory.swapped)
        cg.set_memory_limit(mib(512))
        assert (cg.memory.resident, cg.memory.swapped) == before


class TestTeardownChurn:
    def test_uncharge_all_clears_swap_and_hot_set(self, env):
        root, mm = env
        cg = root.root.create_child("a")
        cg.set_memory_limit(mib(40))
        mm.charge(cg, mib(100))               # 60 MiB to swap
        cg.memory.hot_bytes = mib(90)
        mm.uncharge_all(cg)
        assert cg.memory.usage_in_bytes == 0
        assert cg.memory.hot_bytes is None
        assert cg.progress_multiplier == 1.0  # swap slowdown fully lifted
        assert mm.swap.used == 0
        assert ledger_balanced(cg)

    def test_container_churn_keeps_host_accounting_exact(self):
        """Create/charge/destroy cycles: after each teardown the host is
        byte-for-byte back where it started, and the remaining hierarchy
        ledgers all balance."""
        world = World(ncpus=4, memory=gib(2))
        free0, swap0 = world.mm.free, world.mm.swap.used
        for round_ in range(3):
            c = world.containers.create(ContainerSpec(
                f"churn{round_}", memory_limit=mib(128)))
            c.spawn_thread("w").assign_work(1e6)
            world.mm.charge(c.cgroup, mib(300))    # spills past the limit
            world.run(until=world.now + 0.1)
            assert ledger_balanced(c.cgroup)
            world.containers.destroy(c)
            assert world.mm.free == free0
            assert world.mm.swap.used == swap0
            for cg in world.cgroups.walk():
                assert ledger_balanced(cg)

    def test_destroy_folds_cpu_time_into_retired(self):
        world = World(ncpus=2, memory=gib(2))
        c = world.containers.create(ContainerSpec("a"))
        c.spawn_thread("w").assign_work(1e6)
        world.run(until=0.5)
        used = c.cgroup.total_cpu_time
        assert used > 0
        world.containers.destroy(c)
        assert world.cgroups.retired_cpu_time == pytest.approx(used)
        # Conservation still holds with the group gone from the walk.
        world.run(until=1.0)
        assert abs(world.sched.conservation_error()) < 1e-6
