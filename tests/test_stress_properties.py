"""Property-based stress tests: system invariants under random scenarios.

Hypothesis generates random fleets of containers (shares, quotas, memory
limits, workload mixes) and the tests assert the invariants every
component relies on:

* memory conservation (free + resident == capacity; swap accounting),
* scheduler feasibility (caps respected, work conservation),
* resource views within their bounds,
* determinism (same seed, same scenario -> identical outcome).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.container.spec import ContainerSpec
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.units import gib, mib
from repro.workloads.base import JavaWorkload, NativeWorkload
from repro.workloads.native_runner import NativeProcess
from repro.world import World

container_cfg = st.fixed_dictionaries({
    "shares": st.integers(min_value=2, max_value=4096),
    "quota": st.one_of(st.none(), st.floats(min_value=0.5, max_value=8.0)),
    "mem_limit_mb": st.one_of(st.none(), st.integers(min_value=256,
                                                     max_value=2048)),
    "kind": st.sampled_from(["busy", "native", "jvm", "idle"]),
    "threads": st.integers(min_value=1, max_value=8),
})

scenario = st.lists(container_cfg, min_size=1, max_size=6)


def build_world(cfgs, seed=0):
    world = World(ncpus=8, memory=gib(16), seed=seed)
    jvms = []
    for i, cfg in enumerate(cfgs):
        soft = None
        if cfg["mem_limit_mb"] is not None:
            soft = mib(cfg["mem_limit_mb"] // 2)
        c = world.containers.create(ContainerSpec(
            f"c{i}", cpu_shares=cfg["shares"], cpus=cfg["quota"],
            memory_limit=(mib(cfg["mem_limit_mb"])
                          if cfg["mem_limit_mb"] else None),
            memory_soft_limit=soft))
        if cfg["kind"] == "busy":
            for t in range(cfg["threads"]):
                c.spawn_thread(f"b{t}").assign_work(1e9)
        elif cfg["kind"] == "native":
            NativeProcess.in_container(c, NativeWorkload(
                name=f"n{i}", threads=cfg["threads"], total_work=4.0,
                resident_memory=mib(32))).start()
        elif cfg["kind"] == "jvm":
            wl = JavaWorkload(name=f"j{i}", app_threads=cfg["threads"],
                              total_work=2.0, alloc_rate=mib(60),
                              live_set=mib(20), min_heap=mib(24))
            jvm = Jvm(c, wl, JvmConfig.adaptive(xms=mib(96), xmx=mib(96)),
                      name=f"jvm{i}")
            jvm.launch()
            jvms.append(jvm)
    return world, jvms


def check_invariants(world: World, jvms=()) -> None:
    mm = world.mm
    # -- memory conservation -------------------------------------------------
    total_resident = sum(cg.memory.resident for cg in world.cgroups.walk())
    assert mm.free + total_resident == mm.available_capacity
    assert mm.free >= 0
    total_swapped = sum(cg.memory.swapped for cg in world.cgroups.walk())
    assert mm.swap.used == total_swapped
    # -- scheduler feasibility -----------------------------------------------
    if world.sched.dirty:
        world.sched.reallocate()
    total_rate = world.sched.total_allocated()
    assert total_rate <= world.host.ncpus + 1e-6
    for g in world.sched.snapshot:
        cg = g.cgroup
        assert g.rate <= cg.quota_cores + 1e-6
        assert g.rate <= len(cg.effective_cpuset()) + 1e-6
        assert g.rate <= cg.n_runnable() + 1e-6
        assert 0.0 < g.efficiency <= 1.0
    # -- resource views -------------------------------------------------------
    for ns in world.ns_monitor.namespaces:
        assert ns.bounds.lower <= ns.e_cpu <= ns.bounds.upper
        assert 1 <= ns.e_cpu <= world.host.ncpus
        assert 0 <= ns.e_mem <= ns.hard_limit
        assert ns.soft_limit <= ns.hard_limit
    # -- heap structure ---------------------------------------------------------
    for jvm in jvms:
        if jvm.heap is not None and not jvm._gc.busy:
            jvm.heap.check_invariants()


class TestRandomScenarios:
    @settings(max_examples=25, deadline=None)
    @given(cfgs=scenario, checkpoints=st.integers(min_value=1, max_value=4))
    def test_invariants_hold_throughout(self, cfgs, checkpoints):
        world, jvms = build_world(cfgs)
        for k in range(1, checkpoints + 1):
            world.run(until=2.0 * k)
            check_invariants(world, jvms)
        for jvm in jvms:
            assert jvm.finished or jvm.stats.minor_gcs >= 0  # no crashes

    @settings(max_examples=10, deadline=None)
    @given(cfgs=scenario)
    def test_destroy_everything_restores_clean_state(self, cfgs):
        world, jvms = build_world(cfgs)
        world.run(until=3.0)
        for jvm in jvms:
            jvm.kill()
        for c in list(world.containers):
            world.containers.destroy(c)
        assert world.mm.free == world.mm.available_capacity
        assert world.mm.swap.used == 0
        assert len(world.containers) == 0
        assert world.ns_monitor.namespaces == []

    @settings(max_examples=10, deadline=None)
    @given(cfgs=scenario)
    def test_determinism(self, cfgs):
        def fingerprint():
            world, jvms = build_world(cfgs, seed=42)
            world.run(until=5.0)
            return (
                world.steps,
                tuple(cg.total_cpu_time for cg in world.cgroups.walk()),
                tuple((j.stats.minor_gcs, j.stats.gc_time, j.finished)
                      for j in jvms),
                tuple((ns.e_cpu, ns.e_mem)
                      for ns in world.ns_monitor.namespaces),
            )
        assert fingerprint() == fingerprint()


class TestMemoryPressureStress:
    def test_cascading_pressure_keeps_invariants(self):
        """Fill the host until direct reclaim, then release everything."""
        world = World(ncpus=4, memory=gib(4))
        holders = []
        for i in range(6):
            c = world.containers.create(ContainerSpec(
                f"c{i}", memory_limit=gib(1), memory_soft_limit=mib(256)))
            world.mm.charge(c.cgroup, mib(700))
            holders.append(c)
            check_invariants(world)
        # Most containers should have been squeezed by kswapd.
        squeezed = [c for c in holders if c.cgroup.memory.swapped > 0]
        assert squeezed
        for c in holders:
            world.mm.uncharge_all(c.cgroup)
        world.mm.rebalance()
        check_invariants(world)
        assert world.mm.free == world.mm.available_capacity

    def test_oom_storm_is_contained(self):
        """Charges far past swap capacity kill the charger, not the world."""
        from repro.errors import OutOfMemoryError
        from repro.kernel.mm.memcg import KERNEL_RESERVED
        world = World(ncpus=4, memory=KERNEL_RESERVED + mib(1984),
                      swap_factor=0.1)
        survivors = []
        for i in range(4):
            c = world.containers.create(ContainerSpec(f"c{i}"))
            try:
                world.mm.charge(c.cgroup, gib(1))
                survivors.append(c)
            except OutOfMemoryError:
                pass
        assert survivors  # someone fit
        check_invariants(world)
