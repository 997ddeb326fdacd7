"""ns_monitor: the class-based bounds refresh against a brute-force reference.

:class:`ReferenceMonitor` is the simplest correct monitor: on every
registration, termination and CPU edit it re-sums every share and
refreshes every namespace.  :class:`~repro.core.ns_monitor.NsMonitor`
refreshes only the bounds classes whose bounds move; it must leave every
namespace's ``(bounds, E_CPU)`` exactly where the reference does, after
every op, including the ``E_CPU`` history that clamping leaves behind.
"""

import random

import pytest

import repro.core.ns_monitor as ns_monitor_mod
import repro.core.sys_namespace as sys_namespace_mod
from repro import ContainerSpec, World, gib
from repro.core.effective_cpu import compute_cpu_bounds
from repro.kernel.cgroup import CgroupEventKind


class ReferenceMonitor:
    """Refresh-everyone monitor: every CPU-relevant event recomputes all."""

    def __init__(self, cgroups):
        self._by_cgroup = {}
        cgroups.subscribe(self._on_cgroup_event)

    @property
    def namespaces(self):
        return list(self._by_cgroup.values())

    def register(self, ns):
        self._by_cgroup[ns.cgroup.path] = ns
        ns.refresh_memory_limits()
        ns.initialize_cpu(self._total())
        self._refresh_all()

    def unregister(self, ns):
        self._by_cgroup.pop(ns.cgroup.path, None)
        self._refresh_all()

    def _total(self):
        return sum(ns.cgroup.cpu.shares for ns in self._by_cgroup.values())

    def _refresh_all(self):
        total = self._total()
        for ns in self._by_cgroup.values():
            ns.refresh_cpu_bounds(total)

    def _on_cgroup_event(self, event):
        ns = self._by_cgroup.get(event.cgroup.path)
        if ns is None:
            return
        if event.kind is CgroupEventKind.CPU_CHANGED:
            self._refresh_all()
        elif event.kind is CgroupEventKind.MEMORY_CHANGED:
            ns.refresh_memory_limits()
        elif event.kind is CgroupEventKind.DESTROYED:
            del self._by_cgroup[event.cgroup.path]
            ns.stop_timer()
            self._refresh_all()


def _world(reference: bool, ncpus: int = 8) -> World:
    world = World(ncpus=ncpus, memory=gib(8), seed=1)
    if reference:
        world.cgroups.unsubscribe(world.ns_monitor._on_cgroup_event)
        world.ns_monitor = ReferenceMonitor(world.cgroups)
    return world


def _views(world: World) -> dict:
    return {ns.cgroup.name: (ns.bounds, ns.e_cpu)
            for ns in world.ns_monitor.namespaces}


def _random_ops(seed: int, n_ops: int, ncpus: int) -> list[tuple]:
    """A seeded op list; names are chosen at apply time from the live set."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        pick = rng.random()
        if roll < 0.25:
            ops.append(("create", rng.choice((256, 512, 1024, 2048)),
                        rng.choice((None, None, 0.5, 1.0, 2.5)),
                        rng.randrange(3)))
        elif roll < 0.35:
            ops.append(("destroy", pick))
        elif roll < 0.5:
            ops.append(("shares", pick, rng.choice((128, 512, 1024, 2048, 4096))))
        elif roll < 0.62:
            ops.append(("quota", pick, rng.choice((None, 0.5, 1.5, 3.0))))
        elif roll < 0.72:
            lo = rng.randrange(ncpus)
            ops.append(("cpuset", pick,
                        None if rng.random() < 0.3 else f"{lo}-{ncpus - 1}"))
        else:
            ops.append(("tick", rng.choice((0.01, 0.05, 0.2))))
    return ops


def _apply(world: World, op: tuple, serial: int) -> None:
    live = sorted(world.containers.containers)
    kind = op[0]
    if kind == "create":
        _, shares, cpus, workers = op
        c = world.containers.create(ContainerSpec(
            f"c{serial}", cpu_shares=shares, cpus=cpus))
        for i in range(workers):
            c.spawn_thread(f"w{i}").assign_work(1e9)
    elif kind == "tick":
        world.run(until=world.clock.now + op[1])
    elif live:
        c = world.containers.get(live[int(op[1] * len(live))])
        if kind == "destroy":
            world.containers.destroy(c)
        elif kind == "shares":
            c.cgroup.set_cpu_shares(op[2])
        elif kind == "quota":
            c.cgroup.set_cpu_quota(
                None if op[2] is None else int(op[2] * 100_000), 100_000)
        elif kind == "cpuset":
            c.cgroup.set_cpuset(op[2])


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_match_after_every_op(self, seed):
        ncpus = 8
        worlds = [_world(False, ncpus), _world(True, ncpus)]
        for i, op in enumerate(_random_ops(seed, 120, ncpus)):
            for world in worlds:
                _apply(world, op, i)
            fast, ref = (_views(w) for w in worlds)
            assert fast == ref, f"seed {seed} op {i} {op}"

    def test_destroy_raises_e_cpu_and_a_later_create_keeps_it(self):
        """The clamp's history: a destroy lifts ``lower`` above E_CPU,
        which follows it up; a later create lowers ``lower`` again, and
        E_CPU stays where the destroy put it."""
        ends = []
        for reference in (False, True):
            world = _world(reference)
            cs = [world.containers.create(ContainerSpec(f"c{i}"))
                  for i in range(4)]
            last = cs[-1].sys_ns
            assert (last.bounds.lower, last.e_cpu) == (2, 2)  # ceil(8/4)
            world.containers.destroy(cs[2])
            assert (last.bounds.lower, last.e_cpu) == (3, 3)  # ceil(8/3)
            world.containers.create(ContainerSpec("c4"))
            assert (last.bounds.lower, last.e_cpu) == (2, 3)
            ends.append(_views(world))
        assert ends[0] == ends[1]

    def test_destroyed_cgroup_leaves_the_total(self):
        """A cgroup torn down under a live namespace (DESTROYED without
        unregister) stops counting toward everyone's share fraction."""
        ends = []
        for reference in (False, True):
            world = _world(reference)
            a = world.containers.create(ContainerSpec("a"))
            b = world.containers.create(ContainerSpec("b", cpu_shares=3072))
            assert a.sys_ns.bounds.lower == 2
            b.cgroup.destroy()
            assert a.sys_ns.bounds.lower == 8
            assert world.ns_monitor.namespaces == [a.sys_ns]
            world.containers.create(ContainerSpec("c"))
            ends.append(_views(world))
        assert ends[0] == ends[1]


class TestLinearWork:
    @staticmethod
    def _creation_calls(n: int, monkeypatch) -> int:
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return compute_cpu_bounds(*args)
        for mod in (sys_namespace_mod, ns_monitor_mod):
            monkeypatch.setattr(mod, "compute_cpu_bounds", counting)
        rng = random.Random(0)
        world = World(ncpus=32, memory=gib(64))
        for i in range(n):
            world.containers.create(ContainerSpec(
                f"w{i}", cpu_shares=rng.choice((256, 512, 1024, 2048)),
                cpus=rng.choice((None, None, None, 0.25, 0.5, 1.0))))
        return calls[0]

    def test_doubling_the_fleet_about_doubles_the_bounds_work(self, monkeypatch):
        """Refresh-everyone makes n creates cost O(n^2) bound
        computations (ratio ~4 per doubling); per-class refresh is
        O(n * classes)."""
        small = self._creation_calls(64, monkeypatch)
        large = self._creation_calls(128, monkeypatch)
        assert large / small < 2.5, (small, large)
