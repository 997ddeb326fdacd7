"""Execute a scenario once, checking invariants at every boundary.

The runner holds the two scenario interpreters the differential oracle
(:mod:`repro.check.differ`) runs once per variant: :func:`run_scenario`
for a world :class:`~repro.check.scenario.Scenario` and
:func:`run_cluster` for a cluster scenario.  Determinism contract:
given the same scenario and variant, the snapshots and the log are
bit-identical run to run; given the same scenario under another engine,
they must still be identical.

World ops never abort a run.  Faults that a real fleet would survive are
converted into log entries instead:

* ops on missing containers -> ``skip`` (keeps scenarios total under
  shrinking);
* :class:`OutOfMemoryError` from a charge or a limit cut -> ``oom`` and
  the victim container is destroyed (the kill freed its memory);
* any other simulation error -> ``error`` entry recording the exception
  type; the invariant suite then decides whether state was corrupted.

The log is part of the digest, so two engines must also agree on every
skip/OOM — a kill that happens on one engine only is a divergence even
if both end in a lawful state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.cluster_invariants import check_cluster_snapshot
from repro.check.invariants import check_all, default_suite
from repro.check.scenario import Scenario
from repro.check.span_tree import check_span_tree
from repro.container.spec import ContainerSpec
from repro.errors import OutOfMemoryError, ReproError
from repro.world import World

__all__ = ["RunResult", "run_scenario", "run_cluster"]

#: Work for "run forever" worker threads; far beyond any scenario horizon.
_FOREVER = 1e9


@dataclass
class RunResult:
    engine: str
    snapshots: list[dict] = field(default_factory=list)
    #: World: one entry per applied op, "ok", "skip:<why>", "oom:<name>"
    #: or "error:<type>".  Cluster: its digests and telemetry epochs.
    log: list[str] = field(default_factory=list)
    #: "invariant-name: detail" strings, prefixed with the op or epoch.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class _Interp:
    """Applies ops to a live world, tracking worker threads per container."""

    def __init__(self, world: World):
        self.world = world
        self.workers: dict[str, list] = {}

    def apply(self, op: dict) -> str:
        kind = op["op"]
        name = op["name"]
        world = self.world
        if kind == "create":
            if name in world.containers.containers:
                return "skip:exists"
            spec = ContainerSpec(
                name=name,
                cpu_shares=int(op.get("shares", 1024)),
                cpus=op.get("cpus"),
                cpuset=op.get("cpuset"),
                memory_limit=op.get("memory_limit"),
                memory_soft_limit=op.get("memory_soft_limit"),
                memory_intent=op.get("memory_intent"))
            c = world.containers.create(spec)
            self.workers[name] = []
            for i in range(int(op.get("workers", 0))):
                t = c.spawn_thread(f"w{i}")
                t.assign_work(_FOREVER)
                self.workers[name].append(t)
            return "ok"
        if kind == "swap_policy":
            # World-level op: no container lookup ("name" is carried for
            # schema uniformity but unused).
            world.swap_policy(sched_policy=op.get("sched"),
                              reclaim_policy=op.get("reclaim"))
            return "ok"

        try:
            c = world.containers.get(name)
        except ReproError:
            return "skip:missing"

        if kind == "destroy":
            self._destroy(name)
            return "ok"
        if kind == "spawn":
            t = c.spawn_thread(f"one{len(c.threads)}")
            t.assign_work(float(op["work"]))     # no continuation: parks
            return "ok"
        if kind == "loop":
            until = float(op["until"])
            segment = float(op["segment"])

            def next_segment(t, _until=until, _seg=segment):
                if self.world.clock.now < _until:
                    t.assign_work(_seg, on_done=next_segment)

            for i in range(int(op["workers"])):
                t = c.spawn_thread(f"loop{len(c.threads)}")
                t.assign_work(segment, on_done=next_segment)
            return "ok"
        if kind in ("block", "wake"):
            pool = self.workers.get(name, ())
            idx = int(op["worker"])
            if idx >= len(pool):
                return "skip:no-worker"
            t = pool[idx]
            if kind == "block":
                t.block()
            elif t.state.value != "exited":
                t.wake()
            return "ok"
        if kind == "set_shares":
            c.cgroup.set_cpu_shares(int(op["shares"]))
            return "ok"
        if kind == "set_quota":
            cpus = op.get("cpus")
            if cpus is None:
                c.cgroup.set_cpu_quota(None)
            else:
                period = c.cgroup.cpu.cfs_period_us
                c.cgroup.set_cpu_quota(max(1000, int(round(cpus * period))))
            return "ok"
        if kind == "set_cpuset":
            c.cgroup.set_cpuset(op.get("cpuset"))
            return "ok"
        if kind == "set_limit":
            limit = op.get("limit")
            c.cgroup.set_memory_limit(None if limit is None else int(limit))
            return "ok"
        if kind == "set_soft_limit":
            c.cgroup.set_memory_soft_limit(int(op["limit"]))
            return "ok"
        if kind == "charge":
            self.world.mm.charge(c.cgroup, int(op["bytes"]))
            return "ok"
        if kind == "uncharge":
            n = min(int(op["bytes"]), c.cgroup.memory.usage_in_bytes)
            self.world.mm.uncharge(c.cgroup, n)
            return "ok"
        if kind == "set_intent":
            c.cgroup.set_memory_intent(op.get("intent"))
            return "ok"
        raise ValueError(f"unhandled op kind {kind!r}")

    def _destroy(self, name: str) -> None:
        self.world.containers.destroy(self.world.containers.get(name))
        self.workers.pop(name, None)


def run_scenario(scenario: Scenario, engine: str = "incremental", *,
                 sched_policy: str = "default",
                 reclaim_policy: str = "default") -> RunResult:
    """Run ``scenario`` on a fresh world; return snapshots + violations."""
    scenario.validate()
    suite = default_suite()
    world = World(ncpus=scenario.ncpus, memory=scenario.memory, engine=engine,
                  swap_factor=scenario.swap_factor,
                  sched_policy=sched_policy, reclaim_policy=reclaim_policy)
    interp = _Interp(world)
    result = RunResult(engine=engine)
    prev: dict | None = None

    def checkpoint(tag: str) -> None:
        nonlocal prev
        snap = world.invariant_snapshot()
        result.snapshots.append(snap)
        for v in check_all(suite, world, snap, prev):
            result.violations.append(f"{tag}: {v}")
        prev = snap

    checkpoint("op[-]@0")
    for i, op in enumerate(scenario.sorted_ops()):
        world.run(until=op["t"])
        tag = f"op[{i}]{op['op']}@{op['t']:g}"
        try:
            status = interp.apply(op)
        except OutOfMemoryError as exc:
            # The kernel killed the container's init: tear it down, which
            # releases every charged byte (mirroring a real OOM reap).
            interp._destroy(op["name"])
            status = f"oom:{exc.victim}"
        except ReproError as exc:
            status = f"error:{type(exc).__name__}"
        result.log.append(f"{tag}:{status}")
        checkpoint(tag)
    world.run(until=scenario.horizon)
    checkpoint("final")
    return result


def run_cluster(scenario: dict) -> RunResult:
    """Run a cluster scenario (see :func:`repro.check.generate_cluster`).

    The cluster is sampled at every epoch barrier: each
    ``invariant_snapshot()`` is audited by :func:`check_cluster_snapshot`
    against the previous one, and a traced run's migration span chains
    by :func:`repro.check.span_tree.check_span_tree`, which follows the
    cross-host ``follows`` links.  The log holds the placement trace
    digest, the epoch sample digest and the telemetry epoch count.
    """
    from repro.cluster import Cluster, ClusterParams, PodSpec
    from repro.obs.fleet import FleetCollector

    params = ClusterParams(**scenario["params"])
    horizon = scenario["horizon"]
    waves = list(scenario["waves"])
    result = RunResult(engine=params.engine)
    prev: dict | None = None
    cluster = Cluster(params)
    collector = FleetCollector() if scenario["telemetry"] else None
    if collector is not None:
        cluster.attach_telemetry(collector)
    t = 0.0
    while t < horizon - 1e-9:
        while waves and waves[0][0] <= t + 1e-9:
            for spec in waves.pop(0)[1]:
                cluster.submit(PodSpec(**spec))
        t = min(t + params.epoch, horizon)
        cluster.run(until=t)
        snap = cluster.invariant_snapshot()
        tag = f"epoch[{len(result.snapshots)}]"
        result.violations.extend(
            f"{tag}: {v}" for v in check_cluster_snapshot(snap, prev))
        result.snapshots.append(snap)
        prev = snap
    if params.trace:
        result.violations.extend(
            f"spans: {v}" for v in check_span_tree(cluster))
    epochs = collector.epochs if collector is not None else 0
    result.log = [f"trace_digest:{cluster.trace_digest()}",
                  f"sample_digest:{cluster.epoch_sample_digest()}",
                  f"telemetry_epochs:{epochs}"]
    return result
