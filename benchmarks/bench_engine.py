"""Engine pins: the step counts of the simulation core's two stress runs.

Two scenarios stress the two scaling axes of the discrete-event engine:

* ``fleet`` — a dense serving fleet (replicated service, open-loop
  Poisson traffic, SLO autoscaler) where every request completion
  perturbs the runnable set, so the scheduler re-solves constantly and
  the completion path dominates.
* ``churn`` — 60 concurrent containers with long-running background
  threads plus steady create/destroy churn and a few pinned cpusets,
  the regime ARC-style vertical adaptivity papers evaluate against.

Each scenario runs under the incremental engine and the brute-force
``scan`` reference engine (full re-solve + thread scans), as
``fleet[incremental]``, ``fleet[scan]``, ``churn[incremental]`` and
``churn[scan]``; the two engines must agree.  ``fleet`` also runs on
the incremental engine under the non-default policy bundles
(``fleet[burstable]``, ``fleet[intent]``).  The ``default`` bundle is
the ``fleet[incremental]`` row.

Steps, completions and simulated time are deterministic per seed, so
every run is pinned in ``figure_digests.json`` (``fleet`` at its quick
scale): a drift means the simulated event sequence changed.  Nothing here is timed;
perfbench's ``serve_fleet`` workload runs the quick ``fleet`` scenario
for its timing, and ``python -m repro obs profile`` and
``perfbench/measure.py --trace 1`` attribute the engine's wall time.
"""

from __future__ import annotations

from pathlib import Path

from repro.container.spec import ContainerSpec
from repro.policy import resolve_bundle
from repro.serve import autoscaler as vertical
from repro.serve.balancer import Balancer
from repro.serve.latency import LatencyRecorder
from repro.serve.loadgen import LoadGenerator, Phase
from repro.serve.slo import Slo
from repro.serve.workload import ServiceReplica, ServiceWorkload
from repro.units import mib
from repro.world import World

PINS = Path(__file__).with_name("figure_digests.json")


def run_fleet(*, quick: bool = False, engine: str = "incremental",
              seed: int = 7, sched_policy: str = "default",
              reclaim_policy: str = "default") -> dict:
    """Dense serve fleet: replicas x workers under Poisson traffic."""
    replicas_n = 16 if quick else 64
    duration = 2.0 if quick else 6.0
    rate = 250.0 if quick else 600.0
    world = World(ncpus=32, seed=seed, engine=engine,
                  sched_policy=sched_policy, reclaim_policy=reclaim_policy)
    workload = ServiceWorkload(name="fe", mean_demand=0.02, demand_cv=0.5,
                               workers_per_replica=3, queue_capacity=128,
                               resident_memory=mib(64))
    containers = [world.containers.create(ContainerSpec(f"fe-{i}"))
                  for i in range(replicas_n)]
    recorder = LatencyRecorder()
    replicas = [ServiceReplica(c, workload, recorder) for c in containers]
    for r in replicas:
        r.start()
    balancer = Balancer(replicas)
    phases = [Phase.steady(duration * 0.4, rate),
              Phase.spike(duration * 0.2, rate, 2.0),
              Phase.steady(duration * 0.4, rate)]
    loadgen = LoadGenerator(world, workload, phases, balancer.dispatch)
    scaler = vertical.Autoscaler(world, vertical.AutoscalerParams(
        period=0.5, min_cores=0.25, max_cores=4.0, host_reserve=1.0))
    slo = Slo(target=0.25, percentile=99.0, window=2.0)
    scaler.manage(workload.name, replicas, balancer, recorder, slo,
                  initial_cores=1.0)
    scaler.start()
    loadgen.start()

    world.run(until=duration)
    world.run_until(lambda: loadgen.done and balancer.outstanding == 0,
                    timeout=120.0)
    scaler.stop()
    return {"replicas": replicas_n, "completed": balancer.completed,
            "sim_time": world.now, "steps": world.steps}


def run_churn(*, engine: str = "incremental") -> dict:
    """60 concurrent containers with steady create/destroy churn."""
    n_containers = 60
    churn_period = 0.025
    world = World(ncpus=48, seed=11, engine=engine)

    serial = [0]

    def launch(pinned: str | None = None):
        serial[0] += 1
        c = world.containers.create(ContainerSpec(
            f"c{serial[0]}", cpuset=pinned, memory_limit=mib(64)))
        for j in range(2):
            c.spawn_thread(f"w{j}").assign_work(1e9)
        return c

    # A few pinned containers carve the host into contention domains.
    fleet = [launch(pinned=f"{4 * i}-{4 * i + 3}") for i in range(4)]
    fleet += [launch() for _ in range(n_containers - 4)]

    def churn():
        victim = fleet.pop(4)  # never churn the pinned ones
        world.containers.destroy(victim)
        fleet.append(launch())

    handle = world.events.call_every(churn_period, churn, name="churn")
    world.run(until=1.5)
    handle.cancel()
    return {"containers": n_containers,
            "churn_cycles": serial[0] - n_containers,
            "sim_time": world.now, "steps": world.steps}


#: Engines every scenario runs under.
ENGINES = ("incremental", "scan")

#: Policy bundles ``fleet`` also runs under, on the incremental engine.
BUNDLES = ("burstable", "intent")


def test_engine_step_counts(pin):
    runs = {}
    for engine in ENGINES:
        runs[f"fleet[{engine}]"] = run_fleet(quick=True, engine=engine)
        runs[f"churn[{engine}]"] = run_churn(engine=engine)
    for name in ("fleet", "churn"):
        assert runs[f"{name}[incremental]"] == runs[f"{name}[scan]"], name
    for bundle in BUNDLES:
        sched, reclaim = resolve_bundle(bundle)
        runs[f"fleet[{bundle}]"] = run_fleet(
            quick=True, sched_policy=sched, reclaim_policy=reclaim)
    pin(PINS, {key: pin.cells(record) for key, record in runs.items()})
