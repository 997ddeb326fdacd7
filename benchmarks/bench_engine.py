"""Engine throughput benchmark: steps/sec of the simulation core.

Two scenarios stress the two scaling axes of the discrete-event engine:

* ``fleet`` — a dense serving fleet (replicated service, open-loop
  Poisson traffic, SLO autoscaler) where every request completion
  perturbs the runnable set, so the scheduler re-solves constantly and
  the completion path dominates.
* ``churn`` — 200 concurrent containers with long-running background
  threads plus steady create/destroy churn and a few pinned cpusets,
  the regime ARC-style vertical adaptivity papers evaluate against.

Each scenario runs under the incremental engine and the brute-force
``scan`` reference engine (full re-solve + thread scans), as
``fleet[incremental]``, ``fleet[scan]``, ``churn[incremental]`` and
``churn[scan]``.  ``fleet`` also runs on the incremental engine under
the non-default policy bundles (``fleet[burstable]``,
``fleet[intent]``): their throughput floor catches the
SchedPolicy/ReclaimPolicy dispatch growing into real work.  The
``default`` bundle is the ``fleet[incremental]`` row.

Run directly to produce ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick

``benchmarks/check_regression.py`` compares a fresh run against the
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.container.spec import ContainerSpec  # noqa: E402
from repro.policy import resolve_bundle  # noqa: E402
from repro.serve import autoscaler as vertical  # noqa: E402
from repro.serve.balancer import Balancer  # noqa: E402
from repro.serve.latency import LatencyRecorder  # noqa: E402
from repro.serve.loadgen import LoadGenerator, Phase  # noqa: E402
from repro.serve.slo import Slo  # noqa: E402
from repro.serve.workload import ServiceReplica, ServiceWorkload  # noqa: E402
from repro.units import mib  # noqa: E402
from repro.world import World  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_engine.json"


def _make_world(ncpus: int, seed: int, engine: str | None,
                sched_policy: str = "default",
                reclaim_policy: str = "default") -> World:
    """Build a world; ``engine=None`` means the default engine."""
    return World(ncpus=ncpus, seed=seed, engine=engine or "incremental",
                 sched_policy=sched_policy, reclaim_policy=reclaim_policy)


def _make_profiler(profile: bool, world: World):
    """An attached EngineProfiler, or None when profiling is off."""
    if not profile:
        return None
    from repro.obs.profile import EngineProfiler
    return EngineProfiler(flight_every=2048).attach_world(world)


def _finish_profile(profiler, record: dict) -> None:
    if profiler is None:
        return
    profiler.detach()
    record["profile"] = profiler.report()
    print(profiler.format_report(), file=sys.stderr)


def run_fleet(*, quick: bool = False, engine: str | None = None,
              seed: int = 7, profile: bool = False,
              sched_policy: str = "default",
              reclaim_policy: str = "default") -> dict:
    """Dense serve fleet: replicas x workers under Poisson traffic."""
    replicas_n = 16 if quick else 64
    duration = 2.0 if quick else 6.0
    rate = 250.0 if quick else 600.0
    world = _make_world(32, seed, engine, sched_policy, reclaim_policy)
    profiler = _make_profiler(profile, world)
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

    t0 = time.perf_counter()
    world.run(until=duration)
    world.run_until(lambda: loadgen.done and balancer.outstanding == 0,
                    timeout=120.0)
    wall = time.perf_counter() - t0
    scaler.stop()
    record = {"scenario": "fleet", "replicas": replicas_n,
              "completed": balancer.completed, "sim_time": world.now,
              "steps": world.steps, "wall_s": wall,
              "steps_per_sec": world.steps / wall if wall > 0 else 0.0}
    _finish_profile(profiler, record)
    return record


def run_churn(*, quick: bool = False, engine: str | None = None,
              seed: int = 11, profile: bool = False,
              sched_policy: str = "default",
              reclaim_policy: str = "default") -> dict:
    """200 concurrent containers with steady create/destroy churn."""
    n_containers = 60 if quick else 200
    duration = 1.5 if quick else 4.0
    churn_period = 0.025
    world = _make_world(48, seed, engine, sched_policy, reclaim_policy)
    profiler = _make_profiler(profile, world)

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
    t0 = time.perf_counter()
    world.run(until=duration)
    wall = time.perf_counter() - t0
    handle.cancel()
    record = {"scenario": "churn", "containers": n_containers,
              "churn_cycles": serial[0] - n_containers,
              "sim_time": world.now, "steps": world.steps, "wall_s": wall,
              "steps_per_sec": world.steps / wall if wall > 0 else 0.0}
    _finish_profile(profiler, record)
    return record


SCENARIOS = {"fleet": run_fleet, "churn": run_churn}

#: Engines every scenario runs under.
ENGINES = ("incremental", "scan")

#: Policy bundles ``fleet`` also runs under, on the incremental engine.
BUNDLES = ("burstable", "intent")


def _report(key: str, rec: dict) -> None:
    print(f"{key}: {rec['steps']} steps in {rec['wall_s']:.2f}s "
          f"-> {rec['steps_per_sec']:.0f} steps/s", file=sys.stderr)


def run_all(*, quick: bool, profile: bool = False) -> dict:
    results: dict[str, dict] = {}
    for engine in ENGINES:
        for name, fn in SCENARIOS.items():
            key = f"{name}[{engine}]"
            results[key] = fn(quick=quick, engine=engine, profile=profile)
            results[key]["engine"] = engine
            _report(key, results[key])
    for bundle in BUNDLES:
        sched, reclaim = resolve_bundle(bundle)
        key = f"fleet[{bundle}]"
        results[key] = run_fleet(quick=quick, engine="incremental",
                                 profile=profile, sched_policy=sched,
                                 reclaim_policy=reclaim)
        results[key].update(bundle=bundle, sched_policy=sched,
                            reclaim_policy=reclaim)
        _report(key, results[key])
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller scenarios for CI smoke runs")
    ap.add_argument("--profile", action="store_true",
                    help="attach the engine self-profiler and report "
                         "per-subsystem wall-clock attribution")
    ap.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)
    results = run_all(quick=args.quick, profile=args.profile)
    payload = {"benchmark": "bench_engine", "quick": args.quick,
               "scenarios": results}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
