"""Self-contained scenario exercising the full observability surface.

Three containers on a small host, tuned so every obs primitive has
something to show:

* ``throttled`` — a 1-core CFS quota with four busy threads: sustained
  CPU throttling, nonzero ``cpu.pressure``, growing ``cpu.stat``
  throttle counters.
* ``free``      — an unthrottled single busy thread: the control whose
  pressure stays ~0.
* ``memhog``    — allocates past its soft limit on a small host until
  kswapd/direct reclaim kicks in: memory pressure plus ``mm.reclaim``
  spans.

Both workers run fixed-size work segments back to back; each segment's
wall-clock completion latency streams into a per-container
:class:`~repro.metrics.Histogram` (the throttled worker's segments take
~4x longer, so the two distributions separate cleanly).  A
:class:`~repro.metrics.MetricsRecorder` samples the containers and the
host, and tracing is on so span/event state is populated.

The ``python -m repro obs`` CLI runs this and feeds the result to the
exporters; ``--quick`` is the CI smoke path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.container import Container
from repro.container.spec import ContainerSpec
from repro.metrics import Histogram, MetricsRecorder
from repro.units import gib, mib
from repro.world import World

__all__ = ["DemoTelemetry", "run_demo", "build_fleet_cluster",
           "run_fleet_demo"]


@dataclass
class DemoTelemetry:
    """Everything the exporters need, from one demo run."""

    world: World
    recorder: MetricsRecorder
    histograms: dict[str, Histogram]
    containers: list[Container]


def _segment_worker(world: World, container: Container, hist: Histogram,
                    n_threads: int, segment: float) -> None:
    """Busy threads running back-to-back segments, timing each one."""
    for i in range(n_threads):
        thread = container.spawn_thread(f"worker{i}")

        def loop(t=thread, started=None):
            now = world.clock.now
            if started is not None:
                hist.record(now - started)
            t.assign_work(segment, lambda _t, s=now: loop(t, s))

        loop()


def run_demo(seed: int = 0, *, quick: bool = False) -> DemoTelemetry:
    """Run the demo scenario; deterministic per seed."""
    duration = 8.0 if quick else 30.0
    world = World(ncpus=4, memory=gib(1), trace=True, seed=seed)

    throttled = world.containers.create(ContainerSpec("throttled", cpus=1.0))
    free = world.containers.create(ContainerSpec("free"))
    memhog = world.containers.create(ContainerSpec(
        "memhog", memory_limit=mib(768), memory_soft_limit=mib(128)))

    histograms = {
        "throttled.segment_seconds": Histogram("throttled.segment_seconds"),
        "free.segment_seconds": Histogram("free.segment_seconds"),
    }
    # 4 runnable threads behind a 1-core quota: each 0.1 cpu-second
    # segment takes ~0.4 s of wall clock; the free sibling's take ~0.1 s.
    _segment_worker(world, throttled, histograms["throttled.segment_seconds"],
                    n_threads=4, segment=0.1)
    _segment_worker(world, free, histograms["free.segment_seconds"],
                    n_threads=1, segment=0.1)

    # The hog needs a runnable thread: memory pressure is the swap
    # slowdown applied to *running* work, so a threadless group shows 0.
    memhog.spawn_thread("toucher").assign_work(1e9)

    # Walk the hog past its soft limit toward the host's capacity so
    # kswapd has a victim and reclaim episodes open mm.reclaim spans
    # (1 GiB host minus the 512 MiB kernel reserve: pressure by ~450 MiB).
    chunk, target = mib(64), mib(700)

    def hog() -> None:
        if memhog.cgroup.memory.usage_in_bytes < target:
            world.mm.charge(memhog.cgroup, chunk)

    world.events.call_every(0.25, hog, name="memhog")

    recorder = MetricsRecorder(world, period=0.5)
    for container in (throttled, free, memhog):
        recorder.watch_container(container)
    recorder.watch_host()
    recorder.start()

    world.run(until=duration)
    recorder.stop()
    return DemoTelemetry(world=world, recorder=recorder,
                         histograms=histograms,
                         containers=[throttled, free, memhog])


def build_fleet_cluster(seed: int = 0, *, quick: bool = False,
                        trace: bool = False):
    """A small over-committed cluster for the fleet-telemetry surface.

    Deterministic per seed.  Demands are lognormal-ish with a few
    mid-run bursters, sized so some hosts cross the hot threshold and
    the rebalancer actually migrates pods — every fleet signal (PSI,
    stretch, migrations, oscillations) has something to show.
    """
    from repro.cluster import Cluster, ClusterParams, PodSpec
    from repro.sim.rng import RngFactory

    n_pods = 12 if quick else 32
    cluster = Cluster(ClusterParams(
        n_hosts=3 if quick else 4, host_ncpus=4 if quick else 8,
        host_memory=gib(8), epoch=1.0, seed=seed, trace=trace,
        hot_frac=0.8))
    rng = RngFactory(seed).stream("obs.fleet.pods")
    horizon = fleet_horizon(quick)
    for i in range(n_pods):
        # Mean ~0.55 cores: the fleet idles around 55–65% so bursts make
        # *some* hosts hot while others can still absorb migrations.
        demand = min(3.0, max(0.1, round(
            0.55 * float(rng.lognormal(-0.32, 0.8)), 3)))
        mem = int(min(gib(1), max(mib(32),
                                  mib(128) * float(rng.lognormal(-0.32, 0.8)))))
        kwargs = dict(name=f"pod{i:03d}",
                      cpu_request=round(demand * 1.4, 3),
                      mem_request=int(mem * 1.5),
                      cpu_demand=demand, mem_demand=mem)
        if i % 5 == 0:
            # Bursters: demand triples mid-run, manufacturing hot hosts.
            kwargs["burst_demand"] = min(4.0, round(demand * 3.0, 3))
            kwargs["burst_at"] = round(0.3 * horizon + (i % 7), 3)
        cluster.submit(PodSpec(**kwargs))
    return cluster


def fleet_horizon(quick: bool) -> float:
    """Simulated seconds the fleet demo runs for."""
    return 12.0 if quick else 40.0


def run_fleet_demo(seed: int = 0, *, quick: bool = False, collector=None,
                   profiler=None):
    """Build and run the fleet scenario; returns the finished cluster.

    ``collector`` (a :class:`~repro.obs.fleet.FleetCollector`) and
    ``profiler`` (an :class:`~repro.obs.profile.EngineProfiler`) are
    attached before the run when given; both are passive, so the
    cluster's trace digest is identical whichever combination is on.
    """
    cluster = build_fleet_cluster(seed, quick=quick,
                                  trace=collector is not None)
    if collector is not None:
        cluster.attach_telemetry(collector)
    if profiler is not None:
        profiler.attach_cluster(cluster)
    cluster.run(until=fleet_horizon(quick))
    if collector is not None:
        collector.finish()
    if profiler is not None:
        profiler.detach()
    return cluster
