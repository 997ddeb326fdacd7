"""Deterministic scenario used by the engine golden-trace tests.

One moderately busy host exercising every engine path the incremental
refactor touched: overlapping cpuset pins (multiple contention domains),
a CFS quota (throttling + pressure), container churn (groups entering
and leaving the busy set), blocking/waking threads, memory pressure with
reclaim, and the periodic-timer machinery — with tracing and metrics on,
exported through :func:`repro.obs.export.jsonl_export`.

The exported JSONL is the determinism contract: identical seeds must
produce byte-identical output across runs *and across engine modes*
(``incremental`` vs the brute-force ``scan`` reference).  The committed
fixture :data:`GOLDEN_PATH` pins it across commits through the ``pin``
fixture of the root ``conftest.py``, whose docstring gives the re-pin
procedure.
"""

from __future__ import annotations

from pathlib import Path

from repro.container.spec import ContainerSpec
from repro.metrics import Histogram, MetricsRecorder
from repro.obs.export import jsonl_export
from repro.units import gib, mib
from repro.world import World

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "engine_trace.jsonl"

DURATION = 3.0
SEED = 42


def _segment_loop(world: World, container, hist: Histogram,
                  n_threads: int, segment: float) -> None:
    """Busy threads running timed back-to-back segments."""
    for i in range(n_threads):
        thread = container.spawn_thread(f"worker{i}")

        def loop(t=thread, started=None):
            now = world.clock.now
            if started is not None:
                hist.record(now - started)
            t.assign_work(segment, lambda _t, s=now: loop(t, s))

        loop()


def run_scenario(engine: str = "incremental") -> str:
    """Run the scenario and return its full JSONL telemetry export."""
    world = World(ncpus=8, memory=gib(2), trace=True, seed=SEED,
                  engine=engine)

    # Overlapping pins: pinned-a on {0,1}, pinned-b on {1,2,3} form one
    # contention domain; everything else floats on the full host mask.
    pinned_a = world.containers.create(ContainerSpec("pinned-a", cpuset="0-1"))
    pinned_b = world.containers.create(ContainerSpec("pinned-b", cpuset="1-3"))
    quota = world.containers.create(ContainerSpec("quota", cpus=0.5))
    floater = world.containers.create(ContainerSpec("floater"))
    memhog = world.containers.create(ContainerSpec(
        "memhog", memory_limit=mib(900), memory_soft_limit=mib(128)))

    histograms = {
        "pinned-a.segment_seconds": Histogram("pinned-a.segment_seconds"),
        "pinned-b.segment_seconds": Histogram("pinned-b.segment_seconds"),
        "quota.segment_seconds": Histogram("quota.segment_seconds"),
        "churn.segment_seconds": Histogram("churn.segment_seconds"),
    }
    _segment_loop(world, pinned_a, histograms["pinned-a.segment_seconds"],
                  n_threads=3, segment=0.05)
    _segment_loop(world, pinned_b, histograms["pinned-b.segment_seconds"],
                  n_threads=2, segment=0.08)
    _segment_loop(world, quota, histograms["quota.segment_seconds"],
                  n_threads=2, segment=0.1)

    # The floater blocks and wakes on a timer: runnable-set churn without
    # segment completions.
    drifter = floater.spawn_thread("drifter")
    drifter.assign_work(1e9)

    def toggle():
        if drifter.runnable:
            drifter.block()
        else:
            drifter.wake()

    world.events.call_every(0.17, toggle, name="toggle")

    # Container churn: short-lived containers enter and leave the busy
    # set (and the cached contention domains) every cycle.
    serial = [0]

    def churn():
        serial[0] += 1
        c = world.containers.create(
            ContainerSpec(f"burst{serial[0]}", memory_limit=mib(32)))
        t = c.spawn_thread("burst")
        started = world.clock.now

        def done(_t, c=c, t=t, started=started):
            histograms["churn.segment_seconds"].record(world.clock.now - started)
            t.exit()
            world.containers.destroy(c)

        t.assign_work(0.06, done)

    world.events.call_every(0.2, churn, name="churn")

    # Memory pressure: walk the hog past its soft limit so kswapd swaps
    # it and the swap penalty bends its progress rate.
    memhog.spawn_thread("toucher").assign_work(1e9)
    chunk, target = mib(128), mib(1400)

    def hog():
        if memhog.cgroup.memory.usage_in_bytes < target:
            world.mm.charge(memhog.cgroup, chunk)

    world.events.call_every(0.21, hog, name="memhog")

    recorder = MetricsRecorder(world, period=0.25)
    for container in (pinned_a, pinned_b, quota, floater, memhog):
        recorder.watch_container(container)
    recorder.watch_host()
    recorder.start()

    world.run(until=DURATION)
    recorder.stop()
    return jsonl_export(recorder, histograms=histograms,
                        tracelog=world.trace, world=world)

