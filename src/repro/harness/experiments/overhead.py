"""§5.4 — overheads of the adaptive resource views.

The paper reports two costs on its testbed:

* updating a ``sys_namespace`` when the timer fires: ~1 µs, and
* querying the virtual sysfs from user space: ~5 µs for effective CPU
  (one sysconf), ~100 µs for effective memory ("more expensive because
  it involves querying multiple files in sysinfo").

We measure the same operations of *our* implementation with
``time.perf_counter_ns``.  Absolute numbers are Python-vs-kernel
apples-to-oranges; the shape to check is update ≈ cheap, CPU query
cheap, memory query noticeably more expensive (our memory path also
touches several counters).  The table is host-timed, so it is the one
experiment without a byte pin in ``benchmarks/figure_digests.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import testbed
from repro.harness.results import ExperimentResult, ResultTable

__all__ = ["OverheadParams", "run", "make_probe_world"]


@dataclass(frozen=True)
class OverheadParams:
    iterations: int = 20_000
    seed: int = 0


PARAMS = OverheadParams


def make_probe_world():
    """A world with one busy container, for overhead probes."""
    world = testbed()
    container = world.containers.create(ContainerSpec("probe", cpus=4.0))
    for i in range(4):
        t = container.spawn_thread(f"busy{i}")
        t.assign_work(1e9)
    world.run(until=1.0)
    return world, container


def _time_ns(fn, iterations: int) -> float:
    """Mean ns per call over ``iterations`` calls."""
    start = time.perf_counter_ns()
    for _ in range(iterations):
        fn()
    return (time.perf_counter_ns() - start) / iterations


def run(params: OverheadParams | None = None) -> ExperimentResult:
    params = params or OverheadParams()
    result = ExperimentResult(
        experiment="overhead",
        description="costs of sys_namespace updates and virtual-sysfs queries")
    world, container = make_probe_world()
    ns = container.sys_ns
    view = container.resource_view()
    now = world.clock.now

    table = result.add_table("overhead", ResultTable(
        "Section 5.4: per-operation cost (microseconds)",
        ["operation", "mean_us", "paper_us"]))
    update_us = _time_ns(lambda: ns.update(now), params.iterations) / 1e3
    cpu_us = _time_ns(view.ncpus, params.iterations) / 1e3
    mem_us = _time_ns(
        lambda: (view.total_memory(), view.available_memory(), view.meminfo()),
        params.iterations) / 1e3
    table.add(operation="sys_namespace update", mean_us=update_us, paper_us=1.0)
    table.add(operation="sysconf effective CPU", mean_us=cpu_us, paper_us=5.0)
    table.add(operation="query effective memory", mean_us=mem_us, paper_us=100.0)
    result.note("shape check: update cheap; memory query costlier than CPU "
                "query (it reads several sysinfo counters)")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
