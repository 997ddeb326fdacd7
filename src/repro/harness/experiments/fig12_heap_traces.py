"""Figure 12 — used/committed/VirtualMax traces of the heap micro-benchmark.

The §5.3 micro-benchmark (40 000 iterations, +1 MB / -512 KB each,
20 GB working set, 40 GB touched) runs in containers with a 30 GB hard
and 15 GB soft memory limit:

(a) **vanilla, single container** — the JVM commits a quarter of the
    hard limit up front and the sizing algorithm expands straight toward
    the hard limit (``VirtualMax`` is plotted but unused);
(b) **elastic, single container** — starts from a quarter of the initial
    ``VirtualMax`` (= effective memory = the soft limit) and ramps as
    effective memory expands, converging to the hard limit as well;
(c) **five elastic containers** — aggregate hard limits (150 GB) exceed
    the host, so effective memory stops near ~24 GB per container (the
    watermark-guarded equilibrium) and all five complete; five vanilla
    JVMs would thrash (the paper's vanilla failed to complete at all).

Note: the paper's vanilla JVM10 run reaches a 30 GB committed heap, which
is only possible if its MaxHeapSize was the full hard limit rather than
the usual quarter; we therefore launch the vanilla JVM with an explicit
``-Xmx`` equal to the hard limit (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import run_until_finished, testbed
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm, JvmStats
from repro.units import gib
from repro.workloads.micro import heap_micro_benchmark

__all__ = ["Fig12Params", "run", "run_single", "run_five"]


@dataclass(frozen=True)
class Fig12Params:
    scale: float = 1.0
    hard_limit: int = gib(30)
    soft_limit: int = gib(15)
    total_work: float = 400.0
    trace_points: int = 40
    include_vanilla_five: bool = False
    seed: int = 0


PARAMS = Fig12Params


def _workload(params: Fig12Params):
    return heap_micro_benchmark(total_work=params.total_work * params.scale)


def _vanilla_cfg(params: Fig12Params) -> JvmConfig:
    return JvmConfig.vanilla_jdk8(xmx=params.hard_limit,
                                  xms=params.hard_limit // 4)


def _elastic_cfg() -> JvmConfig:
    return JvmConfig.adaptive()


def run_single(params: Fig12Params, *, elastic: bool) -> JvmStats:
    """One container with the 30 GB / 15 GB limits."""
    world = testbed(seed=params.seed)
    c = world.containers.create(ContainerSpec(
        "c0", memory_limit=params.hard_limit,
        memory_soft_limit=params.soft_limit))
    cfg = _elastic_cfg() if elastic else _vanilla_cfg(params)
    jvm = Jvm(c, _workload(params), cfg, trace_heap=True)
    jvm.launch()
    run_until_finished(world, [jvm], timeout=500000)
    return jvm.stats


def run_five(params: Fig12Params, *, elastic: bool) -> list[JvmStats]:
    """Five identical containers (aggregate demand exceeds the host)."""
    world = testbed(seed=params.seed)
    jvms = []
    for i in range(5):
        c = world.containers.create(ContainerSpec(
            f"c{i}", memory_limit=params.hard_limit,
            memory_soft_limit=params.soft_limit))
        cfg = _elastic_cfg() if elastic else _vanilla_cfg(params)
        jvm = Jvm(c, _workload(params), cfg, trace_heap=True)
        jvm.launch()
        jvms.append(jvm)
    run_until_finished(world, jvms, timeout=2000000)
    return [j.stats for j in jvms]


def _trace_table(title: str, stats: JvmStats, n_points: int) -> ResultTable:
    table = ResultTable(title, ["time_s", "used_gb", "committed_gb",
                                "virtual_max_gb"])
    trace = stats.heap_trace
    if not trace:
        return table
    step = max(1, len(trace) // n_points)
    picked = trace[::step]
    if picked[-1] is not trace[-1]:
        picked.append(trace[-1])
    for snap in picked:
        table.add(time_s=snap.time, used_gb=snap.used / gib(1),
                  committed_gb=snap.committed / gib(1),
                  virtual_max_gb=snap.virtual_max / gib(1))
    return table


def run(params: Fig12Params | None = None) -> ExperimentResult:
    params = params or Fig12Params()
    result = ExperimentResult(
        experiment="fig12",
        description="heap micro-benchmark: used/committed/VirtualMax traces")

    vanilla = run_single(params, elastic=False)
    result.add_table("a_vanilla_single",
                     _trace_table("Figure 12(a): single container, vanilla JVM",
                                  vanilla, params.trace_points))
    elastic = run_single(params, elastic=True)
    result.add_table("b_elastic_single",
                     _trace_table("Figure 12(b): single container, elastic JVM",
                                  elastic, params.trace_points))
    five = run_five(params, elastic=True)
    result.add_table("c_elastic_five",
                     _trace_table("Figure 12(c): five containers, elastic JVM "
                                  "(container 0)", five[0], params.trace_points))
    from repro.harness.plot import ascii_chart
    for key, stats in (("a_vanilla_single", vanilla),
                       ("b_elastic_single", elastic),
                       ("c_elastic_five", five[0])):
        series = {
            "used": [(s.time, s.used / gib(1)) for s in stats.heap_trace],
            "committed": [(s.time, s.committed / gib(1))
                          for s in stats.heap_trace],
            "VirtualMax": [(s.time, s.virtual_max / gib(1))
                           for s in stats.heap_trace],
        }
        result.note("chart " + key + ":\n" + ascii_chart(
            series, title=f"Figure 12 ({key})", y_label="GiB"))
    summary = result.add_table("summary", ResultTable(
        "Completion summary",
        ["config", "completed", "oom", "exec_s", "final_committed_gb"]))
    for label, stats in (("vanilla_single", vanilla), ("elastic_single", elastic)):
        summary.add(config=label, completed=stats.completed, oom=stats.oom,
                    exec_s=stats.execution_time,
                    final_committed_gb=stats.heap_trace[-1].committed / gib(1))
    for i, stats in enumerate(five):
        summary.add(config=f"elastic_five[{i}]", completed=stats.completed,
                    oom=stats.oom, exec_s=stats.execution_time,
                    final_committed_gb=stats.heap_trace[-1].committed / gib(1))
    if params.include_vanilla_five:
        vfive = run_five(params, elastic=False)
        for i, stats in enumerate(vfive):
            summary.add(config=f"vanilla_five[{i}]", completed=stats.completed,
                        oom=stats.oom, exec_s=stats.execution_time,
                        final_committed_gb=(stats.heap_trace[-1].committed / gib(1)
                                            if stats.heap_trace else 0.0))
        result.note("vanilla_five thrashes: aggregate 150 GB demand on a "
                    "128 GB host (the paper's vanilla failed to complete)")
    result.note("expected: (a) committed expands quickly to the 30 GB hard "
                "limit; (b) elastic ramps from soft limit, converging to the "
                "hard limit; (c) per-container heaps settle near ~24 GB")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
