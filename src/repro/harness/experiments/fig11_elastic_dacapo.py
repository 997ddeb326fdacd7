"""Figure 11 — avoiding memory overcommitment in DaCapo.

"We first created a container with a 1GB hard memory limit ... We
started DaCapo benchmarks with an initial heap size of 500MB without a
maximum heap size.  This allows the JVM to automatically set the maximum
heap size to one quarter of the physical memory size, i.e., 32GB."

The vanilla JVM's adaptive sizing then grows the committed heap of
allocation-heavy benchmarks (lusearch, xalan) past the 1 GB hard limit
— swap in, performance collapses by an order of magnitude.  The elastic
JVM bounds ``VirtualMax`` by effective memory and never crosses the
limit, at the cost of more frequent GCs.  Benchmarks whose footprint
stays under 1 GB (h2, jython, sunflow) see no benefit.

Reported: execution time and GC time of elastic relative to vanilla.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import run_jvms, scale_workload, testbed
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.units import gib, mib
from repro.workloads.dacapo import PAPER_DACAPO, dacapo

__all__ = ["Fig11Params", "run"]


@dataclass(frozen=True)
class Fig11Params:
    scale: float = 1.0
    benchmarks: tuple[str, ...] = PAPER_DACAPO
    hard_limit: int = gib(1)
    initial_heap: int = mib(500)
    seed: int = 0


PARAMS = Fig11Params


def _variants(params: Fig11Params) -> dict[str, JvmConfig]:
    return {
        "vanilla": JvmConfig.vanilla_jdk8(xms=params.initial_heap),
        "elastic": JvmConfig.adaptive(xms=params.initial_heap),
    }


def run(params: Fig11Params | None = None) -> ExperimentResult:
    params = params or Fig11Params()
    result = ExperimentResult(
        experiment="fig11",
        description="elastic heap vs vanilla under a 1GB container limit")
    table = result.add_table("elastic", ResultTable(
        "Figure 11: elastic relative to vanilla (lower=better; <1 means the "
        "vanilla JVM collapsed in swap)",
        ["benchmark", "exec_ratio", "gc_time_ratio", "vanilla_peak_committed_mb",
         "elastic_peak_committed_mb", "vanilla_swapped_mb"]))
    for bench in params.benchmarks:
        wl = scale_workload(dacapo(bench), params.scale)
        rows: dict[str, dict[str, float]] = {}
        for label, cfg in _variants(params).items():
            world = testbed(seed=params.seed)
            container = world.containers.create(ContainerSpec(
                "c0", memory_limit=params.hard_limit))
            jvms = run_jvms(world, [(container, wl, cfg)], timeout=100000,
                            trace_heap=True)
            stats = jvms[0].stats
            peak = max((s.committed for s in stats.heap_trace), default=0)
            rows[label] = {
                "exec": stats.execution_time,
                "gc": stats.gc_time,
                "peak": peak / mib(1),
                "swapped": container.cgroup.memory.swapout_total / mib(1),
            }
        table.add(benchmark=bench,
                  exec_ratio=rows["elastic"]["exec"] / rows["vanilla"]["exec"],
                  gc_time_ratio=rows["elastic"]["gc"] / rows["vanilla"]["gc"],
                  vanilla_peak_committed_mb=rows["vanilla"]["peak"],
                  elastic_peak_committed_mb=rows["elastic"]["peak"],
                  vanilla_swapped_mb=rows["vanilla"]["swapped"])
    result.note("expected: exec_ratio << 1 for allocation-heavy benchmarks "
                "(vanilla swap collapse), ~1 for small-footprint ones; "
                "elastic GC count/time higher where it constrains the heap")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
