"""Figure 9 — big-data applications (HiBench) with large datasets.

"While DaCapo and SPECjvm2008 ... require only small heap sizes ...
realistic Java-based workloads, such as big data processing frameworks,
require much larger heap sizes."  Because HiBench is not compatible with
JDK 9/10, the baseline is vanilla JDK 8; "dynamic" is JDK 8 with
container awareness and dynamic GC threads; "adaptive" uses the resource
view.  Same 5-container colocation as Fig. 6, big heaps.

(a) execution time and (b) GC time, both relative to vanilla.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import paper_heap_flags, run_jvms, scale_workload, testbed
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.workloads.hibench import HIBENCH_NAMES, hibench

__all__ = ["Fig09Params", "run"]


@dataclass(frozen=True)
class Fig09Params:
    scale: float = 1.0
    benchmarks: tuple[str, ...] = HIBENCH_NAMES
    n_containers: int = 5
    #: Per-container CPU limit: big-data executors are deployed with an
    #: explicit cpu quota, which is what "container awareness" in the
    #: JDK 8 backport reads.
    cpus: float = 10.0
    seed: int = 0


PARAMS = Fig09Params


def _variants(heap: dict[str, int]) -> dict[str, JvmConfig]:
    """Fig. 9's JVMs: HiBench is incompatible with JDK 9/10, so the
    baseline is plain JDK 8; "dynamic" is the authors' JDK 8 backport of
    container awareness (reads cgroup limits) with dynamic GC threads."""
    return {
        "vanilla": JvmConfig.vanilla_jdk8(**heap),
        "dynamic": JvmConfig.jdk9(**heap),
        "adaptive": JvmConfig.adaptive(**heap),
    }


def run(params: Fig09Params | None = None) -> ExperimentResult:
    params = params or Fig09Params()
    result = ExperimentResult(
        experiment="fig09",
        description="HiBench big-data workloads: vanilla/dynamic/adaptive")
    exec_table = result.add_table("execution_time", ResultTable(
        "Figure 9(a): execution time relative to vanilla (lower=better)",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))
    gc_table = result.add_table("gc_time", ResultTable(
        "Figure 9(b): GC time relative to vanilla (lower=better)",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))
    for bench in params.benchmarks:
        wl = scale_workload(hibench(bench), params.scale)
        res: dict[str, tuple[float, float]] = {}
        for label, cfg in _variants(paper_heap_flags(wl)).items():
            world = testbed(seed=params.seed)
            containers = [world.containers.create(
                ContainerSpec(f"c{i}", cpus=params.cpus))
                for i in range(params.n_containers)]
            jvms = run_jvms(world, [(c, wl, cfg) for c in containers],
                            timeout=100000)
            n = len(jvms)
            res[label] = (sum(j.stats.execution_time for j in jvms) / n,
                          sum(j.stats.gc_time for j in jvms) / n)
        bt, bg = res["vanilla"]
        exec_table.add(benchmark=bench, vanilla=1.0,
                       dynamic=res["dynamic"][0] / bt,
                       adaptive=res["adaptive"][0] / bt)
        gc_table.add(benchmark=bench, vanilla=1.0,
                     dynamic=res["dynamic"][1] / bg,
                     adaptive=res["adaptive"][1] / bg)
    result.note("expected: adaptive consistently fastest; dynamic in between")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
