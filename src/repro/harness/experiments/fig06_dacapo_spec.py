"""Figure 6 — vanilla vs dynamic vs adaptive on DaCapo and SPECjvm2008.

"We begin with a well-tuned environment with five containers running
five copies of the same Java benchmark ... five benchmarks sharing a
total number of 20 cores, each with four GC threads, achieved the best
performance."  All containers have equal shares and no explicit limits;
OpenJDK 8 equivalents:

* **vanilla** — static GC threads from the host CPU count (15);
* **dynamic** — HotSpot's dynamic GC threads;
* **adaptive** — the paper's ``min(N, N_active, E_CPU)``.

(a) DaCapo execution time (lower is better), (b) SPECjvm2008 throughput
(higher is better), (c) GC time — all relative to vanilla.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import (paper_heap_flags, run_until_finished,
                                  scale_workload, testbed)
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.workloads.base import JavaWorkload
from repro.workloads.dacapo import PAPER_DACAPO, dacapo
from repro.workloads.specjvm import PAPER_SPECJVM, specjvm

__all__ = ["Fig06Params", "run", "jvm_variants"]


@dataclass(frozen=True)
class Fig06Params:
    scale: float = 1.0
    dacapo_benchmarks: tuple[str, ...] = PAPER_DACAPO
    specjvm_benchmarks: tuple[str, ...] = PAPER_SPECJVM
    n_containers: int = 5
    seed: int = 0


PARAMS = Fig06Params


def jvm_variants(heap: dict[str, int]) -> dict[str, JvmConfig]:
    """The three JVMs of Figs. 6 and 9 with the paper's heap flags."""
    return {
        "vanilla": JvmConfig.vanilla_jdk8(**heap),
        "dynamic": JvmConfig.dynamic_jdk8(**heap),
        "adaptive": JvmConfig.adaptive(**heap),
    }


def _measure(workload: JavaWorkload, params: Fig06Params
             ) -> dict[str, tuple[float, float, float]]:
    """(execution_time, gc_time, p95_pause) per JVM variant, averaged
    over the containers.  §5.1 averages 10 runs; the simulator is
    deterministic, so one run stands for all ten."""
    out: dict[str, tuple[float, float, float]] = {}
    for label, cfg in jvm_variants(paper_heap_flags(workload)).items():
        world = testbed(seed=params.seed)
        jvms = []
        for i in range(params.n_containers):
            # Each JVM launches before the next container exists.
            c = world.containers.create(ContainerSpec(f"c{i}"))
            jvm = Jvm(c, workload, cfg)
            jvm.launch()
            jvms.append(jvm)
        run_until_finished(world, jvms, timeout=20000)
        n = len(jvms)
        out[label] = (sum(j.stats.execution_time for j in jvms) / n,
                      sum(j.stats.gc_time for j in jvms) / n,
                      sum(j.stats.gc_pause_percentile(95) for j in jvms) / n)
    return out


def run(params: Fig06Params | None = None) -> ExperimentResult:
    params = params or Fig06Params()
    result = ExperimentResult(
        experiment="fig06",
        description="5 identical containers: vanilla/dynamic/adaptive JVMs")
    exec_table = result.add_table("dacapo_time", ResultTable(
        "Figure 6(a): DaCapo execution time relative to vanilla (lower=better)",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))
    tput_table = result.add_table("specjvm_throughput", ResultTable(
        "Figure 6(b): SPECjvm2008 throughput relative to vanilla (higher=better)",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))
    gc_table = result.add_table("gc_time", ResultTable(
        "Figure 6(c): GC time relative to vanilla (lower=better)",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))
    pause_table = result.add_table("gc_pause_p95", ResultTable(
        "Extra: p95 stop-the-world pause (ms) — over-threading fattens "
        "the tail",
        ["benchmark", "vanilla", "dynamic", "adaptive"]))

    def add_common(bench, res):
        base_g = res["vanilla"][1]
        gc_table.add(benchmark=bench,
                     vanilla=1.0,
                     dynamic=res["dynamic"][1] / base_g,
                     adaptive=res["adaptive"][1] / base_g)
        pause_table.add(benchmark=bench,
                        vanilla=res["vanilla"][2] * 1e3,
                        dynamic=res["dynamic"][2] * 1e3,
                        adaptive=res["adaptive"][2] * 1e3)

    for bench in params.dacapo_benchmarks:
        wl = scale_workload(dacapo(bench), params.scale)
        res = _measure(wl, params)
        base_t = res["vanilla"][0]
        exec_table.add(benchmark=bench,
                       vanilla=1.0,
                       dynamic=res["dynamic"][0] / base_t,
                       adaptive=res["adaptive"][0] / base_t)
        add_common(bench, res)

    for bench in params.specjvm_benchmarks:
        wl = scale_workload(specjvm(bench), params.scale)
        res = _measure(wl, params)
        base_t = res["vanilla"][0]
        # Throughput = ops/time, so relative throughput = t_vanilla / t.
        tput_table.add(benchmark=bench,
                       vanilla=1.0,
                       dynamic=base_t / res["dynamic"][0],
                       adaptive=base_t / res["adaptive"][0])
        add_common(bench, res)
    result.note("expected: adaptive fastest (up to tens of % in DaCapo, "
                "up to ~18% SPECjvm throughput), gains dominated by GC time")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
