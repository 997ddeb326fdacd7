"""Figure 8 — static CPU shares (JVM 10) vs effective CPU under varying load.

"We collocated ten containers, each with an equal CPU share, on the same
host.  One container ran a DaCapo benchmark and the remaining nine
containers ran different sysbench benchmarks.  The host CPU was fully
utilized when all ten containers were running benchmarks but CPU
availability varied as different sysbench benchmarks completed at
different times.  Based on static CPU shares, JVM 10 limited the number
of GC threads to 2 even when other containers became idle.  The vanilla
JVM configured 15 GC threads throughout the test.  In contrast, our
adaptive JVM varied the number of GC threads based on effective CPUs."

(a) GC time per DaCapo benchmark for vanilla / JVM10 / adaptive;
(b) the GC-thread trace over collections for sunflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import (cell_specs, grid_trial, paper_heap_flags,
                                  run_cells, run_until_finished,
                                  scale_workload, testbed)
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm, JvmStats
from repro.par import ResultCache, TrialSpec
from repro.workloads.dacapo import PAPER_DACAPO, dacapo
from repro.workloads.native_runner import NativeProcess
from repro.workloads.sysbench import sysbench_mix

__all__ = ["Fig08Params", "run", "run_cell", "run_one", "trial",
           "trial_specs"]

#: Dotted path of the per-cell trial function (see repro.par).
TRIAL_FN = f"{__name__}:run_cell"


@dataclass(frozen=True)
class Fig08Params:
    scale: float = 1.0
    benchmarks: tuple[str, ...] = PAPER_DACAPO
    n_sysbench: int = 9
    sysbench_threads: int = 3
    sysbench_base_work: float = 5.0
    sysbench_step_work: float = 5.0
    trace_benchmark: str = "sunflow"
    seed: int = 0


PARAMS = Fig08Params


def _variants(heap: dict[str, int]) -> dict[str, JvmConfig]:
    return {
        "vanilla": JvmConfig.vanilla_jdk8(**heap),
        "jvm10": JvmConfig.jdk10(**heap),
        "adaptive": JvmConfig.adaptive(**heap),
    }


def run_one(bench: str, label: str, params: Fig08Params) -> JvmStats:
    """One (benchmark, JVM variant) cell of the experiment."""
    wl = scale_workload(dacapo(bench), params.scale)
    cfg = _variants(paper_heap_flags(wl))[label]
    world = testbed(seed=params.seed)
    jvm_container = world.containers.create(ContainerSpec("dacapo"))
    co_containers = [world.containers.create(ContainerSpec(f"sys{i}"))
                     for i in range(params.n_sysbench)]
    mix = sysbench_mix(params.n_sysbench,
                       base_work=params.sysbench_base_work * params.scale,
                       step_work=params.sysbench_step_work * params.scale,
                       threads=params.sysbench_threads)
    for c, wload in zip(co_containers, mix):
        NativeProcess.in_container(c, wload).start()
    jvm = Jvm(jvm_container, wl, cfg)
    jvm.launch()
    run_until_finished(world, [jvm], timeout=50000)
    return jvm.stats


def trial(params: Fig08Params, bench: str, label: str) -> dict:
    """One (benchmark, JVM variant) cell as a JSON-serializable trial."""
    stats = run_one(bench, label, params)
    return {"gc_time": stats.gc_time,
            "gc_threads_created": stats.gc_threads_created,
            "mean_gc_threads": stats.mean_gc_threads,
            "gc_thread_history": [list(pair)
                                  for pair in stats.gc_thread_history]}


run_cell = grid_trial(Fig08Params, trial)


def trial_specs(params: Fig08Params) -> list[TrialSpec]:
    """(benchmark x variant) grid; the trace benchmark rides along."""
    benches = list(params.benchmarks)
    if params.trace_benchmark not in benches:
        benches.append(params.trace_benchmark)
    return cell_specs(TRIAL_FN, "fig08", params, {
        f"{bench}/{label}": {"bench": bench, "label": label}
        for bench in benches
        for label in ("vanilla", "jvm10", "adaptive")})


def run(params: Fig08Params | None = None, *, jobs: int = 1,
        cache: ResultCache | None = None) -> ExperimentResult:
    params = params or Fig08Params()
    result = ExperimentResult(
        experiment="fig08",
        description="static shares (JVM10) vs effective CPU under varying load")
    cells = run_cells(trial_specs(params), jobs=jobs, cache=cache)
    gc_table = result.add_table("gc_time", ResultTable(
        "Figure 8(a): GC time normalized to vanilla (lower=better)",
        ["benchmark", "vanilla", "jvm10", "adaptive",
         "threads_vanilla", "threads_jvm10", "threads_adaptive_mean"]))
    for bench in params.benchmarks:
        stats = {label: cells[f"{bench}/{label}"]
                 for label in ("vanilla", "jvm10", "adaptive")}
        base = stats["vanilla"]["gc_time"]
        gc_table.add(benchmark=bench,
                     vanilla=1.0,
                     jvm10=stats["jvm10"]["gc_time"] / base,
                     adaptive=stats["adaptive"]["gc_time"] / base,
                     threads_vanilla=stats["vanilla"]["gc_threads_created"],
                     threads_jvm10=stats["jvm10"]["gc_threads_created"],
                     threads_adaptive_mean=stats["adaptive"]["mean_gc_threads"])

    trace_table = result.add_table("gc_thread_trace", ResultTable(
        f"Figure 8(b): GC threads per collection ({params.trace_benchmark})",
        ["gc_index", "vanilla", "jvm10", "adaptive"]))
    traces = {label: cells[f"{params.trace_benchmark}/{label}"]
              ["gc_thread_history"]
              for label in ("vanilla", "jvm10", "adaptive")}
    n = max(len(t) for t in traces.values())
    for i in range(n):
        trace_table.add(
            gc_index=i,
            vanilla=traces["vanilla"][i][1] if i < len(traces["vanilla"]) else None,
            jvm10=traces["jvm10"][i][1] if i < len(traces["jvm10"]) else None,
            adaptive=traces["adaptive"][i][1] if i < len(traces["adaptive"]) else None)
    result.note("expected: adaptive GC < jvm10 for most benchmarks (up to ~42%); "
                "adaptive thread trace rises as sysbench co-runners finish")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
