"""Figure 7 — JVM9's static CPU affinity vs adaptive effective CPU while
scaling the number of co-running containers from 2 to 10.

"We configured the CPU mask to access two cores in each container and
varied the number of co-running containers from 2 to 10": the JVM9
configuration pins container *i* to its own disjoint 2-core cpuset, so
JDK 9 detects 2 CPUs and uses 2 GC threads.  The adaptive configuration
runs the same containers *without* masks under equal shares, reading
`E_CPU` from the sys_namespace.

Expected shape (paper Fig. 7(a)–(j)): adaptive's execution time is lower
everywhere but converges toward JVM9's as containers increase; adaptive's
*GC* time starts lower but grows past JVM9's isolated-GC time as
co-runner interference rises (except jython, whose GC is too small to
matter).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import (cell_specs, grid_trial, paper_heap_flags,
                                  run_cells, run_jvms, scale_workload, testbed)
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import JvmConfig
from repro.par import ResultCache, TrialSpec
from repro.workloads.dacapo import PAPER_DACAPO, dacapo

__all__ = ["Fig07Params", "run", "run_cell", "trial", "trial_specs"]

#: Dotted path of the per-cell trial function (see repro.par).
TRIAL_FN = f"{__name__}:run_cell"


@dataclass(frozen=True)
class Fig07Params:
    scale: float = 1.0
    benchmarks: tuple[str, ...] = PAPER_DACAPO
    container_counts: tuple[int, ...] = (2, 4, 6, 8, 10)
    seed: int = 0


PARAMS = Fig07Params


def trial(params: Fig07Params, bench: str, n: int, mode: str) -> dict:
    """One (benchmark, container count, mode) cell."""
    wl = scale_workload(dacapo(bench), params.scale)
    heap = paper_heap_flags(wl)
    world = testbed(seed=params.seed)
    containers = []
    for i in range(n):
        if mode == "jvm9":
            spec = ContainerSpec(f"c{i}", cpuset=f"{2 * i}-{2 * i + 1}")
        else:
            spec = ContainerSpec(f"c{i}")
        containers.append(world.containers.create(spec))
    cfg = (JvmConfig.jdk9(**heap) if mode == "jvm9"
           else JvmConfig.adaptive(**heap))
    jvms = run_jvms(world, [(c, wl, cfg) for c in containers])
    k = len(jvms)
    return {"exec_s": sum(j.stats.execution_time for j in jvms) / k,
            "gc_s": sum(j.stats.gc_time for j in jvms) / k}


run_cell = grid_trial(Fig07Params, trial)


def trial_specs(params: Fig07Params) -> list[TrialSpec]:
    """The full (benchmark x count x mode) grid as independent trials."""
    return cell_specs(TRIAL_FN, "fig07", params, {
        f"{bench}/n{n}/{mode}": {"bench": bench, "n": n, "mode": mode}
        for bench in params.benchmarks
        for n in params.container_counts
        for mode in ("jvm9", "adaptive")})


def run(params: Fig07Params | None = None, *, jobs: int = 1,
        cache: ResultCache | None = None) -> ExperimentResult:
    params = params or Fig07Params()
    result = ExperimentResult(
        experiment="fig07",
        description="JVM9 (2-core cpuset) vs adaptive, 2-10 containers")
    exec_table = result.add_table("execution_time", ResultTable(
        "Figure 7(a-e): execution time (s)",
        ["benchmark", "containers", "jvm9", "adaptive"]))
    gc_table = result.add_table("gc_time", ResultTable(
        "Figure 7(f-j): GC time (s)",
        ["benchmark", "containers", "jvm9", "adaptive"]))
    cells = run_cells(trial_specs(params), jobs=jobs, cache=cache)
    for bench in params.benchmarks:
        for n in params.container_counts:
            t9, g9 = (cells[f"{bench}/n{n}/jvm9"][k]
                      for k in ("exec_s", "gc_s"))
            ta, ga = (cells[f"{bench}/n{n}/adaptive"][k]
                      for k in ("exec_s", "gc_s"))
            exec_table.add(benchmark=bench, containers=n, jvm9=t9, adaptive=ta)
            gc_table.add(benchmark=bench, containers=n, jvm9=g9, adaptive=ga)
    result.note("expected: adaptive exec < jvm9 exec, gap closing as n grows; "
                "adaptive GC time overtakes jvm9's as interference rises")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
