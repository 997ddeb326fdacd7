"""Figure 10 — OpenMP/NPB with static, dynamic, and adaptive threads.

Two scenarios:

(a) five containers with equal shares, each running an identical NPB
    program;
(b) one container with a CPU quota equivalent to 4 cores.

The *static* strategy launches one thread per online CPU for every
region; *dynamic* uses libgomp's ``n_onln - loadavg``; *adaptive*
substitutes effective CPU.  "Surprisingly, the dynamic approach had the
worst performance in both scenarios" — the host's 15-minute load average
sits at saturation (the testbed is benchmarking continuously), so
dynamic collapses to one thread, while static over-threads a 4-CPU
allocation.

The load tracker is seeded to host saturation with slow (15-minute
scale) windows to model the warmed-up testbed; see
``LoadTracker.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import (cell_specs, grid_trial, run_cells,
                                  run_until_finished, testbed)
from repro.harness.results import ExperimentResult, ResultTable
from repro.kernel.loadavg import LoadAvgParams
from repro.openmp.policy import OmpPolicy
from repro.openmp.runtime import OpenMpRuntime
from repro.par import ResultCache, TrialSpec
from repro.workloads.npb import NPB_NAMES, npb

__all__ = ["Fig10Params", "run", "run_cell", "run_five_containers",
           "run_one_container", "trial", "trial_specs"]

#: Dotted path of the per-cell trial function (see repro.par).
TRIAL_FN = f"{__name__}:run_cell"

#: Slow load-average windows: the 15-minute window dwarfs a benchmark run.
LOAD_PARAMS = LoadAvgParams(tau_1=60.0, tau_5=300.0, tau_15=900.0)


@dataclass(frozen=True)
class Fig10Params:
    scale: float = 1.0
    benchmarks: tuple[str, ...] = NPB_NAMES
    n_containers: int = 5
    quota_cores: float = 4.0
    seed: int = 0


PARAMS = Fig10Params


def _scaled(name: str, scale: float):
    import dataclasses
    wl = npb(name)
    if scale == 1.0:
        return wl
    return dataclasses.replace(
        wl, iterations=max(1, int(round(wl.iterations * scale))))


def run_five_containers(bench: str, policy: OmpPolicy,
                        params: Fig10Params) -> float:
    """Scenario (a): mean execution time over the five containers."""
    world = testbed(seed=params.seed, loadavg_params=LOAD_PARAMS)
    world.loadavg.seed(world.host.ncpus)
    wl = _scaled(bench, params.scale)
    runtimes = []
    for i in range(params.n_containers):
        c = world.containers.create(ContainerSpec(f"c{i}"))
        rt = OpenMpRuntime(c, wl, policy, name=f"{bench}{i}")
        rt.start()
        runtimes.append(rt)
    run_until_finished(world, runtimes, timeout=100000)
    return sum(r.stats.execution_time for r in runtimes) / len(runtimes)


def run_one_container(bench: str, policy: OmpPolicy,
                      params: Fig10Params) -> float:
    """Scenario (b): one container with a 4-core quota."""
    world = testbed(seed=params.seed, loadavg_params=LOAD_PARAMS)
    world.loadavg.seed(world.host.ncpus)
    wl = _scaled(bench, params.scale)
    c = world.containers.create(ContainerSpec("c0", cpus=params.quota_cores))
    rt = OpenMpRuntime(c, wl, policy, name=bench)
    rt.start()
    run_until_finished(world, [rt], timeout=100000)
    return rt.stats.execution_time


def trial(params: Fig10Params, bench: str, policy: str,
          scenario: str) -> dict:
    """One (benchmark, policy, scenario) cell as a pool trial."""
    runner = run_five_containers if scenario == "five" else run_one_container
    return {"exec_s": runner(bench, OmpPolicy[policy], params)}


run_cell = grid_trial(Fig10Params, trial)


def trial_specs(params: Fig10Params) -> list[TrialSpec]:
    """The (benchmark x policy x scenario) grid as independent trials."""
    return cell_specs(TRIAL_FN, "fig10", params, {
        f"{bench}/{scenario}/{policy.name}":
            {"bench": bench, "policy": policy.name, "scenario": scenario}
        for bench in params.benchmarks
        for scenario in ("five", "one")
        for policy in OmpPolicy})


def run(params: Fig10Params | None = None, *, jobs: int = 1,
        cache: ResultCache | None = None) -> ExperimentResult:
    params = params or Fig10Params()
    result = ExperimentResult(
        experiment="fig10",
        description="NPB/OpenMP: static vs dynamic vs adaptive threads")
    a = result.add_table("five_containers", ResultTable(
        "Figure 10(a): 5 equal-share containers, time relative to adaptive",
        ["benchmark", "static", "dynamic", "adaptive"]))
    b = result.add_table("one_container", ResultTable(
        "Figure 10(b): 1 container with 4-core quota, time relative to adaptive",
        ["benchmark", "static", "dynamic", "adaptive"]))
    cells = run_cells(trial_specs(params), jobs=jobs, cache=cache)
    for bench in params.benchmarks:
        for scenario, table in (("five", a), ("one", b)):
            times = {p: cells[f"{bench}/{scenario}/{p.name}"]["exec_s"]
                     for p in OmpPolicy}
            basis = times[OmpPolicy.ADAPTIVE]
            table.add(benchmark=bench,
                      static=times[OmpPolicy.STATIC] / basis,
                      dynamic=times[OmpPolicy.DYNAMIC] / basis, adaptive=1.0)
    result.note("expected: dynamic worst in both scenarios; static over-threads; "
                "adaptive best")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
