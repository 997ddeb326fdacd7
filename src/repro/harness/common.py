"""Shared experiment plumbing: the paper's testbed and run helpers.

§5.1: "a PowerEdge R730 server ... dual 10-core Intel Xeon 2.30 GHz
processors, 128GB memory", Docker containers, OpenJDK 8 with Parallel
Scavenge, gcc 4.8 OpenMP.  Heap sizes of Java benchmarks are "3x of
their respective minimum heap sizes".

The experiments that fan their grid out through :mod:`repro.par` share
one trial contract: a cell's config is ``asdict(params)`` plus the
cell's own keys (:func:`cell_specs`), and :func:`grid_trial` turns that
config back into ``trial(params, **cell)`` in the worker.  Every params
field is therefore in every cell's cache key.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace

from repro.container.container import Container
from repro.errors import ReproError
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.par import ResultCache, TrialSpec, run_trials
from repro.units import gib
from repro.workloads.base import JavaWorkload
from repro.world import World

__all__ = ["TESTBED_CPUS", "TESTBED_MEMORY", "HEAP_MULTIPLIER", "testbed",
           "paper_heap_flags", "run_jvms", "run_until_finished",
           "scale_workload", "cell_specs", "grid_trial", "run_cells"]

#: The paper's 20-core host.
TESTBED_CPUS = 20
#: The paper's 128 GB host.
TESTBED_MEMORY = gib(128)
#: "The heap sizes of Java-based benchmarks were set to 3x of their
#: respective minimum heap sizes."
HEAP_MULTIPLIER = 3


def testbed(*, seed: int = 0, **kw) -> World:
    """A world matching the paper's testbed."""
    kw.setdefault("ncpus", TESTBED_CPUS)
    kw.setdefault("memory", TESTBED_MEMORY)
    return World(seed=seed, **kw)


def paper_heap_flags(workload: JavaWorkload) -> dict[str, int]:
    """The §5.1 heap methodology: -Xms = -Xmx = 3x min heap."""
    size = HEAP_MULTIPLIER * workload.min_heap
    return {"xms": size, "xmx": size}


def scale_workload(workload: JavaWorkload, scale: float) -> JavaWorkload:
    """Shorten a workload for quick benchmark runs (same rates/shape)."""
    if scale <= 0:
        raise ReproError(f"scale must be positive, got {scale}")
    if scale == 1.0:
        return workload
    return replace(workload, total_work=workload.total_work * scale)


def run_jvms(world: World, pairs: list[tuple[Container, JavaWorkload, JvmConfig]],
             *, timeout: float = 20000.0, trace_heap: bool = False) -> list[Jvm]:
    """Launch one JVM per (container, workload, config) and run to completion.

    JVMs that die (OOM) count as finished; the caller inspects
    ``stats.oom``.  Raises if the world deadlocks before completion.
    """
    jvms = []
    for container, workload, config in pairs:
        jvm = Jvm(container, workload, config, trace_heap=trace_heap)
        jvm.launch()
        jvms.append(jvm)
    run_until_finished(world, jvms, timeout=timeout)
    return jvms


def run_until_finished(world: World, runners: list, *, timeout: float) -> None:
    """Run ``world`` until every runner (a JVM, an OpenMP program) has
    finished; a JVM that dies (OOM) counts as finished.

    Raises naming the unfinished runners if the world times out or goes
    idle first, so a cell never reports a half-run's stats.
    """
    if not world.run_until(lambda: all(r.finished for r in runners),
                           timeout=timeout):
        unfinished = [r.name for r in runners if not r.finished]
        raise ReproError(f"experiment timed out; unfinished: {unfinished}")


def cell_specs(fn: str, experiment: str, params,
               cells: dict[str, dict]) -> list[TrialSpec]:
    """One spec per ``trial_id: cell``; its config is ``asdict(params)``
    plus the cell's own keys."""
    base = asdict(params)
    return [TrialSpec(fn=fn, experiment=experiment, trial_id=trial_id,
                      config={**base, **cell})
            for trial_id, cell in cells.items()]


def grid_trial(params_cls, trial):
    """The ``fn(config)`` a :mod:`repro.par` worker calls for a cell of
    :func:`cell_specs`: rebuild the params (JSON lists back to tuples)
    and return ``trial(params, **cell)``."""
    names = {f.name for f in fields(params_cls)}

    def run_cell(config: dict):
        params = params_cls(**{k: tuple(v) if isinstance(v, list) else v
                               for k, v in config.items() if k in names})
        return trial(params, **{k: v for k, v in config.items()
                                if k not in names})
    return run_cell


def run_cells(specs: list[TrialSpec], *, jobs: int = 1,
              cache: ResultCache | None = None) -> dict:
    """``{trial_id: value}`` for every spec, or raise naming the failed
    trial: a sweep tolerates failure rows, a figure with a missing cell
    must fail loudly."""
    cells = {}
    for res in run_trials(specs, jobs=jobs, cache=cache):
        if not res.ok:
            raise ReproError(f"trial {res.trial_id} failed: {res.error}")
        cells[res.trial_id] = res.value
    return cells
