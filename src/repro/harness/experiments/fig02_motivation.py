"""Figure 2 — the motivation experiments.

(a) **GC-thread misconfiguration.**  Five containers on 20 cores, each
with a 10-core CPU limit and equal shares, running the same DaCapo
benchmark.  ``auto_JVM8`` sizes its GC pool from the 20 host CPUs
(→ 15 threads), ``auto_JVM9`` from the 10-core cgroup limit (→ 9), while
the hand-optimised JVMs use the effective 4 cores.  Execution times are
normalised to ``auto_JVM9``; the optimised JVMs should win.

(b) **Heap misconfiguration.**  One container with a 1 GB hard /
500 MB soft memory limit on a 128 GB host under background memory
pressure.  ``auto_JVM8`` auto-sizes MaxHeap to 32 GB (host/4) and
collapses in swap; ``auto_JVM9`` sizes it to 256 MB (hard/4) and OOMs on
h2; the hand-optimised heaps (hard limit / soft limit) complete, with
the soft-limit heap fastest because nothing it commits is ever
reclaimed.  Times are normalised to ``soft_JVM8``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.container.spec import ContainerSpec
from repro.harness.common import paper_heap_flags, run_jvms, scale_workload, testbed
from repro.harness.results import ExperimentResult, ResultTable
from repro.jvm.flags import GcThreadMode, JvmConfig
from repro.units import gib, mib
from repro.workloads.dacapo import PAPER_DACAPO, dacapo
from repro.workloads.native_runner import MemoryHog

__all__ = ["Fig02Params", "run", "run_gc_threads", "run_heap_size"]

#: The empirically optimal GC thread count for 5 containers on 20 cores.
OPT_GC_THREADS = 4


@dataclass(frozen=True)
class Fig02Params:
    """Scaling knobs (``scale`` shortens workloads for quick benches)."""

    scale: float = 1.0
    benchmarks: tuple[str, ...] = PAPER_DACAPO
    n_containers: int = 5
    seed: int = 0


PARAMS = Fig02Params


def _gc_configs() -> dict[str, JvmConfig]:
    return {
        "auto_JVM8": JvmConfig.vanilla_jdk8(),
        "opt_JVM8": JvmConfig.vanilla_jdk8(gc_threads=OPT_GC_THREADS),
        "auto_JVM9": JvmConfig.jdk9(gc_thread_mode=GcThreadMode.STATIC),
        "opt_JVM9": JvmConfig.jdk9(gc_thread_mode=GcThreadMode.STATIC,
                                   gc_threads=OPT_GC_THREADS),
    }


def run_gc_threads(params: Fig02Params | None = None) -> ResultTable:
    """Fig. 2(a): execution time per benchmark and JVM configuration."""
    params = params or Fig02Params()
    table = ResultTable(
        "Figure 2(a): GC-thread configuration, normalized to auto_JVM9",
        ["benchmark", "auto_JVM8", "opt_JVM8", "auto_JVM9", "opt_JVM9",
         "gc_threads_auto8", "gc_threads_auto9"])
    for bench in params.benchmarks:
        wl = scale_workload(dacapo(bench), params.scale)
        heap = paper_heap_flags(wl)
        times: dict[str, float] = {}
        threads: dict[str, int] = {}
        for label, base_cfg in _gc_configs().items():
            cfg = JvmConfig(cpu_detect=base_cfg.cpu_detect,
                            heap_detect=base_cfg.heap_detect,
                            gc_thread_mode=base_cfg.gc_thread_mode,
                            gc_threads=base_cfg.gc_threads, **heap)
            world = testbed(seed=params.seed)
            containers = [world.containers.create(
                ContainerSpec(f"c{i}", cpus=10.0))
                for i in range(params.n_containers)]
            jvms = run_jvms(world, [(c, wl, cfg) for c in containers])
            times[label] = sum(j.stats.execution_time for j in jvms) / len(jvms)
            threads[label] = jvms[0].stats.gc_threads_created
        basis = times["auto_JVM9"]
        table.add(benchmark=bench,
                  auto_JVM8=times["auto_JVM8"] / basis,
                  opt_JVM8=times["opt_JVM8"] / basis,
                  auto_JVM9=1.0,
                  opt_JVM9=times["opt_JVM9"] / basis,
                  gc_threads_auto8=threads["auto_JVM8"],
                  gc_threads_auto9=threads["auto_JVM9"])
    return table


def _heap_configs() -> dict[str, JvmConfig]:
    from repro.jvm.flags import HeapDetectMode
    return {
        "hard_JVM8": JvmConfig.vanilla_jdk8(heap_detect=HeapDetectMode.HARD_LIMIT),
        "soft_JVM8": JvmConfig.vanilla_jdk8(heap_detect=HeapDetectMode.SOFT_LIMIT),
        "auto_JVM8": JvmConfig.vanilla_jdk8(),
        "auto_JVM9": JvmConfig.jdk9(),
    }


def run_heap_size(params: Fig02Params | None = None) -> ResultTable:
    """Fig. 2(b): execution time per benchmark and heap policy.

    ``None`` entries are OOM crashes (the missing bars in the paper).
    """
    params = params or Fig02Params()
    table = ResultTable(
        "Figure 2(b): JVM heap configuration, normalized to soft_JVM8 "
        "(None = OOM)",
        ["benchmark", "hard_JVM8", "soft_JVM8", "auto_JVM8", "auto_JVM9"])
    for bench in params.benchmarks:
        wl = scale_workload(dacapo(bench), params.scale)
        times: dict[str, float | None] = {}
        for label, cfg in _heap_configs().items():
            world = testbed(seed=params.seed)
            container = world.containers.create(ContainerSpec(
                "c0", memory_limit=gib(1), memory_soft_limit=mib(500)))
            # Background memory pressure: hog leaves free memory below
            # the low watermark so kswapd stays active.
            hog = MemoryHog(world, target=world.mm.free - int(gib(1.7)),
                            step=gib(8), interval=0.05)
            hog.start()
            jvms = run_jvms(world, [(container, wl, cfg)])
            stats = jvms[0].stats
            times[label] = None if stats.oom else stats.execution_time
        basis = times["soft_JVM8"]
        norm = {k: (v / basis if (v is not None and basis) else None)
                for k, v in times.items()}
        table.add(benchmark=bench, **norm)
    return table


def run(params: Fig02Params | None = None) -> ExperimentResult:
    params = params or Fig02Params()
    result = ExperimentResult(
        experiment="fig02",
        description="motivation: GC-thread and heap-size misconfiguration")
    result.add_table("gc_threads", run_gc_threads(params))
    result.add_table("heap_size", run_heap_size(params))
    result.note("Fig 2(a): expected opt_* < auto_* ; auto_JVM9 close to auto_JVM8")
    result.note("Fig 2(b): expected soft < hard << auto_JVM8; auto_JVM9 OOMs on h2")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
