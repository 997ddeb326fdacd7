"""Run every paper experiment and print (or save) the full report.

Usage::

    python -m repro.harness.run_all              # everything, full scale
    python -m repro.harness.run_all fig06 fig10  # a subset
    python -m repro.harness.run_all --quick      # scaled-down workloads
    python -m repro.harness.run_all --jobs 8     # fan trials across workers

``--jobs N`` forwards to every experiment that supports trial-level
fan-out (its ``run`` accepts a ``jobs`` keyword); trial results are
content-cached under ``results/.cache`` so a re-run after an unrelated
edit skips unchanged trials (``--no-cache`` disables).  The run ends
with a per-experiment wall-clock summary, so it is obvious which
figure dominates the sweep.

``_QUICK_KWARGS`` is the one quick-scale parameter set: the figure
tests under ``benchmarks/`` assert their shapes on, and byte-pin, the
tables ``run_experiment(key, quick=True)`` returns.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.par import ResultCache, default_cache_dir

__all__ = ["main", "quick_params", "run_experiment", "run_many",
           "timing_summary"]

#: Per-experiment quick-mode parameter overrides.
_QUICK_KWARGS = {
    "fig02": dict(scale=0.5, benchmarks=("h2", "lusearch")),
    "fig06": dict(scale=0.5, dacapo_benchmarks=("h2", "lusearch"),
                  specjvm_benchmarks=("derby",)),
    "fig07": dict(scale=0.5, benchmarks=("h2", "lusearch"),
                  container_counts=(2, 6, 10)),
    # Full scale: the vanilla-vs-jvm10 GC comparison depends on how much
    # of the run happens while sysbench co-runners are still alive, so
    # the workload and the co-runner mix keep the paper's proportions.
    "fig08": dict(scale=1.0, benchmarks=("h2", "sunflow")),
    "fig09": dict(scale=0.25, benchmarks=("kmeans",)),
    "fig10": dict(scale=0.5, benchmarks=("is", "ep", "cg")),
    # Two footprints that fit (h2, jython) and two that collapse in swap.
    "fig11": dict(scale=0.5, benchmarks=("h2", "jython", "lusearch", "xalan")),
    "fig12": dict(scale=0.25),
    "overhead": dict(iterations=2_000),
    "ablation": dict(scale=0.5),
    # Same shape as the default (steady / 4x spike / steady), small
    # enough to run three policies plus a repeat in seconds.
    "exp_serve": dict(ncpus=8, replicas=2, workers=2, base_rate=20.0,
                      warm=5.0, spike_len=8.0, cool=12.0, max_cores=3.0),
    # Small hosts keep inflated requests oversubscribed (so the static
    # baseline still rejects pods and the headline comparison survives).
    "exp_cluster": dict(pods=120, hosts=8, host_ncpus=4, horizon=8.0,
                        arrival_epochs=4, serve_ncpus=8, serve_rate=20.0,
                        serve_warm=4.0, serve_spike_len=6.0, serve_cool=8.0,
                        serve_workers=2),
    "exp_policy": dict(ncpus=4, spinners=2, spinner_workers=2, hogs=4,
                       epochs=6, epoch=0.4),
}


def _supports_fanout(module) -> bool:
    """Does this experiment's ``run`` accept the pool keywords?"""
    return "jobs" in inspect.signature(module.run).parameters


def quick_params(key: str):
    """The experiment's quick-scale params, or None if it has no overrides."""
    quick_kwargs = _QUICK_KWARGS.get(key)
    if quick_kwargs is None:
        return None
    return ALL_EXPERIMENTS[key].PARAMS(**quick_kwargs)


def run_experiment(key: str, *, quick: bool = False, jobs: int = 1,
                   cache: ResultCache | None = None):
    """Run one registered experiment, returning its ExperimentResult."""
    module = ALL_EXPERIMENTS[key]
    kwargs = {}
    if _supports_fanout(module):
        kwargs = {"jobs": jobs, "cache": cache}
    params = quick_params(key) if quick else None
    if params is None:
        return module.run(**kwargs)
    return module.run(params, **kwargs)


def run_many(keys: list[str], *, quick: bool = False, jobs: int = 1,
             cache: ResultCache | None = None,
             report=None) -> tuple[dict, dict[str, float]]:
    """Run experiments in order; return ``(results, per-key wall secs)``.

    ``report(key, result, elapsed)`` fires after each experiment — the
    CLI prints incrementally through it, then prints the timing dict as
    its per-experiment summary (:func:`timing_summary`).
    """
    results: dict[str, object] = {}
    timings: dict[str, float] = {}
    for key in keys:
        started = time.perf_counter()
        result = run_experiment(key, quick=quick, jobs=jobs, cache=cache)
        elapsed = time.perf_counter() - started
        results[key] = result
        timings[key] = elapsed
        if report:
            report(key, result, elapsed)
    return results, timings


def timing_summary(timings: dict[str, float]) -> str:
    """Per-experiment wall-clock table, slowest first, with the total."""
    lines = ["per-experiment wall clock:"]
    for key, secs in sorted(timings.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {key:10s} {secs:8.2f}s")
    lines.append(f"  {'total':10s} {sum(timings.values()):8.2f}s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*",
                        help=f"subset to run (default: all of "
                             f"{', '.join(ALL_EXPERIMENTS)})")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down workloads for a fast smoke run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for trial-level fan-out "
                             "(experiments that support it)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed trial cache")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--export", type=str, default=None, metavar="DIR",
                        help="also export each experiment as JSON + CSV "
                             "into this directory")
    args = parser.parse_args(argv)

    keys = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [k for k in keys if k not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    cache = None if args.no_cache else ResultCache(default_cache_dir())
    chunks: list[str] = []

    def report(key, result, elapsed):
        chunk = result.to_text() + f"\n[{key} finished in {elapsed:.1f}s wall]\n"
        print(chunk)
        chunks.append(chunk)
        if args.export:
            from repro.harness.export import write_result
            write_result(result, args.export)

    _results, timings = run_many(keys, quick=args.quick, jobs=args.jobs,
                                 cache=cache, report=report)
    summary = timing_summary(timings)
    if cache is not None:
        summary += (f"\ntrial cache: {cache.hits} hits, "
                    f"{cache.misses} misses ({cache.root})")
    print(summary)
    chunks.append(summary + "\n")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("\n".join(chunks))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
