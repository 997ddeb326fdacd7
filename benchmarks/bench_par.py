"""Parallel fan-out benchmark: serial vs pooled trial execution.

Three scenarios exercise :mod:`repro.par` end to end:

* ``fuzz`` — a differential fuzz sweep (the ``repro check`` hot path):
  64 generated seeds, each run on both engines.
* ``figure`` — a Fig. 7 experiment grid (the ``repro run`` hot path):
  (benchmark x container count x JVM mode) cells.
* ``cache`` — the same fuzz sweep through a fresh content-addressed
  cache, cold then warm; the warm pass must be 100% hits.

``fuzz`` and ``figure`` run twice, ``--jobs 1`` then ``--jobs N``, and
the per-trial result digests must match exactly — the benchmark fails
on any serial/parallel divergence, so the speedup numbers can never
come from changed results.  Run directly to produce
``BENCH_par.json``::

    PYTHONPATH=src python benchmarks/bench_par.py --quick

``benchmarks/check_regression.py`` compares a fresh run against the
committed baseline (wall clock within 2x, digests matching, no failed
trial, warm cache fully hit, speedup floors on enough cores).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.check import DEFAULT_VARIANTS  # noqa: E402
from repro.check.sweep import TRIAL_FN as CHECK_TRIAL_FN  # noqa: E402
from repro.harness.experiments.fig07_scaling import (Fig07Params,  # noqa: E402
                                                     trial_specs)
from repro.par import (ResultCache, TrialSpec, result_digest,  # noqa: E402
                       run_trials, warm_pool)

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_par.json"


def _fuzz_specs(*, quick: bool) -> list[TrialSpec]:
    """The trials ``repro check`` submits for the default engine pair."""
    n_seeds = 24 if quick else 64
    variants = [v.to_dict() for v in DEFAULT_VARIANTS]
    return [TrialSpec(fn=CHECK_TRIAL_FN, experiment="bench-par-fuzz",
                      trial_id=f"seed{s}",
                      config={"seed": s, "variants": variants})
            for s in range(n_seeds)]


def _figure_specs(*, quick: bool) -> list[TrialSpec]:
    params = (Fig07Params(scale=0.15, benchmarks=("h2", "lusearch"),
                          container_counts=(2, 6))
              if quick else
              Fig07Params(scale=0.4, benchmarks=("h2", "lusearch"),
                          container_counts=(2, 4, 6, 8, 10)))
    return trial_specs(params)


def _timed(specs: list[TrialSpec], *, jobs: int,
           cache: ResultCache | None = None) -> tuple[float, str, int]:
    t0 = time.perf_counter()
    results = run_trials(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - t0
    failures = sum(1 for r in results if not r.ok)
    return wall, result_digest(results), failures


def run_speedup(name: str, specs: list[TrialSpec], *, jobs: int) -> dict:
    """Serial then parallel over the same specs; digests must agree."""
    serial_wall, serial_digest, serial_failures = _timed(specs, jobs=1)
    parallel_wall, parallel_digest, parallel_failures = _timed(specs,
                                                               jobs=jobs)
    record = {
        "scenario": name, "trials": len(specs), "jobs": jobs,
        "serial_wall_s": serial_wall, "parallel_wall_s": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall else 0.0,
        "digest_match": serial_digest == parallel_digest,
        "failures": serial_failures + parallel_failures,
    }
    print(f"{name}: {len(specs)} trials, serial {serial_wall:.2f}s, "
          f"jobs={jobs} {parallel_wall:.2f}s "
          f"-> {record['speedup']:.2f}x "
          f"(digest {'ok' if record['digest_match'] else 'MISMATCH'})",
          file=sys.stderr)
    return record


def run_cache(specs: list[TrialSpec], *, jobs: int) -> dict:
    """Cold pooled run through a fresh cache, then a warm re-run."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_cache = ResultCache(tmp)
        cold_wall, digest, _ = _timed(specs, jobs=jobs, cache=cold_cache)
        warm_cache = ResultCache(tmp)
        warm_wall, warm_digest, _ = _timed(specs, jobs=jobs,
                                           cache=warm_cache)
    record = {
        "scenario": "cache", "trials": len(specs), "jobs": jobs,
        "cold_wall_s": cold_wall, "warm_wall_s": warm_wall,
        "warm_hits": warm_cache.hits, "warm_misses": warm_cache.misses,
        "digest_match": digest == warm_digest,
    }
    print(f"cache: cold {cold_wall:.2f}s, warm {warm_wall:.2f}s "
          f"({warm_cache.hits}/{len(specs)} hits)", file=sys.stderr)
    return record


def run_all(*, quick: bool, jobs: int) -> dict:
    fuzz = _fuzz_specs(quick=quick)
    figure = _figure_specs(quick=quick)
    # Worker pools are process-global and reused across sweeps; spawn
    # them once up front so every scenario measures the warm steady
    # state instead of charging startup to whichever runs first.
    warm_pool(jobs)
    return {
        "fuzz": run_speedup("fuzz", fuzz, jobs=jobs),
        "figure": run_speedup("figure", figure, jobs=jobs),
        "cache": run_cache(fuzz, jobs=jobs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller sweeps for CI smoke runs")
    ap.add_argument("--jobs", type=int,
                    default=min(8, os.cpu_count() or 1),
                    help="parallel worker count (default: min(8, cores))")
    ap.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)
    scenarios = run_all(quick=args.quick, jobs=args.jobs)
    payload = {"benchmark": "bench_par", "quick": args.quick,
               "jobs": args.jobs, "cpu_count": os.cpu_count(),
               "scenarios": scenarios}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    broken = [k for k, rec in scenarios.items() if not rec["digest_match"]]
    if broken:
        print(f"FAIL serial/parallel digest mismatch in: {broken}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
