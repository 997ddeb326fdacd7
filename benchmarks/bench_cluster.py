"""Cluster layer benchmark: placement sweeps serial vs pooled.

Three scenarios exercise :mod:`repro.cluster` end to end:

* ``placement`` — a (seed x policy) placement sweep: each trial drives
  a multi-host cluster through pod arrivals, bursts, and migrations.
* ``interplay`` — the HPA/VPA serving-stack sweep (seed x mode).
* ``repeat`` — one placement trial run twice in-process; the two
  placement traces must hash identically (single-process determinism,
  the property the pool digests build on) and the record carries a
  pods-placed-per-second throughput figure.

``placement`` and ``interplay`` run twice, ``--jobs 1`` then
``--jobs N``, and the per-trial result digests must match exactly —
the benchmark fails on any serial/parallel divergence, so the speedup
numbers can never come from changed results.  Run directly to produce
``BENCH_cluster.json``::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick

``benchmarks/check_regression.py`` compares a fresh run against the
committed baseline (wall clock within 2x, digests matching, traces
repeating, no failed trial).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_par import run_speedup  # noqa: E402
from repro.harness.experiments.exp_cluster import (ClusterExpParams,  # noqa: E402
                                                   run_cell, trial_specs)
from repro.par import TrialSpec  # noqa: E402
from repro.units import gib  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_cluster.json"


def _params(seed: int, *, quick: bool) -> ClusterExpParams:
    if quick:
        return ClusterExpParams(
            seed=seed, pods=80, hosts=4, host_ncpus=8, host_memory=gib(16),
            horizon=6.0, arrival_epochs=3,
            policies=("static", "view"),
            interplay_modes=("vpa", "hpa"),
            serve_ncpus=8, serve_rate=15.0, serve_warm=3.0,
            serve_spike_len=4.0, serve_cool=5.0, serve_workers=2)
    return ClusterExpParams(
        seed=seed, pods=300, hosts=8, host_ncpus=16, host_memory=gib(32),
        horizon=10.0, arrival_epochs=4,
        serve_rate=25.0, serve_warm=5.0, serve_spike_len=6.0,
        serve_cool=8.0)


def _sweep_specs(kind: str, *, quick: bool) -> list[TrialSpec]:
    """(seed x cell) specs for one sweep, ids namespaced by seed."""
    specs: list[TrialSpec] = []
    for seed in range(2 if quick else 3):
        for spec in trial_specs(_params(seed, quick=quick)):
            if not spec.trial_id.startswith(f"{kind}/"):
                continue
            specs.append(dataclasses.replace(
                spec, experiment="bench-cluster",
                trial_id=f"s{seed}/{spec.trial_id}"))
    return specs


def run_repeat(*, quick: bool) -> dict:
    """One placement trial twice in-process; traces must repeat."""
    params = _params(0, quick=quick)
    spec = next(s for s in trial_specs(params)
                if s.trial_id == "placement/view")
    walls, digests, placed = [], [], 0
    for _ in range(2):
        t0 = time.perf_counter()
        summary = run_cell(spec.config)
        walls.append(time.perf_counter() - t0)
        digests.append(summary["trace_digest"])
        placed = summary["placed"]
    record = {
        "scenario": "repeat", "trials": 2, "pods": params.pods,
        "placed": placed,
        "first_wall_s": walls[0], "second_wall_s": walls[1],
        "pods_per_s": placed / walls[0] if walls[0] else 0.0,
        "digest_match": digests[0] == digests[1],
    }
    print(f"repeat: {placed} pods placed in {walls[0]:.2f}s "
          f"({record['pods_per_s']:.0f} pods/s, trace "
          f"{'repeats' if record['digest_match'] else 'DIVERGED'})",
          file=sys.stderr)
    return record


def run_profile(*, quick: bool) -> dict:
    """One placement trial under the engine self-profiler.

    Runs the ``placement/view`` cell's cluster, so the attribution
    describes the same work the sweeps above time.
    """
    from repro.harness.experiments.exp_cluster import (
        build_placement_cluster, drive_placement)
    from repro.obs.profile import EngineProfiler

    params = _params(0, quick=quick)
    cluster = build_placement_cluster(params, "view")
    profiler = EngineProfiler(flight_every=2048).attach_cluster(cluster)
    drive_placement(cluster, params)
    profiler.detach()
    print(profiler.format_report(), file=sys.stderr)
    record = profiler.report()
    record.update(scenario="profile", digest_match=True)
    return record


def run_all(*, quick: bool, jobs: int, profile: bool = False) -> dict:
    scenarios = {
        "placement": run_speedup(
            "placement", _sweep_specs("placement", quick=quick), jobs=jobs),
        "interplay": run_speedup(
            "interplay", _sweep_specs("interplay", quick=quick), jobs=jobs),
        "repeat": run_repeat(quick=quick),
    }
    if profile:
        scenarios["profile"] = run_profile(quick=quick)
    return scenarios


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller sweeps for CI smoke runs")
    ap.add_argument("--jobs", type=int,
                    default=min(8, os.cpu_count() or 1),
                    help="parallel worker count (default: min(8, cores))")
    ap.add_argument("--profile", action="store_true",
                    help="also run one placement trial under the engine "
                         "self-profiler and report the attribution")
    ap.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)
    scenarios = run_all(quick=args.quick, jobs=args.jobs,
                        profile=args.profile)
    payload = {"benchmark": "bench_cluster", "quick": args.quick,
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
