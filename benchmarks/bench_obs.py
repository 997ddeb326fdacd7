"""Telemetry overhead benchmark: the fleet pipeline's cost contract.

The fleet telemetry pipeline (:mod:`repro.obs.fleet`) promises to be
*passive*: attaching it must not change what the cluster computes, and
its wall-clock cost must stay within the committed 5% budget.  Two
scenarios measure exactly that over the fleet scenario
(:func:`repro.obs.demo.build_fleet_cluster` — over-committed hosts,
bursts, real migrations) at benchmark density (``_SCALE``):

* ``telemetry`` — the same seeded run with telemetry off vs on (host
  tracing + fleet collector streaming every epoch record through a
  :class:`~repro.obs.export.JsonlStreamWriter` to disk).  Both runs'
  placement trace digests must match bit for bit, and the telemetry-on
  wall must stay within ``BUDGET_RATIO`` of telemetry-off.
* ``profiler`` — the same run bare vs under the opt-in
  :class:`~repro.obs.profile.EngineProfiler`.  Digest identity is a
  hard requirement; the profiler's overhead is recorded but not
  budget-gated (it is a debugging tool, not an always-on pipeline).

Each variant runs ``repeats`` times and the *minimum* wall is kept —
the standard trick for wringing scheduler noise out of sub-second
measurements.  Run directly to produce ``BENCH_obs.json``::

    PYTHONPATH=src python benchmarks/bench_obs.py --quick

``benchmarks/check_regression.py`` compares a fresh run against the
committed baseline and enforces the overhead budget in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.demo import build_fleet_cluster  # noqa: E402
from repro.obs.export import JsonlStreamWriter  # noqa: E402
from repro.obs.fleet import FleetCollector  # noqa: E402
from repro.obs.profile import EngineProfiler  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_obs.json"

#: The committed overhead budget: telemetry-on wall must stay within
#: this factor of telemetry-off (checked by check_regression.py).
BUDGET_RATIO = 1.05

#: Benchmark scale, denser than the CLI demo: the per-epoch collector
#: cost is linear in pods while the engine's is superlinear (per-pod
#: sys-namespace timers, each accrual touching O(pods/host) state), so
#: the overhead budget is measured at fleet densities where the engine
#: does real work — the regime the 5% claim is about.
_SCALE = {
    True: dict(n_hosts=8, host_ncpus=16, n_pods=176, horizon=14.0),
    False: dict(n_hosts=8, host_ncpus=16, n_pods=176, horizon=30.0),
}


def _timed_run(seed: int, *, quick: bool, telemetry: bool,
               profile: bool, stream_path: Path | None) -> dict:
    """One fleet run; returns wall, digest, and telemetry counters."""
    scale = _SCALE[quick]
    cluster = build_fleet_cluster(seed, quick=quick, trace=telemetry,
                                  **scale)
    collector = None
    sink = None
    if telemetry:
        sink = (JsonlStreamWriter(stream_path) if stream_path is not None
                else None)
        collector = FleetCollector(sink=sink)
        cluster.attach_telemetry(collector)
    profiler = EngineProfiler().attach_cluster(cluster) if profile else None

    t0 = time.perf_counter()
    cluster.run(until=scale["horizon"])
    if collector is not None:
        collector.finish()
    wall = time.perf_counter() - t0

    if profiler is not None:
        profiler.detach()
    if sink is not None:
        sink.close()
    record = {"wall_s": wall, "digest": cluster.trace_digest(),
              "migrations": len(cluster.migration_records)}
    if collector is not None:
        record["epochs"] = collector.epochs
        record["records_streamed"] = collector.records_streamed
        record["stream_bytes"] = (stream_path.stat().st_size
                                  if stream_path is not None else 0)
    if profiler is not None:
        rep = profiler.report()
        record["steps_per_s"] = rep["steps_per_s"]
        record["attributed_frac"] = 1.0 - (rep["unattributed_s"]
                                           / rep["wall_s"]
                                           if rep["wall_s"] > 0 else 0.0)
    return record


def _best_of(repeats: int, fn) -> dict:
    """Run ``fn`` ``repeats`` times; keep the min-wall record."""
    best = None
    for _ in range(repeats):
        record = fn()
        if best is None or record["wall_s"] < best["wall_s"]:
            best = record
    return best


def run_telemetry(*, quick: bool, repeats: int, seed: int = 3) -> dict:
    """Telemetry off vs on: digest identity + the 5% overhead budget."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "fleet.jsonl"
        off = _best_of(repeats, lambda: _timed_run(
            seed, quick=quick, telemetry=False, profile=False,
            stream_path=None))
        on = _best_of(repeats, lambda: _timed_run(
            seed, quick=quick, telemetry=True, profile=False,
            stream_path=stream))
    ratio = on["wall_s"] / off["wall_s"] if off["wall_s"] > 0 else 0.0
    record = {
        "scenario": "telemetry", "repeats": repeats,
        "off_wall_s": off["wall_s"], "on_wall_s": on["wall_s"],
        "overhead_ratio": ratio, "budget_ratio": BUDGET_RATIO,
        "digest_match": off["digest"] == on["digest"],
        "epochs": on["epochs"], "migrations": on["migrations"],
        "records_streamed": on["records_streamed"],
        "stream_bytes": on["stream_bytes"],
    }
    print(f"telemetry: off {off['wall_s']:.3f}s, on {on['wall_s']:.3f}s "
          f"-> {ratio:.3f}x (budget {BUDGET_RATIO:g}x, digest "
          f"{'ok' if record['digest_match'] else 'MISMATCH'}), "
          f"{on['records_streamed']} records / "
          f"{on['stream_bytes']} bytes streamed", file=sys.stderr)
    return record


def run_profiler(*, quick: bool, repeats: int, seed: int = 3) -> dict:
    """Bare vs profiled: digest identity; overhead recorded, not gated."""
    off = _best_of(repeats, lambda: _timed_run(
        seed, quick=quick, telemetry=False, profile=False,
        stream_path=None))
    on = _best_of(repeats, lambda: _timed_run(
        seed, quick=quick, telemetry=False, profile=True,
        stream_path=None))
    ratio = on["wall_s"] / off["wall_s"] if off["wall_s"] > 0 else 0.0
    record = {
        "scenario": "profiler", "repeats": repeats,
        "off_wall_s": off["wall_s"], "on_wall_s": on["wall_s"],
        "overhead_ratio": ratio,
        "digest_match": off["digest"] == on["digest"],
        "steps_per_s": on["steps_per_s"],
        "attributed_frac": on["attributed_frac"],
    }
    print(f"profiler: bare {off['wall_s']:.3f}s, profiled "
          f"{on['wall_s']:.3f}s -> {ratio:.3f}x (digest "
          f"{'ok' if record['digest_match'] else 'MISMATCH'}), "
          f"{on['steps_per_s']:.0f} steps/s", file=sys.stderr)
    return record


def run_all(*, quick: bool, repeats: int) -> dict:
    return {
        "telemetry": run_telemetry(quick=quick, repeats=repeats),
        "profiler": run_profiler(quick=quick, repeats=repeats),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="smaller fleet scenario for CI smoke runs")
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per variant; min wall is kept (default 5)")
    ap.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)
    scenarios = run_all(quick=args.quick, repeats=args.repeats)
    payload = {"benchmark": "bench_obs", "quick": args.quick,
               "scenarios": scenarios}
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    broken = [k for k, rec in scenarios.items() if not rec["digest_match"]]
    if broken:
        print(f"FAIL telemetry perturbed the simulation in: {broken}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
