"""Compare a fresh cluster benchmark run against the committed baseline.

CI runs ``bench_cluster.py --quick`` and feeds the result here; the
check fails if

* any scenario's wall clock exceeds 2x the committed
  ``BENCH_cluster.json`` baseline,
* the run reports a serial/parallel digest mismatch (pool determinism
  broke),
* the ``repeat`` scenario's placement trace diverged between two
  in-process runs (simulation determinism broke), or
* the parallel speedup falls below a floor — only enforced when >= 4
  cores actually back the pool *and* the baseline's serial sweep is
  slow enough (>= 1s) for pool overhead not to dominate.

Wall clock on shared CI runners is noisy, hence the generous 2x bound:
this is a tripwire for algorithmic regressions (placement going
quadratic, migrations thrashing, the epoch loop rescanning the
world), not a microbenchmark gate. ::

    PYTHONPATH=src python benchmarks/bench_cluster.py --quick \
        --output /tmp/bench_cluster_now.json
    python benchmarks/check_cluster_regression.py /tmp/bench_cluster_now.json
"""

from __future__ import annotations

import argparse
from pathlib import Path

import gate

BASELINE = Path(__file__).resolve().parent / "BENCH_cluster.json"

MAX_SLOWDOWN = gate.MAX_SLOWDOWN
GRACE_S = gate.GRACE_S

#: Require speedup >= this when >= 4 cores back the pool and the
#: baseline serial wall is at least MIN_SERIAL_FOR_SPEEDUP_S.
MIN_SPEEDUP_4CORE = 1.25
MIN_SERIAL_FOR_SPEEDUP_S = 1.0

_WALL_KEYS = {"placement": ("serial_wall_s", "parallel_wall_s"),
              "interplay": ("serial_wall_s", "parallel_wall_s"),
              "repeat": ("first_wall_s", "second_wall_s")}


def check(current_path: Path, baseline_path: Path = BASELINE,
          *, max_slowdown: float = MAX_SLOWDOWN,
          min_speedup: float = MIN_SPEEDUP_4CORE) -> list[str]:
    """Return a list of failure messages (empty = pass)."""
    current, baseline = gate.load_pair(current_path, baseline_path)
    mismatch = gate.quick_mismatch(current, baseline, "bench_cluster.py")
    if mismatch:
        return mismatch
    failures: list[str] = []
    for key, base, now in gate.iter_scenarios(baseline, current, failures):
        failures.extend(gate.trial_drift(key, base, now))
        if not now.get("digest_match", False):
            if key == "repeat":
                what = "placement trace diverged between identical runs"
            else:
                what = "serial/parallel results diverged"
            failures.append(f"{key}: {what} (determinism regression)")
        if now.get("failures"):
            failures.append(f"{key}: {now['failures']} trial(s) failed")
        failures.extend(gate.wall_ceilings(
            key, base, now, _WALL_KEYS.get(key, ()),
            max_slowdown=max_slowdown, grace_s=GRACE_S))
    effective = gate.effective_cores(current)
    if effective >= 4:
        for key in ("placement", "interplay"):
            base = baseline["scenarios"].get(key, {})
            now = current["scenarios"].get(key)
            if (now and base.get("serial_wall_s", 0.0)
                    >= MIN_SERIAL_FOR_SPEEDUP_S
                    and now.get("speedup", 0.0) < min_speedup):
                failures.append(
                    f"{key}: speedup {now['speedup']:.2f}x below "
                    f"{min_speedup:g}x with {effective} effective cores "
                    f"(pool overhead regression)")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", type=Path,
                    help="JSON produced by a fresh bench_cluster.py run")
    ap.add_argument("--baseline", type=Path, default=BASELINE)
    ap.add_argument("--max-slowdown", type=float, default=MAX_SLOWDOWN)
    ap.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP_4CORE)
    args = ap.parse_args(argv)
    failures = check(args.current, args.baseline,
                     max_slowdown=args.max_slowdown,
                     min_speedup=args.min_speedup)
    return gate.report(failures,
                       "cluster benchmark within bounds of committed baseline")


if __name__ == "__main__":
    raise SystemExit(main())
