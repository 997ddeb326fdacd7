r"""Compare a fresh benchmark run against its committed baseline. ::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --output /tmp/engine.json
    python benchmarks/check_regression.py /tmp/engine.json

The payload's own ``"benchmark"`` field picks the baseline
(``bench_engine`` -> ``BENCH_engine.json``, and so on); an unknown name
is rejected.  Every baseline scenario must be present in the run, at the
same ``--quick`` scale, and passes these rules:

* ``steps`` and ``trials`` are equal to the baseline's: both are
  deterministic, so a drift means the simulated event sequence or the
  sweep definition changed, not just its speed;
* ``digest_match`` is true: the runs a scenario compares (serial vs
  pooled, telemetry off vs on, run vs re-run) produced the same bytes;
* ``failures`` is zero: a trial that fails the same way serially and in
  the pool still gives matching digests;
* every field named ``*_wall_s`` stays under 2x the baseline plus
  0.25 s.  Wall clock on shared runners is noisy, so this is a tripwire
  for algorithmic regressions, not a microbenchmark gate.

Then each benchmark adds its own rules: the engine's steps/s floor, the
fan-out's warm-cache hits and speedup floors, the cluster's speedup
floor, and telemetry's overhead budget and record count.  Failures are
printed as ``FAIL ...`` lines on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Wall ceilings and throughput floors allow this factor of slowdown.
MAX_SLOWDOWN = 2.0

#: Absolute grace added to every wall ceiling: sub-second quick runs
#: would otherwise gate on scheduler/filesystem noise.
GRACE_S = 0.25

#: Pooled speedup floor when >= 4 cores actually back the pool.
MIN_SPEEDUP_4CORE = 1.25

#: With >= 2 effective cores the pool must at least break even on the
#: small figure-sized sweep, the shape that exposed the cold-pool
#: regression (figure speedup 0.81 before warm pool reuse).
MIN_SPEEDUP_BREAKEVEN = 1.0

#: The cluster speedup floor applies only to sweeps whose baseline
#: serial wall is this long, so pool overhead does not dominate.
MIN_SERIAL_FOR_SPEEDUP_S = 1.0

#: Telemetry-on wall must stay within this factor of telemetry-off, plus
#: an absolute grace for sub-second runs.
BUDGET_RATIO = 1.05
BUDGET_GRACE_S = 0.10


def _effective_cores(current: dict) -> int:
    """Cores actually backing the pool: ``min(jobs, cpu_count)``."""
    return min(current.get("jobs", 1), current.get("cpu_count") or 1)


def _speedup_floors(current: dict, floors: dict[str, float],
                    cores: int) -> list[str]:
    failures = []
    for key, floor in floors.items():
        now = current["scenarios"].get(key)
        if now is not None and now.get("speedup", 0.0) < floor:
            failures.append(
                f"{key}: speedup {now.get('speedup', 0.0):.2f}x below "
                f"{floor:g}x with {cores} effective cores "
                f"(pool overhead regression)")
    return failures


def _engine(current: dict, baseline: dict) -> list[str]:
    failures = []
    for key, base in sorted(baseline["scenarios"].items()):
        now = current["scenarios"].get(key)
        floor = base["steps_per_sec"] / MAX_SLOWDOWN
        if now is not None and now["steps_per_sec"] < floor:
            failures.append(
                f"{key}: {now['steps_per_sec']:.0f} steps/s is below "
                f"{floor:.0f} (baseline {base['steps_per_sec']:.0f} "
                f"/ {MAX_SLOWDOWN:g})")
    return failures


def _par(current: dict, baseline: dict) -> list[str]:
    failures = []
    cache = current["scenarios"].get("cache")
    if cache and cache.get("warm_hits") != cache.get("trials"):
        failures.append(
            f"cache: warm pass hit {cache.get('warm_hits')}/"
            f"{cache.get('trials')} trials (cache stopped hitting)")
    cores = _effective_cores(current)
    if cores >= 4:
        floors = {"fuzz": MIN_SPEEDUP_4CORE, "figure": MIN_SPEEDUP_4CORE}
    elif cores >= 2:
        floors = {"figure": MIN_SPEEDUP_BREAKEVEN}
    else:
        floors = {}
    return failures + _speedup_floors(current, floors, cores)


def _cluster(current: dict, baseline: dict) -> list[str]:
    cores = _effective_cores(current)
    if cores < 4:
        return []
    floors = {key: MIN_SPEEDUP_4CORE for key in ("placement", "interplay")
              if baseline["scenarios"].get(key, {}).get("serial_wall_s", 0.0)
              >= MIN_SERIAL_FOR_SPEEDUP_S}
    return _speedup_floors(current, floors, cores)


def _obs(current: dict, baseline: dict) -> list[str]:
    # Always-on fleet telemetry must be effectively free; the opt-in
    # profiler scenario is exempt.
    tel = current["scenarios"].get("telemetry")
    if tel is None:
        return []
    failures = []
    ceiling = tel["off_wall_s"] * BUDGET_RATIO + BUDGET_GRACE_S
    if tel["on_wall_s"] > ceiling:
        failures.append(
            f"telemetry: on {tel['on_wall_s']:.3f}s exceeds budget "
            f"{ceiling:.3f}s (off {tel['off_wall_s']:.3f}s x "
            f"{BUDGET_RATIO:g} + {BUDGET_GRACE_S:g}s grace)")
    if tel.get("records_streamed", 0) < tel.get("epochs", 0):
        failures.append(
            f"telemetry: only {tel.get('records_streamed')} of "
            f"{tel.get('epochs')} epoch records reached the stream")
    return failures


#: Each benchmark's own rules, keyed by the payload's ``"benchmark"``.
RULES = {"bench_engine": _engine, "bench_par": _par,
         "bench_cluster": _cluster, "bench_obs": _obs}


def baseline_path(name: str) -> Path:
    """The committed baseline of benchmark ``name`` (``bench_X``)."""
    if name not in RULES:
        raise ValueError(f"unknown benchmark {name!r}; expected one of "
                         f"{', '.join(RULES)}")
    return BENCH_DIR / f"BENCH_{name.removeprefix('bench_')}.json"


def check(current: dict, baseline: dict) -> list[str]:
    """Return the failure messages of ``current`` against ``baseline``."""
    name = current.get("benchmark")
    if current.get("quick") != baseline.get("quick"):
        return [f"quick={current.get('quick')} run compared against "
                f"quick={baseline.get('quick')} baseline; "
                f"re-run {name}.py with matching scale"]
    failures: list[str] = []
    for key, base in sorted(baseline["scenarios"].items()):
        now = current["scenarios"].get(key)
        if now is None:
            failures.append(f"{key}: missing from current run")
            continue
        for field, what in (("steps", "step count"), ("trials", "trial count")):
            if now.get(field) != base.get(field):
                failures.append(
                    f"{key}: {what} drifted {base.get(field)} -> "
                    f"{now.get(field)} (event sequence or sweep changed; "
                    f"if intended, regenerate the baseline)")
        if "digest_match" in base and not now.get("digest_match"):
            failures.append(f"{key}: the runs it compares diverged "
                            f"(determinism or passivity regression)")
        if now.get("failures"):
            failures.append(f"{key}: {now['failures']} trial(s) failed")
        for field in sorted(f for f in base if f.endswith("_wall_s")):
            ceiling = base[field] * MAX_SLOWDOWN + GRACE_S
            if now[field] > ceiling:
                failures.append(
                    f"{key}: {field} {now[field]:.3f}s exceeds "
                    f"{ceiling:.3f}s (baseline {base[field]:.3f}s "
                    f"x {MAX_SLOWDOWN:g} + {GRACE_S:g}s)")
    return failures + RULES[name](current, baseline)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", type=Path,
                    help="JSON written by a benchmarks/bench_*.py run")
    args = ap.parse_args(argv)
    current = json.loads(args.current.read_text())
    try:
        path = baseline_path(current.get("benchmark"))
    except ValueError as exc:
        failures = [str(exc)]
    else:
        failures = check(current, json.loads(path.read_text()))
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    if failures:
        return 1
    print(f"{current['benchmark']} within bounds of {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
