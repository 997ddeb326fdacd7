"""``python -m repro check`` — drive the differential oracle from the command line.

Every mode runs scenarios under one *variant list* and judges them with
the oracle that list implies (see :mod:`repro.check.differ`).  An
unknown policy name is rejected before any trial runs:

* default: engines ``incremental`` vs ``scan``, exact equality;
* ``--policy-diff A,B``: two policy bundles, each run lawful under its
  own invariant suite, drift recorded.

``--cluster`` swaps the world generator for the cluster generator: each
seed becomes a multi-host cluster scenario run under the selected pair,
with the cluster invariants checked at every epoch barrier, migration
span chains audited on traced runs, and digests plus epoch snapshots
compared exactly.

The modes: a fixed-seed sweep (``--seeds N`` from ``--seed-start``;
``--jobs N`` fans it across worker processes; results are
content-cached under ``results/.cache`` unless ``--no-cache``), one
seed (``--seed S``), a randomized smoke (``--smoke SECONDS`` of fresh
OS-random seeds, each printed so a CI failure is reproducible), and
``--replay FIXTURE.json``, which re-runs a fixture under its own
variants or under the pair ``--policy-diff`` names.  A fixture is the
scenario dict — a world :class:`~repro.check.scenario.Scenario` (it
has ``ops``) or a cluster scenario — plus ``"variants": [...]``, left
out for the default pair.

Every mode ends with the same grep-able summary line
(``check: seeds=N failures=M cache_hits=K``); exit status is 0 only if
every scenario passed.  On a failure the *first* failing seed is re-run
locally, shrunk to a minimal repro (world scenarios, unless
``--no-shrink``) and written as a fixture next to the other
regressions, ready to commit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time

from repro.check.differ import DEFAULT_VARIANTS, Variant, run_variants
from repro.check.scenario import Scenario
from repro.check.shrinker import shrink
from repro.check.sweep import (TRIAL_FN, dump_fixture, load_fixture,
                               scenario_for, summary_line, trial)
from repro.par import ResultCache, TrialSpec, default_cache_dir, run_trials

__all__ = ["main", "add_arguments"]


def _parse_pair(spec: str) -> tuple[str, str]:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2 or not all(parts):
        raise SystemExit(
            f"expected two comma-separated names, got {spec!r}")
    return (parts[0], parts[1])


def _policy_pair(spec: str) -> list[Variant]:
    """argparse ``type`` turning ``A,B`` into two validated variants."""
    try:
        return [Variant(policy=name) for name in _parse_pair(spec)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=50, metavar="N",
                        help="number of fixed seeds to sweep (default 50)")
    parser.add_argument("--seed-start", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly one seed instead of a sweep")
    parser.add_argument("--smoke", type=float, default=None, metavar="SECONDS",
                        help="randomized smoke: fresh seeds until the "
                             "wall-clock budget is spent")
    parser.add_argument("--replay", type=str, default=None, metavar="FIXTURE",
                        help="re-run a regression fixture JSON file")
    parser.add_argument("--policy-diff", dest="variants",
                        type=_policy_pair, metavar="A,B",
                        help="run under two policy bundles (e.g. "
                             "default,burstable); the oracle is lawfulness")
    parser.add_argument("--cluster", action="store_true",
                        help="generate multi-host cluster scenarios "
                             "instead of single worlds (cluster "
                             "invariants at every epoch)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the seed sweep "
                             "(default 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed result cache")
    parser.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="report the raw failing scenario without "
                             "shrinking it first")
    parser.add_argument("--fixtures", type=str, default=None, metavar="DIR",
                        help="where to write minimized fixtures "
                             "(default: tests/regressions if present)")
    parser.add_argument("-v", "--verbose", action="store_true")


def _labels(variants: list[Variant]) -> str:
    return " vs ".join(v.label for v in variants)


def _default_fixture_dir() -> str | None:
    cand = os.path.join("tests", "regressions")
    return cand if os.path.isdir(cand) else None


def _fail(seed: int, variants: list[Variant], args) -> None:
    """Re-run, report, shrink and fixture one failing seed."""
    scenario = scenario_for(seed, cluster=args.cluster)
    report = run_variants(scenario, variants)
    print(f"FAIL seed={seed} under {_labels(variants)}")
    print(report.summary())
    fingerprint = report.fingerprint()
    if args.shrink and isinstance(scenario, Scenario):
        print(f"shrinking (fingerprint {fingerprint}) ...")
        scenario = shrink(
            scenario, lambda s: run_variants(s, variants).fingerprint())
        print(f"minimal repro: {len(scenario)} ops, "
              f"horizon {scenario.horizon}s")
    fixture_json = dump_fixture(scenario, variants)
    fixture_dir = args.fixtures or _default_fixture_dir()
    if fixture_dir:
        os.makedirs(fixture_dir, exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "_", (fingerprint or "fail").lower())
        path = os.path.join(fixture_dir, f"{slug}_seed{seed}.json")
        with open(path, "w") as fh:
            fh.write(fixture_json)
            fh.write("\n")
        print(f"fixture written: {path}")
        print(f"replay with: python -m repro check --replay {path}")
    else:
        print("repro fixture JSON:")
        print(fixture_json)


def _print_seed_result(value: dict, *, cached: bool) -> None:
    tag = " (cached)" if cached else ""
    if value["ok"]:
        stats = " ".join(f"{k}={v}" for k, v in value.items()
                         if k not in ("seed", "ok", "drift"))
        print(f"ok   seed={value['seed']} {stats}{tag}")
    else:
        print(f"fail seed={value['seed']} "
              f"fingerprint={value['fingerprint']}{tag}")


def _sweep(seeds: list[int], variants: list[Variant], args) -> int:
    """Fixed-seed sweep through the parallel runner + result cache."""
    cache = None if args.no_cache else ResultCache(default_cache_dir())
    config = [v.to_dict() for v in variants]
    specs = [TrialSpec(fn=TRIAL_FN, experiment="check-sweep",
                       trial_id=f"seed{s}",
                       config={"seed": s, "variants": config,
                               "cluster": args.cluster})
             for s in seeds]

    def on_result(_spec, res):
        if not res.ok:
            print(f"fail seed trial {res.trial_id}: {res.error}")
        elif args.verbose:
            _print_seed_result(res.value, cached=res.cached)

    results = run_trials(specs, jobs=args.jobs, cache=cache,
                         on_result=on_result)
    failed = [(seed, res) for seed, res in zip(seeds, results)
              if not res.ok or not res.value["ok"]]
    if failed:
        # Shrinking needs live report objects; re-run the first failing
        # seed in this process (cheap next to the sweep itself).
        seed, res = failed[0]
        if res.ok:                       # oracle failure, not a crash
            _fail(seed, variants, args)
        else:
            print(f"seed {seed} worker failure: {res.error}")
    if failed:
        print(f"check: FAILED (first failure above; "
              f"{len(failed)}/{len(seeds)} seeds failed under "
              f"{_labels(variants)})")
    else:
        verdict = ("lawful" if len({v.policy for v in variants}) > 1
                   else "identical")
        print(f"check: {len(seeds)} scenarios {verdict} under "
              f"{_labels(variants)}, 0 invariant violations, 0 divergences")
    print(summary_line(seeds=len(seeds), failures=len(failed),
                       cache_hits=cache.hits if cache else 0))
    return 1 if failed else 0


def _smoke(variants: list[Variant], args) -> int:
    deadline = time.monotonic() + args.smoke
    sysrand = random.SystemRandom()
    config = [v.to_dict() for v in variants]
    n = failures = 0
    while time.monotonic() < deadline:
        seed = sysrand.randrange(1 << 32)
        print(f"smoke seed={seed}", flush=True)
        value = trial({"seed": seed, "variants": config,
                       "cluster": args.cluster})
        n += 1
        if not value["ok"]:
            failures += 1
            _fail(seed, variants, args)
            break              # keep the first failure's fixture intact
        if args.verbose:
            _print_seed_result(value, cached=False)
    print(summary_line(seeds=n, failures=failures, cache_hits=0))
    return 1 if failures else 0


def _replay(args) -> int:
    try:
        with open(args.replay) as fh:
            scenario, variants = load_fixture(json.load(fh))
    except ValueError as exc:
        print(f"check: bad fixture {args.replay}: {exc}", file=sys.stderr)
        return 2
    variants = args.variants or variants
    report = run_variants(scenario, variants)
    verdict = "ok" if report.ok else f"FAIL {report.fingerprint()}"
    print(f"replay {args.replay} under {_labels(variants)}: {verdict}")
    if not report.ok:
        print(report.summary())
    print(summary_line(seeds=1, failures=0 if report.ok else 1,
                       cache_hits=0))
    return 0 if report.ok else 1


def main(args: argparse.Namespace) -> int:
    if args.replay is not None:
        return _replay(args)
    variants = args.variants or list(DEFAULT_VARIANTS)
    if args.smoke is not None:
        return _smoke(variants, args)
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    return _sweep(seeds, variants, args)
