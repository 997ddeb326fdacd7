"""The seed-sweep trial for the differential oracle, runnable via repro.par.

One trial = one seed under one variant list: derive the scenario (a
world, or a cluster when the config says ``cluster``), run it under
every variant, judge.  The trial value is a plain dict so
sweeps can fan out across worker processes and be content-cached — a
200-seed CI sweep after a docs-only commit is 200 cache hits.

Failing seeds are reported *in* the value (``ok=False``) rather than
raised: the CLI re-runs the first failure locally to shrink it and
write a fixture, which needs live objects the pool cannot ship back.
"""

from __future__ import annotations

import json

from repro.check.differ import DEFAULT_VARIANTS, Variant, run_variants
from repro.check.generator import generate, generate_cluster
from repro.check.scenario import Scenario

__all__ = ["TRIAL_FN", "trial", "scenario_for", "load_fixture",
           "dump_fixture", "summary_line"]

#: Dotted path handed to TrialSpec.fn.
TRIAL_FN = "repro.check.sweep:trial"


def load_fixture(data: dict) -> tuple[Scenario | dict, list[Variant]]:
    """Split a fixture into its scenario (world or cluster) and variants.

    A fixture without ``variants`` runs under the default engine pair.
    """
    data = dict(data)
    variants = [Variant.from_dict(v) for v in data.pop("variants", ())]
    scenario = Scenario.from_dict(data) if "ops" in data else data
    return scenario, variants or list(DEFAULT_VARIANTS)


def dump_fixture(scenario: Scenario | dict, variants: list[Variant]) -> str:
    """The canonical fixture JSON; the default pair is left implicit."""
    data = scenario.to_dict() if isinstance(scenario, Scenario) else dict(scenario)
    if list(variants) != list(DEFAULT_VARIANTS):
        data["variants"] = [v.to_dict() for v in variants]
    return json.dumps(data, indent=2, sort_keys=True)


def scenario_for(seed: int, *, cluster: bool = False) -> Scenario | dict:
    """The generated cluster scenario for ``seed`` when ``cluster``, else
    the generated world scenario."""
    return generate_cluster(seed) if cluster else generate(seed)


def trial(config: dict) -> dict:
    """Run one seed (``config["seed"]``) under ``config["variants"]``.

    ``config["cluster"]`` (default false) picks the cluster generator.
    """
    seed = int(config["seed"])
    variants = [Variant.from_dict(v) for v in config["variants"]]
    scenario = scenario_for(seed, cluster=config.get("cluster", False))
    report = run_variants(scenario, variants)
    value = {"seed": seed, "ok": report.ok}
    if not report.ok:
        value.update(fingerprint=report.fingerprint(),
                     summary=report.summary())
        return value
    base = next(iter(report.results.values()))
    final = base.snapshots[-1]
    if isinstance(scenario, Scenario):
        value.update(ops=len(scenario), steps=final["steps"],
                     oom=final["mm"]["oom_kills"],
                     groups=len(final["groups"]))
    else:
        value.update(epochs=len(base.snapshots), pods=final["placed"],
                     migrations=final["migrations"]["count"])
    if len({v.policy for v in variants}) > 1:
        value["drift"] = report.divergence_summary()
    return value


def summary_line(*, seeds: int, failures: int, cache_hits: int) -> str:
    """The stable, grep-able one-line summary every check mode prints.

    CI greps for the ``check: seeds=... failures=... cache_hits=...``
    shape; keep the key order and spelling fixed.
    """
    return f"check: seeds={seeds} failures={failures} cache_hits={cache_hits}"
