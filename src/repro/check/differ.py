"""The differential oracle: one scenario, a list of variants, one verdict.

A :class:`Variant` says how to run a scenario: the solve engine and the
policy bundle.  :func:`run_variants` runs the scenario once per variant —
a world :class:`~repro.check.scenario.Scenario` through
:func:`~repro.check.runner.run_scenario`, a cluster scenario dict
through :func:`~repro.check.runner.run_cluster` — and judges the runs:

* every run must be lawful under its own invariant suite;
* a later variant with the same policy as ``variants[0]`` must
  reproduce its log and every snapshot *exactly*, floats included.
  Engines share their arithmetic by construction, so
  tolerances would only hide the first divergence until it compounds;
* a variant with a different policy is judged on lawfulness alone —
  distinct policies may lawfully allocate differently — and
  :meth:`DiffReport.divergence_summary` quantifies how far they drift.

The oracle is derived from the variants, never chosen by a flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.check.runner import RunResult, run_cluster, run_scenario
from repro.check.scenario import Scenario
from repro.errors import PolicyError
from repro.policy import resolve_bundle

__all__ = ["Variant", "DEFAULT_VARIANTS", "DiffReport",
           "diff_snapshots", "snapshots_equal", "run_variants",
           "run_differential"]

ENGINES = ("incremental", "scan")


@dataclass(frozen=True)
class Variant:
    """One way to run a scenario; validated on construction."""

    engine: str = "incremental"
    #: A policy bundle name (see :func:`repro.policy.resolve_bundle`).
    policy: str = "default"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}: expected "
                             f"one of {list(ENGINES)}")
        try:
            resolve_bundle(self.policy)
        except PolicyError as exc:
            raise ValueError(str(exc)) from None

    @property
    def label(self) -> str:
        """The fields that differ from the defaults, e.g. ``scan/burstable``."""
        parts = [self.engine] if self.engine != "incremental" else []
        if self.policy != "default":
            parts.append(self.policy)
        return "/".join(parts) or self.engine

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Variant":
        """Inverse of :meth:`to_dict`; fixtures come from outside the
        program, so an unknown field is a ``ValueError`` naming it."""
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown variant field {unknown[0]!r}: "
                             f"expected some of {known}")
        return cls(**data)


#: The classic engine pair; fixtures without ``variants`` replay under it.
DEFAULT_VARIANTS = (Variant(), Variant(engine="scan"))


@dataclass
class DiffReport:
    """Outcome of one :func:`run_variants` call."""

    variants: list[Variant] = field(default_factory=list)
    #: Variant label -> its run, in variant order.
    results: dict[str, RunResult] = field(default_factory=dict)
    #: "label: path a != b" strings; empty = every equal pair agrees.
    divergences: list[str] = field(default_factory=list)
    #: "label: tag: invariant: detail" strings from every run.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    def fingerprint(self) -> str | None:
        """Stable failure identity used by the shrinker's oracle.

        Coarse on purpose: the shrinker mutates the scenario, so op
        indexes and numeric details shift; what must stay fixed is the
        *kind* of failure (which invariant under which variant, or a
        divergence and on what field).
        """
        if self.violations:
            parts = [p.strip() for p in self.violations[0].split(":")]
            return f"invariant:{parts[0]}:{parts[2] if len(parts) > 2 else '?'}"
        if self.divergences:
            path = self.divergences[0].split(": ", 1)[1].split(" ", 1)[0]
            return f"divergence:{path.split('.')[-1].split('[')[0]}"
        return None

    def summary(self) -> str:
        lines = [f"  violation  {v}" for v in self.violations[:8]]
        lines += [f"  divergence {d}" for d in self.divergences[:8]]
        extra = len(self.violations) + len(self.divergences) - len(lines)
        if extra > 0:
            lines.append(f"  ... and {extra} more")
        return "\n".join(lines) or "  ok"

    def divergence_summary(self) -> dict:
        """Headline aggregates per policy, for quantifying policy drift.

        Not a pass/fail signal: between distinct policies, different
        numbers here are the policies doing their job.
        """
        out: dict = {}
        for variant, res in zip(self.variants, self.results.values()):
            final = res.snapshots[-1] if res.snapshots else {}
            groups = final.get("groups", [])
            out.setdefault(variant.policy, {
                "ooms": sum(1 for line in res.log if ":oom:" in line),
                "throttled_time": sum(g["throttled_time"] for g in groups),
                "total_cpu_time": sum(g["total_cpu_time"] for g in groups),
                "swapped": sum(g["swapped"] for g in groups),
                "elapsed": final.get("sched", {}).get("elapsed", 0.0),
            })
        return out


def diff_snapshots(a: dict | list | object, b: dict | list | object,
                   path: str = "") -> list[str]:
    """Exact structural comparison; returns human-readable mismatch paths."""
    if type(a) is not type(b):
        return [f"{path} type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        out = []
        if a.keys() != b.keys():
            return [f"{path} keys {sorted(a)} != {sorted(b)}"]
        for k in a:
            out.extend(diff_snapshots(a[k], b[k], f"{path}.{k}" if path else k))
        return out
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path} length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(diff_snapshots(x, y, f"{path}[{i}]"))
        return out
    if a != b:
        return [f"{path} {a!r} != {b!r}"]
    return []


def snapshots_equal(a: dict | list | object, b: dict | list | object) -> bool:
    """``diff_snapshots(a, b) == []``, without building a path or a report.

    The same walk and the same tests: types compared with ``is`` (so
    ``1`` differs from ``1.0`` and ``True`` from ``1``), dict key sets
    compared in any order, list lengths, then leaves with ``!=`` (so a
    NaN differs from itself and ``-0.0`` equals ``0.0``).
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            snapshots_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(snapshots_equal, a, b))
    return not a != b


def _diff_runs(a: RunResult, b: RunResult) -> list[str]:
    """The first log mismatch and the first diverging snapshot's paths.

    Each snapshot pair is first tested by :func:`snapshots_equal`; only
    a pair that differs is walked again by :func:`diff_snapshots` for
    its report.
    """
    out = []
    if a.log != b.log:
        first = next((i for i, (x, y) in enumerate(zip(a.log, b.log))
                      if x != y), None)
        out.append(f"log length {len(a.log)} != {len(b.log)}"
                   if first is None else
                   f"log[{first}] {a.log[first]!r} != {b.log[first]!r}")
    for i, (sa, sb) in enumerate(zip(a.snapshots, b.snapshots)):
        if snapshots_equal(sa, sb):
            continue
        found = diff_snapshots(sa, sb, f"snapshot[{i}]")
        if found:
            # Later snapshots inherit the first divergence; stop at the
            # earliest boundary so the report points at the cause.
            out.extend(found)
            break
    return out


def run_variants(scenario: Scenario | dict,
                 variants: list[Variant] | tuple[Variant, ...]) -> DiffReport:
    """Run ``scenario`` under every variant and judge the runs."""
    report = DiffReport(variants=list(variants))
    base = None
    for i, variant in enumerate(report.variants):
        label = variant.label
        if label in report.results:          # a self-pair
            label = f"{label}#{i}"
        sched, reclaim = resolve_bundle(variant.policy)
        if isinstance(scenario, Scenario):
            res = run_scenario(scenario, variant.engine,
                               sched_policy=sched, reclaim_policy=reclaim)
        else:
            params = {**scenario["params"], "engine": variant.engine,
                      "sched_policy": sched, "reclaim_policy": reclaim}
            res = run_cluster({**scenario, "params": params})
        report.results[label] = res
        report.violations.extend(f"{label}: {v}" for v in res.violations)
        if base is None:
            base = res
        elif variant.policy == report.variants[0].policy:
            report.divergences.extend(
                f"{label}: {d}" for d in _diff_runs(base, res))
    return report


def run_differential(scenario: Scenario) -> DiffReport:
    """Run ``scenario`` under :data:`DEFAULT_VARIANTS` (incremental, scan)."""
    return run_variants(scenario, DEFAULT_VARIANTS)
