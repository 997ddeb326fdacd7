"""repro.check — differential scenario fuzzer and invariant checker.

The correctness backbone of the simulator.  Seeded random scenarios —
world scripts of container churn, cgroup edits at random times,
OOM-prone memory workloads and traffic-phase thread loops, or clusters
with staggered pod waves — run under a list of *variants*
(:class:`Variant`: engine and policy bundle) with every
boundary checked against an invariant suite.  One oracle judges the
runs (:func:`run_variants`): every run must be lawful, and each variant
sharing the first one's policy must reproduce its log and snapshots
byte for byte; a variant under a different policy is judged on
lawfulness alone.  Failures shrink to a minimal replayable JSON fixture
under ``tests/regressions/`` that records its variants.

Entry points::

    python -m repro check --seeds 200       # fixed-seed sweep (CI fast tier)
    python -m repro check --smoke 60        # randomized smoke, seed printed
    python -m repro check --replay FIX.json # re-run a committed fixture
    python -m repro check --policy-diff default,burstable --seeds 50
    python -m repro check --cluster --seeds 50      # generated clusters
"""

from repro.check.cluster_invariants import (check_cluster,
                                            check_cluster_snapshot)
from repro.check.differ import (DEFAULT_VARIANTS, DiffReport, Variant,
                                diff_snapshots, run_differential,
                                run_variants)
from repro.check.generator import generate, generate_cluster
from repro.check.invariants import Invariant, default_suite
from repro.check.runner import RunResult, run_cluster, run_scenario
from repro.check.scenario import Scenario
from repro.check.shrinker import shrink
from repro.check.span_tree import check_span_tree

__all__ = [
    "Scenario", "generate", "generate_cluster", "Invariant", "default_suite",
    "RunResult", "run_scenario", "run_cluster",
    "Variant", "DEFAULT_VARIANTS", "DiffReport",
    "diff_snapshots", "run_variants", "run_differential", "shrink",
    "check_cluster", "check_cluster_snapshot", "check_span_tree",
]
