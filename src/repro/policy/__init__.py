"""repro.policy — pluggable kernel policies behind a hot-swap boundary.

The scheduler and memory manager delegate their *decisions* (how to
split a contention domain, when quota clipping throttles, whom to
reclaim from) to :class:`SchedPolicy` / :class:`ReclaimPolicy`
instances resolved here by name.  Mechanism state — dirty sets,
contention domains, the completion index, every conservation ledger —
stays in the kernel and is identical under every policy, which is what
makes mid-simulation swapping (:meth:`repro.world.World.swap_policy`)
safe: policies are stateless, so the handoff only replaces the
instance, and the world asserts the ledgers are untouched.

Built-in policies::

    World(sched_policy="default")     # CFS fair sharing (golden-gated)
    World(sched_policy="burstable")   # no hard quota; pressure throttles
    World(reclaim_policy="intent")    # scratch/cache/heap-aware reclaim

Bundles name a (sched, reclaim) pair for tools that sweep whole
configurations (the policy-diff fuzzer, ``exp_policy``, the
``bench_engine.py`` fleet pins)::

    python -m repro check --policy-diff default,burstable --seeds 50

Third-party policies register under a name and are then constructible
everywhere a built-in is::

    register_sched_policy("mine", MySchedPolicy)
    World(sched_policy="mine")
"""

from __future__ import annotations

from repro.errors import PolicyError
from repro.policy.base import ReclaimPolicy, SchedPolicy
from repro.policy.burstable import BurstableSchedPolicy
from repro.policy.default import DefaultReclaimPolicy, DefaultSchedPolicy
from repro.policy.intent import INTENT_RANK, INTENTS, IntentReclaimPolicy

__all__ = [
    "SchedPolicy", "ReclaimPolicy",
    "DefaultSchedPolicy", "DefaultReclaimPolicy",
    "BurstableSchedPolicy", "IntentReclaimPolicy",
    "INTENTS", "INTENT_RANK",
    "SCHED_POLICIES", "RECLAIM_POLICIES", "POLICY_BUNDLES",
    "register_sched_policy", "register_reclaim_policy",
    "make_sched_policy", "make_reclaim_policy", "resolve_bundle",
]

#: name -> SchedPolicy subclass (extensible via register_sched_policy).
SCHED_POLICIES: dict[str, type[SchedPolicy]] = {
    "default": DefaultSchedPolicy,
    "burstable": BurstableSchedPolicy,
}

#: name -> ReclaimPolicy subclass (extensible via register_reclaim_policy).
RECLAIM_POLICIES: dict[str, type[ReclaimPolicy]] = {
    "default": DefaultReclaimPolicy,
    "intent": IntentReclaimPolicy,
}

#: bundle name -> (sched policy name, reclaim policy name).
POLICY_BUNDLES: dict[str, tuple[str, str]] = {
    "default": ("default", "default"),
    "burstable": ("burstable", "default"),
    "intent": ("default", "intent"),
}


def register_sched_policy(name: str, cls: type[SchedPolicy],
                          *, replace: bool = False) -> None:
    """Make ``cls`` constructible as ``World(sched_policy=name)``."""
    if name in SCHED_POLICIES and not replace:
        raise PolicyError(f"sched policy {name!r} already registered")
    SCHED_POLICIES[name] = cls
    POLICY_BUNDLES.setdefault(name, (name, "default"))


def register_reclaim_policy(name: str, cls: type[ReclaimPolicy],
                            *, replace: bool = False) -> None:
    """Make ``cls`` constructible as ``World(reclaim_policy=name)``."""
    if name in RECLAIM_POLICIES and not replace:
        raise PolicyError(f"reclaim policy {name!r} already registered")
    RECLAIM_POLICIES[name] = cls
    POLICY_BUNDLES.setdefault(name, ("default", name))


def make_sched_policy(spec: "str | SchedPolicy") -> SchedPolicy:
    """Resolve a name (or pass an instance through) to a SchedPolicy."""
    if isinstance(spec, SchedPolicy):
        return spec
    cls = SCHED_POLICIES.get(spec)
    if cls is None:
        raise PolicyError(
            f"unknown sched policy {spec!r}: expected one of "
            f"{sorted(SCHED_POLICIES)} or a SchedPolicy instance")
    return cls()


def make_reclaim_policy(spec: "str | ReclaimPolicy") -> ReclaimPolicy:
    """Resolve a name (or pass an instance through) to a ReclaimPolicy."""
    if isinstance(spec, ReclaimPolicy):
        return spec
    cls = RECLAIM_POLICIES.get(spec)
    if cls is None:
        raise PolicyError(
            f"unknown reclaim policy {spec!r}: expected one of "
            f"{sorted(RECLAIM_POLICIES)} or a ReclaimPolicy instance")
    return cls()


def resolve_bundle(name: str) -> tuple[str, str]:
    """Bundle name -> (sched, reclaim) policy names.

    Unknown names fall back to ``(name, "default")`` when ``name`` is a
    registered sched policy — so every plain sched policy is usable as
    a bundle without extra registration.
    """
    pair = POLICY_BUNDLES.get(name)
    if pair is not None:
        return pair
    if name in SCHED_POLICIES:
        return (name, "default")
    if name in RECLAIM_POLICIES:
        return ("default", name)
    raise PolicyError(
        f"unknown policy bundle {name!r}: expected one of "
        f"{sorted(POLICY_BUNDLES)}")
