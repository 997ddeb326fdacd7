"""Scenario shrinking: reduce a failing scenario to a minimal repro.

Classic delta debugging (ddmin) over the op list, followed by structural
passes that ddmin cannot express: shortening the horizon, halving
numeric op parameters (charge sizes, work segments), and dropping whole
containers.  The oracle is a *fingerprint* — the failure must stay the
same kind (same invariant, or same diverging field), not merely "still
fails", so shrinking cannot wander onto an unrelated bug and report a
repro for the wrong thing.

Every candidate runs the full differential harness, so shrinking a
scenario of n ops costs O(n log n) world pairs; scenario horizons are a
few simulated seconds, keeping a full shrink under a minute of wall
time even for the largest generated scenarios.
"""

from __future__ import annotations

from typing import Callable

from repro.check.scenario import Scenario

__all__ = ["shrink"]

#: Oracle calls one shrink may spend before it returns its best so far.
MAX_CHECKS = 400

Oracle = Callable[[Scenario], str | None]


def shrink(scenario: Scenario, oracle: Oracle) -> Scenario:
    """Return a smaller scenario with the same failure fingerprint.

    ``oracle`` maps a scenario to a failure fingerprint (or None if it
    passes).  The input scenario must fail; the result is the smallest
    variant found within ``MAX_CHECKS`` oracle calls that fails with the
    *same* fingerprint.
    """
    target = oracle(scenario)
    if target is None:
        raise ValueError("cannot shrink a passing scenario")
    budget = [MAX_CHECKS]

    def still_fails(cand: Scenario) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        try:
            return oracle(cand) == target
        except Exception:
            # A candidate that crashes the harness is not a valid repro.
            return False

    best = scenario.copy()
    best = _ddmin_ops(best, still_fails)
    best = _drop_containers(best, still_fails)
    best = _ddmin_ops(best, still_fails)       # container drops unlock more
    best = _shorten_horizon(best, still_fails)
    best = _halve_numbers(best, still_fails)
    return best


def _ddmin_ops(scn: Scenario, still_fails: Callable[[Scenario], bool]) -> Scenario:
    """Remove op chunks, halving granularity until single ops remain."""
    ops = list(scn.ops)
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        removed_any = False
        while i < len(ops):
            cand_ops = ops[:i] + ops[i + chunk:]
            cand = scn.copy()
            cand.ops = [dict(o) for o in cand_ops]
            if still_fails(cand):
                ops = cand_ops
                removed_any = True
            else:
                i += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = chunk // 2 if chunk > 1 else (1 if removed_any else 0)
    out = scn.copy()
    out.ops = [dict(o) for o in ops]
    return out


def _drop_containers(scn: Scenario,
                     still_fails: Callable[[Scenario], bool]) -> Scenario:
    """Remove every op of one container at a time."""
    names = sorted({op["name"] for op in scn.ops})
    for name in names:
        cand = scn.copy()
        cand.ops = [dict(o) for o in cand.ops if o["name"] != name]
        if cand.ops and still_fails(cand):
            scn = cand
    return scn


def _shorten_horizon(scn: Scenario,
                     still_fails: Callable[[Scenario], bool]) -> Scenario:
    """Cut the post-op tail, then try halving the active window."""
    last_op = max((op["t"] for op in scn.ops), default=0.0)
    for factor in (0.0, 0.25):
        new_h = round(last_op + factor * (scn.horizon - last_op), 6)
        if 0 < new_h < scn.horizon:
            cand = scn.copy()
            cand.horizon = new_h
            if still_fails(cand):
                scn = cand
                break
    return scn


_HALVABLE = ("bytes", "work", "segment", "limit", "memory_limit",
             "memory_soft_limit")


def _halve_numbers(scn: Scenario,
                   still_fails: Callable[[Scenario], bool]) -> Scenario:
    """Halve numeric op parameters while the failure persists."""
    for _round in range(4):
        changed = False
        for i, op in enumerate(scn.ops):
            for key in _HALVABLE:
                val = op.get(key)
                if not isinstance(val, (int, float)) or val <= 1:
                    continue
                cand = scn.copy()
                half = val // 2 if isinstance(val, int) else round(val / 2, 6)
                if half <= 0:
                    continue
                cand.ops[i][key] = half
                if still_fails(cand):
                    scn = cand
                    changed = True
        if not changed:
            break
    return scn
