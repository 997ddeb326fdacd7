"""Causal span-tree validation for migration-following traces.

When a cluster runs with tracing enabled, every pod leaves a chain of
spans across the fleet's per-host :class:`~repro.tracelog.TraceLog`\\ s::

    lifetime[0] <- drain[0] <- readmit[1] <- lifetime[1] <- drain[1] <- ...

``container.lifetime`` spans carry ``pod``/``incarnation`` fields;
``migration.drain`` / ``migration.readmit`` spans link backwards with a
``follows`` field holding the predecessor's global id
(``host:span_id``, :meth:`~repro.tracelog.TraceLog.gid`).  This module
audits that the chains are complete, acyclic, well-ordered in time, and
consistent with the cluster's own migration ledger — so a re-homed
pod's history is guaranteed readable end to end from the trace alone.

Wired into :func:`repro.check.check_cluster` (the audit every cluster
experiment runs) whenever the cluster was built with ``trace=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.tracelog import TraceSpan

__all__ = ["check_span_tree"]

_T_EPS = 1e-9

LIFETIME = "container.lifetime"
DRAIN = "migration.drain"
READMIT = "migration.readmit"


def _pod_of(span: "TraceSpan") -> str:
    # Lifetime spans are annotated with the pod name; migration spans
    # put it in the message.  Non-pod containers have neither.
    return span.fields.get("pod", span.message)


def check_span_tree(cluster: "Cluster") -> list[str]:
    """Audit the fleet's migration span chains; empty list = all good."""
    out: list[str] = []
    spans: dict[str, TraceSpan] = {}       # gid -> span
    hosts_of: dict[str, str] = {}          # gid -> host name
    dropped = 0
    for host in cluster.hosts:
        log = host.world.trace
        if not log.enabled:
            return [f"span_tree: tracing disabled on host {host.name} "
                    f"(cannot audit span chains)"]
        dropped += log.spans_dropped
        for span in log.spans(include_open=True):
            gid = f"{log.log_id}:{span.span_id}"
            spans[gid] = span
            hosts_of[gid] = host.name
    if dropped:
        # Evicted spans leave dangling follows links that are not bugs;
        # surface the capacity overflow itself instead of chasing them.
        return [f"span_tree: {dropped} spans dropped by capacity — chain "
                f"audit impossible; raise TraceLog capacity"]

    by_cat: dict[str, list[tuple[str, TraceSpan]]] = {
        LIFETIME: [], DRAIN: [], READMIT: []}
    for gid, span in spans.items():
        if span.category in by_cat:
            by_cat[span.category].append((gid, span))

    def follow(gid: str, span: "TraceSpan", want_cat: str,
               want_pod: str) -> "TraceSpan | None":
        """Resolve a span's ``follows`` link, reporting any breakage."""
        ref = span.fields.get("follows", "")
        if not ref:
            out.append(f"span_tree: {span.category} {gid} for pod "
                       f"{want_pod!r} has no follows link")
            return None
        target = spans.get(ref)
        if target is None:
            out.append(f"span_tree: {span.category} {gid} follows missing "
                       f"span {ref}")
            return None
        if target.category != want_cat:
            out.append(f"span_tree: {span.category} {gid} follows "
                       f"{target.category} {ref}, expected {want_cat}")
            return None
        if _pod_of(target) != want_pod:
            out.append(f"span_tree: {span.category} {gid} for pod "
                       f"{want_pod!r} follows a span of pod "
                       f"{_pod_of(target)!r}")
            return None
        # Causal order: the predecessor must have started no later, and
        # (for closed predecessors) ended by the follower's start.
        if target.start > span.start + _T_EPS:
            out.append(f"span_tree: {gid} starts at {span.start!r} before "
                       f"its predecessor {ref} at {target.start!r}")
        if target.end is not None and target.end > span.start + _T_EPS:
            out.append(f"span_tree: predecessor {ref} ends at "
                       f"{target.end!r}, after {gid} starts at "
                       f"{span.start!r}")
        return target

    # -- link-level checks --------------------------------------------------
    for gid, span in by_cat[DRAIN]:
        pod = _pod_of(span)
        target = follow(gid, span, LIFETIME, pod)
        if target is not None and target.open:
            out.append(f"span_tree: drain {gid} follows lifetime span that "
                       f"never closed (container survived its own drain?)")
        if span.open:
            out.append(f"span_tree: drain {gid} for pod {pod!r} never "
                       f"closed")

    for gid, span in by_cat[READMIT]:
        pod = _pod_of(span)
        target = follow(gid, span, DRAIN, pod)
        if target is not None:
            inc_from = target.fields.get("incarnation")
            inc_to = span.fields.get("incarnation")
            if inc_from is not None and inc_to != inc_from + 1:
                out.append(f"span_tree: readmit {gid} incarnation {inc_to!r} "
                           f"does not advance drain's {inc_from!r}")
        if span.open:
            out.append(f"span_tree: readmit {gid} for pod {pod!r} never "
                       f"closed")

    for gid, span in by_cat[LIFETIME]:
        pod = span.fields.get("pod")
        if pod is None:
            continue  # not a cluster pod (no chain expected)
        inc = span.fields.get("incarnation", 0)
        if inc == 0:
            if "follows" in span.fields:
                out.append(f"span_tree: incarnation-0 lifetime {gid} of pod "
                           f"{pod!r} should not follow anything, follows "
                           f"{span.fields['follows']}")
        else:
            target = follow(gid, span, READMIT, pod)
            if target is not None and \
                    target.fields.get("incarnation") != inc:
                out.append(f"span_tree: lifetime {gid} incarnation {inc!r} "
                           f"!= its readmit's "
                           f"{target.fields.get('incarnation')!r}")

    # -- chain-level checks against the cluster's own ledger ----------------
    lifetimes_of: dict[str, list[tuple[str, TraceSpan]]] = {}
    for gid, span in by_cat[LIFETIME]:
        pod = span.fields.get("pod")
        if pod is not None:
            lifetimes_of.setdefault(pod, []).append((gid, span))
    drains = {}
    for _gid, span in by_cat[DRAIN]:
        drains[_pod_of(span)] = drains.get(_pod_of(span), 0) + 1

    for name, placed in sorted(cluster.placed.items()):
        chain = lifetimes_of.get(name, [])
        if len(chain) != placed.migrations + 1:
            out.append(f"span_tree: pod {name!r} migrated "
                       f"{placed.migrations}x but has {len(chain)} lifetime "
                       f"spans (expected {placed.migrations + 1})")
            continue
        if drains.get(name, 0) != placed.migrations:
            out.append(f"span_tree: pod {name!r} migrated "
                       f"{placed.migrations}x but trace holds "
                       f"{drains.get(name, 0)} drain spans")
        # Exactly one live incarnation, on the host the cluster says.
        open_spans = [(g, s) for g, s in chain if s.open]
        if len(open_spans) != 1:
            out.append(f"span_tree: pod {name!r} has {len(open_spans)} open "
                       f"lifetime spans, expected exactly 1")
            continue
        gid, current = open_spans[0]
        if hosts_of[gid] != placed.host.name:
            out.append(f"span_tree: pod {name!r} lives on "
                       f"{placed.host.name} but its open lifetime span is "
                       f"on {hosts_of[gid]}")
        if current.fields.get("incarnation", 0) != placed.migrations:
            out.append(f"span_tree: pod {name!r} open lifetime incarnation "
                       f"{current.fields.get('incarnation')!r} != migration "
                       f"count {placed.migrations}")
        # Incarnations must tile 0..m with no gaps or repeats.
        incs = sorted(s.fields.get("incarnation", 0) for _g, s in chain)
        if incs != list(range(placed.migrations + 1)):
            out.append(f"span_tree: pod {name!r} incarnations {incs} do not "
                       f"tile 0..{placed.migrations}")
    return out
