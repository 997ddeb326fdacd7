"""Container migration between hosts.

:func:`migrate_pod` re-homes a pod in one call:

1. snapshot the pod's bytes (resident + swapped) and the CPU seconds it
   consumed on the source;
2. destroy the container on the source world — this uncharges its
   memory and folds its CPU time into the source root's
   ``retired_cpu_time``, so the *per-host* conservation invariants that
   ``repro.check`` audits keep holding;
3. fold the CPU snapshot into the pod's ``cpu_time_retired`` so the
   *pod-level* integral survives the re-home;
4. start a fresh container on the target and re-charge the snapshotted
   bytes there (:meth:`~repro.cluster.pod.PlacedPod.start`).

The :class:`~repro.cluster.pod.PlacedPod` record itself survives: only
its host and container change.  Both hosts' placement surfaces move by
the pod's deltas at once.

The cluster-level invariant (``repro.check.check_cluster``) then ties
the two sides together: summed host ledgers must equal cluster totals
no matter how many times pods moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.host import Host
from repro.cluster.pod import PlacedPod

__all__ = ["MigrationRecord", "migrate_pod"]


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration, for the audit trail."""

    pod: str
    src: str
    dst: str
    time: float
    bytes_moved: int
    cpu_time: float


def migrate_pod(pod: PlacedPod, dst: Host, now: float) -> MigrationRecord:
    """Move ``pod`` from its current host to ``dst`` at time ``now``.

    When tracing is enabled the move leaves a ``migration.drain`` span
    on the source, ``follows``-linked to the pod's ending
    ``container.lifetime`` span, and a ``migration.readmit`` span on the
    target that ``follows`` the drain by its global id
    (``host:span_id``); the new lifetime span ``follows`` the readmit,
    so the chain stays causally readable across the fleet's per-host
    trace logs.
    """
    src = pod.host
    world_src, world_dst = src.world, dst.world
    cg = pod.container.cgroup
    bytes_moved = cg.memory.usage_in_bytes
    cpu_at = cg.total_cpu_time

    drain = world_src.trace.begin_span(
        "migration.drain", pod.name, dst=dst.name,
        incarnation=pod.migrations,
        follows=world_src.trace.gid(pod.container.life_span))
    world_src.containers.destroy(pod.container)
    world_src.trace.end_span(drain, bytes_moved=bytes_moved,
                             cpu_time=cpu_at)
    src.account_remove(pod)
    src.mem_free += bytes_moved

    pod.migrations += 1
    pod.cpu_time_retired += cpu_at
    pod.bytes_migrated += bytes_moved
    readmit = world_dst.trace.begin_span(
        "migration.readmit", pod.name, src=src.name,
        incarnation=pod.migrations, follows=world_src.trace.gid(drain))
    pod.start(dst, bytes_moved, incarnation=pod.migrations,
              follows=world_dst.trace.gid(readmit))
    dst.account_add(pod)
    dst.mem_free -= bytes_moved
    world_dst.trace.end_span(readmit, bytes_moved=bytes_moved)
    return MigrationRecord(pod=pod.name, src=src.name, dst=dst.name,
                           time=now, bytes_moved=bytes_moved,
                           cpu_time=cpu_at)
