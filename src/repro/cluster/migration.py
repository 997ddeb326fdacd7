"""Container migration between hosts.

Migration is drain → snapshot → re-admit:

1. snapshot the pod's ledgers (bytes resident+swapped, CPU seconds
   consumed on the source);
2. destroy the container on the source world — this uncharges its
   memory and folds its CPU time into the source root's
   ``retired_cpu_time``, so the *per-host* conservation invariants that
   ``repro.check`` audits keep holding;
3. the control plane folds the CPU snapshot into the pod record's
   ``cpu_time_retired`` so the *pod-level* integral survives the
   re-home;
4. create a fresh container on the target and re-charge the snapshotted
   bytes there.

:func:`drain_pod` tears the pod down on the source host and returns a
plain payload dict; :func:`readmit_pod` rebuilds it on the target from
that payload alone.  The control plane
(:meth:`~repro.cluster.cluster.Cluster._migrate`) runs the two halves
back to back and folds the payload into its own
:class:`~repro.cluster.pod.PodRecord` ledgers.

The cluster-level invariant (``repro.check.check_cluster``) then ties
the two sides together: summed host ledgers must equal cluster totals
no matter how many times pods moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.host import Host
from repro.cluster.pod import PlacedPod, PodSpec
from repro.container.spec import ContainerSpec

__all__ = ["MigrationRecord", "drain_pod", "readmit_pod"]


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration, for the audit trail."""

    pod: str
    src: str
    dst: str
    time: float
    bytes_moved: int
    cpu_time: float


def _quota_us(demand: float, period_us: int) -> int:
    return max(1000, int(round(demand * period_us)))


def quota_cores(demand: float, period_us: int = 100_000) -> float:
    """The CFS quota (in cores) a pod at ``demand`` actually runs under.

    The control plane uses this to predict the quota a host-side
    ``set_cpu_quota`` will produce, so shadow view footprints match the
    live cgroup exactly (including the 1ms quota floor).
    """
    return _quota_us(demand, period_us) / period_us


def pod_container_spec(pod_name: str, spec, demand: float) -> ContainerSpec:
    """The container shape a pod runs under at CPU demand ``demand``."""
    period = 100_000
    return ContainerSpec(
        name=pod_name,
        cpu_shares=max(2, int(round(spec.cpu_request * 1024))),
        cpus=_quota_us(demand, period) / period,
        cpu_period_us=period,
        memory_limit=max(spec.mem_request, spec.mem_demand),
    )


def start_pod_workload(pod: PlacedPod) -> None:
    """Spawn the pod's (never-finishing) demand thread.

    The pod is modelled as an open-loop CPU sink: one thread with an
    effectively infinite work segment, throttled by the cgroup quota to
    the pod's demand.  Attained rate = min(demand, fair share), which is
    exactly the fluid signal the adaptive views measure.
    """
    t = pod.container.spawn_thread("main")
    t.assign_work(1e15)


def drain_pod(placed: PlacedPod, *, dst_name: str) -> dict:
    """Tear a pod down on its current host; return the transfer payload.

    When tracing is enabled the drain leaves a ``migration.drain`` span
    behind, ``follows``-linked to the pod's ending
    ``container.lifetime`` span.  The returned payload is everything
    the re-admit side needs: snapshotted bytes, the CPU
    integral consumed here, and the drain span's global id for the
    cross-host ``follows`` chain.
    """
    src = placed.host
    world_src = src.world
    cg = placed.container.cgroup
    bytes_moved = cg.memory.usage_in_bytes
    cpu_at = cg.total_cpu_time
    incarnation = placed.migrations

    # destroy() exits the thread, uncharges every byte, and folds the
    # cgroup's CPU time into the source root's retired ledger — per-host
    # conservation holds.
    drain = world_src.trace.begin_span(
        "migration.drain", placed.name, dst=dst_name,
        incarnation=incarnation,
        follows=world_src.trace.gid(placed.container.life_span))
    world_src.containers.destroy(placed.container)
    del src.pods[placed.name]
    world_src.trace.end_span(drain, bytes_moved=bytes_moved,
                             cpu_time=cpu_at)
    return {"pod": placed.name, "spec": placed.spec, "src": src.name,
            "demand": placed.demand, "bytes_moved": bytes_moved,
            "cpu_time": cpu_at, "incarnation": incarnation,
            "drain_gid": world_src.trace.gid(drain)}


def readmit_pod(dst: Host, payload: dict) -> PlacedPod:
    """Re-admit a drained pod on ``dst`` from a :func:`drain_pod` payload.

    Creates a fresh container at the pod's *live* demand quota,
    re-charges the snapshotted bytes, and restarts the workload.  The
    new ``migration.readmit`` and lifetime spans ``follows``-link to
    the drain span's global id (``host:span_id``), so the chain stays
    causally readable across the fleet's per-host trace logs.
    """
    world_dst = dst.world
    spec: PodSpec = payload["spec"]
    incarnation = payload["incarnation"]
    bytes_moved = payload["bytes_moved"]
    readmit = world_dst.trace.begin_span(
        "migration.readmit", payload["pod"], src=payload["src"],
        incarnation=incarnation + 1, follows=payload["drain_gid"])
    cspec = pod_container_spec(payload["pod"], spec, payload["demand"])
    container = world_dst.containers.create(cspec)
    world_dst.mm.charge(container.cgroup, bytes_moved)
    world_dst.trace.annotate_span(
        container.life_span, pod=payload["pod"],
        incarnation=incarnation + 1,
        follows=world_dst.trace.gid(readmit))
    placed = PlacedPod(spec, dst, container, world_dst.now)
    placed.demand = payload["demand"]
    placed.migrations = incarnation + 1
    dst.pods[placed.name] = placed
    start_pod_workload(placed)
    world_dst.trace.end_span(readmit, bytes_moved=bytes_moved)
    return placed
