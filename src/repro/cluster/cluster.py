"""The cluster: N lockstep host worlds, one scheduler, one audit trail.

The :class:`Cluster` advances its hosts in fixed *epochs*.  Each epoch:

1. demand bursts fire (pods raise/lower their CPU quota);
2. pending pods are scheduled — gangs first (all-or-nothing when the
   strategy is gang-aware), then singles best-fit-decreasing;
3. the epoch's command batch is applied and every host world runs to
   the epoch boundary (independent event loops, identical clocks at
   the barrier);
4. each host reports one row of per-pod integrals and views, which
   refreshes the control plane's shadow ledgers;
5. per-pod attained CPU rates are sampled against the SLO and packing
   density/utilization samples are recorded;
6. optionally, the rebalancer migrates pods off hosts whose *live*
   demand exceeds the hot threshold.

Every scheduling decision reads the *shadow ledgers*
(:class:`~repro.cluster.host.HostLedger` /
:class:`~repro.cluster.pod.PodRecord`), never a live world: between
barriers a decision updates the ledgers by the same deterministic
deltas the worlds will apply, and queues the command for its host.

Every placement decision is appended to a JSON-able trace whose digest
is the determinism contract: the same seed must yield the same trace.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.cluster.host import Host, HostLedger
from repro.cluster.migration import (MigrationRecord, drain_pod,
                                     pod_container_spec, quota_cores,
                                     readmit_pod, start_pod_workload)
from repro.cluster.placement import PlacementStrategy, make_strategy
from repro.cluster.pod import PlacedPod, PodRecord, PodSpec
from repro.errors import ClusterError
from repro.units import gib

__all__ = ["ClusterParams", "Cluster"]

_EPS = 1e-9


@dataclass(frozen=True)
class ClusterParams:
    """Cluster shape and scheduling policy."""

    n_hosts: int = 8
    host_ncpus: int = 32
    host_memory: int = gib(128)
    #: Scheduling/sampling interval (simulated seconds).
    epoch: float = 1.0
    #: Adaptive-view refresh period on every host (None = track CFS).
    view_update_period: float | None = 1.0
    strategy: str = "view"
    #: Enable the hot-host rebalancer.
    migration: bool = True
    #: A host is hot when live pod demand exceeds this fraction of cores.
    hot_frac: float = 0.85
    max_migrations_per_epoch: int = 4
    #: A pod-epoch violates when attained < slo_frac * demand.
    slo_frac: float = 0.95
    seed: int = 0
    engine: str = "incremental"
    #: Enable per-host trace logs (spans/events).  Purely passive: the
    #: placement trace digest is identical with tracing on or off.
    trace: bool = False
    #: Kernel policies every host world runs under (see repro.policy).
    sched_policy: str = "default"
    reclaim_policy: str = "default"

    def __post_init__(self) -> None:
        if self.n_hosts < 1:
            raise ClusterError(f"n_hosts must be >= 1, got {self.n_hosts}")
        from repro.policy import RECLAIM_POLICIES, SCHED_POLICIES
        if self.sched_policy not in SCHED_POLICIES:
            raise ClusterError(
                f"unknown sched_policy {self.sched_policy!r}: expected one "
                f"of {sorted(SCHED_POLICIES)}")
        if self.reclaim_policy not in RECLAIM_POLICIES:
            raise ClusterError(
                f"unknown reclaim_policy {self.reclaim_policy!r}: expected "
                f"one of {sorted(RECLAIM_POLICIES)}")
        if self.epoch <= 0:
            raise ClusterError(f"epoch must be positive, got {self.epoch}")
        if not 0.0 < self.hot_frac <= 1.0:
            raise ClusterError(
                f"hot_frac must be in (0, 1], got {self.hot_frac}")
        if not 0.0 < self.slo_frac <= 1.0:
            raise ClusterError(
                f"slo_frac must be in (0, 1], got {self.slo_frac}")


@dataclass
class _Metrics:
    epochs: int = 0
    pod_epochs: int = 0
    violations: int = 0
    density_sum: float = 0.0
    utilization_sum: float = 0.0
    gangs_placed: int = 0
    gangs_rejected: int = 0
    gangs_partial: int = 0


class Cluster:
    """A fleet of simulated hosts under one placement scheduler."""

    def __init__(self, params: ClusterParams | None = None, *,
                 strategy: PlacementStrategy | None = None):
        self.params = params or ClusterParams()
        p = self.params
        width = max(2, len(str(p.n_hosts - 1)))
        #: The live host worlds, in canonical host order.
        self.hosts: list[Host] = [
            Host(f"host{idx:0{width}d}", ncpus=p.host_ncpus,
                 memory=p.host_memory, seed=p.seed,
                 view_update_period=p.view_update_period,
                 engine=p.engine, trace=p.trace,
                 sched_policy=p.sched_policy,
                 reclaim_policy=p.reclaim_policy)
            for idx in range(p.n_hosts)]
        self._host_by_name = {host.name: host for host in self.hosts}
        #: Control-plane shadow ledgers, one per host, in host order —
        #: the only state placement strategies ever read.
        self.ledgers: list[HostLedger] = []
        for host in self.hosts:
            ledger = HostLedger(host.name, ncpus=host.ncpus,
                                mem_capacity=host.mem_capacity)
            ledger.mem_free = host.free_mem_view()
            self.ledgers.append(ledger)
        self._now = 0.0
        #: Optional fleet telemetry pipeline (see repro.obs.fleet) and
        #: its per-host samplers, one per host in host order.
        self.telemetry = None
        self._collectors: list = []
        self.strategy = strategy or make_strategy(p.strategy)
        self.placed: dict[str, PodRecord] = {}
        self.pending: list[PodSpec] = []
        self._pending_names: set[str] = set()
        self.rejected: list[str] = []
        self.submitted = 0
        self.migration_records: list[MigrationRecord] = []
        self.metrics = _Metrics()
        #: Per-pod (attained, demand) rates from the most recent epoch
        #: sample — read by the fleet telemetry collector.
        self.last_epoch_attained: dict[str, tuple[float, float]] = {}
        #: Deterministic event log: (time, event, pod, host) rows.
        self.trace: list[tuple[float, str, str, str]] = []
        #: Rolling hash over every epoch's barrier report rows.
        self._sample_hash = hashlib.sha256()

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def cpu_capacity(self) -> int:
        return sum(ledger.ncpus for ledger in self.ledgers)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: PodSpec) -> None:
        """Queue a pod for the next scheduling round."""
        if spec.name in self.placed or spec.name in self._pending_names:
            raise ClusterError(f"pod {spec.name!r} already submitted")
        self.pending.append(spec)
        self._pending_names.add(spec.name)
        self.submitted += 1
        self.trace.append((self._now, "submit", spec.name, ""))

    def submit_all(self, specs: list[PodSpec]) -> None:
        for spec in specs:
            self.submit(spec)

    # -- main loop ------------------------------------------------------------

    def attach_telemetry(self, collector) -> None:
        """Attach a :class:`repro.obs.fleet.FleetCollector`.

        The collector is driven at every epoch barrier by pure reads —
        one :class:`~repro.obs.fleet.HostCollector` per host never
        schedules events, so attaching it cannot perturb the simulation
        or its digests.
        """
        from repro.obs.fleet import HostCollector
        self.telemetry = collector
        collector.bind(self)
        self._collectors = [HostCollector(host, collector.params)
                            for host in self.hosts]

    def run(self, *, until: float) -> None:
        """Advance all hosts in lockstep epochs to ``until``."""
        while self._now < until - _EPS:
            epoch_end = min(self._now + self.params.epoch, until)
            epoch_len = epoch_end - self._now
            #: Per-host command batch for this epoch, in decision order.
            ops: dict[str, list] = {}
            self._apply_bursts(ops)
            self._place_pending(ops)
            reports = self._run_epoch(ops, epoch_end)
            self._now = epoch_end
            self._absorb_reports(reports)
            self._sample_epoch(epoch_len)
            if self.params.migration:
                self._rebalance()
            if self.telemetry is not None:
                attained = self._attained_by_host()
                samples = [(c.host.name,
                            *c.sample(attained.get(c.host.name, {})))
                           for c in self._collectors]
                self.telemetry.on_epoch(self, epoch_len, samples)

    def _run_epoch(self, ops: dict[str, list], until: float) -> list[dict]:
        """Apply one epoch's command batch, run every world to the
        barrier, and return one report row per host, in host order."""
        for host in self.hosts:
            for kind, target, demand in ops.get(host.name, ()):
                if kind == "burst":
                    _set_demand(host.pods[target], demand)
                else:
                    _start_pod(host, target, demand)
        for host in self.hosts:
            host.world.run(until=until)
        return [_report(host) for host in self.hosts]

    # -- scheduling -----------------------------------------------------------

    def _place_pending(self, ops: dict[str, list]) -> None:
        """One scheduling round: gangs first, then singles BFD."""
        if not self.pending:
            return
        pending, self.pending = self.pending, []
        self._pending_names.clear()
        # Footprints are pure functions of (spec, now): compute each
        # once per round instead of once per sort key + choose call.
        fps = {spec.name: spec.footprint(self._now) for spec in pending}
        gangs: dict[str, list[PodSpec]] = {}
        singles: list[PodSpec] = []
        for spec in pending:
            if spec.gang is not None:
                gangs.setdefault(spec.gang, []).append(spec)
            else:
                singles.append(spec)

        for gang_id in sorted(gangs):
            ranks = gangs[gang_id]
            if self.strategy.gang_aware:
                assignment = self.strategy.choose_gang(self.ledgers, ranks)
                if assignment is None:
                    self.metrics.gangs_rejected += 1
                    for spec in ranks:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    continue
                for spec, ledger in assignment:
                    self._admit(spec, ledger, ops)
                self.metrics.gangs_placed += 1
            else:
                # Gang-blind baseline: ranks scheduled independently;
                # partial gangs are a real (bad) outcome we count.
                landed = 0
                for spec in ranks:
                    ledger = self.strategy.choose(self.ledgers,
                                                  fps[spec.name])
                    if ledger is None:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    else:
                        self._admit(spec, ledger, ops)
                        landed += 1
                if landed == len(ranks):
                    self.metrics.gangs_placed += 1
                elif landed == 0:
                    self.metrics.gangs_rejected += 1
                else:
                    self.metrics.gangs_partial += 1

        # Best-fit-DECREASING: big pods first so fragments stay usable.
        singles.sort(key=lambda s: (-fps[s.name].cpu_live, s.name))
        for spec in singles:
            ledger = self.strategy.choose(self.ledgers, fps[spec.name])
            if ledger is None:
                self.rejected.append(spec.name)
                self.trace.append((self._now, "reject", spec.name, ""))
            else:
                self._admit(spec, ledger, ops)

    def _admit(self, spec: PodSpec, ledger: HostLedger,
               ops: dict[str, list]) -> None:
        demand = spec.demand_at(self._now)
        rec = PodRecord(spec, ledger, self._now)
        rec.demand = demand
        rec.quota_cores = quota_cores(demand)
        # Admission charges exactly mem_demand on the host; mirror it
        # so same-round placements see the byte already spoken for.
        rec._live_bytes = spec.mem_demand
        ledger.account_add(rec)
        ledger.mem_free -= spec.mem_demand
        self.placed[spec.name] = rec
        ops.setdefault(ledger.name, []).append(("admit", spec, demand))
        self.trace.append((self._now, "place", spec.name, ledger.name))

    # -- epoch hooks ----------------------------------------------------------

    def _apply_bursts(self, ops: dict[str, list]) -> None:
        for rec in self.placed.values():
            target = rec.spec.demand_at(self._now)
            if abs(target - rec.demand) < _EPS:
                continue
            ledger = rec.host
            ledger.demand_cpu += target - rec.demand
            rec.demand = target
            rec.quota_cores = quota_cores(target)
            ledger.set_view(rec.name, rec.view_cpu_footprint())
            ops.setdefault(ledger.name, []).append(
                ("burst", rec.name, target))
            self.trace.append((self._now, "burst", rec.name, ledger.name))

    def _absorb_reports(self, reports: list[dict]) -> None:
        """Refresh the shadow ledgers from one barrier's report rows.

        Rows arrive in host order with per-pod entries in sorted-name
        order, so the rolling sample hash and the float-summation order
        inside each ledger are canonical.
        """
        payload = json.dumps(reports, sort_keys=True, separators=(",", ":"))
        self._sample_hash.update(payload.encode())
        self._sample_hash.update(b"\x00")
        for row, ledger in zip(reports, self.ledgers):
            ledger.mem_free = row["mem_free"]
            rows = row["pods"]
            if len(rows) != len(ledger.pods):
                raise ClusterError(
                    f"barrier report for host {row['host']!r} lists "
                    f"{len(rows)} pods, control ledger holds "
                    f"{len(ledger.pods)}")
            for name, cpu_time, mem_usage, e_cpu, quota in rows:
                rec = self.placed[name]
                rec.live_cpu_time = cpu_time
                rec._live_bytes = mem_usage
                rec.e_cpu = e_cpu
                rec.quota_cores = quota
            ledger.refresh_views()

    def _sample_epoch(self, epoch_len: float) -> None:
        m = self.metrics
        m.epochs += 1
        attained_total = 0.0
        demand_total = 0.0
        self.last_epoch_attained = {}
        for rec in self.placed.values():
            total = rec.total_cpu_time
            attained = (total - rec.last_cpu_time) / epoch_len
            rec.last_cpu_time = total
            window = min(epoch_len, self._now - rec.placed_at)
            if window < epoch_len - _EPS:
                # Partial first epoch: rate over the actual residency.
                attained = (attained * epoch_len / window) if window > _EPS \
                    else rec.demand
            m.pod_epochs += 1
            demand_total += rec.demand
            attained_total += min(attained, rec.demand)
            self.last_epoch_attained[rec.name] = (attained, rec.demand)
            if attained + _EPS < self.params.slo_frac * rec.demand:
                rec.violation_epochs += 1
                m.violations += 1
        cap = float(self.cpu_capacity)
        m.density_sum += demand_total / cap
        m.utilization_sum += attained_total / cap

    def _attained_by_host(self) -> dict[str, dict[str, tuple[float, float]]]:
        """Last epoch's (attained, demand) pairs, sliced by current host."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for name, rates in self.last_epoch_attained.items():
            rec = self.placed[name]
            out.setdefault(rec.host.name, {})[name] = rates
        return out

    # -- migration ------------------------------------------------------------

    def _rebalance(self) -> None:
        """Move the biggest pods off hosts running over the hot threshold.

        Every demand read here is the ledger's incrementally-maintained
        ``demand_cpu`` — O(1), not the old O(pods) recompute per probe.
        """
        moved = 0
        budget = self.params.max_migrations_per_epoch
        hot_frac = self.params.hot_frac
        hot = sorted(
            (l for l in self.ledgers if l.demand_cpu > hot_frac * l.ncpus),
            key=lambda l: (-(l.demand_cpu / l.ncpus), l.name))
        for ledger in hot:
            while (moved < budget and
                   ledger.demand_cpu > hot_frac * ledger.ncpus):
                candidates = sorted(ledger.pods.values(),
                                    key=lambda p: (-p.demand, p.name))
                target_found = False
                for rec in candidates:
                    dst = self._pick_target(rec, exclude=ledger)
                    if dst is None:
                        continue
                    self._migrate(rec, ledger, dst)
                    moved += 1
                    target_found = True
                    break
                if not target_found:
                    break           # nothing on this host can move anywhere
            if moved >= budget:
                break

    def _pick_target(self, rec: PodRecord, *,
                     exclude: HostLedger) -> HostLedger | None:
        fp = rec.footprint()
        hot_cap = self.params.hot_frac
        best: HostLedger | None = None
        best_key: tuple[float, str] | None = None
        for ledger in self.ledgers:
            if ledger is exclude:
                continue
            if not self.strategy.feasible(ledger, fp):
                continue
            # Don't create a new hotspot while fixing this one.
            if ledger.demand_cpu + rec.demand > hot_cap * ledger.ncpus:
                continue
            key = (self.strategy.fit_score(ledger, fp), ledger.name)
            if best_key is None or key < best_key:
                best, best_key = ledger, key
        return best

    def _migrate(self, rec: PodRecord, src: HostLedger,
                 dst: HostLedger) -> None:
        placed = self._host_by_name[src.name].pods[rec.name]
        payload = drain_pod(placed, dst_name=dst.name)
        readmit_pod(self._host_by_name[dst.name], payload)
        bytes_moved = payload["bytes_moved"]
        cpu_at = payload["cpu_time"]
        src.account_remove(rec)
        # Fold the source-side CPU integral into the retired ledger so
        # the pod-lifetime total survives the re-home exactly.
        rec.cpu_time_retired += cpu_at
        rec.live_cpu_time = 0.0
        rec._live_bytes = bytes_moved
        rec.e_cpu = math.inf
        rec.quota_cores = quota_cores(rec.demand)
        rec.migrations += 1
        rec.bytes_migrated += bytes_moved
        rec.host = dst
        dst.account_add(rec)
        # Byte ledger estimate until the next barrier report: the moved
        # bytes free up on the source and land on the target.
        src.mem_free += bytes_moved
        dst.mem_free -= bytes_moved
        self.migration_records.append(MigrationRecord(
            pod=rec.name, src=src.name, dst=dst.name, time=self._now,
            bytes_moved=bytes_moved, cpu_time=cpu_at))
        self.trace.append((self._now, "migrate", rec.name, dst.name))

    # -- reporting ------------------------------------------------------------

    def trace_digest(self) -> str:
        """SHA-256 of the canonical placement/migration trace."""
        payload = json.dumps(self.trace, sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def epoch_sample_digest(self) -> str:
        """Rolling SHA-256 over every epoch's barrier report rows.

        The rows are everything the shadow ledgers and the SLO sampler
        consume, so this digest moves whenever the control plane's
        view of any host does — even where placement does not change.
        """
        return self._sample_hash.copy().hexdigest()

    def summary(self) -> dict:
        """JSON-able scorecard of the run so far."""
        m = self.metrics
        epochs = max(1, m.epochs)
        return {
            "strategy": self.strategy.name,
            "hosts": len(self.ledgers),
            "submitted": self.submitted,
            "placed": len(self.placed),
            "rejected": len(self.rejected),
            "pending": len(self.pending),
            "migrations": len(self.migration_records),
            "migrated_bytes": sum(r.bytes_moved
                                  for r in self.migration_records),
            "slo_burn": (m.violations / m.pod_epochs) if m.pod_epochs else 0.0,
            "density": m.density_sum / epochs,
            "utilization": m.utilization_sum / epochs,
            "gangs_placed": m.gangs_placed,
            "gangs_rejected": m.gangs_rejected,
            "gangs_partial": m.gangs_partial,
            "trace_digest": self.trace_digest(),
        }

    def invariant_snapshot(self) -> dict:
        """Cluster-level digest for ``repro.check.check_cluster``.

        Mirrors :meth:`World.invariant_snapshot` one level up: per-host
        ledgers in canonical order plus the pod/migration records that
        tie them together across re-homes.
        """
        rows = []
        live: dict[str, dict] = {}
        for host in self.hosts:
            rows.append(_host_row(host, live))
        pods = {
            name: {
                "host": rec.host.name,
                "migrations": rec.migrations,
                "total_cpu_time": (rec.cpu_time_retired
                                   + live[name]["live_cpu_time"]),
                "cpu_time_retired": rec.cpu_time_retired,
                "bytes_migrated": rec.bytes_migrated,
                "mem_usage": live[name]["mem_usage"],
            }
            for name, rec in sorted(self.placed.items())
        }
        return {
            "now": self._now,
            "submitted": self.submitted,
            "placed": len(self.placed),
            "pending": len(self.pending),
            "rejected": len(self.rejected),
            "hosts": rows,
            "pods": pods,
            "migrations": {
                "count": len(self.migration_records),
                "bytes_total": sum(r.bytes_moved
                                   for r in self.migration_records),
                "cpu_time_total": sum(r.cpu_time
                                      for r in self.migration_records),
                "records": [
                    {"pod": r.pod, "src": r.src, "dst": r.dst,
                     "time": r.time, "bytes_moved": r.bytes_moved,
                     "cpu_time": r.cpu_time}
                    for r in self.migration_records
                ],
            },
            "epoch_sample_digest": self.epoch_sample_digest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Cluster t={self._now:.1f}s hosts={len(self.ledgers)} "
                f"placed={len(self.placed)} strategy={self.strategy.name}>")


# -- per-host bodies ---------------------------------------------------------

def _start_pod(host: Host, spec: PodSpec, demand: float) -> None:
    """Admit ``spec`` on ``host`` at CPU demand ``demand``."""
    cspec = pod_container_spec(spec.name, spec, demand)
    container = host.world.containers.create(cspec)
    # Incarnation 0 of the pod's span chain; migrations extend it with
    # follows-linked drain/readmit/lifetime spans.
    host.world.trace.annotate_span(container.life_span, pod=spec.name,
                                   incarnation=0)
    host.world.mm.charge(container.cgroup, spec.mem_demand)
    pod = PlacedPod(spec, host, container, host.world.now)
    pod.demand = demand
    start_pod_workload(pod)
    host.pods[spec.name] = pod


def _set_demand(pod: PlacedPod, demand: float) -> None:
    """Move a running pod to CPU demand ``demand`` (its CFS quota)."""
    pod.demand = demand
    cg = pod.container.cgroup
    period = cg.cpu.cfs_period_us
    cg.set_cpu_quota(max(1000, int(round(demand * period))), period)


def _report(host: Host) -> dict:
    """One host's barrier report row: per-pod ``[name, cpu_time,
    mem_usage, e_cpu, quota]`` in sorted-name order plus free memory."""
    pods = []
    for name in sorted(host.pods):
        pod = host.pods[name]
        cg = pod.container.cgroup
        pods.append([name, cg.total_cpu_time,
                     cg.memory.usage_in_bytes,
                     float(pod.container.sys_ns.e_cpu),
                     cg.quota_cores])
    return {"host": host.name, "now": host.world.now,
            "mem_free": host.free_mem_view(), "pods": pods}


def _host_row(host: Host, live: dict[str, dict]) -> dict:
    """One host's block of :meth:`Cluster.invariant_snapshot`; fills
    ``live`` with each resident pod's current-host integrals."""
    world = host.world
    if world.sched.dirty:
        world.sched.reallocate()
    live_cpu = 0.0
    for pod_name in sorted(host.pods):
        cg = host.pods[pod_name].container.cgroup
        live[pod_name] = {
            "live_cpu_time": cg.total_cpu_time,
            "mem_usage": cg.memory.usage_in_bytes,
        }
        live_cpu += cg.total_cpu_time
    charge = uncharge = usage = 0
    for cg in world.cgroups.walk():
        charge += cg.memory.charge_total
        uncharge += cg.memory.uncharge_total
        usage += cg.memory.resident + cg.memory.swapped
    return {
        "name": host.name,
        "now": world.now,
        "ncpus": host.ncpus,
        "elapsed": world.sched.elapsed,
        "conservation_error": world.sched.conservation_error(),
        "retired_cpu_time": world.cgroups.retired_cpu_time,
        "live_pod_cpu_time": live_cpu,
        "charge_total": charge,
        "uncharge_total": uncharge,
        "mem_usage": usage,
        "mem_free": world.mm.free,
        "pods": sorted(host.pods),
    }
