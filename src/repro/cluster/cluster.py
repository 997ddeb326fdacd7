"""The cluster: N lockstep host worlds, one scheduler, one audit trail.

The :class:`Cluster` advances its hosts in fixed *epochs*.  Each epoch:

1. demand bursts fire (pods raise/lower their CPU quota);
2. pending pods are scheduled — gangs first (all-or-nothing when the
   strategy is gang-aware), then singles best-fit-decreasing;
3. every host world runs to the epoch boundary (independent event
   loops, identical clocks at the barrier);
4. each host's placement surface is refreshed from its world
   (:meth:`~repro.cluster.host.Host.barrier`), and the rows it reads
   are hashed into the epoch sample digest;
5. per-pod attained CPU rates are sampled against the SLO and packing
   density/utilization samples are recorded;
6. optionally, the rebalancer migrates pods off hosts whose *live*
   demand exceeds the hot threshold.

A burst, an admission or a migration is applied to its host world
as soon as it is decided.  Every scheduling decision reads the hosts'
placement surfaces and the pods' barrier values, never a live world:
between barriers only the decisions themselves move them, by the same
deltas they apply to the worlds.  Each host world is independent, so
per-host order — bursts, then admissions, in decision order — is all
that matters.

Every placement decision is appended to a JSON-able trace whose digest
is the determinism contract: the same seed must yield the same trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.cluster.host import Host
from repro.cluster.migration import MigrationRecord, migrate_pod
from repro.cluster.placement import PlacementStrategy, make_strategy
from repro.cluster.pod import PlacedPod, PodSpec
from repro.errors import ClusterError
from repro.units import gib

__all__ = ["ClusterParams", "Cluster"]

_EPS = 1e-9

#: A pod-epoch violates when attained < SLO_FRAC * demand.
SLO_FRAC = 0.95


@dataclass(frozen=True)
class ClusterParams:
    """Cluster shape and scheduling policy."""

    n_hosts: int = 8
    host_ncpus: int = 32
    host_memory: int = gib(128)
    #: Scheduling/sampling interval (simulated seconds).
    epoch: float = 1.0
    strategy: str = "view"
    #: A host is hot when live pod demand exceeds this fraction of cores.
    hot_frac: float = 0.85
    max_migrations_per_epoch: int = 4
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
        #: The hosts, in canonical host order.
        self.hosts: list[Host] = [
            Host(f"host{idx:0{width}d}", ncpus=p.host_ncpus,
                 memory=p.host_memory, seed=p.seed,
                 engine=p.engine, trace=p.trace,
                 sched_policy=p.sched_policy,
                 reclaim_policy=p.reclaim_policy)
            for idx in range(p.n_hosts)]
        self._now = 0.0
        #: Optional fleet telemetry pipeline (see repro.obs.fleet) and
        #: its per-host samplers, one per host in host order.
        self.telemetry = None
        self._collectors: list = []
        self.strategy = strategy or make_strategy(p.strategy)
        self.placed: dict[str, PlacedPod] = {}
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
        #: Rolling hash over every epoch's barrier rows.
        self._sample_hash = hashlib.sha256()

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def cpu_capacity(self) -> int:
        return sum(host.ncpus for host in self.hosts)

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
        self._collectors = [HostCollector(host) for host in self.hosts]

    def run(self, *, until: float) -> None:
        """Advance all hosts in lockstep epochs to ``until``."""
        while self._now < until - _EPS:
            epoch_end = min(self._now + self.params.epoch, until)
            epoch_len = epoch_end - self._now
            self._apply_bursts()
            self._place_pending()
            for host in self.hosts:
                host.world.run(until=epoch_end)
            self._now = epoch_end
            # Rows come in host order, per-pod entries in sorted-name
            # order, so the rolling hash is canonical.
            rows = [host.barrier() for host in self.hosts]
            self._sample_hash.update(json.dumps(
                rows, sort_keys=True, separators=(",", ":")).encode())
            self._sample_hash.update(b"\x00")
            self._sample_epoch(epoch_len)
            self._rebalance()
            if self.telemetry is not None:
                attained = self._attained_by_host()
                samples = [(c.host.name,
                            *c.sample(attained.get(c.host.name, {})))
                           for c in self._collectors]
                self.telemetry.on_epoch(self, epoch_len, samples)

    # -- scheduling -----------------------------------------------------------

    def _place_pending(self) -> None:
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
                assignment = self.strategy.choose_gang(self.hosts, ranks)
                if assignment is None:
                    self.metrics.gangs_rejected += 1
                    for spec in ranks:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    continue
                for spec, host in assignment:
                    self._admit(spec, host)
                self.metrics.gangs_placed += 1
            else:
                # Gang-blind baseline: ranks scheduled independently;
                # partial gangs are a real (bad) outcome we count.
                landed = 0
                for spec in ranks:
                    host = self.strategy.choose(self.hosts, fps[spec.name])
                    if host is None:
                        self.rejected.append(spec.name)
                        self.trace.append((self._now, "reject", spec.name,
                                           ""))
                    else:
                        self._admit(spec, host)
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
            host = self.strategy.choose(self.hosts, fps[spec.name])
            if host is None:
                self.rejected.append(spec.name)
                self.trace.append((self._now, "reject", spec.name, ""))
            else:
                self._admit(spec, host)

    def _admit(self, spec: PodSpec, host: Host) -> None:
        pod = PlacedPod(spec, self._now)
        # Incarnation 0 of the pod's span chain; migrations extend it
        # with follows-linked drain/readmit/lifetime spans.
        pod.start(host, spec.mem_demand, incarnation=0)
        host.account_add(pod)
        # Same-round placements see the bytes already spoken for.
        host.mem_free -= spec.mem_demand
        self.placed[spec.name] = pod
        self.trace.append((self._now, "place", spec.name, host.name))

    # -- epoch hooks ----------------------------------------------------------

    def _apply_bursts(self) -> None:
        for pod in self.placed.values():
            target = pod.spec.demand_at(self._now)
            if abs(target - pod.demand) < _EPS:
                continue
            pod.host.set_demand(pod, target)
            self.trace.append((self._now, "burst", pod.name, pod.host.name))

    def _sample_epoch(self, epoch_len: float) -> None:
        m = self.metrics
        m.epochs += 1
        attained_total = 0.0
        demand_total = 0.0
        self.last_epoch_attained = {}
        for pod in self.placed.values():
            total = pod.total_cpu_time
            attained = (total - pod.last_cpu_time) / epoch_len
            pod.last_cpu_time = total
            window = min(epoch_len, self._now - pod.placed_at)
            if window < epoch_len - _EPS:
                # Partial first epoch: rate over the actual residency.
                attained = (attained * epoch_len / window) if window > _EPS \
                    else pod.demand
            m.pod_epochs += 1
            demand_total += pod.demand
            attained_total += min(attained, pod.demand)
            self.last_epoch_attained[pod.name] = (attained, pod.demand)
            if attained + _EPS < SLO_FRAC * pod.demand:
                pod.violation_epochs += 1
                m.violations += 1
        cap = float(self.cpu_capacity)
        m.density_sum += demand_total / cap
        m.utilization_sum += attained_total / cap

    def _attained_by_host(self) -> dict[str, dict[str, tuple[float, float]]]:
        """Last epoch's (attained, demand) pairs, sliced by current host."""
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for name, rates in self.last_epoch_attained.items():
            pod = self.placed[name]
            out.setdefault(pod.host.name, {})[name] = rates
        return out

    # -- migration ------------------------------------------------------------

    def _rebalance(self) -> None:
        """Move the biggest pods off hosts running over the hot threshold.

        Every demand read here is the host's running ``demand_cpu`` —
        O(1) per probe, not an O(pods) recompute.
        """
        moved = 0
        budget = self.params.max_migrations_per_epoch
        hot_frac = self.params.hot_frac
        hot = sorted(
            (h for h in self.hosts if h.demand_cpu > hot_frac * h.ncpus),
            key=lambda h: (-(h.demand_cpu / h.ncpus), h.name))
        for host in hot:
            while moved < budget and host.demand_cpu > hot_frac * host.ncpus:
                candidates = sorted(host.pods.values(),
                                    key=lambda p: (-p.demand, p.name))
                target_found = False
                for pod in candidates:
                    dst = self._pick_target(pod, exclude=host)
                    if dst is None:
                        continue
                    self.migration_records.append(
                        migrate_pod(pod, dst, self._now))
                    self.trace.append((self._now, "migrate", pod.name,
                                       dst.name))
                    moved += 1
                    target_found = True
                    break
                if not target_found:
                    break           # nothing on this host can move anywhere
            if moved >= budget:
                break

    def _pick_target(self, pod: PlacedPod, *, exclude: Host) -> Host | None:
        fp = pod.footprint()
        hot_cap = self.params.hot_frac
        best: Host | None = None
        best_key: tuple[float, str] | None = None
        for host in self.hosts:
            if host is exclude:
                continue
            if not self.strategy.feasible(host, fp):
                continue
            # Don't create a new hotspot while fixing this one.
            if host.demand_cpu + pod.demand > hot_cap * host.ncpus:
                continue
            key = (self.strategy.fit_score(host, fp), host.name)
            if best_key is None or key < best_key:
                best, best_key = host, key
        return best

    # -- reporting ------------------------------------------------------------

    def trace_digest(self) -> str:
        """SHA-256 of the canonical placement/migration trace."""
        payload = json.dumps(self.trace, sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def epoch_sample_digest(self) -> str:
        """Rolling SHA-256 over every epoch's barrier rows.

        The rows are everything the placement surfaces and the SLO
        sampler read from the worlds, so this digest moves whenever the
        scheduler's view of any host does — even where placement does
        not change.
        """
        return self._sample_hash.copy().hexdigest()

    def summary(self) -> dict:
        """JSON-able scorecard of the run so far."""
        m = self.metrics
        epochs = max(1, m.epochs)
        return {
            "strategy": self.strategy.name,
            "hosts": len(self.hosts),
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
                "host": pod.host.name,
                "migrations": pod.migrations,
                "total_cpu_time": (pod.cpu_time_retired
                                   + live[name]["live_cpu_time"]),
                "cpu_time_retired": pod.cpu_time_retired,
                "bytes_migrated": pod.bytes_migrated,
                "mem_usage": live[name]["mem_usage"],
            }
            for name, pod in sorted(self.placed.items())
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
        return (f"<Cluster t={self._now:.1f}s hosts={len(self.hosts)} "
                f"placed={len(self.placed)} strategy={self.strategy.name}>")


# -- per-host bodies ---------------------------------------------------------

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
