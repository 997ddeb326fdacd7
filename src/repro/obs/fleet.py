"""Streaming fleet-wide telemetry for the cluster layer.

Per-host collectors sample each :class:`~repro.cluster.host.Host` at
every cluster epoch barrier — PSI pressure, the paper's ``E_CPU`` /
``E_MEM`` adaptive views, quota/throttle counters, and SLO attainment —
and a :class:`FleetCollector` merges them into fleet-level rollups:

* **histograms** — per-epoch per-host :class:`~repro.metrics.Histogram`
  samples folded into cumulative fleet distributions via
  ``Histogram.merge`` (layout-identical by construction, so the merge
  is exact: merging N host histograms equals histogramming the
  concatenated samples);
* **ring series** — bounded :class:`RingSeries` buffers holding the
  most recent :data:`RING_CAPACITY` epoch samples of each fleet signal;
* **a stream** — one ``fleet_epoch`` JSON record per epoch, buffered to
  :data:`FLUSH_WATERMARK` and spilled through a
  :class:`~repro.obs.export.JsonlStreamWriter`, so a run of any length
  exports complete telemetry in O(ring + watermark) memory instead of
  buffering everything until the end.

The pipeline is strictly **passive**: collectors never schedule events
inside host worlds and only perform idempotent reads, so a cluster run
produces byte-identical placement traces and engine behaviour whether
telemetry is attached or not — the property ``tests/test_obs_fleet.py``
locks in.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.metrics import Histogram, Series

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.host import Host
    from repro.obs.export import JsonlStreamWriter

__all__ = ["RingSeries", "HostCollector", "FleetCollector",
           "format_epoch_line", "RING_CAPACITY", "FLUSH_WATERMARK"]

_STRETCH_CAP = 100.0

#: Histogram layout for E_CPU samples (cores).
E_CPU_LO = 1e-2
E_CPU_HI = 1e3
#: Histogram layout for stretch/E_MEM-fraction samples.
RATIO_LO = 1e-3
RATIO_HI = 1e3
#: Samples retained per fleet series (the in-memory ring bound).
RING_CAPACITY = 512
#: Stream epoch records to the sink once this many are pending.
FLUSH_WATERMARK = 64


class RingSeries:
    """A bounded time series: O(capacity) memory however long the run.

    Appends past capacity evict the oldest sample (counted in
    ``dropped``); :meth:`snapshot` materializes the retained window as
    a plain :class:`~repro.metrics.Series` for percentiles and export.
    The fleet pipeline streams every sample out *before* it can be
    evicted, so the ring bounds memory without losing telemetry.
    """

    __slots__ = ("name", "_samples", "total_samples")

    def __init__(self, name: str, capacity: int):
        if capacity < 1:
            raise ReproError(f"ring capacity must be >= 1, got {capacity}")
        self.name = name
        self._samples: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.total_samples = 0

    def append(self, time: float, value: float) -> None:
        self._samples.append((time, float(value)))
        self.total_samples += 1

    @property
    def dropped(self) -> int:
        return self.total_samples - len(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def last(self) -> float:
        if not self._samples:
            raise ReproError(f"ring series {self.name!r} is empty")
        return self._samples[-1][1]

    def snapshot(self) -> Series:
        """The retained window as a plain Series (copies the ring)."""
        return Series(name=self.name,
                      times=[t for t, _ in self._samples],
                      values=[v for _, v in self._samples])


class HostCollector:
    """Samples one host's observable state at an epoch barrier.

    Every read is a pure read: no event is scheduled, no accounting is
    perturbed, and no scheduler solve is forced — views are as of the
    engine's most recent reallocation, at most one event stale.
    """

    def __init__(self, host: "Host"):
        self.host = host
        # Layout templates built once; per-epoch histograms clone them
        # via Histogram.like, skipping the pow-heavy bounds construction
        # on the per-epoch hot path (and guaranteeing merge
        # compatibility by construction).
        self._tmpl_cpu = Histogram("tmpl", lo=E_CPU_LO, hi=E_CPU_HI)
        self._tmpl_ratio = Histogram("tmpl", lo=RATIO_LO, hi=RATIO_HI)

    def sample(self, attained: dict[str, tuple[float, float]]
               ) -> tuple[dict, dict[str, Histogram]]:
        """One epoch sample: host scalars plus per-epoch histograms.

        ``attained`` maps pod name to the cluster's (attained rate,
        demand) pair for the epoch just finished; only this host's pods
        are read from it.

        Strictly read-only: the collector never forces a scheduler
        solve, so a view read here is as of the engine's most recent
        reallocation — at most one event stale, and the engine does
        exactly the same work whether or not telemetry is attached.
        """
        host = self.host
        world = host.world
        root = world.cgroups.root
        name = host.name

        e_cpu_hist = Histogram.like(self._tmpl_cpu, f"{name}.e_cpu")
        e_mem_hist = Histogram.like(self._tmpl_ratio, f"{name}.e_mem_frac")
        stretch_hist = Histogram.like(self._tmpl_ratio, f"{name}.stretch")

        throttled_time = 0.0
        nr_throttled = 0
        violations = 0
        attained_sum = 0.0
        demand_sum = 0.0
        mem_capacity = float(host.mem_capacity)
        e_cpu_vals: list[float] = []
        e_mem_vals: list[float] = []
        stretch_vals: list[float] = []
        for name in sorted(host.pods):
            pod = host.pods[name]
            cg = pod.container.cgroup
            ns = pod.container.sys_ns
            e_cpu_vals.append(float(ns.e_cpu))
            e_mem_vals.append(float(ns.e_mem) / mem_capacity)
            throttled_time += cg.throttled_time
            nr_throttled += cg.nr_throttled
            rates = attained.get(name)
            if rates is not None:
                got, want = rates
                demand_sum += want
                attained_sum += min(got, want)
                # Stretch: how much slower than demanded the pod ran
                # this epoch (1.0 = full attainment), capped so a
                # stalled pod cannot blow up the distribution.
                stretch_vals.append(min(_STRETCH_CAP,
                                        want / got if got > 0 else
                                        _STRETCH_CAP))
                if got < want * 0.999999:
                    violations += 1
        e_cpu_hist.record_many(e_cpu_vals)
        e_mem_hist.record_many(e_mem_vals)
        stretch_hist.record_many(stretch_vals)
        # Live Σ min(E_CPU, quota), in the pods' insertion order — the
        # world's own view, not the placement surface's barrier copy.
        view_cpu = sum(min(float(pod.container.sys_ns.e_cpu),
                           pod.container.cgroup.quota_cores)
                       for pod in host.pods.values())

        scalars = {
            "host": host.name,
            "pods": len(host.pods),
            "psi_cpu_some": root.pressure.cpu.avg("some", 10.0),
            "psi_cpu_full": root.pressure.cpu.avg("full", 10.0),
            "psi_mem_some": root.pressure.memory.avg("some", 10.0),
            "psi_cpu_stall_s": root.pressure.cpu.some_total,
            "psi_mem_stall_s": root.pressure.memory.some_total,
            "view_cpu": view_cpu,
            "free_cpu_view": host.ncpus - view_cpu,
            "free_mem": world.mm.free,
            "throttled_time": throttled_time,
            "nr_throttled": nr_throttled,
            "attained": attained_sum,
            "demand": demand_sum,
            "violations": violations,
        }
        hists = {"e_cpu": e_cpu_hist, "e_mem_frac": e_mem_hist,
                 "stretch": stretch_hist}
        return scalars, hists


#: Fleet series sampled each epoch (name -> doc, for reference).
FLEET_SERIES = (
    "fleet.pods", "fleet.psi_cpu_some", "fleet.psi_mem_some",
    "fleet.view_cpu", "fleet.free_cpu_view", "fleet.free_mem",
    "fleet.throttled_time", "fleet.attainment", "fleet.migrations",
    "fleet.p99_stretch",
)


class FleetCollector:
    """Merges host samples into fleet rollups and streams them out.

    Attach with :meth:`Cluster.attach_telemetry`; the cluster calls
    :meth:`on_epoch` at every epoch barrier.  Call :meth:`flush` (or
    close the sink) at end of run to drain the pending tail.
    """

    def __init__(self, *, sink: "JsonlStreamWriter | None" = None):
        self.sink = sink
        self.cluster: "Cluster | None" = None
        self.epochs = 0
        self.records_streamed = 0
        self.series: dict[str, RingSeries] = {
            name: RingSeries(name, RING_CAPACITY) for name in FLEET_SERIES}
        #: Cumulative fleet distributions, exact merges of per-epoch
        #: per-host histograms.
        ref_cpu = Histogram("fleet.e_cpu", lo=E_CPU_LO, hi=E_CPU_HI)
        ref_ratio = Histogram("fleet.stretch", lo=RATIO_LO, hi=RATIO_HI)
        self.histograms: dict[str, Histogram] = {
            "fleet.e_cpu": ref_cpu,
            "fleet.stretch": ref_ratio,
            "fleet.e_mem_frac": Histogram.like(ref_ratio, "fleet.e_mem_frac"),
        }
        #: Most recent epoch records (ring-bounded, mirrors the stream).
        self.epoch_records: deque[dict] = deque(maxlen=RING_CAPACITY)
        self._pending: list[dict] = []

    # -- lifecycle ---------------------------------------------------------

    def bind(self, cluster: "Cluster") -> None:
        if self.cluster is not None and self.cluster is not cluster:
            raise ReproError("FleetCollector is already bound to a cluster")
        # Per-host sampling is the cluster's job: it runs one
        # HostCollector per host and hands on_epoch the finished sample
        # batch in host order.
        self.cluster = cluster

    # -- the epoch hook ----------------------------------------------------

    def on_epoch(self, cluster: "Cluster", epoch_len: float,
                 host_samples: list[tuple]) -> None:
        """Fold one epoch's per-host sample batch into the rollups.

        ``host_samples`` rows are ``(host_name, scalars, histograms)``
        in canonical host order, produced by
        :meth:`HostCollector.sample` (the histograms merge exactly: the
        layout is identical by construction).
        """
        now = cluster.now
        self.epochs += 1
        per_host: list[dict] = []
        epoch_hist: dict[str, Histogram] = {}
        for _name, scalars, hists in host_samples:
            per_host.append(scalars)
            for key, hist in hists.items():
                agg = epoch_hist.get(key)
                if agg is None:
                    epoch_hist[key] = hist
                else:
                    agg.merge(hist)
        # Merge is exact and associative, so folding the epoch rollup
        # into the cumulative one gives the same counts as folding each
        # host histogram individually — at a third of the merge calls.
        for key, hist in epoch_hist.items():
            self.histograms[f"fleet.{key}"].merge(hist)

        n_hosts = max(1, len(per_host))
        demand = sum(h["demand"] for h in per_host)
        attained_sum = sum(h["attained"] for h in per_host)
        stretch = epoch_hist.get("stretch")
        oscillations = sum(1 for pod in cluster.placed.values()
                           if pod.migrations >= 2)
        record = {
            "kind": "fleet_epoch",
            "epoch": self.epochs,
            "time": now,
            "epoch_len": epoch_len,
            "hosts": len(per_host),
            "pods": len(cluster.placed),
            "pending": len(cluster.pending),
            "psi_cpu_some": sum(h["psi_cpu_some"] for h in per_host) / n_hosts,
            "psi_mem_some": sum(h["psi_mem_some"] for h in per_host) / n_hosts,
            "view_cpu": sum(h["view_cpu"] for h in per_host),
            "free_cpu_view": sum(h["free_cpu_view"] for h in per_host),
            "free_mem": sum(h["free_mem"] for h in per_host),
            "throttled_time": sum(h["throttled_time"] for h in per_host),
            "nr_throttled": sum(h["nr_throttled"] for h in per_host),
            "attainment": (attained_sum / demand) if demand > 0 else 1.0,
            "violations": sum(h["violations"] for h in per_host),
            "migrations": len(cluster.migration_records),
            "oscillations": oscillations,
            "p99_stretch": (stretch.quantile(99.0)
                            if stretch is not None and stretch.count else 1.0),
        }
        for name in FLEET_SERIES:
            self.series[name].append(now, record[name.removeprefix("fleet.")])
        self.epoch_records.append(record)
        self._pending.append(record)
        if self.sink is not None and len(self._pending) >= FLUSH_WATERMARK:
            self.flush()

    # -- streaming ---------------------------------------------------------

    def flush(self) -> int:
        """Drain pending epoch records to the sink (no-op without one)."""
        if self.sink is None:
            # Bounded even without a sink: pending mirrors the ring.
            overflow = len(self._pending) - RING_CAPACITY
            if overflow > 0:
                del self._pending[:overflow]
            return 0
        n = len(self._pending)
        for record in self._pending:
            self.sink.write_record(record)
        self._pending.clear()
        self.sink.flush()
        self.records_streamed += n
        return n

    def finish(self) -> None:
        """Drain the tail and stream the final histogram snapshots."""
        self.flush()
        if self.sink is not None:
            self.sink.export_histograms(self.histograms)
            self.sink.flush()

    # -- reporting ---------------------------------------------------------

    def fleet_series(self, name: str) -> Series:
        try:
            ring = self.series[name]
        except KeyError:
            raise ReproError(f"no fleet series named {name!r}; have "
                             f"{sorted(self.series)}") from None
        return ring.snapshot()

    def summary(self) -> dict:
        """JSON-able rollup of the whole run's fleet telemetry."""
        e_cpu = self.histograms["fleet.e_cpu"]
        stretch = self.histograms["fleet.stretch"]
        last = self.epoch_records[-1] if self.epoch_records else {}
        return {
            "epochs": self.epochs,
            "records_streamed": self.records_streamed,
            "pod_epoch_samples": stretch.count,
            "e_cpu_p50": e_cpu.quantile(50.0) if e_cpu.count else None,
            "e_cpu_p99": e_cpu.quantile(99.0) if e_cpu.count else None,
            "stretch_p99": (stretch.quantile(99.0) if stretch.count
                            else None),
            "last_attainment": last.get("attainment"),
            "last_psi_cpu_some": last.get("psi_cpu_some"),
            "migrations": last.get("migrations", 0),
            "oscillations": last.get("oscillations", 0),
        }


def format_epoch_line(record: dict) -> str:
    """One-line operator rendering of a ``fleet_epoch`` record."""
    return (f"epoch {record['epoch']:3d} t={record['time']:7.1f}s "
            f"hosts={record['hosts']} pods={record['pods']:4d} "
            f"p99_stretch={record['p99_stretch']:6.2f} "
            f"psi_some={record['psi_cpu_some'] * 100.0:5.1f}% "
            f"attain={record['attainment'] * 100.0:5.1f}% "
            f"migrations={record['migrations']:3d} "
            f"oscillations={record['oscillations']:2d}")
