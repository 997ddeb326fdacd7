"""Byte pin for the in-process cluster.

Everything a cluster run exposes is pinned in ``tests/golden/pins.json``
(format and re-pin procedure: the ``pin`` fixture in the root
``conftest.py``), one entry per scenario:

* ``seed00`` ... ``seed19``: each ``generate_cluster`` seed run through
  ``check.runner.run_cluster``.  Its ``log`` (placement trace digest,
  epoch sample digest, telemetry epoch count) and its ``final``
  ``invariant_snapshot()`` are stored as cells; ``epochs_sha256`` is
  one hash over the canonical JSON of its per-epoch snapshots.
* ``churn``: the bursty 16-host, 1,400-pod workload.  Its
  ``trace_digest`` and its ``snapshot`` as cells, except the per-pod
  ``pods`` dict, which is ``pods_sha256``; the per-host CPU time and
  memory cells still show any drift.
* ``telemetry``: a traced run with a ``FleetCollector`` attached: the
  snapshot, the epoch records, the summary and the histograms, as cells.

Any change to placement, migration, barrier reports or telemetry that
moves one byte fails here, and the report names the scenario and the
first value that moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.check import generate_cluster, run_cluster
from repro.cluster import Cluster, ClusterParams, PodSpec
from repro.obs.fleet import FleetCollector
from repro.units import gib, mib

PINS = Path(__file__).with_name("golden") / "pins.json"


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def churn_workload() -> tuple[ClusterParams, list[PodSpec], float]:
    """16 hosts, 1400 pods; every 50th pod bursts to 3.5 cores.

    Baseline demand sits around half the hot threshold per host, and
    the staggered bursts push hosts hot so the rebalancer sheds pods
    every epoch.  Requests are sized so nothing is rejected.
    """
    params = ClusterParams(n_hosts=16, host_ncpus=8, host_memory=gib(16),
                           epoch=0.5, hot_frac=0.75, seed=0)
    specs = []
    for i in range(1400):
        demand = 0.025 + 0.03 * ((i * 7) % 5) / 4
        burst = i % 50 == 0
        specs.append(PodSpec(
            name=f"pod{i:04d}", cpu_request=round(demand * 2.0, 3),
            mem_request=mib(48), cpu_demand=round(demand, 3),
            mem_demand=mib(24),
            burst_demand=3.5 if burst else None,
            burst_at=1.0 + ((i // 50) % 12) * 0.5 if burst else None))
    return params, specs, 8.0


def _traced_specs() -> list[PodSpec]:
    specs = []
    for i in range(24):
        burst = i % 3 == 0
        specs.append(PodSpec(
            name=f"pod{i:03d}", cpu_request=1.5, mem_request=mib(128),
            cpu_demand=0.4, mem_demand=mib(64),
            burst_demand=2.0 if burst else None,
            burst_at=1.5 if burst else None,
            gang=f"g{i // 8}" if i % 5 == 0 else None))
    return specs


def _sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def test_cluster_bytes_pinned(pin):
    entries = {}
    for seed in range(20):
        res = run_cluster(generate_cluster(seed))
        assert res.ok, res.violations[:3]
        entries[f"seed{seed:02d}"] = {
            "log": pin.cells(res.log), "final": pin.cells(res.snapshots[-1]),
            "epochs_sha256": _sha256(*map(_canon, res.snapshots))}

    params, specs, horizon = churn_workload()
    churn = Cluster(params)
    churn.submit_all(specs)
    churn.run(until=horizon)
    snapshot = churn.invariant_snapshot()
    pods = snapshot.pop("pods")
    entries["churn"] = {"trace_digest": churn.trace_digest(),
                        "snapshot": pin.cells(snapshot),
                        "pods_sha256": _sha256(_canon(pods))}

    traced = Cluster(ClusterParams(
        n_hosts=5, host_ncpus=4, host_memory=gib(4), epoch=0.5,
        hot_frac=0.7, seed=11, trace=True))
    collector = FleetCollector()
    traced.attach_telemetry(collector)
    traced.submit_all(_traced_specs())
    traced.run(until=5.0)
    entries["telemetry"] = {
        "trace_digest": traced.trace_digest(),
        "snapshot": pin.cells(traced.invariant_snapshot()),
        "epoch_records": pin.cells(list(collector.epoch_records)),
        "summary": pin.cells(collector.summary()),
        "histograms": pin.cells({name: [h.counts, h.count, h.total]
                                 for name, h in collector.histograms.items()})}
    pin(PINS, entries)
