"""Absolute byte pin for the in-process cluster.

One SHA-256 over everything a cluster run exposes: for each generated
cluster scenario (``generate_cluster`` seeds 0-19, run through
``check.runner.run_cluster``) the final placement trace digest, the
epoch sample digest, the telemetry epoch count and the canonical JSON
of every per-epoch ``invariant_snapshot()``; then one run of the
bursty 16-host churn workload and one traced run with a
``FleetCollector`` attached, rollups included.

The constant was recorded before the sharded execution path was
folded into ``Cluster``; any change to placement, migration, barrier
reports or telemetry that moves a single byte fails here.
"""

from __future__ import annotations

import hashlib
import json

from repro.check import generate_cluster, run_cluster
from repro.cluster import Cluster, ClusterParams, PodSpec
from repro.obs.fleet import FleetCollector
from repro.units import gib, mib

CLUSTER_PIN = "936dbc4866e2efe15455e9cc76364a6f6c5545f01a61eda935d55c279bcd3b40"


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


def _fold_cluster(h, cluster: Cluster) -> None:
    h.update(cluster.trace_digest().encode())
    h.update(cluster.epoch_sample_digest().encode())
    h.update(_canon(cluster.invariant_snapshot()))


def cluster_pin() -> str:
    h = hashlib.sha256()
    for seed in range(20):
        res = run_cluster(generate_cluster(seed))
        assert res.ok, res.violations[:3]
        h.update(_canon(res.log))
        for snap in res.snapshots:
            h.update(_canon(snap))

    params, specs, horizon = churn_workload()
    cluster = Cluster(params)
    cluster.submit_all(specs)
    cluster.run(until=horizon)
    _fold_cluster(h, cluster)

    cluster = Cluster(ClusterParams(
        n_hosts=5, host_ncpus=4, host_memory=gib(4), epoch=0.5,
        hot_frac=0.7, seed=11, trace=True))
    collector = FleetCollector()
    cluster.attach_telemetry(collector)
    cluster.submit_all(_traced_specs())
    cluster.run(until=5.0)
    _fold_cluster(h, cluster)
    h.update(_canon(list(collector.epoch_records)))
    h.update(_canon(collector.summary()))
    for name in sorted(collector.histograms):
        hist = collector.histograms[name]
        h.update(_canon([name, hist.counts, hist.count, hist.total]))
    return h.hexdigest()


def test_cluster_bytes_pinned():
    assert cluster_pin() == CLUSTER_PIN
