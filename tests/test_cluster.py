"""Tests for repro.cluster: placement, gangs, migration, HPA, invariants."""

from __future__ import annotations

import json

import pytest

from repro.check import check_cluster, check_cluster_snapshot
from repro.cluster import (Cluster, ClusterParams, GangBinPack, PodSpec,
                           StaticRequestBinPack, ViewBinPack, make_strategy)
from repro.cluster.pod import quota_cores
from repro.errors import ClusterError, ServeError
from repro.units import gib, mib


def pod(name: str, *, request: float = 1.0, demand: float = 0.5,
        mem: int = mib(64), gang: str | None = None,
        burst: tuple[float, float] | None = None) -> PodSpec:
    return PodSpec(name=name, cpu_request=request, mem_request=mem * 2,
                   cpu_demand=demand, mem_demand=mem, gang=gang,
                   burst_demand=burst[0] if burst else None,
                   burst_at=burst[1] if burst else None)


def small_cluster(n_hosts: int = 2, *, ncpus: int = 4, strategy: str = "view",
                  **kwargs) -> Cluster:
    return Cluster(ClusterParams(n_hosts=n_hosts, host_ncpus=ncpus,
                                 host_memory=gib(4), strategy=strategy,
                                 **kwargs))


class TestPodSpec:
    def test_validation(self):
        with pytest.raises(ClusterError, match="cpu_demand"):
            pod("p", demand=0.001)
        with pytest.raises(ClusterError, match="cpu_request"):
            PodSpec(name="p", cpu_request=0.1, mem_request=mib(2),
                    cpu_demand=0.5, mem_demand=mib(1))
        with pytest.raises(ClusterError, match="together"):
            PodSpec(name="p", cpu_request=1.0, mem_request=mib(2),
                    cpu_demand=0.5, mem_demand=mib(1), burst_demand=2.0)

    def test_burst_demand_schedule(self):
        spec = pod("p", burst=(2.0, 5.0))
        assert spec.demand_at(4.9) == 0.5
        assert spec.demand_at(5.0) == 2.0


class TestStrategies:
    def test_static_packs_on_requests(self):
        c = small_cluster(2, ncpus=4, strategy="static")
        # Requests of 3.0 each: two per 4-core host on paper? No — 3+3 > 4,
        # so static fits exactly one per host and rejects the third.
        for i in range(3):
            c.submit(pod(f"p{i}", request=3.0, demand=0.1))
        c.run(until=1.0)
        assert len(c.placed) == 2
        assert c.rejected == ["p2"]

    def test_view_packs_on_live_demand(self):
        c = small_cluster(2, ncpus=4, strategy="view")
        # Same inflated requests, but live demand is tiny: all three fit.
        for i in range(3):
            c.submit(pod(f"p{i}", request=3.0, demand=0.1))
        c.run(until=1.0)
        assert len(c.placed) == 3
        assert c.rejected == []

    def test_best_fit_chooses_tightest_host(self):
        c = small_cluster(2, ncpus=4, strategy="static",
                          max_migrations_per_epoch=0)
        c.submit(pod("big", request=3.0, demand=0.5))
        c.run(until=1.0)
        # host with `big` has 1 core of request headroom; a 1-core pod
        # best-fits there, not on the empty host.
        occupied = next(iter(c.placed.values())).host.name
        c.submit(pod("small", request=1.0, demand=0.1))
        c.run(until=2.0)
        assert c.placed["small"].host.name == occupied

    def test_strategy_units(self):
        static = StaticRequestBinPack()
        view = ViewBinPack()
        fp = pod("p", request=2.0, demand=0.25).footprint()
        assert static.cpu_need(fp) == 2.0
        assert view.cpu_need(fp) == 0.25
        gang = GangBinPack(ViewBinPack())
        assert gang.gang_aware and gang.name == "view-gang"
        with pytest.raises(ClusterError, match="unknown"):
            make_strategy("nope")


class TestGangPlacement:
    def test_gang_all_or_nothing(self):
        # 2 hosts x 4 cores; gang of 3 ranks needing 3 cores each cannot
        # fit anywhere in one round: no rank may be placed.
        c = small_cluster(2, ncpus=4, strategy="view-gang")
        for i in range(3):
            c.submit(pod(f"r{i}", request=3.0, demand=3.0, gang="g"))
        c.run(until=1.0)
        assert len(c.placed) == 0
        assert sorted(c.rejected) == ["r0", "r1", "r2"]
        assert c.metrics.gangs_rejected == 1
        assert c.metrics.gangs_partial == 0

    def test_gang_blind_strategy_strands_partial_gang(self):
        # The same workload under the non-gang strategy places 2 of 3
        # ranks — the pathology the gang-aware wrapper prevents.
        c = small_cluster(2, ncpus=4, strategy="view")
        for i in range(3):
            c.submit(pod(f"r{i}", request=3.0, demand=3.0, gang="g"))
        c.run(until=1.0)
        assert len(c.placed) == 2
        assert c.metrics.gangs_partial == 1

    def test_gang_prefers_fewest_hosts(self):
        c = small_cluster(3, ncpus=4, strategy="view-gang",
                          max_migrations_per_epoch=0)
        for i in range(4):
            c.submit(pod(f"r{i}", request=1.0, demand=1.0, gang="g"))
        c.run(until=1.0)
        hosts = {p.host.name for p in c.placed.values()}
        assert len(c.placed) == 4
        assert len(hosts) == 1          # 4x1.0 cores fit one 4-core host


class TestMigration:
    def _bursty_cluster(self) -> Cluster:
        c = small_cluster(2, ncpus=4, strategy="view", hot_frac=0.8,
                          max_migrations_per_epoch=2)
        # Fill host demand then burst: pods all best-fit onto one host
        # (tiny live demand), the burst makes it hot, the rebalancer
        # must move someone to the other host.
        for i in range(6):
            c.submit(pod(f"p{i}", request=1.0, demand=0.2,
                         burst=(1.5, 2.0) if i < 4 else None))
        return c

    def test_burst_triggers_migration(self):
        c = self._bursty_cluster()
        c.run(until=6.0)
        assert len(c.migration_records) > 0
        moved = {r.pod for r in c.migration_records}
        assert all(c.placed[name].migrations > 0 for name in moved)

    def test_migration_preserves_ledgers(self):
        c = self._bursty_cluster()
        prev = None
        for e in range(1, 7):
            c.run(until=float(e))
            snap = c.invariant_snapshot()
            from repro.check import check_cluster_snapshot
            assert check_cluster_snapshot(snap, prev) == []
            prev = snap
        assert len(c.migration_records) > 0

    def test_migration_moves_bytes(self):
        c = self._bursty_cluster()
        c.run(until=6.0)
        rec = c.migration_records[0]
        assert rec.bytes_moved == mib(64)
        assert rec.src != rec.dst
        pod_obj = c.placed[rec.pod]
        assert pod_obj.live_bytes == mib(64)    # re-charged on target
        assert pod_obj.cpu_time_retired > 0.0

    def test_cpu_integral_survives_rehoming(self):
        c = self._bursty_cluster()
        c.run(until=6.0)
        total_pods = sum(p.total_cpu_time for p in c.placed.values())
        total_hosts = sum(
            sum(p.container.cgroup.total_cpu_time for p in h.pods.values())
            + h.world.cgroups.retired_cpu_time for h in c.hosts)
        assert total_pods == pytest.approx(total_hosts, rel=1e-9)


class _RecordingViewBinPack(ViewBinPack):
    """ViewBinPack that snapshots every host's placement surface, and
    its pods' live E_CPU, at each choice."""

    def __init__(self):
        super().__init__()
        self.seen: list[list[tuple]] = []

    def choose(self, hosts, fp):
        self.seen.append([
            (h.free_cpu_view(), h.free_mem_view(),
             {name: p.container.sys_ns.e_cpu for name, p in h.pods.items()})
            for h in hosts])
        return super().choose(hosts, fp)


class TestDecisionTime:
    """What a placement decision reads between epoch barriers."""

    def test_same_round_admission_counts_predicted_quota_and_bytes(self):
        strategy = _RecordingViewBinPack()
        c = Cluster(ClusterParams(n_hosts=1, host_ncpus=4, host_memory=gib(4),
                                  max_migrations_per_epoch=0), strategy=strategy)
        host = c.hosts[0]
        assert host.free_mem_view() == host.world.mm.free
        # A heavy-share tenant first, so a later pod's share of the host
        # (and with it its E_CPU lower bound) is one core.
        c.submit(pod("hog", request=7.0, demand=0.5))
        c.run(until=1.0)
        hog = c.placed["hog"].container
        hog_view = min(float(hog.sys_ns.e_cpu), hog.cgroup.quota_cores)
        assert host.free_cpu_view() == 4.0 - hog_view

        c.submit(pod("big", request=2.0, demand=2.0, mem=mib(256)))
        c.submit(pod("small", request=0.5, demand=0.5))
        c.run(until=2.0)
        # Best-fit-decreasing: "big" is chosen before "small".
        _, (before,), (after,) = strategy.seen
        assert before[2] == {"hog": hog.sys_ns.e_cpu}
        free_cpu, free_mem, live_e_cpu = after
        # The fresh container's E_CPU is its lower bound, 1 core, yet
        # the second choice counts the pod's full predicted quota ...
        assert live_e_cpu["big"] == 1
        assert free_cpu == pytest.approx(4.0 - hog_view - quota_cores(2.0))
        # ... and sees its bytes already gone.
        assert free_mem == before[1] - mib(256)

        # At the barrier the surface is read back from the containers.
        views = [min(float(p.container.sys_ns.e_cpu),
                     p.container.cgroup.quota_cores)
                 for _, p in sorted(host.pods.items())]
        assert host.free_cpu_view() == 4.0 - sum(views)
        assert host.free_mem_view() == host.world.mm.free


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        def build():
            c = self._cluster()
            c.run(until=5.0)
            return c
        a, b = build(), build()
        assert a.trace == b.trace
        assert a.trace_digest() == b.trace_digest()
        assert a.summary() == b.summary()

    def test_different_seed_differs(self):
        # Pods draw no randomness, so this workload's traces and digests
        # agree across seeds; what the seed must reach is every host's
        # world RNG, distinctly per host.
        def host_seeds(seed: int) -> list[int]:
            return [h.world.rng.root_seed
                    for h in self._cluster(seed=seed).hosts]

        zero = host_seeds(0)
        assert host_seeds(1) != zero
        assert host_seeds(0) == zero
        assert len(set(zero)) == len(zero)

    def _cluster(self, seed: int = 0) -> Cluster:
        c = small_cluster(3, ncpus=4, strategy="view", seed=seed)
        for i in range(10):
            c.submit(pod(f"p{i}", request=1.5, demand=0.4,
                         burst=(1.2, 2.0) if i % 3 == 0 else None,
                         gang="g" if i >= 8 else None))
        return c


class TestClusterBasics:
    def test_duplicate_submit_rejected(self):
        c = small_cluster(1)
        c.submit(pod("p"))
        with pytest.raises(ClusterError, match="already"):
            c.submit(pod("p"))

    def test_lockstep_clocks(self):
        c = small_cluster(3)
        c.submit(pod("p"))
        c.run(until=3.5)
        assert all(h.now == pytest.approx(3.5) for h in c.hosts)

    def test_summary_partition(self):
        c = small_cluster(2, ncpus=4, strategy="static")
        for i in range(5):
            c.submit(pod(f"p{i}", request=3.0, demand=0.1))
        c.run(until=2.0)
        s = c.summary()
        assert s["placed"] + s["rejected"] + s["pending"] == s["submitted"]
        assert check_cluster(c) == []

    def test_params_validation(self):
        with pytest.raises(ClusterError):
            ClusterParams(n_hosts=0)
        with pytest.raises(ClusterError):
            ClusterParams(hot_frac=1.5)


def churn_specs(n: int = 24) -> list[PodSpec]:
    """A mix that bursts hosts hot, so the rebalancer migrates."""
    return [pod(f"pod{i:03d}", request=1.5, demand=0.4,
                burst=(2.0, 1.5) if i % 3 == 0 else None,
                gang=f"g{i // 8}" if i % 5 == 0 else None)
            for i in range(n)]


def churn_cluster(*, trace: bool = False, telemetry: bool = False,
                  n_hosts: int = 5, until: float = 5.0) -> Cluster:
    c = Cluster(ClusterParams(n_hosts=n_hosts, host_ncpus=4,
                              host_memory=gib(4), epoch=0.5, hot_frac=0.7,
                              seed=11, trace=trace))
    if telemetry:
        from repro.obs.fleet import FleetCollector
        c.attach_telemetry(FleetCollector())
    c.submit_all(churn_specs())
    c.run(until=until)
    return c


def fingerprints(c: Cluster) -> tuple[str, str, str]:
    snap = json.dumps(c.invariant_snapshot(), sort_keys=True)
    return c.trace_digest(), c.epoch_sample_digest(), snap


class TestControlPlane:
    """Placement surfaces over the in-process host worlds."""

    def test_ledger_conservation_across_rehomes(self):
        c = churn_cluster()
        assert len(c.migration_records) > 0
        assert check_cluster_snapshot(c.invariant_snapshot()) == []
        for name in {r.pod for r in c.migration_records}:
            rec = c.placed[name]
            assert rec.cpu_time_retired > 0.0
            assert rec.total_cpu_time >= rec.cpu_time_retired

    def test_cpu_integral_monotone_across_epochs(self):
        c = Cluster(ClusterParams(n_hosts=4, host_ncpus=4,
                                  host_memory=gib(4), epoch=0.5,
                                  hot_frac=0.7, seed=11))
        c.submit_all(churn_specs())
        prev = None
        for k in range(1, 9):
            c.run(until=0.5 * k)
            snap = c.invariant_snapshot()
            assert check_cluster_snapshot(snap, prev) == []
            prev = snap
        assert len(c.migration_records) > 0

    def test_traced_churn_span_chains_audit_clean(self):
        c = churn_cluster(trace=True)
        assert len(c.migration_records) > 0
        assert check_cluster(c) == []

    def test_telemetry_is_passive(self):
        bare = churn_cluster(telemetry=False)
        obs = churn_cluster(telemetry=True)
        assert fingerprints(bare) == fingerprints(obs)
        assert obs.telemetry.epochs == 10
        assert obs.telemetry.histograms["fleet.e_cpu"].count > 0

    def test_hosts_are_the_live_worlds(self):
        c = churn_cluster(until=0.5)
        assert all(c.placed[name] is p and p.host is h
                   for h in c.hosts for name, p in h.pods.items())
        assert all(h.now == pytest.approx(0.5) for h in c.hosts)
        assert sum(len(h.pods) for h in c.hosts) == len(c.placed)

    def test_duplicate_pending_rejected_via_name_set(self):
        c = churn_cluster(until=0.0)
        c.submit(pod("dup"))
        assert "dup" in c._pending_names
        with pytest.raises(ClusterError, match="already"):
            c.submit(pod("dup"))
        c.run(until=0.5)
        assert not c._pending_names
        with pytest.raises(ClusterError, match="already"):
            c.submit(pod("dup"))          # placed now, still rejected

    def test_rejected_pod_can_be_resubmitted(self):
        c = Cluster(ClusterParams(n_hosts=1, host_ncpus=2,
                                  host_memory=gib(4), strategy="static",
                                  max_migrations_per_epoch=0))
        c.submit(pod("big", request=2.0, demand=0.1))
        c.submit(pod("late", request=1.0, demand=0.1))
        c.run(until=1.0)
        assert c.rejected == ["late"]
        c.submit(pod("late", request=1.0, demand=0.1))   # name free again
        c.run(until=2.0)
        assert c.rejected == ["late", "late"]   # rejected again, recorded

    def test_migration_probe_reads_incremental_demand_ledger(self):
        c = churn_cluster(until=2.0)
        for host in c.hosts:
            assert host.demand_cpu == pytest.approx(
                sum(p.demand for p in host.pods.values()))

    def test_epoch_sample_digest_changes_per_epoch(self):
        c = churn_cluster(until=1.0)
        first = c.epoch_sample_digest()
        c.run(until=2.0)
        assert c.epoch_sample_digest() != first


class TestHpaVerticalInterop:
    """HPA over the vertical autoscaler: membership bookkeeping."""

    def _stack(self):
        from repro.container.spec import ContainerSpec
        from repro.serve import Autoscaler, AutoscalerParams
        from repro.serve.balancer import Balancer
        from repro.serve.latency import LatencyRecorder
        from repro.serve.slo import Slo
        from repro.serve.workload import ServiceReplica, ServiceWorkload
        from repro.world import World

        world = World(ncpus=8, seed=0)
        workload = ServiceWorkload(name="svc", workers_per_replica=2)
        recorder = LatencyRecorder()

        def make_replica(index: int) -> ServiceReplica:
            container = world.containers.create(ContainerSpec(f"svc-{index}"))
            replica = ServiceReplica(container, workload, recorder)
            replica.start()
            return replica

        replicas = [make_replica(0), make_replica(1)]
        balancer = Balancer(replicas)
        scaler = Autoscaler(world, AutoscalerParams(min_cores=0.5,
                                                    max_cores=2.0))
        slo = Slo(target=0.25, percentile=99.0, window=2.0)
        scaler.manage("svc", replicas, balancer, recorder, slo,
                      initial_cores=1.0)
        return world, balancer, scaler, make_replica

    def test_add_replica_applies_quota_and_bookmark(self):
        world, balancer, scaler, make_replica = self._stack()
        new = make_replica(2)
        balancer.add(new)
        scaler.add_replica("svc", new)
        service = scaler.services["svc"]
        assert len(service.replicas) == 3
        assert new.container.cgroup.quota_cores == pytest.approx(1.0)
        # Usage window must not see a step from the newcomer's history.
        assert service.last_cpu_time == pytest.approx(
            sum(r.container.cgroup.total_cpu_time for r in service.replicas))

    def test_remove_replica_guards_last(self):
        world, balancer, scaler, make_replica = self._stack()
        service = scaler.services["svc"]
        scaler.remove_replica("svc", service.replicas[-1])
        with pytest.raises(ServeError, match="last replica"):
            scaler.remove_replica("svc", service.replicas[0])

    def test_balancer_drain_and_reap(self):
        world, balancer, scaler, make_replica = self._stack()
        victim = balancer.replicas[-1]
        balancer.remove(victim)
        assert victim in balancer.draining
        assert balancer.reap_drained() == [victim]   # idle: drains instantly
        assert balancer.draining == []
        with pytest.raises(ServeError, match="last"):
            balancer.remove(balancer.replicas[0])

    def test_hpa_scale_out_on_backlog(self):
        from repro.cluster.hpa import QUEUE_HIGH, HorizontalAutoscaler, HpaParams
        from repro.serve.latency import LatencyRecorder
        from repro.serve.slo import Slo
        world, balancer, scaler, make_replica = self._stack()
        recorder = balancer.replicas[0].recorder
        slo = Slo(target=0.05, percentile=99.0, window=2.0)
        hpa = HorizontalAutoscaler(
            world, "svc", balancer, recorder, slo, factory=make_replica,
            params=HpaParams(min_replicas=2, max_replicas=4, cooldown=0.0),
            vertical=scaler, cores_per_replica=1.0)
        hpa.start()
        # Flood both replicas far past QUEUE_HIGH.
        from repro.serve.workload import Request
        for i in range(40):
            balancer.dispatch(Request(i, 0.0, 0.5))
        assert balancer.max_outstanding() >= QUEUE_HIGH
        world.run(until=3.0)
        assert hpa.scale_outs >= 1
        assert hpa.replicas > 2
        assert len(scaler.services["svc"].replicas) == hpa.replicas

    def test_hpa_scales_in_after_burst_stops(self):
        """Out through a burst, in once it is served: one direction flip."""
        from repro.cluster.hpa import HorizontalAutoscaler, HpaParams
        from repro.serve.slo import Slo
        from repro.serve.workload import Request
        world, balancer, scaler, make_replica = self._stack()
        recorder = balancer.replicas[0].recorder
        slo = Slo(target=0.05, percentile=99.0, window=2.0)
        hpa = HorizontalAutoscaler(
            world, "svc", balancer, recorder, slo, factory=make_replica,
            params=HpaParams(min_replicas=2, max_replicas=4, cooldown=1.0),
            vertical=scaler, cores_per_replica=1.0)
        hpa.start()
        for i in range(40):                  # one burst, then no load
            balancer.dispatch(Request(i, 0.0, 0.5))
        world.run(until=20.0)
        assert hpa.scale_outs >= 1
        assert hpa.scale_ins >= 1
        assert hpa.oscillations() == 1
        assert hpa.replicas == 2
        assert len(scaler.services["svc"].replicas) == hpa.replicas
