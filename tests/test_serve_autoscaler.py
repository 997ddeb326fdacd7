"""Tests for the SLO-driven vertical autoscaler control plane."""

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import ServeError
from repro.serve import (Autoscaler, AutoscalerParams, Balancer,
                         LatencyRecorder, LoadGenerator, Phase,
                         ServiceReplica, ServiceWorkload, Slo)
from repro.serve.autoscaler import MEM_HEADROOM
from repro.units import mib
from repro.world import World


def _service(world, n_replicas=2, **workload_kwargs):
    workload_kwargs.setdefault("mean_demand", 0.02)
    workload_kwargs.setdefault("workers_per_replica", 2)
    workload_kwargs.setdefault("queue_capacity", 200)
    workload = ServiceWorkload(name="svc", **workload_kwargs)
    recorder = LatencyRecorder()
    replicas = []
    for i in range(n_replicas):
        c = world.containers.create(ContainerSpec(f"svc-{i}"))
        r = ServiceReplica(c, workload, recorder)
        r.start()
        replicas.append(r)
    return workload, replicas, Balancer(replicas), recorder


def _drive(world, workload, balancer, phases):
    gen = LoadGenerator(world, workload, phases, balancer.dispatch)
    gen.start()
    return gen


class TestParamsValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ServeError):
            AutoscalerParams(period=0.0)
        with pytest.raises(ServeError):
            AutoscalerParams(min_cores=2.0, max_cores=1.0)
        with pytest.raises(ServeError):
            AutoscalerParams(host_reserve=-1.0)


class TestManage:
    def test_applies_initial_quota_and_shares(self):
        world = World(ncpus=8, seed=0)
        _, replicas, balancer, recorder = _service(world)
        scaler = Autoscaler(world, AutoscalerParams(min_cores=0.5, max_cores=3.0))
        service = scaler.manage("svc", replicas, balancer, recorder,
                                Slo(target=0.2), initial_cores=1.5)
        assert service.cores == 1.5
        for r in replicas:
            assert r.container.cgroup.quota_cores == pytest.approx(1.5)
            assert r.container.cgroup.cpu.shares == 1536
        assert scaler.total_reserved == pytest.approx(3.0)

    def test_rejects_duplicate_and_oversubscription(self):
        world = World(ncpus=4, seed=0)
        _, replicas, balancer, recorder = _service(world)
        scaler = Autoscaler(world, AutoscalerParams(
            min_cores=1.0, max_cores=4.0, host_reserve=1.0))
        scaler.manage("svc", replicas, balancer, recorder, Slo(target=0.2))
        with pytest.raises(ServeError):
            scaler.manage("svc", replicas, balancer, recorder, Slo(target=0.2))
        # 4 cpus - 1 reserve = 3 capacity; svc already floors 2, another
        # 2-replica service's floor (2) would not fit.
        _, more, balancer2, recorder2 = _service(World(ncpus=4, seed=1))
        with pytest.raises(ServeError):
            scaler.manage("svc2", more, balancer2, recorder2, Slo(target=0.2))

    def test_rejects_initial_outside_bounds(self):
        world = World(ncpus=8, seed=0)
        _, replicas, balancer, recorder = _service(world)
        scaler = Autoscaler(world, AutoscalerParams(min_cores=0.5, max_cores=2.0))
        with pytest.raises(ServeError):
            scaler.manage("svc", replicas, balancer, recorder,
                          Slo(target=0.2), initial_cores=3.0)


class TestControlLoop:
    def test_scales_up_under_burn(self):
        world = World(ncpus=16, seed=0)
        workload, replicas, balancer, recorder = _service(
            world, mean_demand=0.08, workers_per_replica=4)
        scaler = Autoscaler(world, AutoscalerParams(
            period=0.5, min_cores=0.5, max_cores=6.0, host_reserve=1.0))
        service = scaler.manage("svc", replicas, balancer, recorder,
                                Slo(target=0.15, window=2.0),
                                initial_cores=0.5)
        scaler.start()
        # Demand well above the 0.5-core initial quota: latency burns.
        _drive(world, workload, balancer, [Phase.steady(20.0, 40.0)])
        world.run(until=20.0)
        assert scaler.scale_ups > 0
        assert service.cores > 0.5

    def test_never_exceeds_host_capacity(self):
        world = World(ncpus=6, seed=0)
        workload, replicas, balancer, recorder = _service(
            world, mean_demand=0.2, workers_per_replica=4)
        params = AutoscalerParams(period=0.5, min_cores=0.5, max_cores=6.0,
                                  host_reserve=1.0)
        scaler = Autoscaler(world, params)
        scaler.manage("svc", replicas, balancer, recorder,
                      Slo(target=0.1, window=2.0), initial_cores=0.5)
        scaler.start()
        # Hopeless overload: the scaler wants far more than the host has.
        _drive(world, workload, balancer, [Phase.steady(30.0, 60.0)])
        world.run(until=30.0)
        capacity = world.host.ncpus - params.host_reserve
        assert scaler.history, "control loop never ticked"
        assert all(total <= capacity + 1e-9 for _, total in scaler.history)
        assert max(total for _, total in scaler.history) == pytest.approx(capacity)

    def test_scale_down_converges_after_spike(self):
        world = World(ncpus=16, seed=0)
        workload, replicas, balancer, recorder = _service(
            world, mean_demand=0.03, workers_per_replica=4)
        scaler = Autoscaler(world, AutoscalerParams(
            period=0.5, min_cores=0.5, max_cores=6.0, host_reserve=1.0))
        service = scaler.manage("svc", replicas, balancer, recorder,
                                Slo(target=0.2, window=2.0), initial_cores=1.0)
        scaler.start()
        _drive(world, workload, balancer,
               [Phase.steady(5.0, 20.0),
                Phase.spike(10.0, 20.0, multiplier=5.0),
                Phase.steady(30.0, 2.0)])   # near-idle tail
        world.run(until=15.0)
        spike_peak = max(cores for _, cores in service.cores_history)
        assert spike_peak > 1.0, "never scaled up during the spike"
        world.run(until=45.0)
        # Near-idle traffic: the additive down path walks the quota back
        # to (or next to) the floor within the cool-down.
        assert scaler.scale_downs > 0
        assert service.cores < spike_peak / 2
        assert service.cores <= 1.0

    def test_manages_memory_limit_with_headroom(self):
        world = World(ncpus=8, seed=0)
        workload, replicas, balancer, recorder = _service(
            world, resident_memory=mib(256))
        scaler = Autoscaler(world, AutoscalerParams(period=0.5))
        scaler.manage("svc", replicas, balancer, recorder, Slo(target=0.2))
        scaler.start()
        world.run(until=2.0)
        for r in replicas:
            assert r.container.cgroup.memory.limit_in_bytes == int(
                mib(256) * MEM_HEADROOM)

    def test_reserved_core_seconds_integral(self):
        world = World(ncpus=8, seed=0)
        _, replicas, balancer, recorder = _service(world)
        scaler = Autoscaler(world, AutoscalerParams(period=1.0))
        scaler.manage("svc", replicas, balancer, recorder, Slo(target=0.2),
                      initial_cores=1.0)
        scaler.start()
        world.run(until=10.0)
        scaler.stop()
        scaler.finalize()
        # Quiet service at min_cores floor the whole run: the integral is
        # bounded by initial reservation x time (2 cores x 10 s).
        assert 0 < scaler.reserved_core_seconds <= 20.0 + 1e-9

    def test_start_twice_rejected(self):
        world = World(ncpus=8, seed=0)
        scaler = Autoscaler(world)
        scaler.start()
        with pytest.raises(ServeError):
            scaler.start()
        scaler.stop()


class TestViewCoupling:
    def test_quota_writes_propagate_into_views(self):
        """The control plane drives the paper's adaptation loop."""
        world = World(ncpus=16, seed=0)
        workload, replicas, balancer, recorder = _service(
            world, mean_demand=0.08, workers_per_replica=4)
        bystander = world.containers.create(ContainerSpec("bystander"))
        scaler = Autoscaler(world, AutoscalerParams(
            period=0.5, min_cores=0.5, max_cores=6.0))
        scaler.manage("svc", replicas, balancer, recorder,
                      Slo(target=0.15, window=2.0), initial_cores=0.5)
        scaler.start()
        world.run(until=1.0)
        view_before = replicas[0].container.sys_ns.e_cpu
        _drive(world, workload, balancer, [Phase.steady(15.0, 40.0)])
        world.run(until=16.0)
        # Scale-up raised the replica's own view...
        assert replicas[0].container.sys_ns.e_cpu > view_before
        # ...and the bystander's view never exceeds the host.
        assert bystander.sys_ns.e_cpu <= world.host.ncpus


class TestExperiment:
    def test_exp_serve_smoke(self):
        from repro.harness.experiments.exp_serve import ServeParams, run
        params = ServeParams(ncpus=6, replicas=2, workers=2, base_rate=10.0,
                             warm=3.0, spike_len=4.0, cool=6.0, max_cores=2.0)
        result = run(params)
        rows = {r["mode"]: r for r in result.tables["latency"].rows}
        assert set(rows) == {"adaptive", "adaptive-psi", "static-equal",
                             "static-peak"}
        assert len(result.tables["pressure_ablation"].rows) == 2
        for row in rows.values():
            assert row["completed"] == row["generated"] - row["shed"]
        assert rows["adaptive"]["reserved_avg_cores"] == pytest.approx(
            rows["static-equal"]["reserved_avg_cores"])
