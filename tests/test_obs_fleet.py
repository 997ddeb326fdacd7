"""Fleet telemetry pipeline, engine self-profiler, and span-tree audit.

Three contracts pinned here:

* **exactness** — merging N per-host histograms equals histogramming
  the concatenated samples (the property that makes fleet rollups
  lossless), and the ring series bound memory without corrupting the
  retained window;
* **passivity** — attaching the fleet collector or the engine profiler
  leaves the cluster's placement trace digest byte-identical, and
  detaching the profiler restores every wrapped method;
* **causality** — migration-following spans form valid chains that
  :func:`repro.check.span_tree.check_span_tree` accepts on real runs
  and rejects once corrupted.
"""

import io
import itertools
import json
import random

import pytest

from repro.check.span_tree import check_span_tree
from repro.container.spec import ContainerSpec
from repro.errors import ReproError
from repro.metrics import Histogram, Series
from repro.obs.demo import build_fleet_cluster, fleet_horizon, run_fleet_demo
from repro.obs import export, fleet
from repro.obs.export import JsonlStreamWriter
from repro.obs.fleet import (FLEET_SERIES, RING_CAPACITY, FleetCollector,
                             RingSeries, format_epoch_line)
from repro.obs.profile import SUBSYSTEMS, EngineProfiler
from repro.units import gib, mib
from repro.world import World


def _quick_run(seed=0, **kwargs):
    cluster = build_fleet_cluster(seed, quick=True, **kwargs)
    cluster.run(until=fleet_horizon(True))
    return cluster


class TestHistogramMerge:
    def _hist(self, name="h"):
        return Histogram(name, lo=1e-3, hi=1e3)

    def test_merge_of_hosts_equals_concatenated_samples(self):
        rng = random.Random(7)
        per_host = [[rng.lognormvariate(0.0, 1.5) for _ in range(50)]
                    for _ in range(4)]
        fleet = self._hist("fleet")
        for i, samples in enumerate(per_host):
            host = Histogram.like(fleet, f"host{i}")
            host.record_many(samples)
            fleet.merge(host)
        concat = self._hist("concat")
        for samples in per_host:
            concat.record_many(samples)
        assert fleet.counts == concat.counts
        assert fleet.count == concat.count == 200
        assert fleet.total == pytest.approx(concat.total)
        assert fleet.vmin == concat.vmin
        assert fleet.vmax == concat.vmax
        for q in (50.0, 90.0, 99.0):
            assert fleet.quantile(q) == concat.quantile(q)

    def test_merge_is_associative_across_epoch_rollups(self):
        # The collector folds hosts into an epoch rollup, then the
        # rollup into the cumulative histogram; same counts either way.
        rng = random.Random(11)
        chunks = [[rng.lognormvariate(0.0, 1.0) for _ in range(20)]
                  for _ in range(6)]
        direct = self._hist("direct")
        staged = self._hist("staged")
        for pair in (chunks[:3], chunks[3:]):
            epoch = Histogram.like(staged, "epoch")
            for chunk in pair:
                host = Histogram.like(staged, "host")
                host.record_many(chunk)
                direct.merge(host)
                epoch.merge(host)
            staged.merge(epoch)
        assert staged.counts == direct.counts
        assert staged.count == direct.count

    def test_like_shares_layout_and_merges(self):
        ref = self._hist()
        clone = Histogram.like(ref, "clone")
        assert clone.bounds == ref.bounds
        assert clone.count == 0 and clone.total == 0.0
        clone.record(1.0)
        ref.merge(clone)  # layout-compatible by construction
        assert ref.count == 1

    def test_merge_rejects_different_layouts(self):
        a = Histogram("a", lo=1e-3, hi=1e3)
        b = Histogram("b", lo=1e-2, hi=1e3)
        with pytest.raises(ReproError, match="bucket layouts"):
            a.merge(b)

    def test_record_many_matches_repeated_record(self):
        values = [0.01, 0.5, 2.0, 150.0, 0.0005, 5e4]  # under+overflow
        one = self._hist("one")
        many = self._hist("many")
        for v in values:
            one.record(v)
        many.record_many(values)
        assert many.counts == one.counts
        assert many.count == one.count
        assert many.total == pytest.approx(one.total)
        assert many.vmin == one.vmin and many.vmax == one.vmax

    def test_record_many_rejects_negative(self):
        hist = self._hist()
        with pytest.raises(ReproError, match="negative"):
            hist.record_many([1.0, -0.5])


class TestSeriesPercentile:
    def test_empty_raises(self):
        empty = Series(name="s", times=[], values=[])
        with pytest.raises(ReproError, match="empty"):
            empty.percentile(50.0)

    def test_singleton(self):
        single = Series(name="s", times=[1.0], values=[42.0])
        for q in (1.0, 50.0, 99.0, 100.0):
            assert single.percentile(q) == 42.0


class TestRingSeries:
    def test_bounded_with_drop_accounting(self):
        ring = RingSeries("r", capacity=4)
        for i in range(10):
            ring.append(float(i), float(i * 10))
        assert len(ring) == 4
        assert ring.total_samples == 10
        assert ring.dropped == 6
        assert ring.last == 90.0
        snap = ring.snapshot()
        assert snap.times == [6.0, 7.0, 8.0, 9.0]
        assert snap.values == [60.0, 70.0, 80.0, 90.0]

    def test_validation_and_empty(self):
        with pytest.raises(ReproError, match="capacity"):
            RingSeries("r", capacity=0)
        with pytest.raises(ReproError, match="empty"):
            _ = RingSeries("r", capacity=1).last


class TestFleetCollector:
    def test_telemetry_is_passive_digest_identical(self):
        bare = _quick_run(seed=0, trace=False)
        collector = FleetCollector()
        instrumented = build_fleet_cluster(0, quick=True, trace=True)
        instrumented.attach_telemetry(collector)
        instrumented.run(until=fleet_horizon(True))
        collector.finish()
        assert instrumented.trace_digest() == bare.trace_digest()
        assert collector.epochs == int(fleet_horizon(True))

    def test_same_seed_runs_produce_identical_records(self):
        records = []
        for _ in range(2):
            collector = FleetCollector()
            run_fleet_demo(seed=2, quick=True, collector=collector)
            records.append(list(collector.epoch_records))
        assert records[0] == records[1]

    def test_streams_every_epoch_record_as_jsonl(self, monkeypatch):
        # The quick demo runs 12 epochs: shrink both watermarks so the
        # stream spills mid-run, not only at finish().
        monkeypatch.setattr(fleet, "FLUSH_WATERMARK", 4)
        monkeypatch.setattr(export, "BUFFER_RECORDS", 8)
        sink_file = io.StringIO()
        sink = JsonlStreamWriter(sink_file)
        collector = FleetCollector(sink=sink)
        run_fleet_demo(seed=0, quick=True, collector=collector)
        assert collector.records_streamed == collector.epochs
        assert sink.flushes > collector.epochs // 4
        lines = [json.loads(line) for line in
                 sink_file.getvalue().splitlines()]
        epochs = [rec for rec in lines if rec.get("kind") == "fleet_epoch"]
        assert [rec["epoch"] for rec in epochs] == \
            list(range(1, collector.epochs + 1))
        # finish() also streams the cumulative histogram snapshots.
        hist_names = {rec.get("name") for rec in lines
                      if rec.get("kind") == "histogram"}
        assert {"fleet.e_cpu", "fleet.stretch",
                "fleet.e_mem_frac"} <= hist_names

    def test_context_exit_flushes_tail_and_closes(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        with JsonlStreamWriter(path) as sink:
            for i in range(3):                  # under the spill watermark
                sink.write_record({"kind": "fleet_epoch", "epoch": i})
        assert sink.closed and sink.flushes == 1
        assert [json.loads(line)["epoch"] for line in
                path.read_text().splitlines()] == [0, 1, 2]
        with pytest.raises(ReproError, match="closed"):
            sink.write_record({"kind": "fleet_epoch", "epoch": 3})

    def test_ring_bounds_memory(self, monkeypatch):
        # Far below the quick demo's epoch count, so the ring evicts.
        monkeypatch.setattr(fleet, "RING_CAPACITY", 5)
        collector = FleetCollector()
        run_fleet_demo(seed=0, quick=True, collector=collector)
        assert collector.epochs > 5
        assert len(collector.epoch_records) == 5
        # No sink: the pending buffer must stay bounded too.
        assert len(collector._pending) <= 5
        ring = collector.series["fleet.pods"]
        assert len(ring) == 5
        assert ring.dropped == collector.epochs - 5

    def test_signals_and_summary(self):
        collector = FleetCollector()
        cluster = run_fleet_demo(seed=0, quick=True, collector=collector)
        summary = collector.summary()
        assert summary["epochs"] == collector.epochs
        assert summary["pod_epoch_samples"] > 0
        assert summary["e_cpu_p50"] > 0
        assert summary["migrations"] == len(cluster.migration_records) > 0
        for name in FLEET_SERIES:
            assert len(collector.fleet_series(name)) == min(
                collector.epochs, RING_CAPACITY)
        with pytest.raises(ReproError, match="no fleet series"):
            collector.fleet_series("fleet.nope")
        line = format_epoch_line(collector.epoch_records[-1])
        for token in ("epoch", "pods=", "p99_stretch=", "attain=",
                      "migrations="):
            assert token in line

    def test_rebind_to_other_cluster_rejected(self):
        collector = FleetCollector()
        first = build_fleet_cluster(0, quick=True, trace=True)
        first.attach_telemetry(collector)
        other = build_fleet_cluster(1, quick=True, trace=True)
        with pytest.raises(ReproError, match="already bound"):
            other.attach_telemetry(collector)


class TestEngineProfiler:
    def test_profiler_is_passive_and_detaches_cleanly(self):
        bare = _quick_run(seed=0, trace=True)
        profiled = build_fleet_cluster(0, quick=True, trace=True)
        profiler = EngineProfiler(flight_every=256)
        profiler.attach_cluster(profiled)
        profiled.run(until=fleet_horizon(True))
        profiler.detach()
        assert profiled.trace_digest() == bare.trace_digest()
        # Wrapped methods are restored: no instance-level shadows left.
        for host in profiled.hosts:
            world = host.world
            for obj, attrs in ((world, ("run", "run_until")),
                               (world.sched, ("reallocate", "advance"))):
                for attr in attrs:
                    assert attr not in obj.__dict__

    def test_report_attributes_subsystems(self):
        profiler = EngineProfiler(flight_every=128)
        run_fleet_demo(seed=0, quick=True, profiler=profiler)
        report = profiler.report()
        assert report["kind"] == "profile"
        assert set(report["subsystems"]) == set(SUBSYSTEMS)
        assert report["subsystems"]["fair_solver"]["calls"] > 0
        assert report["subsystems"]["psi_accrual"]["calls"] > 0
        assert report["steps"] > 0
        assert report["wall_s"] > 0
        attributed = sum(b["wall_s"] for b in report["subsystems"].values())
        assert attributed + report["unattributed_s"] == \
            pytest.approx(report["wall_s"], rel=1e-6)
        table = profiler.format_report()
        assert "fair_solver" in table and "steps/s" in table

    def test_steps_equal_world_step_increments(self):
        """Only steps that fired count: a drained ``run()`` ends on a
        ``step()`` that returns False, and bounded runs stop on one."""
        world = World(ncpus=2)
        threads = [world.spawn_host_thread(f"t{i}") for i in range(3)]
        for i, t in enumerate(threads):
            t.assign_work(0.1 * (i + 1))
        world.events.call_at(0.25, lambda: threads[0].assign_work(0.05))
        profiler = EngineProfiler().attach_world(world)
        deltas = []
        for drive in (lambda: world.run(until=0.2),
                      lambda: world.run_until(lambda: world.now >= 0.25),
                      world.run):
            before = world.steps
            drive()
            deltas.append(world.steps - before)
        profiler.detach()
        assert all(deltas)
        assert world.step() is False
        assert profiler.steps == sum(deltas)

    def test_report_counts_psi_folds_since_attach(self):
        """``psi`` holds the schedulers' fold and row-step counters,
        taken as differences from attach, as plain ints."""
        world = World(ncpus=2)
        hog = world.containers.create(ContainerSpec("hog", cpus=0.5))
        for i in range(2):
            hog.spawn_thread(f"t{i}").assign_work(1e9)
        world.run(until=0.1)
        sched = world.sched
        before = (sched.psi_folds, sched.psi_row_steps)
        profiler = EngineProfiler().attach_world(world)
        hog.cgroup.set_cpu_quota(150_000)
        world.run(until=0.3)
        profiler.detach()
        psi = profiler.report()["psi"]
        assert psi == {"folds": sched.psi_folds - before[0],
                       "row_steps": sched.psi_row_steps - before[1]}
        assert psi["folds"] > 0 and psi["row_steps"] > 0
        assert all(type(v) is int for v in psi.values())
        assert f"psi: {psi['folds']} folds over {psi['row_steps']} row-steps" \
            in profiler.format_report()

    def test_reclaim_buckets_see_every_plan(self):
        """No blind spot in reclaim attribution: on a churned host that
        runs kswapd and direct reclaim, the ``reclaim_policy`` wrap fires
        once per reclaim plan and the ``memcg`` bucket is charged, so a
        refactor that moves the plan call off the wrapped indirection
        fails here instead of silently reading zero."""
        rng = random.Random(3)
        world = World(ncpus=8, memory=gib(1), seed=3)
        profiler = EngineProfiler().attach_world(world)
        fleet = []
        serial = itertools.count()

        def launch():
            c = world.containers.create(ContainerSpec(
                f"c{next(serial)}",
                memory_limit=mib(96), memory_soft_limit=mib(32)))
            world.mm.charge(c.cgroup, mib(24))
            c.spawn_thread("w").assign_work(1e9)
            fleet.append(c)

        def churn():
            world.containers.destroy(fleet.pop(0))
            launch()

        for _ in range(24):
            launch()
        world.events.call_every(0.05, churn, name="churn")
        world.events.call_every(0.02, lambda: world.mm.charge(
            fleet[rng.randrange(len(fleet))].cgroup, mib(16)), name="charge")
        world.run(until=1.0)
        profiler.detach()
        mm = world.mm
        buckets = profiler.report()["subsystems"]
        assert mm.kswapd_runs > 0 and mm.direct_reclaims > 0
        assert buckets["reclaim_policy"]["calls"] == \
            mm.kswapd_runs + mm.direct_reclaims
        assert buckets["reclaim_policy"]["wall_s"] > 0
        assert buckets["memcg"]["calls"] > 0
        assert buckets["memcg"]["wall_s"] > 0

    def test_detach_is_idempotent_and_reports_frozen_wall(self):
        profiler = EngineProfiler()
        run_fleet_demo(seed=0, quick=True, profiler=profiler)
        wall = profiler.report()["wall_s"]
        profiler.detach()  # second detach: no-op
        assert profiler.report()["wall_s"] == wall


class TestSpanTree:
    def test_real_run_has_valid_migration_chains(self):
        cluster = _quick_run(seed=0, trace=True)
        assert len(cluster.migration_records) > 0
        assert check_span_tree(cluster) == []

    def test_corrupted_follows_link_detected(self):
        cluster = _quick_run(seed=0, trace=True)
        drains = [span for host in cluster.hosts
                  for span in host.world.trace.spans(
                      category="migration.drain", include_open=True)]
        assert drains
        drains[0].fields["follows"] = "host99:424242"
        violations = check_span_tree(cluster)
        assert violations
        assert any("follows" in v for v in violations)

    def test_tracing_off_is_reported(self):
        cluster = _quick_run(seed=0, trace=False)
        violations = check_span_tree(cluster)
        assert violations
        assert any("tracing" in v for v in violations)
