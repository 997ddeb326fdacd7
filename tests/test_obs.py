"""Tests for the observability layer: PSI pressure, histograms, exporters."""

import math
import re

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import ReproError, ServeError
from repro.metrics import PER_DECADE, Histogram
from repro.obs import (CgroupPressure, PressureStall, jsonl_export,
                       jsonl_import, prometheus_text)
from repro.obs.demo import run_demo
from repro.units import gib, mib
from repro.world import World

PRESSURE_LINE = re.compile(
    r"^(some|full) avg10=\d+\.\d{2} avg60=\d+\.\d{2} avg300=\d+\.\d{2} "
    r"total=\d+$")


class TestPressureStall:
    def test_accrual_and_totals(self):
        p = PressureStall()
        p.advance(10.0, 0.5, 0.25)
        assert p.total("some") == pytest.approx(5.0)
        assert p.total("full") == pytest.approx(2.5)
        # Ten seconds at 50% stall: avg10 has converged most of the way.
        assert 0.25 < p.avg("some", 10.0) < 0.5
        assert p.avg("some", 300.0) < p.avg("some", 60.0) < p.avg("some", 10.0)

    def test_full_clamped_to_some(self):
        p = PressureStall()
        p.advance(1.0, 0.2, 0.9)        # full > some is impossible
        assert p.total("full") == pytest.approx(0.2)
        p.advance(1.0, -1.0, 2.0)       # out-of-range fractions clamp
        assert p.total("some") == pytest.approx(0.2)

    def test_zero_dt_is_noop(self):
        p = PressureStall()
        p.advance(0.0, 1.0, 1.0)
        p.advance(-1.0, 1.0, 1.0)
        assert p.total("some") == 0.0

    def test_decay_toward_zero(self):
        p = PressureStall()
        p.advance(5.0, 1.0, 0.0)
        peak = p.avg("some", 10.0)
        p.advance(30.0, 0.0, 0.0)
        assert p.avg("some", 10.0) < peak * 0.1
        assert p.total("some") == pytest.approx(5.0)  # totals never decay

    def test_exact_ema_recurrence(self):
        p = PressureStall()
        p.advance(2.0, 0.75, 0.0)
        decay = math.exp(-2.0 / 10.0)
        assert p.avg("some", 10.0) == pytest.approx(0.75 * (1.0 - decay))

    def test_format_matches_linux(self):
        p = PressureStall()
        p.advance(10.0, 0.5, 0.1)
        lines = p.format().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert PRESSURE_LINE.match(line), line
        assert lines[0].startswith("some ")
        assert lines[0].endswith(f"total={int(5.0 * 1e6)}")

    def test_validation(self):
        p = PressureStall()
        with pytest.raises(ReproError):
            p.avg("bogus", 10.0)
        with pytest.raises(ReproError):
            p.avg("some", 42.0)
        with pytest.raises(ReproError):
            p.total("bogus")

    def test_as_dict_shape(self):
        cp = CgroupPressure()
        cp.cpu.advance(1.0, 1.0, 0.0)
        d = cp.as_dict()
        assert set(d) == {"cpu", "memory"}
        assert d["cpu"]["some_total"] == pytest.approx(1.0)
        assert set(d["cpu"]) == {"some_total", "some_avg10", "some_avg60",
                                 "some_avg300", "full_total", "full_avg10",
                                 "full_avg60", "full_avg300"}


def _throttled_world(seed=0, until=10.0):
    """1-core quota with 4 busy threads next to an unthrottled sibling."""
    world = World(ncpus=4, seed=seed)
    hot = world.containers.create(ContainerSpec("hot", cpus=1.0))
    cold = world.containers.create(ContainerSpec("cold"))
    for i in range(4):
        hot.spawn_thread(f"b{i}").assign_work(1e9)
    cold.spawn_thread("b").assign_work(1e9)
    world.run(until=until)
    return world, hot, cold


class TestKernelPressure:
    def test_throttled_container_accrues_cpu_pressure(self):
        world, hot, cold = _throttled_world()
        # 4 runnable threads behind a 1-core quota: 3/4 of demand unmet.
        assert hot.cgroup.pressure.cpu.avg("some", 10.0) > 0.3
        assert hot.cgroup.pressure.cpu.total("some") > 1.0
        # The unthrottled sibling never stalls.
        assert cold.cgroup.pressure.cpu.total("some") == pytest.approx(0.0)
        # Host-wide pressure lives on the root cgroup: demand (5 cores)
        # exceeds what the quota lets the host hand out (2 cores).
        root = world.cgroups.root
        assert root.pressure.cpu.total("some") > 0.0

    def test_cpu_pressure_file_format(self):
        world, _, _ = _throttled_world()
        text = world.cgroupfs.read("/sys/fs/cgroup/cpu/docker/hot/cpu.pressure")
        lines = text.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert PRESSURE_LINE.match(line), line
        some_total = int(lines[0].rsplit("total=", 1)[1])
        assert some_total > 1_000_000           # > 1 s of stall, in µs
        cold = world.cgroupfs.read(
            "/sys/fs/cgroup/cpu/docker/cold/cpu.pressure")
        assert int(cold.splitlines()[0].rsplit("total=", 1)[1]) == 0

    def test_host_wide_pressure_at_cgroupfs_root(self):
        world, _, _ = _throttled_world()
        text = world.cgroupfs.read("/sys/fs/cgroup/cpu/cpu.pressure")
        assert PRESSURE_LINE.match(text.strip().splitlines()[0])
        assert int(text.splitlines()[0].rsplit("total=", 1)[1]) > 0

    def test_pressure_bit_identical_across_runs(self):
        first, _, _ = _throttled_world(seed=3)
        second, _, _ = _throttled_world(seed=3)
        for path in ("/sys/fs/cgroup/cpu/docker/hot/cpu.pressure",
                     "/sys/fs/cgroup/cpu/cpu.pressure",
                     "/sys/fs/cgroup/memory/docker/hot/memory.pressure",
                     "/sys/fs/cgroup/cpu/docker/hot/cpu.stat"):
            assert first.cgroupfs.read(path) == second.cgroupfs.read(path)

    def test_cpu_stat_throttle_counters(self):
        world, hot, cold = _throttled_world()
        stat = dict(
            line.split() for line in world.cgroupfs.read(
                "/sys/fs/cgroup/cpu/docker/hot/cpu.stat").splitlines())
        # Throttled for ~the whole 10 s run: one period is 100 ms.
        assert int(stat["nr_throttled"]) >= 90
        assert float(stat["throttled_time"]) > 0
        cold_stat = dict(
            line.split() for line in world.cgroupfs.read(
                "/sys/fs/cgroup/cpu/docker/cold/cpu.stat").splitlines())
        assert int(cold_stat["nr_throttled"]) == 0

    def test_memory_pressure_from_swap_slowdown(self):
        from repro.kernel.mm.memcg import KERNEL_RESERVED
        # 1984 MiB allocatable, as a 2 GiB host with a 64 MiB reserve.
        world = World(ncpus=4, memory=KERNEL_RESERVED + mib(1984))
        hog = world.containers.create(ContainerSpec(
            "hog", memory_soft_limit=mib(64)))
        hog.spawn_thread("w").assign_work(1e9)
        world.mm.charge(hog.cgroup, gib(1))
        world.mm.charge(hog.cgroup, mib(950))   # forces swap-out
        assert hog.cgroup.memory.swapped > 0
        world.run(until=5.0)
        mem = hog.cgroup.pressure.memory
        assert mem.total("some") > 0.0
        # Uniform fluid slowdown: some == full for the cgroup itself.
        assert mem.total("full") == pytest.approx(mem.total("some"))

    def test_idle_groups_decay(self):
        world = World(ncpus=4)
        c = world.containers.create(ContainerSpec("c", cpus=0.5))
        threads = [c.spawn_thread(f"b{i}") for i in range(4)]
        for t in threads:
            t.assign_work(1e9)
        world.run(until=5.0)
        busy_avg = c.cgroup.pressure.cpu.avg("some", 10.0)
        assert busy_avg > 0.3
        for t in threads:
            t.block()
        world.run(until=25.0)
        assert c.cgroup.pressure.cpu.avg("some", 10.0) < busy_avg * 0.2


class TestHistogram:
    def test_record_and_stats(self):
        h = Histogram("lat")
        for v in (0.001, 0.01, 0.01, 0.1, 1.0):
            h.record(v)
        assert len(h) == 5
        assert h.mean() == pytest.approx(1.121 / 5)
        assert h.vmin == 0.001 and h.vmax == 1.0

    def test_quantile_nearest_rank(self):
        h = Histogram("lat", lo=1.0, hi=100.0)
        for v in range(1, 101):
            h.record(float(v))
        # The p50 bucket's upper bound is near 50; exact value depends
        # on the log grid, but ordering and clamping must hold.
        assert h.quantile(50.0) <= h.quantile(99.0) <= h.vmax
        assert h.quantile(100.0) == h.vmax

    def test_underflow_and_overflow_buckets(self):
        h = Histogram("lat", lo=0.1, hi=10.0)
        # PER_DECADE bounds per decade over two decades, plus lo itself.
        assert len(h.bounds) == 2 * PER_DECADE + 1
        assert len(h.counts) == len(h.bounds) + 1
        h.record(0.0001)    # underflow -> first bucket
        h.record(99999.0)   # overflow -> last bucket
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.quantile(100.0) == 99999.0

    def test_merge(self):
        a, b = Histogram("a"), Histogram("b")
        a.record(0.1)
        b.record(0.2)
        b.record(0.3)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(0.6)
        with pytest.raises(ReproError):
            a.merge(Histogram("c", lo=1.0, hi=10.0))

    def test_equality_and_dict_roundtrip(self):
        a, b = Histogram("h"), Histogram("h")
        for v in (0.005, 0.5, 2.0):
            a.record(v)
            b.record(v)
        assert a == b
        b.record(0.5)
        assert a != b
        again = Histogram.from_dict(a.to_dict())
        assert again == a
        empty = Histogram.from_dict(Histogram("e").to_dict())
        assert empty.count == 0 and empty.vmin == math.inf

    def test_validation(self):
        with pytest.raises(ReproError):
            Histogram("h", lo=0.0)
        with pytest.raises(ReproError):
            Histogram("h", lo=2.0, hi=1.0)
        h = Histogram("h")
        with pytest.raises(ReproError):
            h.record(-1.0)
        with pytest.raises(ReproError):
            h.mean()
        with pytest.raises(ReproError):
            h.quantile(50.0)
        h.record(1.0)
        with pytest.raises(ReproError):
            h.quantile(0.0)

    def test_latency_recorder_feeds_histogram(self):
        from repro.serve.latency import LatencyRecorder
        rec = LatencyRecorder()
        for i, v in enumerate((0.01, 0.02, 0.04)):
            rec.record(float(i), v)
        assert rec.hist.count == 3
        assert rec.hist.total == pytest.approx(0.07)
        with pytest.raises(ServeError):
            rec.record(0.0, 0.5)        # time went backwards


class TestExporters:
    def _telemetry(self):
        return run_demo(seed=0, quick=True)

    def test_prometheus_text_shape(self):
        t = self._telemetry()
        text = prometheus_text(t.recorder, histograms=t.histograms,
                               tracelog=t.world.trace, world=t.world)
        assert 'repro_series{name="throttled.cpu_rate"}' in text
        assert 'repro_throttled.segment_seconds_bucket' not in text  # sanitized
        assert 'repro_throttled_segment_seconds_bucket{le="+Inf"}' in text
        assert re.search(r'repro_pressure_stall_seconds_total\{'
                         r'cgroup="/docker/throttled",resource="cpu",'
                         r'kind="some"\} [0-9.]+', text)
        assert 'repro_cpu_nr_throttled{cgroup="/docker/throttled"}' in text
        assert 'repro_trace_events_total{category="container.create"} 3' in text
        # Histogram bucket counts are cumulative and end at the count.
        hist = t.histograms["free.segment_seconds"]
        last = [line for line in text.splitlines()
                if line.startswith('repro_free_segment_seconds_bucket')][-1]
        assert last.endswith(f" {hist.count}")

    def test_prometheus_deterministic(self):
        a, b = self._telemetry(), self._telemetry()
        kw_a = dict(histograms=a.histograms, tracelog=a.world.trace,
                    world=a.world)
        kw_b = dict(histograms=b.histograms, tracelog=b.world.trace,
                    world=b.world)
        assert (prometheus_text(a.recorder, **kw_a)
                == prometheus_text(b.recorder, **kw_b))

    def test_jsonl_roundtrip_byte_identical(self):
        t = self._telemetry()
        text = jsonl_export(t.recorder, histograms=t.histograms,
                            tracelog=t.world.trace, world=t.world)
        dump = jsonl_import(text)
        assert dump.to_jsonl() == text

    def test_jsonl_reload_reproduces_series_and_spans(self):
        t = self._telemetry()
        text = jsonl_export(t.recorder, histograms=t.histograms,
                            tracelog=t.world.trace, world=t.world)
        dump = jsonl_import(text)
        # Every recorder series survives with exact samples.
        for name in t.recorder.names():
            original = t.recorder.series(name)
            loaded = dump.series[name]
            assert loaded.times == original.times
            assert loaded.values == original.values
        # Histograms compare exactly (same bounds, counts, extremes).
        for name, hist in t.histograms.items():
            assert dump.histograms[name] == hist
        # Every event and span survives, open spans included.
        assert len(dump.events) == len(t.world.trace.events())
        originals = t.world.trace.spans(include_open=True)
        assert len(dump.spans) == len(originals)
        for mine, theirs in zip(dump.spans, originals):
            assert (mine.span_id, mine.category, mine.start, mine.end) == \
                (theirs.span_id, theirs.category, theirs.start, theirs.end)
        # Pressure snapshots keyed by cgroup path.
        assert dump.pressure["/docker/throttled"]["cpu"]["some_total"] > 0

    def test_jsonl_import_rejects_garbage(self):
        with pytest.raises(ReproError):
            jsonl_import("not json\n")
        with pytest.raises(ReproError):
            jsonl_import('{"kind": "wat"}\n')
        assert jsonl_import("\n\n").records == []

    def test_partial_exports(self):
        # Each source is optional; exporters accept any subset.
        assert prometheus_text() == "\n"
        assert jsonl_export() == ""
        world = World(ncpus=2)
        text = prometheus_text(world=world)
        assert 'cgroup="/"' in text


class TestDemo:
    def test_demo_produces_all_signals(self):
        t = run_demo(seed=0, quick=True)
        assert t.histograms["throttled.segment_seconds"].count > 0
        assert t.histograms["free.segment_seconds"].count > 0
        # Quota starvation: throttled segments take ~4x longer.
        assert (t.histograms["throttled.segment_seconds"].quantile(50.0)
                > 2.0 * t.histograms["free.segment_seconds"].quantile(50.0))
        cgs = {c.name: c.cgroup for c in t.containers}
        assert cgs["throttled"].pressure.cpu.avg("some", 10.0) > 0.1
        assert cgs["free"].pressure.cpu.total("some") == pytest.approx(0.0)
        assert cgs["memhog"].pressure.memory.total("some") > 0.0
        assert t.world.trace.count("mm.kswapd") >= 1
        assert len(t.world.trace.spans("mm.reclaim", include_open=True)) >= 1
        assert t.recorder.samples_taken > 0

    def test_demo_deterministic(self):
        a = run_demo(seed=1, quick=True)
        b = run_demo(seed=1, quick=True)
        assert (a.histograms["throttled.segment_seconds"]
                == b.histograms["throttled.segment_seconds"])
        assert a.world.cgroupfs.read(
            "/sys/fs/cgroup/cpu/docker/throttled/cpu.pressure") == \
            b.world.cgroupfs.read(
                "/sys/fs/cgroup/cpu/docker/throttled/cpu.pressure")


class TestCli:
    def test_obs_quick_smoke(self, capsys):
        from repro.__main__ import main
        assert main(["obs", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "# throttled container cpu.pressure:" in out
        assert "some avg10=" in out

    def test_obs_jsonl_to_file(self, tmp_path, capsys):
        from repro.__main__ import main
        out_file = tmp_path / "telemetry.jsonl"
        assert main(["obs", "--quick", "--format", "jsonl",
                     "--output", str(out_file)]) == 0
        dump = jsonl_import(out_file.read_text())
        assert dump.series and dump.spans and dump.pressure
