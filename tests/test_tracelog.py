"""Tests for the trace log and the tracepoints wired through the stack."""

import dataclasses

import pytest

from repro.container.spec import ContainerSpec
from repro.errors import ReproError
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.sim.clock import SimClock
from repro.tracelog import TraceLog
from repro.units import gib, mib
from repro.workloads.dacapo import dacapo
from repro.world import World


class TestTraceLogUnit:
    def setup_method(self):
        self.clock = SimClock()
        self.log = TraceLog(self.clock, capacity=4, enabled=True)

    def test_emit_and_query(self):
        self.log.emit("a", "one", x=1)
        self.clock.advance_to(2.0)
        self.log.emit("b", "two")
        assert len(self.log) == 2
        assert self.log.count("a") == 1
        assert self.log.categories() == {"a", "b"}
        events = self.log.events("b")
        assert events[0].time == 2.0 and events[0].message == "two"

    def test_disabled_is_noop(self):
        log = TraceLog(self.clock, enabled=False)
        log.emit("a", "x")
        assert len(log) == 0

    def test_bounded_capacity_counts_drops(self):
        for i in range(6):
            self.log.emit("a", f"e{i}")
        assert len(self.log) == 4
        assert self.log.dropped == 2
        assert self.log.tail(1)[0].message == "e5"

    def test_since_filter(self):
        self.log.emit("a", "early")
        self.clock.advance_to(5.0)
        self.log.emit("a", "late")
        assert [e.message for e in self.log.events("a", since=1.0)] == ["late"]

    def test_find(self):
        self.log.emit("a", "x", v=1)
        self.log.emit("a", "y", v=2)
        hit = self.log.find("a", lambda e: e.fields["v"] == 2)
        assert hit is not None and hit.message == "y"
        assert self.log.find("a", lambda e: e.fields["v"] == 9) is None

    def test_render_and_str(self):
        self.log.emit("cat", "hello", k="v")
        text = self.log.render()
        assert "cat" in text and "hello" in text and "k=v" in text

    def test_subscribe_streams(self):
        seen = []
        self.log.subscribe(seen.append)
        self.log.emit("a", "x")
        assert len(seen) == 1

    def test_clear(self):
        self.log.emit("a", "x")
        self.log.clear()
        assert len(self.log) == 0 and self.log.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            TraceLog(self.clock, capacity=0)


class TestSpans:
    def setup_method(self):
        self.clock = SimClock()
        self.log = TraceLog(self.clock, capacity=4, enabled=True)

    def test_begin_end_roundtrip(self):
        sid = self.log.begin_span("gc", "minor", heap=10)
        assert sid > 0
        assert self.log.open_spans("gc")[0].open
        self.clock.advance_to(1.5)
        span = self.log.end_span(sid, reclaimed=7)
        assert span is not None and not span.open
        assert span.duration == pytest.approx(1.5)
        assert span.fields == {"heap": 10, "reclaimed": 7}
        assert self.log.spans("gc") == [span]
        assert self.log.span_durations("gc") == [pytest.approx(1.5)]

    def test_disabled_returns_zero_id(self):
        log = TraceLog(self.clock, enabled=False)
        sid = log.begin_span("gc", "minor")
        assert sid == 0
        assert log.end_span(sid) is None
        assert log.spans(include_open=True) == []

    def test_unknown_and_double_end_are_noops(self):
        sid = self.log.begin_span("gc", "minor")
        assert self.log.end_span(999) is None
        assert self.log.end_span(sid) is not None
        assert self.log.end_span(sid) is None    # already closed

    def test_context_manager(self):
        with self.log.span("scale", "up", target=2.0):
            self.clock.advance_to(0.5)
        (span,) = self.log.spans("scale")
        assert span.duration == pytest.approx(0.5)
        assert span.fields == {"target": 2.0}

    def test_dropped_at_capacity(self):
        for i in range(6):
            sid = self.log.begin_span("a", f"s{i}")
            self.log.end_span(sid)
        assert len(self.log.spans("a")) == 4     # capacity
        assert self.log.spans_dropped == 2
        # The survivors are the newest four.
        assert [s.message for s in self.log.spans("a")] == \
            ["s2", "s3", "s4", "s5"]

    def test_include_open_and_since(self):
        early = self.log.begin_span("a", "early")
        self.log.end_span(early)
        self.clock.advance_to(5.0)
        self.log.begin_span("a", "late-open")
        assert [s.message for s in self.log.spans("a")] == ["early"]
        both = self.log.spans("a", include_open=True)
        assert [s.message for s in both] == ["early", "late-open"]
        assert [s.message for s in self.log.spans("a", since=1.0,
                                                   include_open=True)] == \
            ["late-open"]

    def test_overlaps(self):
        a = self.log.begin_span("x", "a")
        self.clock.advance_to(1.0)
        b = self.log.begin_span("x", "b")
        self.clock.advance_to(2.0)
        span_a = self.log.end_span(a)
        still_open = self.log.open_spans("x")[0]
        self.clock.advance_to(3.0)
        span_b = self.log.end_span(b)
        assert span_a.overlaps(span_b) and span_b.overlaps(span_a)
        assert span_a.overlaps(still_open)
        later = self.log.begin_span("x", "c")
        span_c = self.log.end_span(later)
        assert not span_a.overlaps(span_c)

    def test_clear_resets_spans(self):
        self.log.begin_span("a", "open")
        done = self.log.begin_span("a", "done")
        self.log.end_span(done)
        self.log.clear()
        assert self.log.spans(include_open=True) == []
        assert self.log.spans_dropped == 0
        assert self.log.open_spans() == []


class TestWiredSpans:
    def test_jvm_gc_spans(self):
        world = World(ncpus=8, memory=gib(16), trace=True)
        c = world.containers.create(ContainerSpec("c0"))
        wl = dataclasses.replace(dacapo("jython"), total_work=5.0)
        jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(xms=mib(450), xmx=mib(450)))
        jvm.launch()
        assert world.run_until(lambda: jvm.finished, timeout=5000)
        spans = world.trace.spans("jvm.gc")
        assert len(spans) == jvm.stats.minor_gcs + jvm.stats.major_gcs
        assert all(s.duration > 0 for s in spans)
        # Span durations agree with the (rounded) wall field of the
        # paired events.
        walls = [e.fields["wall"] for e in world.trace.events("jvm.gc")]
        assert sum(s.duration for s in spans) == pytest.approx(sum(walls),
                                                              abs=1e-4)

    def test_container_lifetime_spans(self):
        world = World(ncpus=4, memory=gib(8), trace=True)
        c = world.containers.create(ContainerSpec("c0"))
        world.run(until=2.0)
        (open_span,) = world.trace.open_spans("container.lifetime")
        assert open_span.message == "c0"
        world.containers.destroy(c)
        (span,) = world.trace.spans("container.lifetime")
        assert span.duration == pytest.approx(2.0)

    def test_mm_reclaim_spans(self):
        from repro.kernel.mm.memcg import KERNEL_RESERVED
        # 1984 MiB allocatable, as a 2 GiB host with a 64 MiB reserve.
        world = World(ncpus=4, memory=KERNEL_RESERVED + mib(1984),
                      trace=True)
        a = world.containers.create(ContainerSpec(
            "a", memory_soft_limit=mib(64)))
        world.mm.charge(a.cgroup, gib(1))
        world.mm.charge(a.cgroup, mib(950))   # dips below the low watermark
        spans = world.trace.spans("mm.reclaim", include_open=True)
        assert len(spans) >= 1
        assert spans[0].open or spans[0].fields["kswapd_runs"] >= 1


class TestWiredTracepoints:
    def test_container_lifecycle_events(self):
        world = World(ncpus=4, memory=gib(8), trace=True)
        c = world.containers.create(ContainerSpec("c0", cpus=2.0))
        world.containers.destroy(c)
        assert world.trace.count("container.create") == 1
        assert world.trace.count("container.destroy") == 1
        create = world.trace.events("container.create")[0]
        assert create.fields["cpus"] == 2.0

    def test_jvm_gc_events(self):
        world = World(ncpus=8, memory=gib(16), trace=True)
        c = world.containers.create(ContainerSpec("c0"))
        wl = dataclasses.replace(dacapo("jython"), total_work=5.0)
        jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(xms=mib(450), xmx=mib(450)))
        jvm.launch()
        assert world.run_until(lambda: jvm.finished, timeout=5000)
        gcs = world.trace.events("jvm.gc")
        assert len(gcs) == jvm.stats.minor_gcs + jvm.stats.major_gcs
        assert all(e.fields["wall"] > 0 for e in gcs)

    def test_mm_kswapd_and_oom_events(self):
        from repro.errors import OutOfMemoryError
        from repro.kernel.mm.memcg import KERNEL_RESERVED
        world = World(ncpus=4, memory=KERNEL_RESERVED + mib(1984),
                      trace=True, swap_factor=0.05)
        a = world.containers.create(ContainerSpec(
            "a", memory_soft_limit=mib(64)))
        world.mm.charge(a.cgroup, gib(1))
        b = world.containers.create(ContainerSpec("b"))
        try:
            world.mm.charge(b.cgroup, gib(4))
        except OutOfMemoryError:
            pass
        assert world.trace.count("mm.kswapd") >= 1
        assert world.trace.count("mm.oom_kill") == 1
        kswapd = world.trace.events("mm.kswapd")[0]
        assert "/docker/a" in kswapd.fields["victims"]

    def test_view_update_events_only_on_change(self):
        world = World(ncpus=8, memory=gib(16), trace=True)
        c = world.containers.create(ContainerSpec("c0"))
        world.containers.create(ContainerSpec("c1"))
        world.run(until=2.0)  # idle: E stays put after initialization
        baseline = world.trace.count("view.update")
        # Saturate the host: c0 (initialized alone at E=8) decays one CPU
        # per update period toward its share bound of 4.
        c1 = world.containers.get("c1")
        for i in range(8):
            c.spawn_thread(f"b{i}").assign_work(1e9)
            c1.spawn_thread(f"n{i}").assign_work(1e9)
        world.run(until=4.0)
        moved = world.trace.count("view.update") - baseline
        # Exactly the 8->4 decay steps (one event per change), far fewer
        # than the ~60 update-timer firings in the window.
        assert 3 <= moved <= 8

    def test_tracing_disabled_by_default(self):
        world = World(ncpus=4, memory=gib(8))
        world.containers.create(ContainerSpec("c0"))
        assert len(world.trace) == 0
