"""JVM teardown leaves no timers behind.

A JVM parked in the elastic grow-and-retry loop holds a one-shot
promotion-retry event; killing the JVM at exactly that point must
cancel it, or every kill leaks a dead callback that keeps the event
loop non-idle (and a long-lived serving world accretes one per OOM
kill).  A kill in the middle of a stop-the-world collection must
likewise close the collection's trace span and drop the collection.
These tests pin the full timer hygiene of the JVM lifecycle.
"""

from repro.container.spec import ContainerSpec
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.units import gib, mib
from repro.workloads.base import JavaWorkload
from repro.world import World


def promoting_workload(live, work=60.0):
    return JavaWorkload(name="promoter", app_threads=2, total_work=work,
                        alloc_rate=mib(80), live_set=live,
                        survivor_frac=0.5, promote_frac=0.9,
                        min_heap=int(live * 1.1))


def waiting_elastic_jvm():
    """A JVM parked in _await_heap_growth (promotion-retry pending)."""
    world = World(ncpus=8, memory=gib(16))
    c = world.containers.create(ContainerSpec(
        "c0", memory_limit=gib(4), memory_soft_limit=mib(512)))
    jvm = Jvm(c, promoting_workload(live=gib(1)), JvmConfig.adaptive())
    jvm.launch()
    assert world.run_until(lambda: jvm._retry_handle is not None,
                           timeout=500000), "JVM never entered heap wait"
    return world, jvm


def pending_retry_events(world):
    return [h for _, _, h in world.events._heap
            if h.name.endswith("promotion-retry") and h.active]


class TestPromotionRetryCancellation:
    def test_kill_during_heap_wait_cancels_retry(self):
        world, jvm = waiting_elastic_jvm()
        assert pending_retry_events(world)
        jvm.kill("oom-killer")
        assert jvm._retry_handle is None
        assert not pending_retry_events(world)
        assert world.events.integrity()["flag_errors"] == 0

    def test_killed_jvm_leaves_loop_drainable(self):
        """After a mid-wait kill, nothing JVM-owned fires again: the
        world runs on with no dead callback resurrecting the JVM."""
        world, jvm = waiting_elastic_jvm()
        jvm.kill("oom-killer")
        stats_before = (jvm.stats.minor_gcs, jvm.stats.major_gcs)
        world.run(until=world.now + 30.0)
        assert (jvm.stats.minor_gcs, jvm.stats.major_gcs) == stats_before
        assert jvm.finished

    def test_shrink_gc_during_heap_wait_keeps_one_retry(self):
        """A shrink GC requested while the JVM waits for heap growth (what
        an elastic poll does when E_MEM shrinks) is deferred to the
        resume: collecting at once would wait again and arm a second
        retry, which a kill then leaves behind."""
        world, jvm = waiting_elastic_jvm()
        assert jvm._promotion_retries == 1
        jvm.request_shrink_gc()
        world.run(until=world.now + 1.0)   # the retry is due at +10 s
        assert jvm._promotion_retries == 1
        assert len(pending_retry_events(world)) == 1
        jvm.kill("oom-killer")
        assert not pending_retry_events(world)

    def test_double_kill_is_safe(self):
        world, jvm = waiting_elastic_jvm()
        jvm.kill("first")
        jvm.kill("second")
        assert jvm.stats.oom_reason == "first"

    def test_completed_run_restores_event_count(self):
        """A JVM that runs to completion unwinds every event it armed:
        the pending-event count returns to the pre-launch baseline."""
        world = World(ncpus=8, memory=gib(16))
        c = world.containers.create(ContainerSpec("c0"))
        baseline = len(world.events)
        wl = JavaWorkload(name="small", app_threads=2, total_work=5.0,
                          alloc_rate=mib(40), live_set=mib(64),
                          min_heap=mib(128))
        jvm = Jvm(c, wl, JvmConfig.adaptive())
        jvm.launch()
        assert world.run_until(lambda: jvm.finished, timeout=500000)
        assert jvm.stats.completed, jvm.stats.oom_reason
        assert len(world.events) == baseline
        assert world.events.integrity()["flag_errors"] == 0

    def test_mid_wait_kill_restores_event_count(self):
        world, jvm = waiting_elastic_jvm()
        jvm.kill("oom-killer")
        # Only the container's own machinery (sys_ns update timer) may
        # remain; every JVM-armed event is gone or cancelled.
        names = [h.name for _, _, h in world.events._heap if h.active]
        assert all("jvm" not in n and "promotion" not in n and "elastic" not in n
                   for n in names), names


class TestKillMidCollection:
    def test_kill_mid_gc_closes_span_and_drops_collection(self):
        world = World(ncpus=8, memory=gib(16), trace=True)
        c = world.containers.create(ContainerSpec("c0", memory_limit=gib(1)))
        wl = JavaWorkload(name="allocator", app_threads=2, total_work=5.0,
                          alloc_rate=mib(400), live_set=mib(64),
                          min_heap=mib(128))
        jvm = Jvm(c, wl, JvmConfig.adaptive())
        jvm.launch()
        assert world.run_until(lambda: jvm._gc.busy or jvm.finished, timeout=100)
        assert jvm._gc.busy, "JVM finished without collecting"
        assert len(world.trace.open_spans("jvm.gc")) == 1
        jvm.kill("oom-killer")
        assert world.trace.open_spans("jvm.gc") == []
        assert world.trace.spans("jvm.gc")[-1].fields["killed"] == "oom-killer"
        assert not jvm._gc.busy
        world.run(until=world.now + 5.0)
        assert world.trace.open_spans("jvm.gc") == []
        assert not jvm.stats.completed
