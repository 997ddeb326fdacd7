"""Figure test: Figure 7 (cpuset JVM9 vs adaptive, 2-10 containers)."""


def test_fig07_scaling_containers(pinned):
    result = pinned("fig07")
    exec_t = result.tables["execution_time"]
    gc_t = result.tables["gc_time"]
    for bench in ("h2", "lusearch"):
        rows = [r for r in exec_t.rows if r["benchmark"] == bench]
        # JVM9 is flat (isolated cpuset); adaptive grows with co-runners.
        jvm9 = [r["jvm9"] for r in rows]
        assert max(jvm9) - min(jvm9) < 0.05 * max(jvm9)
        adaptive = [r["adaptive"] for r in rows]
        assert adaptive == sorted(adaptive)
        # Adaptive wins clearly at low container counts.
        assert rows[0]["adaptive"] < 0.7 * rows[0]["jvm9"]
        grows = [r for r in gc_t.rows if r["benchmark"] == bench]
        # The GC-time crossover: adaptive starts below JVM9 and ends above.
        assert grows[0]["adaptive"] < grows[0]["jvm9"]
        assert grows[-1]["adaptive"] > grows[-1]["jvm9"]
