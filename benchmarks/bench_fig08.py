"""Figure test: Figure 8 (static shares vs effective CPU)."""


def test_fig08_varying_cpu_availability(pinned):
    result = pinned("fig08")
    gc = result.tables["gc_time"]
    for row in gc.rows:
        # Container awareness (JVM10) and adaptive both beat vanilla's
        # 15-thread GC; JVM10 stays pinned at 2 threads while adaptive
        # tracks the freed CPUs and does at least as well.
        assert row["jvm10"] < 1.05
        assert row["adaptive"] < 0.8
        assert row["adaptive"] <= row["jvm10"] + 0.02
        assert row["threads_jvm10"] == 2
        assert row["threads_vanilla"] == 15
        # Adaptive varies its team with the sysbench churn.
        assert row["threads_adaptive_mean"] > 2.0
    trace = result.tables["gc_thread_trace"]
    adaptive_series = [r["adaptive"] for r in trace.rows if r["adaptive"]]
    # The trace rises as co-runners finish (Fig. 8(b)).
    assert max(adaptive_series) > min(adaptive_series)
