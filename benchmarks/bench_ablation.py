"""Figure test: design-choice ablations (see harness.experiments.ablation)."""


def test_ablations(pinned):
    result = pinned("ablation")

    svd = result.tables["static_vs_dynamic"]
    static = svd.row_for("view", "static-bounds")
    adaptive = svd.row_for("view", "adaptive")
    # The dynamic adjustment is what exploits freed CPUs: a static
    # (LXCFS-style) view keeps 2-thread GC teams throughout.
    assert static["mean_gc_threads"] == 2.0
    assert adaptive["mean_gc_threads"] > 3.0
    assert adaptive["gc_time_s"] < static["gc_time_s"]
    assert adaptive["exec_s"] <= static["exec_s"]

    period = result.tables["update_period"]
    fast = period.row_for("period_s", 0.024)
    slow = period.row_for("period_s", 2.0)
    # A stale view costs GC time (lag in both directions).
    assert slow["gc_time_s"] > 1.2 * fast["gc_time_s"]

    inc = result.tables["mem_increment"]
    tiny = inc.row_for("increment_frac", 0.02)
    paper = inc.row_for("increment_frac", 0.10)
    assert tiny["exec_s"] > paper["exec_s"]  # slow growth stalls the app
    for row in inc.rows:
        assert row["completed"]

    # The elastic heap bounds ANY sizing strategy (§4.2's independence
    # claim): both complete inside the 1 GB limit, neither swaps.
    strategies = result.tables["sizing_strategy"]
    assert len(strategies) == 2
    for row in strategies.rows:
        assert row["completed"]
        assert row["peak_committed_mb"] < 1024
        assert row["swapped_mb"] == 0.0
