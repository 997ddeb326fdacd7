"""Figure test: Figure 6 (vanilla/dynamic/adaptive on 5 containers)."""


def test_fig06_vanilla_dynamic_adaptive(pinned):
    result = pinned("fig06")
    exec_t = result.tables["dacapo_time"]
    for row in exec_t.rows:
        # Adaptive is fastest; dynamic sits between vanilla and adaptive.
        # (For low-mutator benchmarks the dynamic heuristic already lands
        # on the effective CPU count, so <= rather than <.)
        assert row["adaptive"] <= row["dynamic"] <= 1.0
        assert row["adaptive"] < 0.95
    # At least one allocation-heavy benchmark separates the two policies.
    assert any(r["adaptive"] < r["dynamic"] for r in exec_t.rows)
    tput = result.tables["specjvm_throughput"]
    for row in tput.rows:
        assert row["adaptive"] > 1.0
        assert row["adaptive"] >= row["dynamic"]
    gc = result.tables["gc_time"]
    for row in gc.rows:
        # GC time is where the gains come from (Fig. 6(c)).
        assert row["adaptive"] < 0.6
        assert row["adaptive"] <= row["dynamic"]
    assert any(r["adaptive"] < r["dynamic"] for r in gc.rows)
    pauses = result.tables["gc_pause_p95"]
    for row in pauses.rows:
        # Over-threaded vanilla GC fattens the pause tail by multiples.
        assert row["vanilla"] > 2.0 * row["adaptive"]
