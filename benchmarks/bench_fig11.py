"""Figure test: Figure 11 (elastic heap vs vanilla, 1GB limit)."""


def test_fig11_elastic_heap(pinned):
    result = pinned("fig11")
    table = result.tables["elastic"]
    for bench in ("lusearch", "xalan"):
        row = table.row_for("benchmark", bench)
        # Vanilla collapses in swap: elastic is several times faster.
        assert row["exec_ratio"] < 0.5
        assert row["vanilla_swapped_mb"] > 100
        assert row["elastic_peak_committed_mb"] < 1024
    for bench in ("h2", "jython"):
        row = table.row_for("benchmark", bench)
        # Footprint fits: elastic offers no benefit (slightly more GCs).
        assert 0.9 < row["exec_ratio"] < 1.3
        assert row["vanilla_swapped_mb"] < 50
