"""Figure test: Figure 12 (heap micro-benchmark traces)."""


def test_fig12_heap_traces(pinned):
    result = pinned("fig12")
    summary = result.tables["summary"]
    for row in summary.rows:
        assert row["completed"] and not row["oom"]
    # (a) and (b): both converge near the 30 GB hard limit.
    for key in ("a_vanilla_single", "b_elastic_single"):
        trace = result.tables[key]
        assert trace.rows[-1]["committed_gb"] > 25.0
    # (b) starts smaller than (a): soft-limit-derived VirtualMax.
    a0 = result.tables["a_vanilla_single"].rows[0]
    b0 = result.tables["b_elastic_single"].rows[0]
    assert b0["virtual_max_gb"] < 16.0
    assert a0["committed_gb"] > b0["committed_gb"]
    # (c): contended containers settle well below the hard limit.
    five = result.tables["c_elastic_five"]
    assert five.rows[-1]["committed_gb"] < 28.0
