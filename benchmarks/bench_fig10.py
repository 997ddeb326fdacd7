"""Figure test: Figure 10 (NPB/OpenMP thread policies)."""


def test_fig10_npb_policies(pinned):
    result = pinned("fig10")
    for key in ("five_containers", "one_container"):
        for row in result.tables[key].rows:
            # Adaptive is the baseline (1.0); static over-threads,
            # dynamic collapses to single-thread teams and is worst.
            assert row["static"] > 1.1
            assert row["dynamic"] > 1.5
            assert row["dynamic"] > row["static"] * 0.95 or row["dynamic"] > 2.0
