"""Figure test: Figure 9 (HiBench big-data workloads)."""


def test_fig09_hibench(pinned):
    result = pinned("fig09")
    exec_t = result.tables["execution_time"]
    gc = result.tables["gc_time"]
    for row in exec_t.rows:
        assert row["adaptive"] < 1.0
        assert row["adaptive"] <= row["dynamic"]
    for row in gc.rows:
        assert row["adaptive"] < row["dynamic"] <= 1.0
