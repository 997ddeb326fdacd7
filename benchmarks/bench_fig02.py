"""Figure test: Figure 2 (motivation experiments)."""


def test_fig02_motivation(pinned):
    result = pinned("fig02")
    for row in result.tables["gc_threads"].rows:
        # Hand-optimised GC threads beat both auto-configurations.
        assert row["opt_JVM8"] < row["auto_JVM8"]
        assert row["opt_JVM9"] < 1.0
        # JDK 9's static limit detection is not much better than JDK 8.
        assert row["auto_JVM8"] > 0.95

    heap = result.tables["heap_size"]
    h2 = heap.row_for("benchmark", "h2")
    assert h2["auto_JVM9"] is None          # OOM: the missing bar
    assert h2["auto_JVM8"] > 3.0            # swap collapse
    for row in heap.rows:
        assert row["auto_JVM8"] > 2.0       # 32GB heap in a 1GB container
        assert row["soft_JVM8"] == 1.0
