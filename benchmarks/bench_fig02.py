"""Benchmark: regenerate Figure 2 (motivation experiments)."""

from repro.harness.experiments.fig02_motivation import (Fig02Params, run_gc_threads,
                                                        run_heap_size)
from repro.harness.results import ExperimentResult

PARAMS = Fig02Params(scale=0.5, benchmarks=("h2", "lusearch", "xalan"))


def fig02_part(key, runner):
    """One panel of Figure 2 as its own result, so each test pins one table."""
    result = ExperimentResult(experiment="fig02", description=f"Figure 2 {key}")
    result.add_table(key, runner(PARAMS))
    return result


def test_fig02a_gc_thread_configuration(attach):
    table = attach(lambda: fig02_part("gc_threads", run_gc_threads)).tables["gc_threads"]
    for row in table.rows:
        # Hand-optimised GC threads beat both auto-configurations.
        assert row["opt_JVM8"] < row["auto_JVM8"]
        assert row["opt_JVM9"] < 1.0
        # JDK 9's static limit detection is not much better than JDK 8.
        assert row["auto_JVM8"] > 0.95


def test_fig02b_heap_configuration(attach):
    table = attach(lambda: fig02_part("heap_size", run_heap_size)).tables["heap_size"]
    h2 = table.row_for("benchmark", "h2")
    assert h2["auto_JVM9"] is None          # OOM: the missing bar
    assert h2["auto_JVM8"] > 3.0            # swap collapse
    for row in table.rows:
        assert row["auto_JVM8"] > 2.0       # 32GB heap in a 1GB container
        assert row["soft_JVM8"] == 1.0
