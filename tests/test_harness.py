"""Tests for the harness plumbing and quick experiment smoke checks."""

import pytest

from repro.errors import ReproError
from repro.harness.common import (HEAP_MULTIPLIER, paper_heap_flags, run_jvms,
                                  scale_workload)
from repro.harness.common import testbed as make_testbed
from repro.harness.results import ExperimentResult, ResultTable
from repro.workloads.dacapo import dacapo


class TestResultTable:
    def test_add_and_column(self):
        t = ResultTable("t", ["a", "b"])
        t.add(a=1, b=2.0)
        t.add(a=3, b=4.0)
        assert t.column("a") == [1, 3]
        assert len(t) == 2

    def test_row_mismatch_rejected(self):
        t = ResultTable("t", ["a"])
        with pytest.raises(ReproError):
            t.add(b=1)
        with pytest.raises(ReproError):
            t.add(a=1, b=2)

    def test_empty_columns_rejected(self):
        with pytest.raises(ReproError):
            ResultTable("t", [])

    def test_unknown_column_rejected(self):
        t = ResultTable("t", ["a"])
        t.add(a=1)
        with pytest.raises(ReproError):
            t.column("z")

    def test_row_for(self):
        t = ResultTable("t", ["k", "v"])
        t.add(k="x", v=1)
        t.add(k="y", v=2)
        assert t.row_for("k", "y")["v"] == 2
        with pytest.raises(ReproError):
            t.row_for("k", "z")

    def test_normalized(self):
        t = ResultTable("t", ["name", "x", "base"])
        t.add(name="r", x=4.0, base=2.0)
        n = t.normalized(["x"], "base")
        assert n.rows[0]["x"] == 2.0
        assert t.rows[0]["x"] == 4.0  # original untouched

    def test_to_text_renders_all_rows(self):
        t = ResultTable("title", ["a", "b"])
        t.add(a="long-name", b=1.23456)
        text = t.to_text()
        assert "title" in text and "long-name" in text and "1.235" in text

    def test_experiment_result_wrapping(self):
        r = ExperimentResult(experiment="x", description="d")
        t = r.add_table("t", ResultTable("t", ["a"]))
        t.add(a=1)
        r.note("hello")
        text = r.to_text()
        assert "=== x: d ===" in text and "note: hello" in text


class TestCommonHelpers:
    def test_testbed_defaults(self):
        world = make_testbed()
        assert world.host.ncpus == 20
        assert world.mm.total == 128 * 1024 ** 3

    def test_paper_heap_flags(self):
        wl = dacapo("h2")
        flags = paper_heap_flags(wl)
        assert flags["xms"] == flags["xmx"] == HEAP_MULTIPLIER * wl.min_heap

    def test_scale_workload(self):
        wl = dacapo("h2")
        half = scale_workload(wl, 0.5)
        assert half.total_work == wl.total_work / 2
        assert half.alloc_rate == wl.alloc_rate
        assert scale_workload(wl, 1.0) is wl
        with pytest.raises(ReproError):
            scale_workload(wl, 0)

    def test_run_jvms_raises_on_timeout(self):
        from repro.container.spec import ContainerSpec
        from repro.jvm.flags import JvmConfig
        world = make_testbed()
        c = world.containers.create(ContainerSpec("c0"))
        wl = scale_workload(dacapo("jython"), 10.0)
        with pytest.raises(ReproError):
            run_jvms(world, [(c, wl, JvmConfig.vanilla_jdk8(
                xms=wl.min_heap * 3, xmx=wl.min_heap * 3))], timeout=1.0)


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        from repro.harness.experiments import ALL_EXPERIMENTS
        assert set(ALL_EXPERIMENTS) == {
            "fig01", "fig02", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "overhead", "ablation", "exp_serve",
            "exp_cluster", "exp_policy"}
        for module in ALL_EXPERIMENTS.values():
            assert hasattr(module, "run")

    def test_quick_overrides_build_the_declared_params(self):
        """Every experiment with quick overrides names its params class
        as ``PARAMS``: the class its ``run`` takes, and one that accepts
        those overrides."""
        import inspect

        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import _QUICK_KWARGS
        for key, kwargs in _QUICK_KWARGS.items():
            module = ALL_EXPERIMENTS[key]
            params = module.PARAMS(**kwargs)
            for name, value in kwargs.items():
                assert getattr(params, name) == value
            annotation = inspect.signature(
                module.run).parameters["params"].annotation
            assert annotation == f"{module.PARAMS.__name__} | None", key

    def test_fig01_headline(self):
        from repro.harness.experiments.fig01_dockerhub import run
        result = run()
        summary = result.tables["summary"]
        assert summary.rows[0]["affected"] == 62

    def test_run_all_quick_single(self):
        from repro.harness.run_all import run_experiment
        result = run_experiment("fig01", quick=True)
        assert result.experiment == "fig01"

    def test_run_all_main_rejects_unknown(self, capsys):
        from repro.harness.run_all import main
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class TestOverheadExperiment:
    def test_shape(self):
        from repro.harness.experiments.overhead import OverheadParams, run
        result = run(OverheadParams(iterations=500))
        table = result.tables["overhead"]
        ops = {r["operation"]: r["mean_us"] for r in table.rows}
        assert ops["query effective memory"] > ops["sysconf effective CPU"]
        assert all(v > 0 for v in ops.values())


class TestRunAllOutputs:
    def test_output_and_export_files(self, tmp_path):
        from repro.harness.run_all import main
        report = tmp_path / "report.txt"
        export_dir = tmp_path / "exports"
        code = main(["--quick", "--output", str(report),
                     "--export", str(export_dir), "fig01"])
        assert code == 0
        assert "DockerHub" in report.read_text()
        names = {p.name for p in export_dir.iterdir()}
        assert "fig01.json" in names
        assert "fig01_census.csv" in names


class TestContainerHistoryFlag:
    def test_record_history_collects_view_samples(self):
        from repro.container.spec import ContainerSpec
        from repro.harness.common import testbed as make_world
        world = make_world()
        c = world.containers.create(ContainerSpec("c0"),
                                    record_history=True)
        world.run(until=1.0)
        history = c.sys_ns.history
        assert len(history) == c.sys_ns.update_count
        times = [t for t, _, _ in history]
        assert times == sorted(times)
        assert all(e_cpu >= 1 for _, e_cpu, _ in history)

    def test_history_off_by_default(self):
        from repro.container.spec import ContainerSpec
        from repro.harness.common import testbed as make_world
        world = make_world()
        c = world.containers.create(ContainerSpec("c0"))
        world.run(until=1.0)
        assert c.sys_ns.history == []
