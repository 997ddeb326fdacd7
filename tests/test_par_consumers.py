"""Fan-out wiring of the three consumers: experiments, run_all, check CLI."""

from __future__ import annotations

import argparse
import re

import pytest

from repro.par import ResultCache, result_digest, run_trials


def tiny_fig07_params():
    from repro.harness.experiments.fig07_scaling import Fig07Params
    return Fig07Params(scale=0.05, benchmarks=("h2",),
                       container_counts=(2, 4))


class TestExperimentFanout:
    def test_fig07_parallel_byte_identical_to_serial(self):
        # The acceptance oracle: per-trial results from a jobs=4 run
        # must be byte-identical to jobs=1 (digest over JSON values).
        from repro.harness.experiments.fig07_scaling import trial_specs
        specs = trial_specs(tiny_fig07_params())
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=4)
        assert all(r.ok for r in serial)
        assert result_digest(serial) == result_digest(parallel)

    def test_fig07_report_identical_to_serial(self):
        from repro.harness.experiments.fig07_scaling import run
        params = tiny_fig07_params()
        assert (run(params, jobs=1).to_text()
                == run(params, jobs=2).to_text())

    def test_fig07_cached_rerun_identical(self, tmp_path):
        from repro.harness.experiments.fig07_scaling import run
        params = tiny_fig07_params()
        first = run(params, jobs=2, cache=ResultCache(tmp_path)).to_text()
        warm = ResultCache(tmp_path)
        second = run(params, jobs=1, cache=warm).to_text()
        assert first == second
        assert warm.misses == 0 and warm.hits > 0

    def test_fig10_parallel_matches_serial(self):
        from repro.harness.experiments.fig10_npb import Fig10Params, run
        params = Fig10Params(scale=0.25, benchmarks=("is",), n_containers=2)
        assert (run(params, jobs=1).to_text()
                == run(params, jobs=2).to_text())

    def test_ablation_grid_covers_all_subtables(self):
        from repro.harness.experiments.ablation import (AblationParams,
                                                        trial_specs)
        specs = trial_specs(AblationParams(scale=0.25))
        families = {s.trial_id.split("/")[0] for s in specs}
        assert families == {"static", "util", "period", "mem", "sizing"}
        assert len({s.trial_id for s in specs}) == len(specs)

    def test_failed_cell_raises_with_trial_id(self):
        from repro.harness.experiments.fig07_scaling import run
        from repro.errors import ReproError
        params = tiny_fig07_params()
        bad = type(params)(scale=params.scale, benchmarks=("no-such-bench",),
                           container_counts=(2,))
        with pytest.raises(ReproError, match="no-such-bench"):
            run(bad, jobs=1)


class TestRunAllTiming:
    def test_run_many_reports_per_experiment_timing(self):
        from repro.harness.run_all import run_many, timing_summary
        seen = []
        results, timings = run_many(
            ["fig01"], quick=True,
            report=lambda key, result, elapsed: seen.append((key, elapsed)))
        assert set(timings) == {"fig01"}
        assert timings["fig01"] > 0
        assert seen and seen[0][0] == "fig01"
        summary = timing_summary(timings)
        assert "fig01" in summary and "total" in summary

    def test_main_prints_timing_summary_and_cache_stats(self, tmp_path,
                                                        capsys, monkeypatch):
        # Every fanned-out experiment but fig07 (its pool and cache are
        # held by test_fig07_cached_rerun_identical), run twice on one
        # cache: every trial misses, then every trial hits, and the
        # tables are the same.
        from repro.harness.run_all import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        keys = ["fig08", "fig10", "ablation", "exp_cluster", "exp_policy"]
        outs = []
        for _ in range(2):
            assert main(["--quick", "--jobs", "2", *keys]) == 0
            outs.append(capsys.readouterr().out)
        for out, stats in zip(outs, ("0 hits, 49 misses",
                                     "49 hits, 0 misses")):
            assert "per-experiment wall clock:" in out
            assert f"trial cache: {stats} (" in out
        tables = [re.sub(r"\[\w+ finished in .*\]\n", "",
                         out.split("per-experiment wall clock:")[0])
                  for out in outs]
        for title in ("Figure 8(a)", "Figure 10", "exp_cluster",
                      "exp_policy"):
            assert title in tables[0]
        assert tables[0] == tables[1]

    def test_jobs_forwarded_only_to_supporting_experiments(self):
        import inspect
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import _supports_fanout
        fanout = {k for k, m in ALL_EXPERIMENTS.items() if _supports_fanout(m)}
        assert fanout == set(FANOUT)
        for key in fanout:
            module = ALL_EXPERIMENTS[key]
            assert "cache" in inspect.signature(module.run).parameters
            # Every grid runs through the one trial contract.
            assert module.TRIAL_FN == f"{module.__name__}:run_cell"
            first = next(iter(inspect.signature(module.trial).parameters))
            assert first == "params"


#: The experiments whose grid fans out through repro.par.
FANOUT = ("fig07", "fig08", "fig10", "ablation", "exp_cluster", "exp_policy")


def _other(value):
    """A different value of the same type (a tuple grows by one)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    assert isinstance(value, tuple) and value, value
    return value + value[:1]


class TestTrialContract:
    """A cell's config is its experiment's params plus its own keys."""

    @pytest.mark.parametrize("key", FANOUT)
    def test_config_holds_every_params_field(self, key):
        from dataclasses import asdict
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import quick_params
        params = quick_params(key)
        specs = ALL_EXPERIMENTS[key].trial_specs(params)
        assert specs
        for spec in specs:
            assert asdict(params).items() <= spec.config.items()

    @pytest.mark.parametrize("key", FANOUT)
    def test_every_params_field_moves_every_cache_key(self, key, tmp_path):
        from dataclasses import fields, replace
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import quick_params
        module = ALL_EXPERIMENTS[key]
        cache = ResultCache(tmp_path)
        params = quick_params(key)
        base = {cache.key(s.to_dict()) for s in module.trial_specs(params)}
        for f in fields(params):
            changed = replace(params,
                              **{f.name: _other(getattr(params, f.name))})
            keys = {cache.key(s.to_dict())
                    for s in module.trial_specs(changed)}
            assert not keys & base, f"{key}: {f.name} left a key unchanged"

    def test_worker_rebuilds_params_from_json(self):
        import json
        from dataclasses import dataclass
        from repro.harness.common import cell_specs, grid_trial

        @dataclass(frozen=True)
        class Params:
            seed: int = 0
            names: tuple[str, ...] = ("a", "b")

        seen = []
        run_cell = grid_trial(Params, lambda p, **cell: seen.append((p, cell)))
        (spec,) = cell_specs("m:run_cell", "toy", Params(seed=3),
                             {"a/1": {"name": "a", "n": 1}})
        run_cell(json.loads(json.dumps(spec.config)))
        assert seen == [(Params(seed=3), {"name": "a", "n": 1})]


def check_args(**overrides) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    from repro.check.cli import add_arguments
    add_arguments(parser)
    args = parser.parse_args([])
    for key, value in overrides.items():
        setattr(args, key, value)
    return args


class TestCheckCli:
    def test_sweep_summary_line_stable(self, tmp_path, capsys, monkeypatch):
        from repro.check.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(check_args(seeds=3, jobs=2)) == 0
        out = capsys.readouterr().out
        assert "check: seeds=3 failures=0 cache_hits=0" in out

    def test_sweep_second_run_reports_cache_hits(self, tmp_path, capsys,
                                                 monkeypatch):
        from repro.check.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(check_args(seeds=3)) == 0
        capsys.readouterr()
        assert main(check_args(seeds=3)) == 0
        out = capsys.readouterr().out
        assert "check: seeds=3 failures=0 cache_hits=3" in out

    def test_parallel_sweep_matches_serial(self, capsys):
        from repro.check.cli import main
        assert main(check_args(seeds=4, no_cache=True, verbose=True)) == 0
        serial = capsys.readouterr().out
        assert main(check_args(seeds=4, no_cache=True, verbose=True,
                               jobs=2)) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_replay_emits_summary_line(self, tmp_path, capsys):
        import glob
        from repro.check.cli import main
        fixtures = sorted(glob.glob("tests/regressions/*.json"))
        if not fixtures:
            pytest.skip("no committed fixtures")
        assert main(check_args(replay=fixtures[0])) == 0
        out = capsys.readouterr().out
        assert "check: seeds=1 failures=0 cache_hits=0" in out


class TestBenchSubcommand:
    def test_bench_lists_available_benchmarks(self, capsys):
        from repro.__main__ import main
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "engine" in out and "fig07" in out and "serve" in out

    def test_bench_rejects_unknown_name(self, capsys):
        from repro.__main__ import main
        assert main(["bench", "definitely-not-a-benchmark"]) == 2
        assert "unknown benchmark" in capsys.readouterr().out
