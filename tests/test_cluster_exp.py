"""Tests for exp_cluster: digest determinism, table shape, registry wiring."""

from __future__ import annotations

import pytest

from repro.harness.experiments.exp_cluster import (ClusterExpParams,
                                                   generate_pods, run,
                                                   trial_specs)
from repro.par import result_digest, run_trials
from repro.units import gib

TINY = ClusterExpParams(
    pods=30, hosts=3, host_ncpus=4, host_memory=gib(4), horizon=4.0,
    arrival_epochs=2, gang_fraction=0.3, serve_ncpus=6, serve_rate=15.0, serve_warm=2.0,
    serve_spike_len=3.0, serve_cool=4.0, serve_workers=2,
    policies=("static", "view"), interplay_modes=("vpa", "hpa"))


class TestGeneratePods:
    def test_population_is_pure_function_of_seed(self):
        assert generate_pods(TINY) == generate_pods(TINY)

    def test_population_shape(self):
        rows = generate_pods(TINY)
        assert len(rows) == TINY.pods
        names = [kw["name"] for _, kw in rows]
        assert len(set(names)) == TINY.pods
        gangs = {kw["gang"] for _, kw in rows if kw.get("gang")}
        assert gangs                               # gangs present
        for arrival, kw in rows:
            assert 0 <= arrival < TINY.arrival_epochs
            assert kw["cpu_request"] >= kw["cpu_demand"]
            assert kw["mem_request"] >= kw["mem_demand"]


class TestDigestDeterminism:
    def test_jobs1_vs_jobs4_byte_identical(self):
        specs = trial_specs(TINY)
        serial = run_trials(specs, jobs=1)
        parallel = run_trials(specs, jobs=4)
        assert all(r.ok for r in serial)
        assert result_digest(serial) == result_digest(parallel)
        # Placement traces specifically must agree byte for byte.
        for a, b in zip(serial, parallel):
            if a.trial_id.startswith("placement/"):
                assert a.value["trace_digest"] == b.value["trace_digest"]


class TestRunTable:
    @pytest.fixture(scope="class")
    def result(self):
        return run(TINY)

    def test_tables_present(self, result):
        assert set(result.tables) == {"placement", "interplay"}
        placement = result.tables["placement"]
        assert [row["policy"] for row in placement.rows] == ["static", "view"]
        interplay = result.tables["interplay"]
        assert [row["mode"] for row in interplay.rows] == ["vpa", "hpa"]

    def test_view_beats_static_on_density(self, result):
        rows = {row["policy"]: row for row in result.tables["placement"].rows}
        assert rows["view"]["placed"] >= rows["static"]["placed"]
        assert rows["view"]["density"] >= rows["static"]["density"]

    def test_invariants_clean(self, result):
        for row in result.tables["placement"].rows:
            assert row["violations"] == 0

    def test_registered(self):
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.run_all import _QUICK_KWARGS
        assert "exp_cluster" in ALL_EXPERIMENTS
        assert "exp_cluster" in _QUICK_KWARGS
