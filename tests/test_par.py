"""Tests for repro.par: the trial call, caching, pool semantics, crash
isolation; and derive_seed (repro.sim.rng), the seed hash the cluster
hosts and the cluster check generator use."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.harness.common import run_cells
from repro.par import (ParallelRunner, ResultCache, TrialSpec, result_digest,
                       run_trials, source_hash)
from repro.sim.rng import derive_seed

#: Trial functions must be importable top-level callables.
TOY_FN = "tests.test_par:toy_trial"
CRASH_FN = "tests.test_par:crashy_trial"
DIE_FN = "tests.test_par:dying_trial"
CALL_FN = "tests.test_par:call_trial"


def toy_trial(config: dict) -> dict:
    """A deterministic pure function of the config."""
    return {"x": config["x"] * 2, "salt": config.get("salt")}


def call_trial(*args, **kwargs) -> dict:
    """Reports exactly how the runner called it."""
    return {"args": list(args), "kwargs": sorted(kwargs)}


def crashy_trial(config: dict) -> dict:
    if config.get("boom"):
        raise ReproError("simulated trial failure")
    return {"ok": config["x"]}


def dying_trial(config: dict) -> dict:
    if config.get("die"):
        import os
        os._exit(17)               # hard worker death, not an exception
    return {"ok": config["x"]}


def toy_specs(n: int = 6, *, fn: str = TOY_FN, **extra) -> list[TrialSpec]:
    return [TrialSpec(fn=fn, experiment="toy", trial_id=f"t{i}",
                      config={"x": i, **extra})
            for i in range(n)]


class TestDeriveSeed:
    def test_deterministic_and_pinned(self):
        # Pinned value: the derivation must stay stable across sessions,
        # or every cluster host's RNG stream and every generated cluster
        # check scenario silently changes.
        assert derive_seed("exp", "trial", 0) == derive_seed("exp", "trial", 0)
        assert derive_seed("exp", "trial", 0) == 2432253065363132831

    def test_distinct_axes(self):
        keys = {derive_seed("a", "t", 0), derive_seed("b", "t", 0),
                derive_seed("a", "u", 0), derive_seed("a", "t", 1)}
        assert len(keys) == 4

    def test_63_bit_range(self):
        for i in range(50):
            key = derive_seed("exp", f"t{i}", 7)
            assert 0 <= key < 2 ** 63


class TestRunnerBasics:
    def test_ordered_results(self):
        results = run_trials(toy_specs(5), jobs=1)
        assert [r.trial_id for r in results] == [f"t{i}" for i in range(5)]
        assert all(r.ok for r in results)
        assert [r.value["x"] for r in results] == [0, 2, 4, 6, 8]

    def test_config_is_the_whole_call(self):
        # fn(config): nothing but the config reaches a trial, serial or
        # pooled, so nothing outside the cache key can move its value.
        specs = toy_specs(2, fn=CALL_FN, salt=7)
        for jobs in (1, 2):
            assert [r.value for r in run_trials(specs, jobs=jobs)] == [
                {"args": [{"x": i, "salt": 7}], "kwargs": []}
                for i in range(2)]

    def test_duplicate_trial_ids_rejected(self):
        spec = toy_specs(1)[0]
        with pytest.raises(ReproError, match="duplicate"):
            run_trials([spec, spec], jobs=1)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError):
            ParallelRunner(jobs=0)

    def test_bad_fn_path_is_failure_row(self):
        spec = TrialSpec(fn="tests.test_par:not_a_function",
                         experiment="toy", trial_id="bad")
        (result,) = run_trials([spec], jobs=1)
        assert not result.ok
        assert "not_a_function" in result.error
        with pytest.raises(ReproError, match="trial bad failed"):
            run_cells([spec])


class TestDeterminism:
    def test_serial_vs_parallel_identical(self):
        serial = run_trials(toy_specs(8), jobs=1)
        parallel = run_trials(toy_specs(8), jobs=4)
        assert result_digest(serial) == result_digest(parallel)
        for a, b in zip(serial, parallel):
            assert (a.trial_id, a.ok, a.value) == (b.trial_id, b.ok, b.value)

    def test_digest_sensitive_to_values(self):
        base = run_trials(toy_specs(3), jobs=1)
        changed = run_trials(toy_specs(3, salt=1), jobs=1)
        assert result_digest(base) != result_digest(changed)


class TestCrashIsolation:
    def test_exception_is_failure_row_not_abort(self):
        specs = toy_specs(4, fn=CRASH_FN)
        specs[2] = TrialSpec(fn=CRASH_FN, experiment="toy", trial_id="t2",
                             config={"x": 2, "boom": True})
        results = run_trials(specs, jobs=2)
        assert [r.ok for r in results] == [True, True, False, True]
        assert "simulated trial failure" in results[2].error
        assert results[3].value == {"ok": 3}

    def test_hard_worker_death_recorded_and_isolated(self):
        specs = toy_specs(4, fn=DIE_FN)
        specs[1] = TrialSpec(fn=DIE_FN, experiment="toy", trial_id="t1",
                             config={"x": 1, "die": True})
        results = run_trials(specs, jobs=2)
        dead = {r.trial_id: r for r in results}["t1"]
        assert not dead.ok
        assert "WorkerDied" in dead.error
        # Every innocent sibling still produced its value.
        for tid in ("t0", "t2", "t3"):
            assert dead is not None
            assert {r.trial_id: r for r in results}[tid].ok


class TestCache:
    def test_second_run_all_hits(self, tmp_path):
        specs = toy_specs(5)
        cold = ResultCache(tmp_path)
        first = run_trials(specs, jobs=2, cache=cold)
        assert cold.stats() == {"hits": 0, "misses": 5}
        warm = ResultCache(tmp_path)
        second = run_trials(specs, jobs=1, cache=warm)
        assert warm.stats() == {"hits": 5, "misses": 0}
        assert all(r.cached for r in second)
        assert result_digest(first) == result_digest(second)

    def test_config_mutation_invalidates_exactly_that_trial(self, tmp_path):
        specs = toy_specs(5)
        run_trials(specs, jobs=1, cache=ResultCache(tmp_path))
        mutated = list(specs)
        mutated[3] = TrialSpec(fn=TOY_FN, experiment="toy", trial_id="t3",
                               config={"x": 33})
        cache = ResultCache(tmp_path)
        results = run_trials(mutated, jobs=1, cache=cache)
        assert cache.stats() == {"hits": 4, "misses": 1}
        assert [r.cached for r in results] == [True, True, True, False, True]
        assert results[3].value["x"] == 66

    def test_source_hash_invalidates(self, tmp_path):
        specs = toy_specs(2)
        run_trials(specs, jobs=1, cache=ResultCache(tmp_path))
        edited = ResultCache(tmp_path, package_hash="deadbeef")
        run_trials(specs, jobs=1, cache=edited)
        assert edited.stats() == {"hits": 0, "misses": 2}

    def test_failures_not_cached(self, tmp_path):
        spec = TrialSpec(fn=CRASH_FN, experiment="toy", trial_id="boom",
                         config={"x": 0, "boom": True})
        cache = ResultCache(tmp_path)
        run_trials([spec], jobs=1, cache=cache)
        again = ResultCache(tmp_path)
        run_trials([spec], jobs=1, cache=again)
        assert again.stats() == {"hits": 0, "misses": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        specs = toy_specs(1)
        cache = ResultCache(tmp_path)
        run_trials(specs, jobs=1, cache=cache)
        key = cache.key(specs[0].to_dict())
        victim = tmp_path / key[:2] / f"{key}.json"
        victim.write_text("{not json")
        fresh = ResultCache(tmp_path)
        results = run_trials(specs, jobs=1, cache=fresh)
        assert fresh.stats() == {"hits": 0, "misses": 1}
        assert results[0].ok and not results[0].cached

    def test_cache_file_is_inspectable(self, tmp_path):
        specs = toy_specs(1)
        cache = ResultCache(tmp_path)
        run_trials(specs, jobs=1, cache=cache)
        key = cache.key(specs[0].to_dict())
        payload = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert payload["spec"]["trial_id"] == "t0"
        assert payload["value"]["x"] == 0

    def test_package_source_hash_stable(self):
        assert source_hash() == source_hash()
        assert len(source_hash()) == 64


class TestBatching:
    def test_digest_identical_across_batch_sizes(self):
        # The auto-chunk rule picks batches of 1 (3 trials on 3 jobs),
        # 2 (4 on 2), 3 (9 on 3) and 4 (8 on 2).
        for n, jobs in ((3, 3), (4, 2), (9, 3), (8, 2)):
            base = run_trials(toy_specs(n), jobs=1)
            batched = run_trials(toy_specs(n), jobs=jobs)
            assert result_digest(batched) == result_digest(base)
            assert [r.trial_id for r in batched] == [r.trial_id for r in base]

    def test_auto_chunking_rule(self):
        runner = ParallelRunner(jobs=4)
        assert runner._resolve_batch_size(4) == 1     # one per worker
        assert runner._resolve_batch_size(64) == 4    # 4 waves per worker
        assert runner._resolve_batch_size(10_000) == 16  # capped
        assert ParallelRunner(jobs=1)._resolve_batch_size(100) == 1

    def test_small_sweep_gets_one_wave(self):
        # Figure-sized sweeps take exactly one batch per worker so a
        # tiny grid is jobs futures, not one future per trial.
        runner = ParallelRunner(jobs=4)
        assert runner._resolve_batch_size(8) == 2     # 4 futures of 2
        assert runner._resolve_batch_size(16) == 4    # 4 futures of 4
        assert runner._resolve_batch_size(17) == 2    # big sweep: 4 waves

    def test_exception_in_batch_isolated(self):
        specs = toy_specs(6, fn=CRASH_FN)
        specs[2] = TrialSpec(fn=CRASH_FN, experiment="toy", trial_id="t2",
                             config={"x": 2, "boom": True})
        results = run_trials(specs, jobs=2)     # two batches of 3
        assert [r.ok for r in results] == [True, True, False, True, True, True]

    def test_worker_death_in_batch_retried_solo(self):
        specs = toy_specs(6, fn=DIE_FN)
        specs[1] = TrialSpec(fn=DIE_FN, experiment="toy", trial_id="t1",
                             config={"x": 1, "die": True})
        results = run_trials(specs, jobs=2)     # two batches of 3
        by_id = {r.trial_id: r for r in results}
        assert not by_id["t1"].ok
        assert "WorkerDied" in by_id["t1"].error
        # Batch-mates of the dead trial recover via the solo retry.
        for tid in ("t0", "t2", "t3", "t4", "t5"):
            assert by_id[tid].ok, tid


class TestWarmPool:
    """The executor is process-global and survives across sweeps."""

    def test_pool_reused_across_runs(self):
        from repro.par import runner as runner_mod
        runner_mod._discard_pool(2)
        run_trials(toy_specs(4), jobs=2)
        pool = runner_mod._POOLS.get(2)
        assert pool is not None
        run_trials(toy_specs(4, salt=1), jobs=2)
        assert runner_mod._POOLS.get(2) is pool   # same executor, no refork

    def test_broken_pool_discarded_and_rebuilt(self):
        from repro.par import runner as runner_mod
        runner_mod._discard_pool(2)
        specs = toy_specs(3, fn=DIE_FN)
        specs[0] = TrialSpec(fn=DIE_FN, experiment="toy", trial_id="t0",
                             config={"x": 0, "die": True})
        run_trials(specs, jobs=2)
        # The worker death broke the warm pool; it must not be handed out
        # again.
        broken = runner_mod._POOLS.get(2)
        assert broken is None
        results = run_trials(toy_specs(4), jobs=2)
        assert all(r.ok for r in results)


class TestOnResult:
    def test_callback_sees_every_trial(self, tmp_path):
        specs = toy_specs(4)
        cache = ResultCache(tmp_path)
        run_trials(specs[:2], jobs=1, cache=cache)
        seen: list[tuple[str, bool]] = []
        run_trials(specs, jobs=2, cache=ResultCache(tmp_path),
                   on_result=lambda s, r: seen.append((s.trial_id, r.cached)))
        assert sorted(t for t, _ in seen) == ["t0", "t1", "t2", "t3"]
        assert dict(seen)["t0"] is True       # cache hit surfaced
        assert dict(seen)["t3"] is False
