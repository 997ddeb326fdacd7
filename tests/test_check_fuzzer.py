"""Tests for repro.check: generator, runner, differ, shrinker, CLI.

The meta-test strategy: the fuzzer must (a) be deterministic, (b) pass
on the healthy simulator, and (c) actually *catch and shrink* planted
bugs — a checker that never fires is indistinguishable from one that
cannot fire, so we re-introduce two representative bug classes
(engine-conditional drift for the differ, ledger corruption for the
invariant suite) and assert the harness pins them to small repros.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.check import (DEFAULT_VARIANTS, Scenario, Variant, default_suite,
                         diff_snapshots, generate, generate_cluster,
                         run_differential, run_scenario, run_variants, shrink)
from repro.check.differ import snapshots_equal
from repro.check.sweep import dump_fixture, load_fixture
from repro.check.generator import generate as generate2
from repro.core.effective_cpu import compute_cpu_bounds
from repro.core.ns_monitor import NsMonitor
from repro.kernel.mm.memcg import MemoryManager
from repro.kernel.sched import fair
from repro.kernel.sched.fair import FairScheduler
from repro.units import gib, mib

#: Tier-1 sweep width; CI's check-fuzz job runs the full 200.
SWEEP_SEEDS = 30


class TestGenerator:
    def test_deterministic(self):
        for seed in (0, 7, 12345):
            assert generate(seed).to_dict() == generate2(seed).to_dict()

    def test_seeds_differ(self):
        assert generate(1).to_dict() != generate(2).to_dict()

    def test_generated_scenarios_validate(self):
        for seed in range(20):
            scn = generate(seed)
            scn.validate()
            assert len(scn.ops) > 0
            assert all(0 <= op["t"] <= scn.horizon for op in scn.ops)

    def test_covers_op_space(self):
        """Across a modest seed range every op kind appears."""
        kinds = set()
        for seed in range(60):
            kinds.update(op["op"] for op in generate(seed).ops)
        assert {"create", "destroy", "charge", "uncharge", "set_shares",
                "set_quota", "set_cpuset", "set_limit", "loop",
                "block", "wake", "spawn"} <= kinds


class TestScenarioSerialization:
    def test_json_round_trip(self):
        scn = generate(42)
        again = Scenario.from_json(scn.to_json())
        assert again.to_dict() == scn.to_dict()

    def test_rejects_future_schema(self):
        data = generate(0).to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError, match="newer"):
            Scenario.from_dict(data)

    def test_rejects_unknown_op(self):
        scn = generate(0)
        scn.ops.append({"t": 0.1, "op": "frobnicate", "name": "c0"})
        with pytest.raises(ValueError, match="unknown kind"):
            scn.validate()

    def test_rejects_op_past_horizon(self):
        scn = Scenario(ops=[{"t": 99.0, "op": "destroy", "name": "c0"}])
        with pytest.raises(ValueError, match="outside"):
            scn.validate()


class TestRunner:
    def test_run_is_deterministic(self):
        scn = generate(3)
        a = run_scenario(scn, "incremental")
        b = run_scenario(scn, "incremental")
        assert a.log == b.log
        assert a.snapshots == b.snapshots

    def test_ops_on_missing_containers_are_skips(self):
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.1, "op": "charge", "name": "ghost", "bytes": mib(1)},
            {"t": 0.2, "op": "destroy", "name": "ghost"},
        ])
        res = run_scenario(scn)
        assert res.ok
        assert all(":skip:missing" in line for line in res.log)

    def test_oom_destroys_the_victim(self):
        scn = Scenario(ncpus=2, memory=gib(1), horizon=1.0, swap_factor=0.0,
                       ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1,
             "memory_limit": mib(128)},
            {"t": 0.2, "op": "charge", "name": "c0", "bytes": mib(400)},
            {"t": 0.4, "op": "charge", "name": "c0", "bytes": mib(1)},
        ])
        res = run_scenario(scn)
        assert res.ok, res.violations
        assert any(":oom:" in line for line in res.log)
        assert any(":skip:missing" in line for line in res.log)  # gone after kill

    def test_invariants_checked_at_every_boundary(self):
        scn = generate(5)
        res = run_scenario(scn)
        assert len(res.snapshots) == len(scn.ops) + 2  # initial + per-op + final


#: One NaN object: containers holding it compare equal under ``==``
#: (identity comes first), yet the snapshot diff reports it.
_NAN = float("nan")


class TestDiffer:
    def test_diff_snapshots_finds_nested_mismatch(self):
        a = {"x": [1, {"y": 2.0}], "z": "s"}
        b = {"x": [1, {"y": 2.5}], "z": "s"}
        (only,) = diff_snapshots(a, b)
        assert only.startswith("x[1].y ")

    def test_diff_snapshots_equal(self):
        snap = run_scenario(generate(1)).snapshots[-1]
        assert diff_snapshots(snap, snap) == []

    @pytest.mark.parametrize("a, b", [
        (1, 1.0), (True, 1), (1.0, 1.0), (float("nan"), float("nan")),
        ([float("nan")], [float("nan")]), ({"x": float("nan")},) * 2,
        ([_NAN], [_NAN]), ([[_NAN]],) * 2,
        (-0.0, 0.0), ({"x": -0.0}, {"x": 0.0}),
        ({"x": 1, "y": 2}, {"y": 2, "x": 1}), ({"x": 1}, {"x": 1, "y": 2}),
        ([1, 2], [1, 2, 3]), ([1, 2], [1, 2]), ([], [1]), ((1, 2), [1, 2]),
        ((1, float("nan")), (1, float("nan"))), ("s", "s"), ("s", "t"),
        (None, None), (None, 0), ({"x": [1, {"y": 2.0}]},) * 2,
        ({"x": [1, {"y": 2.0}]}, {"x": [1, {"y": 2.5}]}),
    ], ids=repr)
    def test_snapshots_equal_agrees_with_diff(self, a, b):
        """The lean pass says equal exactly when the report is empty."""
        assert snapshots_equal(a, b) is (diff_snapshots(a, b) == [])
        assert snapshots_equal(b, a) is (diff_snapshots(b, a) == [])

    def test_snapshots_equal_on_real_runs(self):
        """Every snapshot of one run against its neighbour and itself."""
        snaps = run_scenario(generate(3)).snapshots
        for a, b in zip(snaps, snaps[1:] + snaps[:1]):
            assert snapshots_equal(a, b) is (diff_snapshots(a, b) == [])
            assert snapshots_equal(a, a) is (diff_snapshots(a, a) == [])

    def test_sweep_passes_on_both_engines(self):
        for seed in range(SWEEP_SEEDS):
            report = run_differential(generate(seed))
            assert report.ok, (
                f"seed {seed}:\n{report.summary()}")

    def test_differ_catches_engine_conditional_drift(self, monkeypatch):
        """Re-introduce the bug class the differ exists for: an
        incremental-only accounting drift invisible to the invariants."""
        orig = FairScheduler.advance

        def drifting(self, dt):
            orig(self, dt)
            if self._incremental:
                for cg in self.cgroups.walk():
                    cg.throttled_time += 1e-9 * dt
        monkeypatch.setattr(FairScheduler, "advance", drifting)
        report = run_differential(generate(0))
        assert report.divergences
        assert report.fingerprint() == "divergence:throttled_time"


class TestShrinker:
    def _planted_ledger_bug(self, monkeypatch):
        """uncharge forgets the ledger — the stale-residue bug class."""
        orig = MemoryManager.uncharge

        def buggy(self, cg, nbytes):
            orig(self, cg, nbytes)
            cg.memory.uncharge_total -= nbytes // 2   # corrupt the ledger
        monkeypatch.setattr(MemoryManager, "uncharge", buggy)

    def test_planted_bug_is_caught_and_shrinks_small(self, monkeypatch):
        self._planted_ledger_bug(monkeypatch)
        scn = Scenario(ncpus=2, memory=gib(1), horizon=1.0, seed=77, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
            {"t": 0.0, "op": "create", "name": "c1", "workers": 1},
            {"t": 0.05, "op": "set_shares", "name": "c1", "shares": 256},
            {"t": 0.1, "op": "charge", "name": "c0", "bytes": mib(64)},
            {"t": 0.15, "op": "spawn", "name": "c1", "work": 0.2},
            {"t": 0.2, "op": "loop", "name": "c1", "workers": 1,
             "segment": 0.02, "until": 0.6},
            {"t": 0.3, "op": "uncharge", "name": "c0", "bytes": mib(32)},
            {"t": 0.4, "op": "set_quota", "name": "c0", "cpus": 1.0},
            {"t": 0.5, "op": "charge", "name": "c1", "bytes": mib(16)},
            {"t": 0.7, "op": "set_cpuset", "name": "c1", "cpuset": "0"},
        ])
        report = run_differential(scn)
        assert not report.ok
        fingerprint = report.fingerprint()
        assert fingerprint.startswith("invariant:")
        assert "memory_ledger" in fingerprint

        minimal = shrink(scn, lambda s: run_differential(s).fingerprint())
        assert len(minimal) <= 10          # the acceptance bar
        assert len(minimal) <= 3           # create + charge + uncharge
        kinds = sorted(op["op"] for op in minimal.ops)
        assert "uncharge" in kinds
        # The minimized scenario still reproduces the same failure.
        assert run_differential(minimal).fingerprint() == fingerprint

    def test_shrink_rejects_passing_scenario(self):
        with pytest.raises(ValueError, match="passing"):
            shrink(generate(0), lambda s: run_differential(s).fingerprint())

    def test_shrunk_fixture_round_trips(self, monkeypatch):
        self._planted_ledger_bug(monkeypatch)
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1},
            {"t": 0.1, "op": "charge", "name": "c0", "bytes": mib(32)},
            {"t": 0.2, "op": "uncharge", "name": "c0", "bytes": mib(16)},
        ])
        minimal = shrink(scn, lambda s: run_differential(s).fingerprint())
        blob = json.loads(minimal.to_json())
        again = Scenario.from_dict(blob)
        assert run_differential(again).fingerprint() is not None


class TestInvariantsFire:
    """Each invariant must detect its bug class on a corrupted world."""

    def _world_after(self, seed=1):
        scn = generate(seed)
        from repro.world import World
        world = World(ncpus=scn.ncpus, memory=scn.memory,
                      swap_factor=scn.swap_factor)
        return world

    def _check(self, world):
        from repro.check.invariants import check_all
        snap = world.invariant_snapshot()
        return check_all(default_suite(), world, snap, None)

    def test_healthy_world_is_clean(self):
        world = self._world_after()
        assert self._check(world) == []

    def test_conservation_violation_detected(self):
        world = self._world_after()
        world.sched.total_idle_time += 0.5
        world.sched._time += 0.0          # keep elapsed consistent
        assert any("cpu_conservation" in v for v in self._check(world))

    def test_ledger_violation_detected(self):
        world = self._world_after()
        cg = world.cgroups.root.create_child("x")
        cg.memory.charge_total = mib(10)  # bytes from nowhere
        violations = self._check(world)
        assert any("memory_ledger" in v for v in violations)

    def test_psi_violation_detected(self):
        world = self._world_after()
        world.cgroups.root.pressure.cpu.full_total = 5.0  # full > some
        assert any("psi_sanity" in v for v in self._check(world))

    def test_event_heap_violation_detected(self):
        world = self._world_after()
        handle = world.events.call_after(1.0, lambda: None, name="x")
        handle.cancelled = True           # cancel without bookkeeping
        assert any("event_heap" in v for v in self._check(world))

    def test_skipped_class_rewrite_detected(self, monkeypatch):
        """ns_monitor recomputes a bounds class but forgets to rewrite
        its members: every E_CPU stays inside its (stale) bounds, so
        only the from-scratch bounds check can see it."""
        scn = Scenario(ncpus=4, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1},
            {"t": 0.1, "op": "set_quota", "name": "c0", "cpus": 3.0},
            {"t": 0.2, "op": "create", "name": "c1", "workers": 1},
            {"t": 0.3, "op": "set_shares", "name": "c1", "shares": 3072},
        ])
        assert run_differential(scn).ok

        def skipping(self):
            for cls in self._classes.values():
                rep = next(iter(cls.members.values()))
                cls.bounds = compute_cpu_bounds(rep.cgroup,
                                                self._total_shares, self.ncpus)
        monkeypatch.setattr(NsMonitor, "_rebalance", skipping)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:view_bounds"
        assert "c0: stale bounds [3, 3]" in report.violations[0]

    def test_skipped_accrual_refresh_detected(self, monkeypatch):
        """Publication rewrites a contended row but keeps the cpu PSI
        rates of the old one: PSI accrues from a stale row while every
        accounting law still holds."""
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
            {"t": 0.2, "op": "create", "name": "c1", "workers": 2},
        ])
        assert run_differential(scn).ok
        publish = FairScheduler._publish_rows

        def stale(self, members, rows):
            kept = {cg: (cg.pressure.cpu.some_rate, cg.pressure.cpu.full_rate)
                    for cg in members if cg in self._galloc}
            publish(self, members, rows)
            for cg, (some, full) in kept.items():
                p = cg.pressure.cpu
                p.some_rate, p.full_rate = some, full
        monkeypatch.setattr(FairScheduler, "_publish_rows", stale)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:accrual_inputs"
        assert "/docker/c0: cpu PSI rates (0.0, 0.0), want (0.5, 0.0)" in (
            report.violations[0])

    def test_retire_keeping_psi_rates_detected(self, monkeypatch):
        """A group that goes idle keeps stalling in PSI: its averages
        climb toward the old fractions instead of decaying, while every
        total and accounting law still holds (idle groups accrue no
        totals)."""
        scn = Scenario(ncpus=1, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
            {"t": 0.0, "op": "create", "name": "c1", "workers": 1},
            {"t": 0.2, "op": "block", "name": "c0", "worker": 0},
            {"t": 0.2, "op": "block", "name": "c0", "worker": 1},
        ])
        assert run_differential(scn).ok
        retire = FairScheduler._retire

        def keeping(self, cg):
            pressure = cg.pressure
            kept = [(p, p.some_rate, p.full_rate)
                    for p in (pressure.cpu, pressure.memory)]
            retire(self, cg)
            for p, some, full in kept:
                p.some_rate, p.full_rate = some, full
        monkeypatch.setattr(FairScheduler, "_retire", keeping)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:accrual_inputs"
        assert report.violations[0].endswith(
            "/docker/c0: cpu PSI rates (0.5, 0.0), want (0.0, 0.0)")

    _SWAPPING = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
        {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
        {"t": 0.1, "op": "charge", "name": "c0", "bytes": mib(700)},
        {"t": 0.2, "op": "create", "name": "c1", "workers": 1},
        {"t": 0.3, "op": "charge", "name": "c1", "bytes": mib(700)},
    ])

    @staticmethod
    def _unslowed_publication(monkeypatch, rates_only: bool):
        """Plant the bug in publication: a swapping group's thread rate
        is written without its memory slowdown, by the rates-only
        republish (the one publication made with an empty dirty set) or
        by re-solve publications only."""
        publish = FairScheduler._publish_rows

        def unslowed(self, members, rows):
            republish = self._publish_dirty == set()
            publish(self, members, rows)
            if republish == rates_only:
                for cg in members:
                    cg._thread_rate = self._galloc[cg].per_thread_progress
        monkeypatch.setattr(FairScheduler, "_publish_rows", unslowed)

    def test_dropped_progress_multiplier_detected(self, monkeypatch):
        """The rates-only republish writes a swapping group's thread rate
        without its memory slowdown: the group progresses too fast while
        CPU time, throttling and PSI all still balance."""
        scn = self._SWAPPING
        assert run_differential(scn).ok
        self._unslowed_publication(monkeypatch, rates_only=True)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:accrual_inputs"
        assert "op[1]charge" in report.violations[0]
        assert "/docker/c0: published rates (2.0, 1.0, 1.0)" in (
            report.violations[0])

    def test_dropped_progress_multiplier_in_publication_detected(
            self, monkeypatch):
        """A re-solve's publication writes a swapping group's thread rate
        without its memory slowdown.  A swap-only charge re-solves
        nothing, so the first slowed group to be published by a re-solve
        is c0, when c1's creation re-solves their shared domain."""
        scn = self._SWAPPING
        assert run_differential(scn).ok
        self._unslowed_publication(monkeypatch, rates_only=False)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:accrual_inputs"
        assert "op[2]create" in report.violations[0]
        assert ("/docker/c0: published rates (1.0, 0.47619047619047616, "
                "0.5)") in report.violations[0]

    def test_skipped_reindex_detected(self, monkeypatch):
        """A publish leaves one group's completion-heap entry at its old
        rate: the spinners never complete inside the horizon, so both
        engines still agree and only the index audit can see it."""
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 2},
            {"t": 0.2, "op": "create", "name": "c1", "workers": 2},
        ])
        assert run_differential(scn).ok
        reindex = FairScheduler._reindex

        def skips_c0(self, groups):
            reindex(self, [cg for cg in groups if not (
                cg.name == "c0" and cg._sched_entry_seq != -1)])
        monkeypatch.setattr(FairScheduler, "_reindex", skips_c0)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:completion_index"
        assert "/docker/c0: heap estimate" in report.violations[0]

    def test_memo_count_not_zeroed_on_clear_detected(self, monkeypatch):
        """The memo table is cleared at the row budget but its running
        row count is not: results stay exact (the table only clears
        more often), so only the row audit can see it."""
        monkeypatch.setattr(fair, "_SOLVE_CACHE_ROWS", 4)
        scn = Scenario(ncpus=2, memory=gib(1), horizon=0.5, ops=[
            {"t": 0.0, "op": "create", "name": "c0", "workers": 1},
            {"t": 0.1, "op": "create", "name": "c1", "workers": 1},
            {"t": 0.2, "op": "create", "name": "c2", "workers": 1},
        ])
        assert run_differential(scn).ok

        def forgetful(self, comp, key, rows):
            n = len(rows)
            comp.memo_miss_rows += n
            if self.memo_rows + n > fair._SOLVE_CACHE_ROWS:
                self._solve_cache.clear()
            self._solve_cache[key] = rows
            self.memo_rows += n
        monkeypatch.setattr(FairScheduler, "_memo_insert", forgetful)
        report = run_differential(scn)
        assert report.fingerprint() == "invariant:incremental:solve_memo"
        assert "running row count 6, table holds 3 rows" in (
            report.violations[0])


class TestVariants:
    def test_labels_name_what_differs_from_the_defaults(self):
        assert Variant().label == "incremental"
        assert Variant(engine="scan").label == "scan"
        assert Variant(engine="scan", policy="burstable").label == (
            "scan/burstable")

    def test_dict_round_trip(self):
        for v in (Variant(), Variant(engine="scan", policy="intent")):
            assert Variant.from_dict(json.loads(json.dumps(v.to_dict()))) == v

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown variant field 'jobs'"):
            Variant.from_dict({"engine": "incremental", "jobs": 2})

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Variant(engine="turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            Variant(engine="vector")
        with pytest.raises(ValueError, match="unknown policy bundle"):
            Variant(policy="nosuch")

    def test_fixture_without_variants_means_default_pair(self):
        _scenario, variants = load_fixture(generate(0).to_dict())
        assert variants == list(DEFAULT_VARIANTS)

    def test_fingerprint_is_none_on_success_for_both_kinds(self):
        assert run_differential(generate(1)).fingerprint() is None
        report = run_variants(generate_cluster(1), DEFAULT_VARIANTS)
        assert report.ok, report.summary()
        assert report.fingerprint() is None
        assert list(report.results) == ["incremental", "scan"]


def _cli(argv: list[str]) -> argparse.Namespace:
    from repro.check.cli import add_arguments
    parser = argparse.ArgumentParser()
    add_arguments(parser)
    return parser.parse_args(argv)


class TestCheckCliVariants:
    def test_unknown_names_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _cli(["--policy-diff", "default,nosuch", "--seeds", "2"])
        assert exc.value.code == 2
        assert "unknown policy bundle 'nosuch'" in capsys.readouterr().err

    def test_seed_honours_the_pair(self, capsys):
        from repro.check.cli import main
        rc = main(_cli(["--seed", "3", "--policy-diff", "default,burstable",
                        "--no-cache"]))
        assert rc == 0
        assert "lawful under incremental vs burstable" in capsys.readouterr().out

    def test_pair_flag_overrides_fixture_variants_on_replay(self, capsys):
        from repro.check.cli import main
        path = (Path(__file__).resolve().parent / "regressions"
                / "same_instant_pileup.json")
        assert main(_cli(["--replay", str(path), "--policy-diff",
                          "default,burstable"])) == 0
        assert ("under incremental vs burstable: ok"
                in capsys.readouterr().out)

    def test_smoke_honours_the_pair(self, monkeypatch, capsys):
        from repro.check import cli
        seen = []

        def fake_trial(config):
            seen.append(config["variants"])
            return {"seed": config["seed"], "ok": True}
        monkeypatch.setattr(cli, "trial", fake_trial)
        assert cli.main(_cli(["--smoke", "0.05", "--policy-diff",
                              "default,burstable"])) == 0
        pair = [Variant().to_dict(), Variant(policy="burstable").to_dict()]
        assert seen and all(v == pair for v in seen)


class TestClusterLoop:
    def test_planted_engine_drift_is_fixtured_and_replays(self, monkeypatch,
                                                          tmp_path, capsys):
        """Catch an engine-dependent cluster bug, fixture it, replay it."""
        from repro.check.cli import main
        from repro.cluster import Cluster
        orig = Cluster.invariant_snapshot

        def drifting(self):
            snap = orig(self)
            if self.params.engine == "scan":
                snap["hosts"][0]["mem_free"] += 1
            return snap
        monkeypatch.setattr(Cluster, "invariant_snapshot", drifting)

        expected = run_variants(generate_cluster(4), DEFAULT_VARIANTS)
        assert expected.fingerprint() == "divergence:mem_free"
        assert main(_cli(["--cluster", "--seed", "4", "--no-cache",
                          "--fixtures", str(tmp_path)])) == 1
        (path,) = tmp_path.glob("*.json")
        data = json.loads(path.read_text())
        assert load_fixture(data)[1] == list(DEFAULT_VARIANTS)
        assert data["params"]["seed"] == 4
        assert dump_fixture(*load_fixture(data)) + "\n" == path.read_text()

        capsys.readouterr()
        assert main(_cli(["--replay", str(path)])) == 1
        out = capsys.readouterr().out
        assert f"FAIL {expected.fingerprint()}" in out
        assert "check: seeds=1 failures=1" in out

    def test_cluster_sweep_fans_out_across_the_pool(self, monkeypatch,
                                                    capsys):
        from repro.check import cli
        seen = {}
        real = cli.run_trials

        def spy(specs, *, jobs, **kw):
            seen.update(jobs=jobs, configs=[s.config for s in specs])
            return real(specs, jobs=1, **kw)
        monkeypatch.setattr(cli, "run_trials", spy)
        assert cli.main(_cli(["--cluster", "--seeds", "2", "--jobs", "3",
                              "--no-cache"])) == 0
        assert seen["jobs"] == 3
        assert [c["cluster"] for c in seen["configs"]] == [True, True]
        assert "check: seeds=2 failures=0" in capsys.readouterr().out

    def test_replay_rejects_a_fixture_with_an_unknown_variant_field(
            self, tmp_path, capsys):
        """A fixture naming a field this checker lacks (here a shard
        layout, ``jobs``) fails with one line and exit status 2."""
        from repro.check.cli import main
        data = generate_cluster(4)
        data["variants"] = [{"engine": "incremental", "policy": "default",
                             "jobs": 1},
                            {"engine": "incremental", "policy": "default",
                             "jobs": 2}]
        path = tmp_path / "old_layout.json"
        path.write_text(json.dumps(data))
        assert main(_cli(["--replay", str(path)])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "unknown variant field 'jobs'" in err
