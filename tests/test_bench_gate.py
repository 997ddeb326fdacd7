"""The benchmark regression checker, ``benchmarks/check_regression.py``.

Each benchmark's committed baseline is its own passing payload.  Every
other test edits a copy of it (or of its baseline) so that exactly one
rule of the checker fires, and asserts the whole failure list.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)

BENCHMARKS = ("bench_engine", "bench_par", "bench_cluster", "bench_obs")


def baseline(name: str) -> dict:
    return json.loads(checker.baseline_path(name).read_text())


def check(name: str, *, scenarios: dict | None = None,
          base_scenarios: dict | None = None, **top) -> list[str]:
    """Check an edited copy of ``name``'s baseline against that baseline.

    ``base_scenarios`` edits the baseline first; ``top`` and
    ``scenarios`` then edit the copy's top-level and scenario fields.
    """
    base = baseline(name)
    for key, fields in (base_scenarios or {}).items():
        base["scenarios"][key].update(fields)
    current = copy.deepcopy(base)
    current.update(top)
    for key, fields in (scenarios or {}).items():
        current["scenarios"][key].update(fields)
    return checker.check(current, base)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_baseline_passes_against_itself(name):
    assert check(name) == []


@pytest.mark.parametrize("name", BENCHMARKS)
def test_quick_mismatch(name):
    assert check(name, quick=False) == [
        f"quick=False run compared against quick=True baseline; "
        f"re-run {name}.py with matching scale"]


def test_missing_scenario():
    base = baseline("bench_par")
    current = copy.deepcopy(base)
    del current["scenarios"]["figure"]
    assert checker.check(current, base) == ["figure: missing from current run"]


@pytest.mark.parametrize("key", ["fleet[incremental]", "churn[scan]",
                                 "fleet[burstable]", "fleet[intent]"])
def test_step_drift(key):
    msgs = check("bench_engine", scenarios={key: {"steps": 999}})
    steps = baseline("bench_engine")["scenarios"][key]["steps"]
    assert len(msgs) == 1
    assert msgs[0].startswith(f"{key}: step count drifted {steps} -> 999")


@pytest.mark.parametrize("name,key", [("bench_par", "fuzz"),
                                      ("bench_cluster", "placement"),
                                      ("bench_cluster", "repeat")])
def test_trial_drift(name, key):
    trials = baseline(name)["scenarios"][key]["trials"]
    msgs = check(name, scenarios={key: {"trials": trials + 1}})
    assert len(msgs) == 1
    assert msgs[0].startswith(
        f"{key}: trial count drifted {trials} -> {trials + 1}")


@pytest.mark.parametrize("name,key", [("bench_par", "figure"),
                                      ("bench_par", "cache"),
                                      ("bench_cluster", "repeat"),
                                      ("bench_obs", "telemetry"),
                                      ("bench_obs", "profiler")])
def test_digest_mismatch(name, key):
    msgs = check(name, scenarios={key: {"digest_match": False}})
    assert len(msgs) == 1 and msgs[0].startswith(f"{key}: ")
    assert "diverged" in msgs[0]


def test_failed_trials_fail_even_with_matching_digests():
    # A trial error that repeats in the pool gives equal digests.
    assert check("bench_par", scenarios={"fuzz": {"failures": 24},
                                         "figure": {"failures": 8}}) == [
        "figure: 8 trial(s) failed", "fuzz: 24 trial(s) failed"]
    assert check("bench_cluster", scenarios={"interplay": {"failures": 1}}) == [
        "interplay: 1 trial(s) failed"]


@pytest.mark.parametrize("name,key,field", [
    ("bench_par", "fuzz", "serial_wall_s"),
    ("bench_par", "figure", "parallel_wall_s"),
    ("bench_par", "cache", "warm_wall_s"),
    ("bench_cluster", "placement", "parallel_wall_s"),
    ("bench_cluster", "repeat", "second_wall_s"),
    ("bench_obs", "profiler", "on_wall_s"),
])
def test_wall_ceiling(name, key, field):
    ceiling = baseline(name)["scenarios"][key][field] * 2.0 + 0.25
    assert check(name, scenarios={key: {field: ceiling - 0.01}}) == []
    msgs = check(name, scenarios={key: {field: ceiling + 0.01}})
    assert len(msgs) == 1 and msgs[0].startswith(f"{key}: {field} ")
    assert "exceeds" in msgs[0]


def test_engine_wall_is_not_ceilinged():
    # Engine rows are gated on steps/s, not on their plain ``wall_s``.
    assert check("bench_engine",
                 scenarios={"fleet[scan]": {"wall_s": 100.0}}) == []


@pytest.mark.parametrize("key", ["fleet[incremental]", "churn[incremental]",
                                 "fleet[burstable]", "fleet[intent]"])
def test_throughput_floor(key):
    floor = baseline("bench_engine")["scenarios"][key]["steps_per_sec"] / 2.0
    assert check("bench_engine",
                 scenarios={key: {"steps_per_sec": floor + 1}}) == []
    msgs = check("bench_engine", scenarios={key: {"steps_per_sec": floor - 1}})
    assert len(msgs) == 1
    assert msgs[0].startswith(f"{key}: ") and "steps/s is below" in msgs[0]


def test_cold_cache():
    assert check("bench_par", scenarios={"cache": {"warm_hits": 23}}) == [
        "cache: warm pass hit 23/24 trials (cache stopped hitting)"]


def _speedups(value: float, *keys: str) -> dict:
    return {key: {"speedup": value} for key in keys}


@pytest.mark.parametrize("jobs,cpu_count,failing", [
    (4, 1, []), (4, 2, ["figure"]), (2, 8, ["figure"]),
    (4, 4, ["figure", "fuzz"]),
], ids=["1-core", "2-cores", "2-jobs-on-8-cpus", "4-cores"])
def test_par_speedup_floors(jobs, cpu_count, failing):
    cores = min(jobs, cpu_count)
    floor = 1.25 if cores >= 4 else 1.0
    below = check("bench_par", jobs=jobs, cpu_count=cpu_count,
                  scenarios=_speedups(floor - 0.01, "fuzz", "figure"))
    assert sorted(m.split(":")[0] for m in below) == failing
    for msg in below:
        assert f"below {floor:g}x with {cores} effective cores" in msg
    assert check("bench_par", jobs=jobs, cpu_count=cpu_count,
                 scenarios=_speedups(floor, "fuzz", "figure")) == []


@pytest.mark.parametrize("cpu_count,failing", [
    (1, []), (2, []), (4, ["interplay", "placement"]),
], ids=["1-core", "2-cores", "4-cores"])
def test_cluster_speedup_floor(cpu_count, failing):
    keys = ("placement", "interplay")
    slow_serial = {key: {"serial_wall_s": 1.0} for key in keys}
    below = check("bench_cluster", cpu_count=cpu_count,
                  base_scenarios=slow_serial, scenarios=_speedups(1.2, *keys))
    assert sorted(m.split(":")[0] for m in below) == failing
    for msg in below:
        assert "speedup 1.20x below 1.25x with 4 effective cores" in msg
    assert check("bench_cluster", cpu_count=cpu_count,
                 base_scenarios=slow_serial,
                 scenarios=_speedups(1.25, *keys)) == []


def test_cluster_speedup_floor_needs_a_slow_serial_baseline():
    # The committed quick baseline's serial sweeps are well under 1 s.
    assert check("bench_cluster", cpu_count=4,
                 scenarios=_speedups(0.5, "placement", "interplay")) == []


def test_obs_budget():
    off = baseline("bench_obs")["scenarios"]["telemetry"]["off_wall_s"]
    budget = off * 1.05 + 0.10
    assert check("bench_obs",
                 scenarios={"telemetry": {"on_wall_s": budget - 0.001}}) == []
    msgs = check("bench_obs",
                 scenarios={"telemetry": {"on_wall_s": budget + 0.001}})
    assert len(msgs) == 1
    assert msgs[0].startswith("telemetry: on ") and "exceeds budget" in msgs[0]


def test_short_records_streamed():
    assert check("bench_obs", scenarios={"telemetry": {"records_streamed": 13}}) == [
        "telemetry: only 13 of 14 epoch records reached the stream"]


def test_unknown_benchmark(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown benchmark 'bench_nope'"):
        checker.baseline_path("bench_nope")
    payload = tmp_path / "now.json"
    payload.write_text(json.dumps({"benchmark": "bench_nope", "quick": True,
                                   "scenarios": {}}))
    assert checker.main([str(payload)]) == 1
    assert "FAIL unknown benchmark 'bench_nope'" in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys):
    payload = tmp_path / "now.json"
    current = baseline("bench_par")
    payload.write_text(json.dumps(current))
    assert checker.main([str(payload)]) == 0
    assert capsys.readouterr().out == "bench_par within bounds of BENCH_par.json\n"
    current["scenarios"]["fuzz"]["failures"] = 2
    payload.write_text(json.dumps(current))
    assert checker.main([str(payload)]) == 1
    assert capsys.readouterr().err == "FAIL fuzz: 2 trial(s) failed\n"


@pytest.mark.parametrize("argv", [
    [], ["a.json", "b.json"], ["a.json", "--baseline", "b.json"],
], ids=["none", "two", "an-option"])
def test_takes_exactly_one_positional_argument(argv):
    with pytest.raises(SystemExit):
        checker.main(argv)
