"""The byte-pin comparator and recording rule of the root ``conftest.py``.

Every byte pin of the repository goes through the ``pin`` fixture, so
these tests hold the report a moved pin prints and the rule that
records a missing one.
"""

from __future__ import annotations

import json
import math

import pytest


def _store(path, pins: dict) -> str:
    text = json.dumps({"comment": "c", "pins": pins}, indent=1,
                      sort_keys=True) + "\n"
    path.write_text(text)
    return text


class TestCompare:
    def test_equal_values_report_nothing(self, pin):
        value = {"a": ["1.0", {"b": "'x'"}], "c": [float("nan"), 2]}
        assert pin.compare(value, json.loads(json.dumps(value))) == ""

    def test_first_moved_leaf_its_path_and_the_count(self, pin):
        old = {"seed00": {"final": ["1.0", "2.0", "3.0"], "log": "'ok'"},
               "seed01": {"final": ["4.0"]}}
        new = {"seed00": {"final": ["1.0", "2.5", "4.5"], "log": "'ok'"},
               "seed01": {"final": ["4.0"]}}
        report = pin.compare(old, new)
        assert report.splitlines() == [
            '  seed00: 2 leaves moved; max relative drift 0.5 at seed00/final/2; '
            'first seed00/final/1: old "2.0" new "2.5"']

    def test_one_line_per_moved_key_then_the_whole_entry(self, pin):
        old = {f"k{i:02d}": str(float(i + 1)) for i in range(12)}
        new = {key: value + "1" for key, value in old.items()}
        lines = pin.compare(old, new).splitlines()
        assert len(lines) == 12
        assert lines[0].startswith("  k00: 1 leaf moved; max relative drift")
        assert lines[9].startswith("  k09: ")
        assert lines[10] == "  ... and 2 more keys"
        assert lines[11].startswith("  in all, 12 keys: 12 leaves moved; ")
        assert lines[11].endswith('first k00: old "1.0" new "1.01"')

    def test_key_added_and_removed(self, pin):
        report = pin.compare({"a": "1", "b": "'x'"}, {"a": "1", "c": "'x'"})
        assert report.splitlines()[:2] == [
            '  b: 1 leaf moved (1 not a number); first b: old "\'x\'" new absent',
            '  c: 1 leaf moved (1 not a number); first c: old absent new "\'x\'"']

    def test_list_length_changed(self, pin):
        old = {"t": [["title"], ["col"], ["1"], ["2"]]}
        longer = {"t": [["title"], ["col"], ["1"], ["2"], ["3"]]}
        assert pin.compare(old, longer).endswith(
            'first t/4: old absent new ["3"]')
        assert pin.compare(longer, old).endswith(
            'first t/4: old ["3"] new absent')

    def test_first_moved_number_comes_before_other_leaves(self, pin):
        old = {"s": {"h_sha256": "ab", "a": "1.0", "b": "2.0"}}
        new = {"s": {"h_sha256": "cd", "a": "1.0000000000000002", "b": "2.0"}}
        assert pin.compare(old, new) == (
            "  s: 2 leaves moved (1 not a number); max relative drift 2.22e-16 "
            'at s/a; first s/a: old "1.0" new "1.0000000000000002"')
        assert pin.compare({"h": "ab"}, {"h": "cd"}).endswith(
            'first h: old "ab" new "cd"')

    def test_relative_drift(self, pin):
        drift = pin.relative_drift
        assert drift("2.0", "2.5") == 0.25
        assert drift(4, 3) == 0.25
        assert drift("nan", "nan") == 0.0
        assert drift(math.nan, math.nan) == 0.0
        assert drift("0.0", "1e-300") == math.inf
        assert drift("0", "0") == 0.0
        assert drift("nan", "1.0") == math.inf
        assert drift("1.0", "inf") == math.inf
        assert drift("'a'", "'b'") == math.inf
        assert drift(True, False) == math.inf
        assert drift("1.0", None) == math.inf

    def test_nan_leaves_are_equal_but_types_are_not(self, pin):
        assert pin.compare([math.nan], [math.nan]) == ""
        assert pin.compare([1], [1.0]) != ""

    def test_cells_are_reprs_with_lists_for_tuples(self, pin):
        assert pin.cells({1: (0.1, "a", None), "b": [True]}) == {
            "1": ["0.1", "'a'", "None"], "b": ["True"]}


class TestRecording:
    def test_missing_entry_is_recorded_and_the_test_fails(self, pin, tmp_path):
        store = tmp_path / "pins.json"
        before = _store(store, {"a": {"x": ["1.5"]}, "c": {"y": "2"}})
        with pytest.raises(pytest.fail.Exception, match="b: no pin; recorded"):
            type(pin)("b")(store, {"z": (0.5, "q")})
        after = json.loads(store.read_text())
        assert after["pins"]["b"] == {"z": [0.5, "q"]}
        del after["pins"]["b"]
        assert json.dumps(after, indent=1, sort_keys=True) + "\n" == before
        assert store.read_text() == _store(tmp_path / "expected.json", {
            "a": {"x": ["1.5"]}, "b": {"z": [0.5, "q"]}, "c": {"y": "2"}})
        type(pin)("b")(store, {"z": (0.5, "q")})

    def test_missing_store_is_created(self, pin, tmp_path):
        store = tmp_path / "sub" / "pins.json"
        with pytest.raises(pytest.fail.Exception, match="no pin"):
            type(pin)("t")(store, {"v": "1"})
        assert json.loads(store.read_text()) == {"pins": {"t": {"v": "1"}}}

    def test_moved_entry_fails_with_the_report(self, pin, tmp_path):
        store = tmp_path / "pins.json"
        before = _store(store, {"t": {"seed00": {"v": "1.0"}}})
        with pytest.raises(pytest.fail.Exception) as info:
            type(pin)("t")(store, {"seed00": {"v": "1.5"}})
        assert str(info.value) == (
            "t moved off its pin in pins.json:\n"
            "  seed00: 1 leaf moved; max relative drift 0.5 at seed00/v; "
            'first seed00/v: old "1.0" new "1.5"')
        assert store.read_text() == before

    def test_jsonl_recorded_compared_and_reported(self, pin, tmp_path):
        path = tmp_path / "trace.jsonl"
        text = '{"t": 0.5, "k": "a"}\n{"t": 1.0, "k": "b"}\n'
        with pytest.raises(pytest.fail.Exception, match="no pin; recorded"):
            pin.jsonl(path, text)
        assert path.read_text() == text
        pin.jsonl(path, text)
        with pytest.raises(pytest.fail.Exception) as info:
            pin.jsonl(path, text.replace("1.0", "1.25"))
        assert str(info.value).endswith(
            "  line 2: 1 leaf moved; max relative drift 0.25 at line 2/t; "
            "first line 2/t: old 1.0 new 1.25")
        with pytest.raises(pytest.fail.Exception, match="only the text moved"):
            pin.jsonl(path, text.replace(", ", ","))
        assert path.read_text() == text
