"""Shared figure-test configuration.

Each ``bench_figXX.py`` (and ``bench_ablation.py``, ``bench_serve.py``,
``bench_exp_cluster.py``, ``bench_exp_policy.py``) asserts the shape
of one experiment's tables at the scale ``python -m repro run --quick``
prints: the ``pinned`` fixture builds them with
``run_experiment(key, quick=True)``, so the tests, the quick sweep and
the pins share one parameter set (``run_all._QUICK_KWARGS``).

The ``pinned`` fixture also pins every table byte for byte against
``figure_digests.json``: the exact ``repr`` of each cell, keyed by test
name.  The shape assertions of the figure tests are loose on purpose;
the pins catch any change that moves one bit of a figure.  A mismatch
names the experiment, the table, the first differing cell and the
table's largest relative drift.  To re-pin on purpose, delete the
test's entry from the JSON and run the test once: it records the new
tables and fails, so the new pin is always reviewed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.harness.results import ResultTable
from repro.harness.run_all import run_experiment

PINS = Path(__file__).with_name("figure_digests.json")


def table_cells(table: ResultTable) -> list[list[str]]:
    """The table as exact reprs: its title, its columns, then its rows."""
    return [[table.title], list(table.columns),
            *([repr(row[c]) for c in table.columns] for row in table.rows)]


def _relative_drift(old: str, new: str) -> float:
    """|new - old| / |old| for two float reprs; inf if either is not one."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def _table_mismatch(name: str, old: list[list[str]],
                    cells: list[list[str]]) -> str:
    lines = [f"{name}:"]
    if len(old) != len(cells) or old[:2] != cells[:2]:
        lines.append(f"  shape changed: title {old[0][0]!r} -> {cells[0][0]!r}, "
                     f"{len(old) - 2} -> {len(cells) - 2} rows, "
                     f"columns {old[1]} -> {cells[1]}")
        return "\n".join(lines)
    columns = cells[1]
    diffs = [(i - 2, col, a, b)
             for i, (old_row, new_row) in enumerate(zip(old, cells))
             for col, a, b in zip(columns, old_row, new_row) if a != b]
    row, col, a, b = diffs[0]
    drift = max(_relative_drift(a, b) for *_, a, b in diffs)
    lines.append(f"  first differing cell: row {row} column {col!r}: "
                 f"old {a} new {b}")
    lines.append(f"  {len(diffs)} cells differ; max relative drift {drift:.3g}")
    return "\n".join(lines)


def check_pins(test_name: str, experiment: str,
               tables: dict[str, ResultTable]) -> None:
    """Assert ``tables`` against the test's pin, or record a missing pin."""
    cells = {key: table_cells(t) for key, t in tables.items()}
    data = json.loads(PINS.read_text())
    pin = data["pins"].get(test_name)
    if pin is None:
        data["pins"][test_name] = {"experiment": experiment, "tables": cells}
        PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        pytest.fail(f"{test_name}: no pin; recorded one in {PINS.name} "
                    f"(review and commit it)", pytrace=False)
    pinned = pin["tables"]
    errors = [f"{key}: table added" for key in cells if key not in pinned]
    errors += [f"{key}: table removed" for key in pinned if key not in cells]
    errors += [_table_mismatch(key, pinned[key], cells[key])
               for key in cells if key in pinned and pinned[key] != cells[key]]
    if errors:
        pytest.fail(f"{experiment} ({test_name}) moved off its figure pin:\n"
                    + "\n".join(errors), pytrace=False)


@pytest.fixture
def pinned(request):
    """``pinned(key)``: the experiment's quick-scale result, its tables pinned."""
    def _run(key: str):
        result = run_experiment(key, quick=True)
        check_pins(request.node.name, result.experiment, result.tables)
        return result
    return _run
