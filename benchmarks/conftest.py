"""Shared figure-test configuration.

Each ``bench_figXX.py`` (and ``bench_ablation.py``, ``bench_serve.py``,
``bench_exp_cluster.py``, ``bench_exp_policy.py``) asserts the shape
of one experiment's tables at the scale ``python -m repro run --quick``
prints: the ``pinned`` fixture builds them with
``run_experiment(key, quick=True)``, so the tests, the quick sweep and
the pins share one parameter set (``run_all._QUICK_KWARGS``).

The ``pinned`` fixture also pins every table byte for byte against
``figure_digests.json`` through the repository's ``pin`` fixture (the
root ``conftest.py``): the exact ``repr`` of each cell, keyed by test
name.  The shape assertions of the figure tests are loose on purpose;
the pins catch any change that moves one bit of a figure.  A mismatch
names the first differing cell as ``tables/<table>/<row>/<column>``
(row 0 is the title, row 1 the column names) and the largest relative
drift.  The re-pin procedure is in the ``pin``
fixture's docstring.  ``bench_engine.py`` pins the engine's step counts
into the same store, through ``pin`` directly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.results import ResultTable
from repro.harness.run_all import run_experiment

PINS = Path(__file__).with_name("figure_digests.json")


def table_cells(table: ResultTable) -> list[list[str]]:
    """The table as exact reprs: its title, its columns, then its rows."""
    return [[table.title], list(table.columns),
            *([repr(row[c]) for c in table.columns] for row in table.rows)]


@pytest.fixture
def pinned(pin):
    """``pinned(key)``: the experiment's quick-scale result, its tables pinned."""
    def _run(key: str):
        result = run_experiment(key, quick=True)
        pin(PINS, {"experiment": result.experiment,
                   "tables": {name: table_cells(t)
                              for name, t in result.tables.items()}})
        return result
    return _run
