"""Byte pins: one store format, one recording rule, one comparator.

A pin is a value recorded once and compared exactly on every later run.
The ``pin`` fixture holds every byte pin of the repository:

* ``pin(store, entry)`` pins ``entry`` as the calling test's entry in a
  JSON store (``benchmarks/figure_digests.json``,
  ``tests/golden/pins.json``): ``{"comment": ..., "pins": {test name:
  entry}}``, written with ``json.dumps(indent=1, sort_keys=True)``.
  Each value is a leaf of its own line.  A pinned number or other
  value is stored as its ``repr`` (see :func:`cells`), so a float
  keeps every bit and a diff of the store shows the numbers that
  moved.  Strings that name rather than measure are stored as they
  are, unquoted: hashes and digest strings (``trace_digest``,
  ``*_sha256``), figure titles, column names and experiment names.
  A digest inside a value passed through :func:`cells` (a seed's
  ``log``, a ``snapshot``) is a repr, quoted, like its neighbours.
  A hash may stand in for a trail too long to store; its key names the
  one scenario and the one trail it covers (``epochs_sha256``).
* ``pin.jsonl(path, text)`` pins a JSON-lines file byte for byte
  (``tests/golden/engine_trace.jsonl``).  On a mismatch both texts are
  parsed line by line and compared the same way.

The recording rule: a missing entry (or file) is written and the test
fails, so a new pin is always reviewed.  The comparator: a mismatch
names, for each top-level key that moved (a scenario, a line), how many
leaves moved, the largest relative drift among the numbers and where it
is, and the first number that moved (the first leaf, if no number
moved); then, if more than one key moved, the same for the whole
entry.

**Re-pinning on purpose:** delete the test's entry from its store (or
the JSON-lines file), run the test once so it records the new value and
fails, then run it again and commit the store.  Give the reason, and
the drift the old pin's failure report printed, in CHANGES.md.

Only the standard library and pytest are imported here: this file is
loaded for every test under the repository, including ones run without
the package on the path (``perfbench/test_measure.py``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NoReturn

import pytest

#: Top-level keys listed one by one in a mismatch report.
MAX_LISTED = 10

_ABSENT = object()


def cells(value):
    """``value`` with every leaf replaced by its ``repr``; tuples become lists."""
    if isinstance(value, dict):
        return {str(key): cells(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [cells(v) for v in value]
    return repr(value)


def _number(leaf) -> float | None:
    if isinstance(leaf, bool):
        return None
    if isinstance(leaf, (int, float)):
        return float(leaf)
    if isinstance(leaf, str):
        try:
            return float(leaf)
        except ValueError:
            return None
    return None


def relative_drift(old, new) -> float:
    """``|new - old| / |old|`` of two numbers or number reprs.

    NaN equals NaN; an old 0 gives inf, and so do a NaN or an infinity
    against anything else and a leaf that is not a number.
    """
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (a and math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _moved_leaves(old, new, path=()):
    """Yield ``(path, old, new)`` for each leaf that differs, in ``old``'s order.

    A key or list item present on one side only is one moved leaf whose
    other side is absent.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from _moved_leaves(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                     (*path, key))
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _moved_leaves(old[i] if i < len(old) else _ABSENT,
                                     new[i] if i < len(new) else _ABSENT,
                                     (*path, i))
    elif not _same(old, new):
        yield path, old, new


def _show(leaf) -> str:
    text = "absent" if leaf is _ABSENT else json.dumps(leaf)
    return text if len(text) <= 80 else text[:77] + "..."


def _count(n: int, one: str, many: str) -> str:
    return f"{n} {one if n == 1 else many}"


def _is_number_pair(a, b) -> bool:
    return _number(a) is not None and _number(b) is not None


def _summary(moved: list) -> str:
    """Count, largest drift and first moved number (else first leaf)."""
    drifts = [(relative_drift(a, b), path) for path, a, b in moved
              if _is_number_pair(a, b)]
    text = f"{_count(len(moved), 'leaf', 'leaves')} moved"
    if len(drifts) < len(moved):
        text += f" ({_count(len(moved) - len(drifts), 'not a number', 'not numbers')})"
    if drifts:
        drift, at = max(drifts, key=lambda d: d[0])
        text += f"; max relative drift {drift:.3g} at {'/'.join(map(str, at))}"
    path, a, b = next((m for m in moved if _is_number_pair(*m[1:])), moved[0])
    return (f"{text}; first {'/'.join(map(str, path))}: "
            f"old {_show(a)} new {_show(b)}")


def compare(old, new) -> str:
    """The mismatch report of ``new`` against the pinned ``old``; "" if equal."""
    moved = list(_moved_leaves(old, new))
    if not moved:
        return ""
    groups: dict = {}
    for leaf in moved:
        groups.setdefault(leaf[0][0] if leaf[0] else "", []).append(leaf)
    lines = [f"  {key}: {_summary(leaves)}"
             for key, leaves in list(groups.items())[:MAX_LISTED]]
    if len(groups) > MAX_LISTED:
        lines.append(f"  ... and {len(groups) - MAX_LISTED} more keys")
    if len(groups) > 1:
        lines.append(f"  in all, {len(groups)} keys: {_summary(moved)}")
    return "\n".join(lines)


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _jsonl_values(text: str) -> dict:
    return {f"line {i}": json.loads(line)
            for i, line in enumerate(text.splitlines(), 1)}


class Pin:
    """The ``pin`` fixture's value, bound to the requesting test's name."""

    cells = staticmethod(cells)
    compare = staticmethod(compare)
    relative_drift = staticmethod(relative_drift)

    def __init__(self, name: str):
        self.name = name

    def _record(self, path: Path, text: str) -> NoReturn:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.fail(f"{self.name}: no pin; recorded one in {path.name} "
                    f"(review and commit it)", pytrace=False)

    def _fail(self, path: Path, report: str) -> NoReturn:
        pytest.fail(f"{self.name} moved off its pin in {path.name}:\n{report}",
                    pytrace=False)

    def __call__(self, store: Path, entry) -> None:
        """Assert ``entry`` equals this test's entry in ``store``."""
        entry = json.loads(json.dumps(entry))  # as stored: tuples are lists
        data = json.loads(store.read_text()) if store.exists() else {"pins": {}}
        old = data["pins"].get(self.name)
        if old is None:
            data["pins"][self.name] = entry
            self._record(store, _dump(data))
        report = compare(old, entry)
        if report:
            self._fail(store, report)

    def jsonl(self, path: Path, text: str) -> None:
        """Assert ``text`` equals the JSON-lines file at ``path`` byte for byte."""
        if not path.exists():
            self._record(path, text)
        old = path.read_text()
        if old != text:
            self._fail(path, compare(_jsonl_values(old), _jsonl_values(text))
                       or "  every parsed value is equal; only the text moved")


@pytest.fixture
def pin(request) -> Pin:
    """Byte pins keyed by the test's name; see this module's docstring."""
    return Pin(request.node.name)
