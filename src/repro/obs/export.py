"""Telemetry exporters: Prometheus text format and JSONL.

Two complementary dumps of a run's observability state — the
:class:`~repro.metrics.MetricsRecorder` series, streaming
:class:`~repro.metrics.Histogram` distributions, the
:class:`~repro.tracelog.TraceLog` events and spans, and the per-cgroup
PSI pressure accumulators:

* :func:`prometheus_text` renders the *current* state in the Prometheus
  exposition format (what a scrape at end-of-run would return);
* :func:`jsonl_export` serializes the *complete* telemetry — every
  sample of every series, every event and span — one JSON object per
  line, and :func:`jsonl_import` reloads it into typed objects.

Both are deterministic for a given run: entries are emitted in sorted
name/path order and JSON keys are sorted, so same-seed runs produce
byte-identical exports, and ``jsonl_import(text).to_jsonl() == text``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING

from repro.errors import ReproError
from repro.metrics import Histogram, MetricsRecorder, Series
from repro.obs.pressure import PSI_WINDOWS
from repro.tracelog import TraceEvent, TraceLog, TraceSpan

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World

__all__ = ["prometheus_text", "jsonl_export", "jsonl_import",
           "TelemetryDump", "JsonlStreamWriter", "BUFFER_RECORDS"]

#: Records a :class:`JsonlStreamWriter` buffers before it spills them.
BUFFER_RECORDS = 256

_UNSAFE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(prefix: str, name: str) -> str:
    return f"{prefix}_{_UNSAFE.sub('_', name)}"


def _fmt(value: float) -> str:
    """Prometheus sample-value rendering (repr-exact for floats)."""
    if value != value:  # pragma: no cover - NaN guard
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(recorder: MetricsRecorder | None = None, *,
                    histograms: dict[str, Histogram] | None = None,
                    tracelog: TraceLog | None = None,
                    world: "World | None" = None,
                    prefix: str = "repro") -> str:
    """Render telemetry in the Prometheus text exposition format.

    Series export their last sample as a gauge; histograms export the
    classic ``_bucket{le=...}/_sum/_count`` family; the trace log
    exports per-category event counts and span-duration sums; a world
    exports per-cgroup PSI pressure and throttling counters.
    """
    lines: list[str] = []
    if recorder is not None:
        gauge = f"{prefix}_series"
        lines.append(f"# HELP {gauge} Last sample of each recorder series.")
        lines.append(f"# TYPE {gauge} gauge")
        for name in recorder.names():
            series = recorder.series(name)
            if len(series) == 0:
                continue
            lines.append(f'{gauge}{{name="{name}"}} {_fmt(series.last)}')
    for hist_name in sorted(histograms or {}):
        hist = histograms[hist_name]
        base = _metric_name(prefix, hist_name)
        lines.append(f"# TYPE {base} histogram")
        cumulative = 0
        for i, count in enumerate(hist.counts):
            cumulative += count
            le = (_fmt(hist.bounds[i]) if i < len(hist.bounds) else "+Inf")
            lines.append(f'{base}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{base}_sum {_fmt(hist.total)}")
        lines.append(f"{base}_count {hist.count}")
    if tracelog is not None:
        events = f"{prefix}_trace_events_total"
        lines.append(f"# TYPE {events} counter")
        for category in sorted(tracelog.categories()):
            lines.append(f'{events}{{category="{category}"}} '
                         f"{tracelog.count(category)}")
        span_sum = f"{prefix}_span_seconds"
        lines.append(f"# TYPE {span_sum} summary")
        by_cat: dict[str, list[float]] = {}
        for span in tracelog.spans():
            by_cat.setdefault(span.category, []).append(span.duration)
        for category in sorted(by_cat):
            durations = by_cat[category]
            lines.append(f'{span_sum}_sum{{category="{category}"}} '
                         f"{_fmt(sum(durations))}")
            lines.append(f'{span_sum}_count{{category="{category}"}} '
                         f"{len(durations)}")
    if world is not None:
        stall = f"{prefix}_pressure_stall_seconds_total"
        avg = f"{prefix}_pressure_avg"
        throttled = f"{prefix}_cpu_throttled_seconds_total"
        nr = f"{prefix}_cpu_nr_throttled"
        lines.append(f"# HELP {stall} PSI stall time (root cgroup = host).")
        lines.append(f"# TYPE {stall} counter")
        lines.append(f"# TYPE {avg} gauge")
        cgroups = sorted(world.cgroups.walk(), key=lambda cg: cg.path)
        for cg in cgroups:
            for resource in ("cpu", "memory"):
                psi = getattr(cg.pressure, resource)
                for kind in ("some", "full"):
                    labels = (f'cgroup="{cg.path}",resource="{resource}",'
                              f'kind="{kind}"')
                    lines.append(f"{stall}{{{labels}}} "
                                 f"{_fmt(psi.total(kind))}")
                    for window in PSI_WINDOWS:
                        lines.append(
                            f'{avg}{{{labels},window="{int(window)}"}} '
                            f"{_fmt(psi.avg(kind, window))}")
        lines.append(f"# TYPE {throttled} counter")
        for cg in cgroups:
            if cg.throttled_wall > 0.0:
                lines.append(f'{throttled}{{cgroup="{cg.path}"}} '
                             f"{_fmt(cg.throttled_time)}")
                lines.append(f'{nr}{{cgroup="{cg.path}"}} {cg.nr_throttled}')
    return "\n".join(lines) + "\n"


# -- JSONL ------------------------------------------------------------------


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, default=str)


@dataclass
class TelemetryDump:
    """A reloaded JSONL export, as typed objects plus the raw records.

    ``to_jsonl()`` re-emits the raw records verbatim, so a loaded dump
    round-trips byte-identically: ``jsonl_import(t).to_jsonl() == t``.
    """

    records: list[dict] = field(default_factory=list)
    series: dict[str, Series] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    spans: list[TraceSpan] = field(default_factory=list)
    pressure: dict[str, dict] = field(default_factory=dict)
    #: Streamed per-epoch fleet rollups (kind="fleet_epoch"), in order.
    fleet_epochs: list[dict] = field(default_factory=list)
    #: Engine profiler reports (kind="profile"), in order.
    profiles: list[dict] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "".join(_dump_line(r) + "\n" for r in self.records)


def jsonl_export(recorder: MetricsRecorder | None = None, *,
                 histograms: dict[str, Histogram] | None = None,
                 tracelog: TraceLog | None = None,
                 world: "World | None" = None) -> str:
    """Serialize complete telemetry as JSONL (one object per line).

    Every record carries a ``kind`` discriminator (``series``,
    ``histogram``, ``event``, ``span``, ``pressure``); keys are sorted
    and entries ordered by name/path/time, so the export is
    deterministic per seed.
    """
    records: list[dict] = []
    if recorder is not None:
        for name in recorder.names():
            series = recorder.series(name)
            records.append({"kind": "series", "name": name,
                            "times": list(series.times),
                            "values": list(series.values)})
    for hist_name in sorted(histograms or {}):
        records.append({"kind": "histogram",
                        **histograms[hist_name].to_dict()})
    if tracelog is not None:
        for event in tracelog.events():
            records.append({"kind": "event", "time": event.time,
                            "category": event.category,
                            "message": event.message,
                            "fields": event.fields})
        for span in tracelog.spans(include_open=True):
            records.append({"kind": "span", "id": span.span_id,
                            "category": span.category,
                            "message": span.message, "start": span.start,
                            "end": span.end, "fields": span.fields})
    if world is not None:
        for cg in sorted(world.cgroups.walk(), key=lambda c: c.path):
            records.append({"kind": "pressure", "cgroup": cg.path,
                            **cg.pressure.as_dict()})
    return "".join(_dump_line(r) + "\n" for r in records)


def jsonl_import(text: str) -> TelemetryDump:
    """Reload a :func:`jsonl_export` dump into typed telemetry objects."""
    dump = TelemetryDump()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"bad JSONL at line {lineno}: {exc}") from None
        kind = record.get("kind")
        if kind == "series":
            dump.series[record["name"]] = Series(
                name=record["name"], times=list(record["times"]),
                values=list(record["values"]))
        elif kind == "histogram":
            dump.histograms[record["name"]] = Histogram.from_dict(record)
        elif kind == "event":
            dump.events.append(TraceEvent(
                time=record["time"], category=record["category"],
                message=record["message"],
                fields=dict(record.get("fields") or {})))
        elif kind == "span":
            dump.spans.append(TraceSpan(
                span_id=record["id"], category=record["category"],
                message=record["message"], start=record["start"],
                end=record["end"], fields=dict(record.get("fields") or {})))
        elif kind == "pressure":
            dump.pressure[record["cgroup"]] = {
                "cpu": record["cpu"], "memory": record["memory"]}
        elif kind == "fleet_epoch":
            dump.fleet_epochs.append(record)
        elif kind == "profile":
            dump.profiles.append(record)
        else:
            raise ReproError(f"unknown telemetry record kind {kind!r} "
                             f"at line {lineno}")
        dump.records.append(record)
    return dump


# -- streaming --------------------------------------------------------------


class JsonlStreamWriter:
    """Incremental JSONL telemetry sink with a durability contract.

    Records buffer in memory and spill to the underlying file every
    :data:`BUFFER_RECORDS` writes; leaving the writer as a context manager
    (or calling :meth:`close`) flushes the tail and ``fsync``\\ s the
    file, so an interrupted run keeps every record up to the last write
    instead of silently truncating at an OS buffer boundary.

    Fleet collectors stream their epoch rows through
    :meth:`write_record` and histogram snapshots through
    :meth:`export_histograms` as a run progresses.
    """

    def __init__(self, path_or_file: "str | os.PathLike | IO[str]"):
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file  # type: ignore[assignment]
            self._owns_fh = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns_fh = True
        self._buffer: list[str] = []
        self.records_written = 0
        self.flushes = 0
        self.closed = False

    # -- core -------------------------------------------------------------

    def write_record(self, record: dict) -> None:
        """Queue one JSON record; spills at the buffer watermark."""
        if self.closed:
            raise ReproError("write_record on a closed JsonlStreamWriter")
        self._buffer.append(_dump_line(record) + "\n")
        self.records_written += 1
        if len(self._buffer) >= BUFFER_RECORDS:
            self.flush()

    def flush(self, *, sync: bool = False) -> None:
        """Drain the buffer to the file; ``sync=True`` also fsyncs."""
        if self._buffer:
            self._fh.write("".join(self._buffer))
            self._buffer.clear()
            self.flushes += 1
        self._fh.flush()
        if sync:
            try:
                os.fsync(self._fh.fileno())
            except (OSError, ValueError, AttributeError):
                pass  # in-memory sinks (StringIO) have no fd to sync

    def close(self) -> None:
        """Flush, fsync, and (for paths we opened) close the file."""
        if self.closed:
            return
        self.flush(sync=True)
        if self._owns_fh:
            self._fh.close()
        self.closed = True

    def __enter__(self) -> "JsonlStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def export_histograms(self, histograms: dict[str, Histogram]) -> int:
        """Stream a snapshot of each histogram (latest supersedes)."""
        for name in sorted(histograms):
            self.write_record({"kind": "histogram",
                               **histograms[name].to_dict()})
        return len(histograms)
