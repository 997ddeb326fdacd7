"""Observability layer: pressure accounting, exporters, fleet telemetry.

``repro.obs`` sits beside the kernel rather than above it: the
scheduler and memory manager accrue PSI-style stall time into
:class:`~repro.obs.pressure.CgroupPressure` objects hanging off every
cgroup, ``CgroupFs`` renders them as Linux-format ``cpu.pressure`` /
``memory.pressure`` files, and the exporters here turn a run's
telemetry (recorder series, histograms, trace events/spans, pressure)
into Prometheus text or round-trippable JSONL.

On top of the single-host surface, :mod:`repro.obs.fleet` streams
cluster-wide rollups (per-host collectors merged into exact fleet
histograms, bounded ring series, and an incremental JSONL stream) and
:mod:`repro.obs.profile` attributes the engine's own wall clock per
subsystem — both strictly passive with respect to the simulation.
"""

from repro.obs.export import (JsonlStreamWriter, TelemetryDump, jsonl_export,
                              jsonl_import, prometheus_text)
from repro.obs.fleet import (FLEET_SERIES, FleetCollector, HostCollector,
                             RingSeries, format_epoch_line)
from repro.obs.pressure import PSI_WINDOWS, CgroupPressure, PressureStall
from repro.obs.profile import SUBSYSTEMS, EngineProfiler

__all__ = [
    "PSI_WINDOWS",
    "PressureStall",
    "CgroupPressure",
    "prometheus_text",
    "jsonl_export",
    "jsonl_import",
    "TelemetryDump",
    "JsonlStreamWriter",
    "FLEET_SERIES",
    "RingSeries",
    "HostCollector",
    "FleetCollector",
    "format_epoch_line",
    "SUBSYSTEMS",
    "EngineProfiler",
]
