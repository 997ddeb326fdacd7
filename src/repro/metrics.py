"""Time-series metrics collection for simulated runs.

A :class:`MetricsRecorder` samples world state on a periodic timer and
stores named series — per-container CPU rates, effective resources,
memory counters, host utilization — for post-run analysis or export.
This is the simulated analogue of scraping cAdvisor/Prometheus during a
testbed run.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World

__all__ = ["Series", "Histogram", "MetricsRecorder", "PER_DECADE"]

#: Histogram buckets per decade.
PER_DECADE = 5


@dataclass
class Series:
    """One named time series."""

    name: str
    times: list[float]
    values: list[float]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last(self) -> float:
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        return self.values[-1]

    def mean(self) -> float:
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        return sum(self.values) / len(self.values)

    def minimum(self) -> float:
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        return min(self.values)

    def maximum(self) -> float:
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        return max(self.values)

    def time_weighted_mean(self) -> float:
        """Mean weighted by the interval each sample covers."""
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        if len(self.values) == 1:
            return self.values[0]
        total = 0.0
        span = self.times[-1] - self.times[0]
        if span <= 0:
            return self.mean()
        for i in range(len(self.values) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        return total / span

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the sample values."""
        if not self.values:
            raise ReproError(f"series {self.name!r} is empty")
        # serve.latency owns the canonical nearest-rank implementation;
        # imported lazily because serve sits above metrics in the stack.
        from repro.serve.latency import percentile
        return percentile(self.values, q)


class Histogram:
    """Fixed log-spaced-bucket histogram (an HdrHistogram-lite).

    Buckets are :data:`PER_DECADE` geometrically-spaced upper bounds from
    ``lo`` to at least ``hi``, plus an underflow bucket ``(0, lo]``
    (bounds[0]) and an overflow bucket above the last bound.  Because
    the bucket layout is fixed at construction, merging, exporting, and
    comparing histograms across runs is exact, and memory stays O(1)
    however many samples stream in — unlike keeping raw sample lists.

    Quantiles are deterministic nearest-rank over bucket upper bounds
    (clamped to the observed max), so same-seed runs export identical
    values.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str, *, lo: float = 1e-4, hi: float = 1e3):
        if lo <= 0 or hi <= lo:
            raise ReproError(f"need 0 < lo < hi, got [{lo}, {hi}]")
        self.name = name
        n = math.ceil(math.log10(hi / lo) * PER_DECADE)
        self.bounds = [lo * 10.0 ** (i / PER_DECADE) for i in range(n + 1)]
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def record(self, value: float) -> None:
        if value < 0:
            raise ReproError(f"histogram {self.name!r}: negative value {value}")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    def record_many(self, values) -> None:
        """Record an iterable of values in one pass.

        Equivalent to calling :meth:`record` per value but with the
        per-call attribute traffic hoisted out of the loop — the fleet
        collector's per-epoch hot path.
        """
        counts, bounds = self.counts, self.bounds
        n = 0
        total = 0.0
        vmin, vmax = self.vmin, self.vmax
        for value in values:
            if value < 0:
                raise ReproError(
                    f"histogram {self.name!r}: negative value {value}")
            counts[bisect_left(bounds, value)] += 1
            n += 1
            total += value
            if value < vmin:
                vmin = value
            if value > vmax:
                vmax = value
        self.count += n
        self.total += total
        self.vmin = vmin
        self.vmax = vmax

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.bounds == other.bounds and self.counts == other.counts
                and self.total == other.total and self.vmin == other.vmin
                and self.vmax == other.vmax)

    def mean(self) -> float:
        if self.count == 0:
            raise ReproError(f"histogram {self.name!r} is empty")
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, reported as the bucket's upper bound."""
        if self.count == 0:
            raise ReproError(f"histogram {self.name!r} is empty")
        if not 0.0 < q <= 100.0:
            raise ReproError(f"quantile must be in (0, 100], got {q}")
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                bound = self.bounds[i] if i < len(self.bounds) else self.vmax
                return min(bound, self.vmax)
        raise AssertionError("unreachable: rank <= count")  # pragma: no cover

    @classmethod
    def like(cls, other: "Histogram", name: str) -> "Histogram":
        """An empty histogram sharing ``other``'s exact bucket layout.

        The fleet rollups build their cross-host accumulators this way
        so :meth:`merge` is always layout-compatible by construction.
        """
        hist = cls.__new__(cls)
        hist.name = name
        # Bounds are immutable once built; sharing the list makes the
        # merge-compatibility check an identity hit on the hot path.
        hist.bounds = other.bounds
        hist.counts = [0] * len(other.counts)
        hist.count = 0
        hist.total = 0.0
        hist.vmin = math.inf
        hist.vmax = -math.inf
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with the same bucket layout into this."""
        if self.bounds is not other.bounds and self.bounds != other.bounds:
            raise ReproError(
                f"cannot merge histograms with different bucket layouts "
                f"({self.name!r}, {other.name!r})")
        counts = self.counts
        for i, n in enumerate(other.counts):
            if n:
                counts[i] += n
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def to_dict(self) -> dict:
        """JSON-safe snapshot; inverse of :meth:`from_dict`."""
        return {"name": self.name, "bounds": list(self.bounds),
                "counts": list(self.counts), "count": self.count,
                "total": self.total,
                "min": self.vmin if self.count else None,
                "max": self.vmax if self.count else None}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls.__new__(cls)
        hist.name = data["name"]
        hist.bounds = list(data["bounds"])
        hist.counts = list(data["counts"])
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        hist.vmin = math.inf if data["min"] is None else float(data["min"])
        hist.vmax = -math.inf if data["max"] is None else float(data["max"])
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name!r} n={self.count}>"


class MetricsRecorder:
    """Samples registered probes on a fixed period.

    Built-in probe families can be attached per container
    (:meth:`watch_container`) or host-wide (:meth:`watch_host`); custom
    probes are any ``() -> float`` callable.
    """

    def __init__(self, world: "World", *, period: float = 0.1):
        if period <= 0:
            raise ReproError(f"metrics period must be positive, got {period}")
        self.world = world
        self.period = period
        self._probes: dict[str, Callable[[], float]] = {}
        self._series: dict[str, Series] = {}
        self._watched: dict[str, list[str]] = {}
        self._timer = None
        self.samples_taken = 0

    # -- probe registration -------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        if name in self._probes:
            raise ReproError(f"probe {name!r} already registered")
        if name in self._series:
            # A frozen series from an earlier watch/probe: clobbering it
            # here would silently discard recorded data.
            raise ReproError(
                f"series {name!r} already exists (frozen by an earlier "
                f"unwatch?); use watch_container(..., resume=True) to "
                f"append to it")
        self._probes[name] = fn
        self._series[name] = Series(name=name, times=[], values=[])

    def watch_container(self, container, *, resume: bool = False) -> None:
        """Attach the standard per-container probes.

        Re-watching a name that was previously watched and unwatched
        raises unless ``resume=True``, in which case sampling appends to
        the frozen series (with a gap over the unwatched stretch) — the
        churn-safe semantics for containers that restart under the same
        name.
        """
        name = container.name
        if name in self._watched:
            raise ReproError(f"container {name!r} already watched")
        cg = container.cgroup
        probes = {
            f"{name}.cpu_rate": lambda: cg.cpu_rate,
            f"{name}.e_cpu": lambda: float(container.e_cpu),
            f"{name}.e_mem": lambda: float(container.e_mem),
            f"{name}.mem_resident": lambda: float(cg.memory.resident),
            f"{name}.mem_swapped": lambda: float(cg.memory.swapped),
            f"{name}.runnable": lambda: float(cg.n_runnable()),
        }
        for probe_name, fn in probes.items():
            if resume and probe_name in self._series:
                if probe_name in self._probes:
                    raise ReproError(f"probe {probe_name!r} already registered")
                self._probes[probe_name] = fn
            else:
                self.add_probe(probe_name, fn)
        self._watched[name] = list(probes)

    def unwatch_container(self, name: str) -> None:
        """Stop sampling a container; its recorded series stay readable.

        Call this before (or right after) destroying a watched
        container: a destroyed container's probes do not fail, but they
        report host-wide fallback views that would silently pollute the
        series.  Unwatching freezes the series at its current length.
        """
        try:
            probe_names = self._watched.pop(name)
        except KeyError:
            raise ReproError(f"container {name!r} is not watched; have "
                             f"{sorted(self._watched)}") from None
        for probe_name in probe_names:
            self._probes.pop(probe_name, None)

    def watch_host(self) -> None:
        """Attach host-wide probes."""
        world = self.world
        self.add_probe("host.idle_capacity",
                       lambda: world.sched.idle_capacity())
        self.add_probe("host.free_memory", lambda: float(world.mm.free))
        self.add_probe("host.loadavg_1", lambda: world.loadavg.load_1)
        self.add_probe("host.runnable",
                       lambda: float(world.sched.n_runnable_total()))

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._timer is not None and self._timer.active:
            raise ReproError("metrics recorder already running")
        self._timer = self.world.events.call_every(self.period, self._sample,
                                                   name="metrics")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        now = self.world.clock.now
        self.samples_taken += 1
        for name, fn in self._probes.items():
            series = self._series[name]
            series.times.append(now)
            series.values.append(float(fn()))

    # -- access -----------------------------------------------------------------

    def series(self, name: str) -> Series:
        try:
            return self._series[name]
        except KeyError:
            raise ReproError(f"no series named {name!r}; have "
                             f"{sorted(self._series)}") from None

    def names(self) -> list[str]:
        return sorted(self._series)

    def summary(self) -> dict[str, dict[str, float]]:
        """min/mean/p50/p99/max/last for every non-empty series."""
        out = {}
        for name, s in sorted(self._series.items()):
            if len(s) == 0:
                continue
            out[name] = {"min": s.minimum(), "mean": s.mean(),
                         "p50": s.percentile(50.0), "p99": s.percentile(99.0),
                         "max": s.maximum(), "last": s.last}
        return out
