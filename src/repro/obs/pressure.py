"""PSI-style pressure stall accounting.

Linux's Pressure Stall Information (PSI) reports, per resource, the
share of wall time in which *some* task was stalled waiting for the
resource and in which *all* non-idle tasks were stalled (``full``),
as decaying averages over 10/60/300-second windows plus an absolute
stall-time total.  This module is the simulator's analogue: pure
accumulators with no kernel dependencies, fed by the fluid scheduler
(CPU: runnable-but-unallocated demand, quota throttling) and the
memory subsystem (swap/reclaim slowdown), and rendered through
:class:`~repro.kernel.cgroupfs.CgroupFs` in the exact file format
Linux uses::

    some avg10=1.23 avg60=0.45 avg300=0.08 total=123456
    full avg10=0.00 avg60=0.00 avg300=0.00 total=0

Averages are percentages; ``total`` is microseconds of stall time.

Unlike the kernel's periodic 2-second averager, the simulator updates
the windowed averages with an exact exponential decay at every fluid
accrual step — deterministic for a given event sequence, so pressure
files are bit-identical across same-seed runs.

:meth:`PressureStall.advance` is the reference recurrence.  The fluid
scheduler's accrual step (:meth:`FairScheduler.advance
<repro.kernel.sched.fair.FairScheduler.advance>`) writes the same
arithmetic out inline for every busy group, sharing the window decays
across accumulators, and must stay bit-identical to calling
:meth:`PressureStall.maybe_advance` per accumulator; the root's
host-wide pair calls it directly.

Accumulators may be **clock-bound** (:meth:`PressureStall.bind_clock`):
a bound accumulator decays its averages lazily, on read, from the last
time it was touched — so a fleet of idle cgroups costs nothing per
simulation event, yet reads exactly what eager per-event decay would
have produced (``exp`` folds: ``exp(-a/W) * exp(-b/W) == exp(-(a+b)/W)``
up to one rounding, and the engine accrues idle stretches as single
intervals in both engine modes).  Unbound accumulators keep the eager
semantics.
"""

from __future__ import annotations

import math

from repro.errors import ReproError

__all__ = ["PSI_WINDOWS", "PressureStall", "CgroupPressure"]

#: The three PSI averaging windows, in seconds (avg10/avg60/avg300).
PSI_WINDOWS = (10.0, 60.0, 300.0)


class PressureStall:
    """One resource's some/full stall accumulator.

    ``advance(dt, some_frac, full_frac)`` accrues ``dt`` seconds of wall
    time during which the given fractions of time were stalled; the
    windowed averages follow the exact EMA recurrence
    ``avg' = avg * exp(-dt/W) + frac * (1 - exp(-dt/W))``, which is the
    continuous-time limit of the kernel's periodic decay.
    """

    __slots__ = ("some_total", "full_total", "_some_avg", "_full_avg",
                 "_clock", "_synced")

    def __init__(self) -> None:
        self.some_total = 0.0          # stall seconds, some task stalled
        self.full_total = 0.0          # stall seconds, all tasks stalled
        self._some_avg = [0.0] * len(PSI_WINDOWS)
        self._full_avg = [0.0] * len(PSI_WINDOWS)
        self._clock = None             # set by bind_clock for lazy decay
        self._synced = 0.0             # sim time the averages are decayed to

    def bind_clock(self, clock) -> None:
        """Switch to lazy decay against ``clock`` (anything with ``.now``)."""
        self._clock = clock
        self._synced = clock.now

    def _sync(self, gap_decays: dict | None = None) -> None:
        """Decay the averages over the untouched stretch since last sync.

        ``gap_decays`` maps a stretch length to its three window decays;
        a caller syncing many accumulators at one clock reading passes
        one dict, so ``exp`` runs once per distinct stretch.  Equal
        stretches have equal decays, so sharing them changes no bit.
        """
        if self._clock is None:
            return
        dt = self._clock.now - self._synced
        if dt <= 0.0:
            return
        self._synced = self._clock.now
        decays = gap_decays.get(dt) if gap_decays is not None else None
        if decays is None:
            decays = tuple([math.exp(-dt / window) for window in PSI_WINDOWS])
            if gap_decays is not None:
                gap_decays[dt] = decays
        for i, decay in enumerate(decays):
            self._some_avg[i] *= decay
            self._full_avg[i] *= decay

    def advance(self, dt: float, some_frac: float, full_frac: float) -> None:
        """Accrue ``dt`` seconds at the given stall fractions."""
        if dt <= 0.0:
            return
        self._sync()
        some = min(1.0, max(0.0, some_frac))
        # full can never exceed some: all-stalled implies some-stalled.
        full = min(some, max(0.0, full_frac))
        self.some_total += some * dt
        self.full_total += full * dt
        for i, window in enumerate(PSI_WINDOWS):
            decay = math.exp(-dt / window)
            self._some_avg[i] = self._some_avg[i] * decay + some * (1.0 - decay)
            self._full_avg[i] = self._full_avg[i] * decay + full * (1.0 - decay)
        if self._clock is not None:
            # The caller is accruing [now, now + dt] ahead of the clock
            # tick (the scheduler integrates before the jump lands).
            self._synced = self._clock.now + dt

    def maybe_advance(self, dt: float, some_frac: float, full_frac: float) -> None:
        """Accrue, skipping the call entirely when it would only decay.

        A zero-stall interval adds nothing to the totals and only decays
        the averages — which a clock-bound accumulator already does
        lazily on the next read.  This keeps idle/uncontended groups off
        the per-event hot path.  Unbound accumulators always advance
        eagerly (they have no other way to decay).
        """
        if self._clock is not None and some_frac == 0.0 and full_frac == 0.0:
            return
        self.advance(dt, some_frac, full_frac)

    def avg(self, kind: str, window: float) -> float:
        """Windowed stall-time fraction in [0, 1] (not percent)."""
        if kind not in ("some", "full"):
            raise ReproError(f"pressure kind must be 'some' or 'full', "
                             f"got {kind!r}")
        try:
            i = PSI_WINDOWS.index(float(window))
        except ValueError:
            raise ReproError(f"pressure window must be one of {PSI_WINDOWS}, "
                             f"got {window}") from None
        self._sync()
        return (self._some_avg if kind == "some" else self._full_avg)[i]

    def total(self, kind: str) -> float:
        """Absolute stall time in seconds."""
        if kind == "some":
            return self.some_total
        if kind == "full":
            return self.full_total
        raise ReproError(f"pressure kind must be 'some' or 'full', got {kind!r}")

    def format(self) -> str:
        """The Linux pressure-file rendering (``some``/``full`` lines)."""
        self._sync()
        lines = []
        for kind, avgs, total in (("some", self._some_avg, self.some_total),
                                  ("full", self._full_avg, self.full_total)):
            parts = " ".join(
                f"avg{int(w)}={avgs[i] * 100.0:.2f}"
                for i, w in enumerate(PSI_WINDOWS))
            lines.append(f"{kind} {parts} total={int(total * 1e6)}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PressureStall some={self.some_total:.3f}s "
                f"full={self.full_total:.3f}s>")


class CgroupPressure:
    """The per-cgroup (or host-wide, on the root cgroup) pressure pair."""

    __slots__ = ("cpu", "memory")

    def __init__(self) -> None:
        self.cpu = PressureStall()
        self.memory = PressureStall()

    def bind_clock(self, clock) -> None:
        """Bind both accumulators to a clock for lazy (on-read) decay."""
        self.cpu.bind_clock(clock)
        self.memory.bind_clock(clock)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Flat snapshot used by the exporters (fractions, not percent)."""
        out: dict[str, dict[str, float]] = {}
        for resource in ("cpu", "memory"):
            stall: PressureStall = getattr(self, resource)
            entry: dict[str, float] = {}
            for kind in ("some", "full"):
                entry[f"{kind}_total"] = stall.total(kind)
                for window in PSI_WINDOWS:
                    entry[f"{kind}_avg{int(window)}"] = stall.avg(kind, window)
            out[resource] = entry
        return out
