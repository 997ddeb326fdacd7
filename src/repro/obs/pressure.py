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

Unlike the kernel's periodic 2-second averager, the simulator folds
the windowed averages with an exact exponential decay whenever a
group's stall fractions change — deterministic for a given event
sequence, so pressure files are bit-identical across same-seed runs.

Every accumulator fed by the fluid scheduler is **clock-bound**
(:meth:`PressureStall.bind_clock`) and holds the stall fractions in
force since the instant its averages were last stored
(``some_rate``/``full_rate`` next to ``_synced``).  Over a stretch
``T`` at fixed fraction ``f`` each window's average has the closed form
``avg·d + f·(1 − d)`` with ``d = exp(−T/W)``, so the averages are
folded only when the fractions change (:meth:`PressureStall.restall`):
the scheduler restalls a group's pair when it publishes a row whose
stall differs, and zeroes it when the group goes idle — idle decay is
the ``f = 0`` case of the same fold.  Stall totals are exact integrals
and accrue every step.  Reads (:meth:`~PressureStall.avg`,
:meth:`~PressureStall.format`, :meth:`CgroupPressure.as_dict`) fold up
to the clock's ``now`` without storing the result, so reading never
moves a later bit.

:meth:`PressureStall.advance` is the reference recurrence: one explicit
interval at given fractions, the eager form the folds are checked
against (``tests/test_pressure.py``), and the only form an unbound
accumulator has.
"""

from __future__ import annotations

import math

from repro.errors import ReproError

__all__ = ["PSI_WINDOWS", "PressureStall", "CgroupPressure"]

#: The three PSI averaging windows, in seconds (avg10/avg60/avg300).
PSI_WINDOWS = (10.0, 60.0, 300.0)
_W0, _W1, _W2 = PSI_WINDOWS


def _window_decays(dt: float) -> tuple[float, ...]:
    """``exp(-dt/W)`` for each window, then each complement ``1 - exp(-dt/W)``."""
    d0 = math.exp(-dt / _W0)
    d1 = math.exp(-dt / _W1)
    d2 = math.exp(-dt / _W2)
    return d0, d1, d2, 1.0 - d0, 1.0 - d1, 1.0 - d2


def _fold(avgs: list[float], frac: float,
          decays: tuple[float, ...]) -> list[float]:
    """Each window's average after a stretch at ``frac``: ``avg·d + frac·(1 − d)``."""
    return [avgs[0] * decays[0] + frac * decays[3],
            avgs[1] * decays[1] + frac * decays[4],
            avgs[2] * decays[2] + frac * decays[5]]


class PressureStall:
    """One resource's some/full stall accumulator.

    ``advance(dt, some_frac, full_frac)`` accrues ``dt`` seconds of wall
    time during which the given fractions of time were stalled; the
    windowed averages follow the exact EMA recurrence
    ``avg' = avg * exp(-dt/W) + frac * (1 - exp(-dt/W))``, which is the
    continuous-time limit of the kernel's periodic decay.

    A clock-bound accumulator also stalls at ``some_rate``/``full_rate``
    from ``_synced`` on (zero until :meth:`restall` sets them), and its
    averages read as folded up to the clock's ``now``.
    """

    __slots__ = ("some_total", "full_total", "_some_avg", "_full_avg",
                 "_clock", "_synced", "some_rate", "full_rate")

    def __init__(self) -> None:
        self.some_total = 0.0          # stall seconds, some task stalled
        self.full_total = 0.0          # stall seconds, all tasks stalled
        self._some_avg = [0.0] * len(PSI_WINDOWS)
        self._full_avg = [0.0] * len(PSI_WINDOWS)
        self._clock = None             # set by bind_clock
        self._synced = 0.0             # sim time the stored averages are at
        self.some_rate = 0.0           # stall fractions in force since _synced
        self.full_rate = 0.0

    def bind_clock(self, clock) -> None:
        """Fold against ``clock`` (anything with ``.now``) from now on."""
        self._clock = clock
        self._synced = clock.now

    def restall(self, some: float, full: float,
                gap_decays: dict | None = None) -> None:
        """Stall at ``some``/``full`` from the clock's ``now`` on.

        First folds the stored averages over the stretch since
        ``_synced`` at the fractions in force over it.  ``gap_decays``
        maps a stretch length to its :func:`_window_decays`; a caller
        restalling many accumulators at one clock reading passes one
        dict, so ``exp`` runs once per distinct stretch.  Equal
        stretches have equal decays, so sharing them changes no bit.
        The fractions are stored as given: the caller clamps them.
        """
        now = self._clock.now
        dt = now - self._synced
        if dt > 0.0:
            self._synced = now
            decays = gap_decays.get(dt) if gap_decays is not None else None
            if decays is None:
                decays = _window_decays(dt)
                if gap_decays is not None:
                    gap_decays[dt] = decays
            # _fold written out in place: this runs once per changed row.
            d0, d1, d2, c0, c1, c2 = decays
            frac = self.some_rate
            avg = self._some_avg
            avg[0] = avg[0] * d0 + frac * c0
            avg[1] = avg[1] * d1 + frac * c1
            avg[2] = avg[2] * d2 + frac * c2
            frac = self.full_rate
            avg = self._full_avg
            avg[0] = avg[0] * d0 + frac * c0
            avg[1] = avg[1] * d1 + frac * c1
            avg[2] = avg[2] * d2 + frac * c2
        self.some_rate = some
        self.full_rate = full

    def averages(self) -> tuple[list[float], list[float]]:
        """The ``some`` and ``full`` averages at the clock's ``now``.

        Folded from the stored averages but not stored back: a read
        changes nothing a later fold or read computes.
        """
        clock = self._clock
        if clock is not None:
            dt = clock.now - self._synced
            if dt > 0.0:
                decays = _window_decays(dt)
                return (_fold(self._some_avg, self.some_rate, decays),
                        _fold(self._full_avg, self.full_rate, decays))
        return list(self._some_avg), list(self._full_avg)

    def advance(self, dt: float, some_frac: float, full_frac: float) -> None:
        """Accrue ``dt`` seconds at the given stall fractions (the reference).

        A bound accumulator first folds up to the clock's ``now``, then
        accrues ``[now, now + dt]`` ahead of the clock tick (the world
        integrates before the jump lands).
        """
        if dt <= 0.0:
            return
        if self._clock is not None:
            self.restall(self.some_rate, self.full_rate)
        some = min(1.0, max(0.0, some_frac))
        # full can never exceed some: all-stalled implies some-stalled.
        full = min(some, max(0.0, full_frac))
        self.some_total += some * dt
        self.full_total += full * dt
        decays = _window_decays(dt)
        self._some_avg = _fold(self._some_avg, some, decays)
        self._full_avg = _fold(self._full_avg, full, decays)
        if self._clock is not None:
            self._synced = self._clock.now + dt

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
        return self.averages()[kind == "full"][i]

    def total(self, kind: str) -> float:
        """Absolute stall time in seconds."""
        if kind == "some":
            return self.some_total
        if kind == "full":
            return self.full_total
        raise ReproError(f"pressure kind must be 'some' or 'full', got {kind!r}")

    def format(self) -> str:
        """The Linux pressure-file rendering (``some``/``full`` lines)."""
        some_avg, full_avg = self.averages()
        lines = []
        for kind, avgs, total in (("some", some_avg, self.some_total),
                                  ("full", full_avg, self.full_total)):
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
        """Bind both accumulators to a clock (see :meth:`PressureStall.bind_clock`)."""
        self.cpu.bind_clock(clock)
        self.memory.bind_clock(clock)

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Flat snapshot used by the exporters (fractions, not percent)."""
        out: dict[str, dict[str, float]] = {}
        for resource in ("cpu", "memory"):
            stall: PressureStall = getattr(self, resource)
            entry: dict[str, float] = {}
            for kind, avgs in zip(("some", "full"), stall.averages()):
                entry[f"{kind}_total"] = stall.total(kind)
                for window, value in zip(PSI_WINDOWS, avgs):
                    entry[f"{kind}_avg{int(window)}"] = value
            out[resource] = entry
        return out
