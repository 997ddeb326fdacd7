"""PSI accumulator semantics: zero-dt re-entry, EMA folding, lazy folds.

These pin the properties the invariant checker leans on: stall totals
are exact integrals (re-entrant same-tick calls must not double-count
or double-decay), the windowed averages fold over split intervals, a
clock-bound accumulator's folds read like the eager recurrence, and
reads never move a later bit.
"""

import hashlib
import math
from pathlib import Path

import pytest

from repro.kernel.sched.fair import EPS, cpu_stall
from repro.obs.pressure import PSI_WINDOWS, CgroupPressure, PressureStall


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestZeroDtAndBursts:
    def test_zero_dt_is_noop(self):
        for bound in (False, True):
            p = PressureStall()
            clock = FakeClock()
            if bound:
                p.bind_clock(clock)
            p.advance(1.0, 0.5, 0.25)
            before = (p.some_total, p.full_total,
                      [p.avg("some", w) for w in PSI_WINDOWS])
            p.advance(0.0, 1.0, 1.0)
            p.advance(-1.0, 1.0, 1.0)
            after = (p.some_total, p.full_total,
                     [p.avg("some", w) for w in PSI_WINDOWS])
            assert before == after

    def test_same_tick_burst_totals_are_additive(self):
        """Many advances while the clock stands still: totals must sum
        exactly, and the stretch already accrued ahead of the clock must
        not be decayed again by the next call's lazy sync."""
        p = PressureStall()
        clock = FakeClock(5.0)
        p.bind_clock(clock)
        for _ in range(10):
            p.advance(0.1, 1.0, 0.5)       # clock never moves: a burst
        assert p.some_total == pytest.approx(1.0, abs=1e-12)
        assert p.full_total == pytest.approx(0.5, abs=1e-12)

    def test_burst_matches_eager_unbound_sequence(self):
        """A same-tick burst on a bound accumulator reads exactly like
        the same calls on an eager (unbound) one."""
        bound, eager = PressureStall(), PressureStall()
        clock = FakeClock()
        bound.bind_clock(clock)
        for frac in (1.0, 0.0, 0.25, 0.75):
            bound.advance(0.05, frac, frac / 2)
            eager.advance(0.05, frac, frac / 2)
        assert bound.some_total == eager.some_total
        assert bound.full_total == eager.full_total
        for w in PSI_WINDOWS:
            assert bound.avg("some", w) == pytest.approx(
                eager.avg("some", w), rel=1e-12)
            assert bound.avg("full", w) == pytest.approx(
                eager.avg("full", w), rel=1e-12)


class TestEmaFolding:
    def test_two_chunks_equal_one_chunk(self):
        one, two = PressureStall(), PressureStall()
        one.advance(0.7, 0.4, 0.1)
        two.advance(0.3, 0.4, 0.1)
        two.advance(0.4, 0.4, 0.1)
        assert one.some_total == pytest.approx(two.some_total, rel=1e-12)
        for w in PSI_WINDOWS:
            assert one.avg("some", w) == pytest.approx(
                two.avg("some", w), rel=1e-9)
            assert one.avg("full", w) == pytest.approx(
                two.avg("full", w), rel=1e-9)

    def test_full_clamped_to_some(self):
        p = PressureStall()
        p.advance(1.0, 0.2, 0.9)
        assert p.full_total == pytest.approx(0.2)
        assert p.some_total >= p.full_total

    def test_fraction_clamped_to_unit_interval(self):
        p = PressureStall()
        p.advance(1.0, 7.0, -3.0)
        assert p.some_total == pytest.approx(1.0)
        assert p.full_total == 0.0
        for w in PSI_WINDOWS:
            assert 0.0 <= p.avg("some", w) <= 1.0


class TestLazyVsEager:
    def test_idle_gap_decay_matches_eager(self):
        """Bound accumulator left untouched over a gap must read what an
        eager accumulator fed an explicit zero-stall interval reads."""
        clock = FakeClock()
        lazy, eager = PressureStall(), PressureStall()
        lazy.bind_clock(clock)
        lazy.advance(1.0, 0.8, 0.3)
        eager.advance(1.0, 0.8, 0.3)
        clock.now = 1.0 + 9.0                 # 9s idle gap
        eager.advance(9.0, 0.0, 0.0)
        for w in PSI_WINDOWS:
            assert lazy.avg("some", w) == pytest.approx(
                eager.avg("some", w), rel=1e-9)
            assert lazy.avg("full", w) == pytest.approx(
                eager.avg("full", w), rel=1e-9)
        assert lazy.some_total == eager.some_total

    def test_restall_folds_the_closed_form(self):
        """A stretch at a fixed fraction reads ``f + (a0 - f)·exp(-T/W)``
        and, up to rounding, what the eager recurrence gives step by step."""
        clock = FakeClock()
        lazy, eager = PressureStall(), PressureStall()
        lazy.bind_clock(clock)
        lazy.advance(1.0, 0.8, 0.3)
        eager.advance(1.0, 0.8, 0.3)
        clock.now = 1.0
        a0 = lazy.averages()
        lazy.restall(0.4, 0.1)
        for _ in range(30):
            eager.advance(0.1, 0.4, 0.1)
        clock.now = 4.0
        some, full = lazy.averages()
        for i, w in enumerate(PSI_WINDOWS):
            d = math.exp(-3.0 / w)
            assert some[i] == pytest.approx(0.4 + (a0[0][i] - 0.4) * d,
                                            rel=1e-15)
            assert full[i] == pytest.approx(0.1 + (a0[1][i] - 0.1) * d,
                                            rel=1e-15)
            assert some[i] == pytest.approx(eager.avg("some", w), rel=1e-12)
            assert full[i] == pytest.approx(eager.avg("full", w), rel=1e-12)

    def test_restall_to_zero_is_the_idle_decay(self):
        """Idle decay is the ``f = 0`` fold: bit for bit ``avg·exp(-T/W)``."""
        clock = FakeClock()
        p = PressureStall()
        p.bind_clock(clock)
        p.restall(0.6, 0.2)
        clock.now = 2.0
        p.restall(0.0, 0.0)
        stored = (list(p._some_avg), list(p._full_avg))
        clock.now = 7.0
        some, full = p.averages()
        for i, w in enumerate(PSI_WINDOWS):
            d = math.exp(-5.0 / w)
            assert some[i] == stored[0][i] * d
            assert full[i] == stored[1][i] * d

    def test_equal_stretches_share_decays_bit_for_bit(self):
        """Restalls passing one ``gap_decays`` dict equal separate ones."""
        clock = FakeClock()
        shared, alone = PressureStall(), PressureStall()
        for p in (shared, alone):
            p.bind_clock(clock)
            p.restall(0.5, 0.5)
        clock.now = 0.3
        decays: dict = {}
        for fracs in ((0.25, 0.0), (1.0, 1.0)):
            shared.restall(*fracs, decays)
            alone.restall(*fracs)
            clock.now += 0.3
        assert list(decays) == [0.3]
        assert shared.averages() == alone.averages()

    def test_reads_store_nothing(self):
        """``avg``, ``format`` and ``as_dict`` fold up to now without
        writing the result back: the stored state is untouched."""
        clock = FakeClock()
        cp = CgroupPressure()
        cp.bind_clock(clock)
        cp.cpu.restall(0.7, 0.2)
        clock.now = 1.5
        before = repr([(s._some_avg, s._full_avg, s._synced)
                       for s in (cp.cpu, cp.memory)])
        cp.cpu.avg("some", 10.0)
        cp.cpu.format()
        cp.as_dict()
        assert repr([(s._some_avg, s._full_avg, s._synced)
                     for s in (cp.cpu, cp.memory)]) == before
        assert cp.as_dict()["cpu"]["some_avg10"] == cp.cpu.avg("some", 10.0)

    def test_avg_read_is_stable(self):
        """Reading avg() twice at the same instant returns the same value
        (sync is idempotent)."""
        clock = FakeClock()
        p = PressureStall()
        p.bind_clock(clock)
        p.advance(0.2, 1.0, 1.0)
        clock.now = 3.0
        first = p.avg("some", 10.0)
        assert p.avg("some", 10.0) == first

    def test_decay_follows_exact_exponential(self):
        clock = FakeClock()
        p = PressureStall()
        p.bind_clock(clock)
        p.advance(1.0, 1.0, 0.0)
        at_one = p.avg("some", 10.0)
        clock.now = 1.0 + 5.0
        assert p.avg("some", 10.0) == pytest.approx(
            at_one * math.exp(-5.0 / 10.0), rel=1e-12)


class TestCgroupPressure:
    def test_as_dict_shape(self):
        cp = CgroupPressure()
        cp.cpu.advance(1.0, 0.5, 0.25)
        d = cp.as_dict()
        assert set(d) == {"cpu", "memory"}
        assert d["cpu"]["some_total"] == pytest.approx(0.5)
        assert d["cpu"]["full_total"] == pytest.approx(0.25)
        assert d["memory"]["some_total"] == 0.0
        for window in PSI_WINDOWS:
            assert f"some_avg{int(window)}" in d["cpu"]

    def test_bind_clock_binds_both(self):
        cp = CgroupPressure()
        clock = FakeClock(2.0)
        cp.bind_clock(clock)
        assert cp.cpu._clock is clock and cp.memory._clock is clock
        assert cp.cpu._synced == 2.0


# -- pinned PSI averages over whole worlds --------------------------------------

#: Generator scenario seeds whose every cgroup's PSI accumulators are pinned.
PIN_SEEDS = range(20)

PINS = Path(__file__).with_name("golden") / "pins.json"


def _psi_fields(world):
    """PSI state of every live cgroup, root included, in seq order.

    The totals and the averages as read at the world's clock
    (:meth:`PressureStall.averages`, which stores nothing).
    """
    out = []
    for cg in sorted(world.cgroups.walk(), key=lambda c: c.seq):
        for stall in (cg.pressure.cpu, cg.pressure.memory):
            some, full = stall.averages()
            out.append((cg.seq, stall.some_total, stall.full_total,
                        tuple(some), tuple(full)))
    return out


def _churned_host(sample):
    """A small churned host that swaps: create/destroy plus charges.

    24 two-thread containers on 8 CPUs and 1 GiB, so CPU contention is
    constant; every 50 ms the oldest container is replaced and every
    20 ms a random one charges 24 MiB past its soft limit, which drives
    reclaim into swap and the swap slowdown into memory pressure.
    """
    import random

    from repro.container.spec import ContainerSpec
    from repro.units import gib, mib
    from repro.world import World

    rng = random.Random(7)
    world = World(ncpus=8, memory=gib(1), seed=7)
    serial = [0]

    def launch():
        serial[0] += 1
        c = world.containers.create(ContainerSpec(
            f"c{serial[0]}", cpus=rng.choice((None, 0.5, 1.5)),
            memory_limit=mib(128), memory_soft_limit=mib(32)))
        world.mm.charge(c.cgroup, mib(16))
        for j in range(2):
            c.spawn_thread(f"w{j}").assign_work(1e9)
        return c

    fleet = [launch() for _ in range(24)]

    def churn():
        victim = fleet.pop(0)
        world.mm.uncharge(victim.cgroup, victim.cgroup.memory.usage_in_bytes)
        world.containers.destroy(victim)
        fleet.append(launch())

    def charge():
        c = fleet[rng.randrange(len(fleet))]
        if c.cgroup.memory.usage_in_bytes + mib(24) <= mib(128):
            world.mm.charge(c.cgroup, mib(24))

    world.events.call_every(0.05, churn, name="churn")
    world.events.call_every(0.02, charge, name="charge")
    for i in range(1, 21):
        world.run(until=0.1 * i)
        sample(world)
    return world


class TestPsiAveragePin:
    """Every PSI total *and* windowed average, pinned across commits.

    ``invariant_snapshot()`` and the benchmark digests carry only the
    stall totals, and the golden trace covers one 5-container host.
    This samples the accumulators of every cgroup (:func:`_psi_fields`)
    at every op boundary of each :data:`PIN_SEEDS` scenario (the
    fuzzer's own runner; keys ``seed00`` ... ``seed19``) and of a churned
    host that swaps (``churned_host``, every 0.1 s), and pins them in
    ``tests/golden/pins.json`` (format and re-pin procedure: the ``pin``
    fixture in the root ``conftest.py``): the ``final`` fields as cells,
    and ``trail_sha256``, one hash over the fields at every op boundary.
    Any change to the accrual arithmetic, down to one rounding, moves
    the pin.
    """

    def test_psi_state_matches_pinned_digest(self, pin, monkeypatch):
        from repro.check import runner
        from repro.check.generator import generate

        trail: list = []
        trails: dict[str, list] = {}
        real_check_all = runner.check_all

        def sampling_check_all(suite, world, snap, prev):
            trail.append(_psi_fields(world))
            return real_check_all(suite, world, snap, prev)

        monkeypatch.setattr(runner, "check_all", sampling_check_all)
        for seed in PIN_SEEDS:
            assert not runner.run_scenario(generate(seed)).violations
            trails[f"seed{seed:02d}"], trail = trail, []
        world = _churned_host(lambda w: trail.append(_psi_fields(w)))
        swapped = world.cgroups.root.pressure.memory.some_total
        assert swapped > 0.0, "the churned host must stall on swap"
        trails["churned_host"] = trail
        pin(PINS, {name: {"final": pin.cells(t[-1]),
                          "trail_sha256": hashlib.sha256(b"".join(
                              repr(f).encode() for f in t)).hexdigest()}
                   for name, t in trails.items()})


# -- the scheduler's folds against the per-step reference recurrence -----------

#: Largest relative gap allowed between a folded average and the
#: per-step replay: one fold over a stretch and the product of its steps'
#: decays round differently, by a few ulp per fold.
AVG_REL_TOL = 1e-10
#: Absolute gap allowed besides: an average built over a stretch short
#: against its window carries the rounding of ``1 - exp(-T/W)``, about
#: one ulp of 1.0 (2.2e-16) absolute, in the replay and the fold alike,
#: which is a large share of a value as small as ``T/W``.
AVG_ABS_TOL = 1e-14


def _reference_fractions(sched):
    """``(accumulator, some, full)`` for each accumulator a step accrues.

    The stall fractions are recomputed from each row and the swap
    multipliers here, not read from what publication cached or what the
    accumulators hold; the root carries the host-wide pair.
    """
    out = []
    allocated = sum(g.rate for g in sched.snapshot)
    total_demand = 0.0
    mem_some = 0.0
    mem_full = 1.0 if sched.snapshot else 0.0
    for g in sched.snapshot:
        cg = g.cgroup
        total_demand += g.demand
        mem_frac = max(0.0, 1.0 - cg.progress_multiplier)
        mem_some = max(mem_some, mem_frac)
        mem_full = min(mem_full, mem_frac)
        if cg.parent is None:
            continue
        unmet = g.demand - g.rate
        some = unmet / g.demand if unmet > 0.0 and g.demand > 0 else 0.0
        full = 1.0 if (g.n_threads > 0 and g.rate <= EPS) else 0.0
        out.append((cg.pressure.cpu, some, full))
        out.append((cg.pressure.memory, mem_frac, mem_frac))
    some = (max(0.0, total_demand - allocated) / total_demand
            if total_demand > 0 else 0.0)
    full = 1.0 if (total_demand > 0 and allocated <= EPS) else 0.0
    root = sched.cgroups.root
    out.append((root.pressure.cpu, some, full))
    out.append((root.pressure.memory, mem_some, mem_full))
    return out


class AccrualAudit:
    """Wraps ``FairScheduler.advance`` with a per-step reference replay.

    Every accumulator a step accrues has a shadow :class:`PressureStall`
    bound to the same clock, which takes :meth:`PressureStall.advance`
    itself at the step's from-scratch fractions on every step (the
    eager recurrence the scheduler's folds replace); between steps it
    decays like an idle group.  Before each step, and at :meth:`finish`,
    every accumulator must equal its shadow: stall totals bit for bit
    and averages read at the clock within :data:`AVG_REL_TOL`.
    """

    def __init__(self, monkeypatch):
        from repro.kernel.sched.fair import FairScheduler
        self.steps = 0
        self.mismatches: list[str] = []
        self.stalls = {"cpu_full": 0, "mem": 0, "throttled": 0}
        self.shadows: dict[PressureStall, PressureStall] = {}
        real = FairScheduler.advance

        def audited(sched, dt):
            self.compare()
            if dt > 0.0:
                for p, some, full in _reference_fractions(sched):
                    q = self.shadows.get(p)
                    if q is None:
                        q = self.shadows[p] = PressureStall()
                        q.bind_clock(p._clock)
                    q.advance(dt, some, full)
            real(sched, dt)
            self.steps += 1
            for g in sched.snapshot:
                self.stalls["cpu_full"] += cpu_stall(g)[1] == 1.0
                self.stalls["mem"] += g.cgroup.progress_multiplier < 1.0
                self.stalls["throttled"] += g._clip > 0.0

        monkeypatch.setattr(FairScheduler, "advance", audited)

    def compare(self) -> None:
        for p, q in self.shadows.items():
            got = (p.some_total, p.full_total)
            want = (q.some_total, q.full_total)
            if got != want:
                self.mismatches.append(
                    f"before step {self.steps}: totals {got} != {want}")
            for a, b in zip(sum(p.averages(), []), sum(q.averages(), [])):
                if not math.isclose(a, b, rel_tol=AVG_REL_TOL,
                                    abs_tol=AVG_ABS_TOL):
                    self.mismatches.append(
                        f"before step {self.steps}: average {a!r} != {b!r}")

    def finish(self) -> list[str]:
        """The last comparison; returns every mismatch found."""
        self.compare()
        assert self.shadows, "the audit saw no accrual"
        return self.mismatches


def _starved_host(seed, bound):
    """A 4-CPU scheduler under random edits, one group starved to rate 0.

    Threads come and go, quotas move, and the memory slowdown of random
    groups changes the way memcg changes it (multiplier, then a dirty
    mark).  ``g0``'s quota is 1e-10 cores, below the waterfill's epsilon,
    so it stays runnable at rate 0: ``full`` = 1 every step, and a
    multiplier edit on it republishes an identical row with an identical
    (zero) thread rate — the publish skip path.
    """
    import random

    from repro.kernel.cgroup import CgroupRoot
    from repro.kernel.cpu import HostCpus
    from repro.kernel.sched.fair import FairScheduler
    from repro.kernel.task import SimThread

    rng = random.Random(seed)
    host = HostCpus(4)
    cgroups = CgroupRoot(host)
    sched = FairScheduler(host, cgroups)
    clock = FakeClock()
    if bound:
        cgroups.bind_clock(clock)
    groups = [cgroups.root.create_child(f"g{i}") for i in range(6)]
    groups[0].set_cpu_quota(1, 10 ** 10)
    threads = {cg: [] for cg in groups}

    def spawn(cg):
        t = SimThread(f"t{len(threads[cg])}", cg)
        t.assign_work(1e9)
        threads[cg].append(t)

    for cg in groups:
        for _ in range(rng.randint(1, 3)):
            spawn(cg)
    for _ in range(150):
        cg = rng.choice(groups)
        roll = rng.random()
        if roll < 0.2:
            spawn(cg)
        elif roll < 0.35 and threads[cg]:
            t = rng.choice(threads[cg])
            if t.state.value == "blocked":
                t.wake()
            else:
                t.block()
        elif roll < 0.5 and cg is not groups[0]:
            cpus = rng.choice((None, 0.5, 1.0, 2.5))
            cg.set_cpu_quota(None if cpus is None else int(cpus * 100_000))
        elif roll < 0.7:
            cg.progress_multiplier = rng.choice((1.0, 0.8, 0.3))
            cgroups.scheduler_dirty(cg)
        if sched.dirty:
            sched.reallocate()
        t = clock.now + rng.choice((0.0, 1e-4, 0.01, 0.2, 2.0))
        sched.advance(t - clock.now)
        clock.now = t


class TestAccrualMatchesReference:
    """``FairScheduler.advance`` accrues stall totals at the fractions
    publication set and folds averages only when they change; every
    accumulator must stay within a bounded drift of a per-step replay of
    :meth:`PressureStall.advance` (:class:`AccrualAudit`)."""

    def test_fuzzer_worlds_both_engines(self, monkeypatch):
        from repro.check.generator import generate
        from repro.check.runner import run_scenario

        audit = AccrualAudit(monkeypatch)
        for seed in range(12):
            for engine in ("incremental", "scan"):
                run_scenario(generate(seed), engine)
        assert audit.finish() == []
        assert audit.stalls["throttled"] > 0

    def test_churned_host_with_swap_slowdown(self, monkeypatch):
        audit = AccrualAudit(monkeypatch)
        _churned_host(lambda world: None)
        assert audit.finish() == []
        assert audit.stalls["mem"] > 0

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
    def test_starved_groups_and_multiplier_edits(self, monkeypatch, bound):
        """``unbound``: the scheduler folds against its own accrued time."""
        audit = AccrualAudit(monkeypatch)
        for seed in range(3):
            _starved_host(seed, bound)
        assert audit.finish() == []
        assert audit.stalls["cpu_full"] > 0 and audit.stalls["mem"] > 0

    def test_multiplier_edit_on_skipped_publication(self, monkeypatch):
        """A zero-rate group's multiplier moves: publication skips the
        unchanged row, and the next step still accrues the new stall."""
        from repro.kernel.cgroup import CgroupRoot
        from repro.kernel.cpu import HostCpus
        from repro.kernel.sched import fair
        from repro.kernel.task import SimThread

        host = HostCpus(2)
        cgroups = CgroupRoot(host)
        clock = FakeClock()
        cgroups.bind_clock(clock)
        sched = fair.FairScheduler(host, cgroups)
        cg = cgroups.root.create_child("starved")
        cg.set_cpu_quota(1, 10 ** 10)
        SimThread("t", cg).assign_work(1e9)
        sched.reallocate()
        g = sched.snapshot[0]
        assert g.rate == 0.0 and cg.pressure.cpu.full_rate == 1.0

        evaluated = []
        real_stall = fair.cpu_stall
        monkeypatch.setattr(fair, "cpu_stall",
                            lambda g: evaluated.append(g)
                            or real_stall(g))
        cg.progress_multiplier = 0.5
        cgroups.scheduler_dirty(cg)
        sched.reallocate()
        assert evaluated == []                # the skip path was taken
        assert cg.pressure.memory.some_rate == 0.5
        audit = AccrualAudit(monkeypatch)
        sched.advance(0.5)
        clock.now = 0.5
        assert audit.finish() == []
        assert cg.pressure.memory.some_total == 0.25

    def test_planted_stale_fraction_is_caught(self, monkeypatch):
        """The audit is not vacuous: a rate left over from an older row
        makes the totals diverge from the reference."""
        from repro.kernel.cgroup import CgroupRoot
        from repro.kernel.cpu import HostCpus
        from repro.kernel.sched.fair import FairScheduler
        from repro.kernel.task import SimThread

        host = HostCpus(2)
        cgroups = CgroupRoot(host)
        clock = FakeClock()
        cgroups.bind_clock(clock)
        sched = FairScheduler(host, cgroups)
        for name in ("a", "b"):
            cg = cgroups.root.create_child(name)
            for i in range(2):
                SimThread(f"t{i}", cg).assign_work(1e9)
        sched.reallocate()
        p = sched.snapshot[0].cgroup.pressure.cpu
        assert p.some_rate == 0.5
        p.some_rate = 0.25                    # stale: an older row's value
        audit = AccrualAudit(monkeypatch)
        sched.advance(0.1)
        clock.now = 0.1
        found = audit.finish()
        assert found[0] == "before step 1: totals (0.025, 0.0) != (0.05, 0.0)"
        assert len(found) == 4                # and the three averages of some

    def test_planted_skipped_fold_is_caught(self, monkeypatch):
        """Switching fractions without folding the stretch behind them
        keeps every total exact but moves the averages off the replay."""
        def unfolded(self, some, full, gap_decays=None):
            self._synced = self._clock.now
            self.some_rate, self.full_rate = some, full

        audit = AccrualAudit(monkeypatch)
        monkeypatch.setattr(PressureStall, "restall", unfolded)
        _starved_host(0, True)
        found = audit.finish()
        assert found and all("average" in m for m in found)


class TestReadsArePassive:
    def test_reads_every_step_move_no_bit(self, monkeypatch):
        """The same run with and without a read of every accumulator
        before every step ends with bit-identical PSI state."""
        from repro.kernel.sched.fair import FairScheduler

        def state(world):
            return repr([(cg.seq, s.some_total, s.full_total, s._some_avg,
                          s._full_avg, s._synced, s.some_rate, s.full_rate,
                          s.averages())
                         for cg in sorted(world.cgroups.walk(),
                                          key=lambda c: c.seq)
                         for s in (cg.pressure.cpu, cg.pressure.memory)])

        quiet = state(_churned_host(lambda world: None))
        real = FairScheduler.advance
        reads = [0]

        def reading(sched, dt):
            for cg in sched.cgroups.walk():
                for s in (cg.pressure.cpu, cg.pressure.memory):
                    s.avg("some", 10.0)
                    s.format()
                    reads[0] += 1
            real(sched, dt)

        monkeypatch.setattr(FairScheduler, "advance", reading)
        assert state(_churned_host(lambda world: None)) == quiet
        assert reads[0] > 1000
