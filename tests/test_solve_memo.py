"""The domain-solve memo: row budget, per-domain bypass, and identity.

``FairScheduler`` memoizes pure-policy domain solves in incremental
mode.  The table is capped by member rows summed over its entries, and
a domain that has inserted a whole budget of rows without a hit stops
being keyed until it is rebuilt.  These tests pin both rules on a wide
domain whose runnable set changes every step (the memo never hits) and
on a repeating large domain (the memo hits nearly every solve), and
check that the memo never changes a result.
"""

from __future__ import annotations

import random

import pytest

from repro import ContainerSpec, World, gib
from repro.kernel.sched import fair
from repro.obs.profile import EngineProfiler

#: Small enough that a 128-container wide domain exhausts it in a few
#: dozen steps.
BUDGET = 256


def _wide_world(n: int = 128, seed: int = 5) -> World:
    """``n`` one-thread bursty containers sharing one 8-CPU domain."""
    rng = random.Random(seed)
    world = World(ncpus=8, memory=gib(4), seed=seed)

    def burst(thread):
        def think(t):
            t.block()
            world.events.call_after(rng.expovariate(5.0), lambda: burst(t))
        thread.assign_work(rng.expovariate(20.0), on_done=think)

    for i in range(n):
        c = world.containers.create(ContainerSpec(
            f"w{i:03d}", cpu_shares=rng.choice((256, 512, 1024, 2048)),
            cpus=rng.choice((None, None, 0.5, 1.0))))
        burst(c.spawn_thread("main"))
    return world


def _churn_world(n: int = 64) -> World:
    """The container_churn shape: ``n`` always-busy containers in one
    domain, the oldest replaced by an identical one every 25 ms.  Every
    110 ms the whole fleet takes fresh shares, so the domain misses once
    and then hits again: its misses add up past a small budget while no
    streak of them does."""
    world = World(ncpus=16, memory=gib(4))
    serial = [0]
    shares = [1024]

    def launch():
        serial[0] += 1
        c = world.containers.create(ContainerSpec(f"c{serial[0]}",
                                                  cpu_shares=shares[0]))
        for j in range(2):
            c.spawn_thread(f"w{j}").assign_work(1e9)
        return c

    fleet = [launch() for _ in range(n)]

    def churn():
        world.containers.destroy(fleet.pop(0))
        fleet.append(launch())

    def retune():
        shares[0] += 1
        for c in fleet:
            c.cgroup.set_cpu_shares(shares[0])

    world.events.call_every(0.025, churn, name="churn")
    world.events.call_every(0.11, retune, name="retune")
    return world


def _table_rows(sched) -> int:
    return sum(len(rows) for rows in sched._solve_cache.values())


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(fair, "_SOLVE_CACHE_ROWS", BUDGET)


def _count_keys(monkeypatch, sched) -> list:
    """Wrap ``sched._solve_component`` and ``_solve_key``: one record
    ``[entered over budget, keys built]`` per domain solve."""
    solves: list = []
    solve, key = sched._solve_component, sched._solve_key

    def counted_solve(comp):
        solves.append([comp.memo_miss_rows >= fair._SOLVE_CACHE_ROWS, 0])
        return solve(comp)

    def counted_key(members, capacity):
        solves[-1][1] += 1
        return key(members, capacity)

    monkeypatch.setattr(sched, "_solve_component", counted_solve)
    monkeypatch.setattr(sched, "_solve_key", counted_key)
    return solves


class TestRowBudget:
    def test_table_stays_within_budget_and_count_is_exact(self, small_budget):
        world = _wide_world()
        sched = world.sched
        cleared = False
        prev = 0
        for _ in range(300):
            assert world.step()
            rows = _table_rows(sched)
            assert sched.memo_rows == rows
            assert rows <= BUDGET
            cleared |= rows < prev
            prev = rows
        assert cleared, "the budget was never reached"
        assert sched.memo_hits == 0

    def test_oversized_domain_is_never_inserted(self, monkeypatch):
        monkeypatch.setattr(fair, "_SOLVE_CACHE_ROWS", 4)
        world = _churn_world(n=8)
        world.run(max_steps=20)
        assert world.sched.memo_rows == 0 == len(world.sched._solve_cache)
        assert world.sched.memo_bypassed > 0


class TestBypass:
    def test_a_domain_that_never_hits_stops_being_keyed(self, small_budget,
                                                        monkeypatch):
        world = _wide_world()
        solves = _count_keys(monkeypatch, world.sched)
        world.run(max_steps=300)
        bypassed = [keys for over, keys in solves if over]
        keyed = [keys for over, keys in solves if not over]
        assert bypassed and keyed
        assert set(bypassed) == {0}
        assert set(keyed) == {1}
        assert world.sched.memo_bypassed == len(bypassed)
        assert world.sched.memo_misses == len(keyed)

    def test_policy_swap_rearms_a_bypassed_domain(self, small_budget,
                                                  monkeypatch):
        world = _wide_world()
        world.run(max_steps=300)
        sched = world.sched
        assert any(comp.memo_miss_rows >= BUDGET
                   for comp in sched._comps.values())
        solves = _count_keys(monkeypatch, sched)
        for policy in ("burstable", "default"):
            sched.set_policy(policy)
            assert sched.memo_rows == _table_rows(sched) == 0
            del solves[:]
            world.step()
            assert solves and all(keys == 1 for _over, keys in solves)
            assert sched.memo_rows == _table_rows(sched)

    @pytest.mark.parametrize("budget", [fair._SOLVE_CACHE_ROWS, BUDGET])
    def test_repeating_large_domain_keeps_every_hit(self, monkeypatch,
                                                    budget):
        def counts(rows_budget):
            monkeypatch.setattr(fair, "_SOLVE_CACHE_ROWS", rows_budget)
            world = _churn_world()
            world.run(until=1.0)
            sched = world.sched
            return sched.memo_hits, sched.memo_misses, sched.memo_bypassed

        hits, misses, bypassed = counts(budget)
        assert hits >= 35 and bypassed == 0
        # Only a hit resetting the domain's miss count keeps it keyed.
        assert misses * 64 > BUDGET
        assert (hits, misses) == counts(10 ** 9)[:2]


class TestIdentity:
    def test_memo_on_and_off_agree_after_every_step(self, small_budget):
        on, off = _wide_world(), _wide_world()
        off.sched._solve_cache = None
        for _ in range(250):
            assert on.step() and off.step()
            assert on.invariant_snapshot() == off.invariant_snapshot()
            assert ([cg.total_cpu_time for cg in on.cgroups.walk()]
                    == [cg.total_cpu_time for cg in off.cgroups.walk()])
        assert on.sched.memo_bypassed > 0
        assert off.sched.memo_rows == 0


def test_profiler_reports_memo_activity(small_budget):
    world = _wide_world()
    world.step()
    sched = world.sched
    before = (sched.memo_hits, sched.memo_misses, sched.memo_bypassed)
    profiler = EngineProfiler().attach_world(world)
    world.run(max_steps=200)
    profiler.detach()
    report = profiler.report()
    memo = report["solve_memo"]
    assert memo == {
        "hits": sched.memo_hits - before[0],
        "misses": sched.memo_misses - before[1],
        "bypassed": sched.memo_bypassed - before[2],
        "rows": sched.memo_rows,
    }
    assert memo["misses"] > 0 and memo["bypassed"] > 0
    # Every solve the memo did not answer reached the policy.
    assert (report["subsystems"]["sched_policy"]["calls"]
            == memo["misses"] + memo["bypassed"])
    assert "solve memo:" in profiler.format_report()
