"""Seeded random scenario generator.

Uses the stdlib ``random.Random(seed)`` — deliberately independent of the
world's numpy-based :class:`~repro.sim.rng.RngFactory` streams — so a
scenario is a pure function of its seed, regardless of what the worlds
it later drives do with their own RNGs.

The generator keeps a small model of the fleet (which containers it has
created/destroyed, how many workers each got) so it can emit mostly
*well-targeted* ops; a slice of deliberately dangling ops (editing a
container after its scheduled destroy) exercises the runner's skip
paths, which the shrinker depends on.

:func:`generate_cluster` derives the other scenario kind: a cluster
scenario, a plain dict of cluster parameters plus staggered waves of pod
submissions, which :func:`repro.check.runner.run_cluster` interprets.
"""

from __future__ import annotations

import random

from repro.check.scenario import Scenario
from repro.kernel.mm.memcg import KERNEL_RESERVED
from repro.sim.rng import derive_seed
from repro.units import gib, mib

__all__ = ["generate", "generate_cluster"]

_NCPUS_CHOICES = (2, 3, 4, 8)
_MEMORY_CHOICES = (gib(1), gib(2), gib(3))


def _rand_cpuset(rng: random.Random, ncpus: int) -> str:
    lo = rng.randrange(ncpus)
    hi = rng.randrange(lo, ncpus)
    return f"{lo}-{hi}" if hi > lo else str(lo)


def generate(seed: int) -> Scenario:
    """Build the scenario for ``seed`` (pure: same seed, same scenario)."""
    rng = random.Random(seed)
    ncpus = rng.choice(_NCPUS_CHOICES)
    memory = rng.choice(_MEMORY_CHOICES)
    avail = memory - KERNEL_RESERVED  # sizes are fractions of what's left
    horizon = round(rng.uniform(1.0, 3.0), 3)
    # A third of the worlds get tight swap so charge bursts can exhaust
    # it and exercise the OOM-kill paths on both engines.
    swap_factor = rng.choice((0.05, 0.25, 2.0))
    scn = Scenario(ncpus=ncpus, memory=memory, horizon=horizon,
                   swap_factor=swap_factor, seed=seed)

    n_containers = rng.randint(2, 6)
    names = [f"c{i}" for i in range(n_containers)]
    # Fleet model: name -> workers (None = not yet created here).
    workers: dict[str, int | None] = {n: None for n in names}

    def t_at(frac_lo: float = 0.0, frac_hi: float = 0.95) -> float:
        return round(rng.uniform(frac_lo * horizon, frac_hi * horizon), 6)

    def emit(t: float, op: str, name: str, **kw) -> None:
        scn.ops.append({"t": t, "op": op, "name": name, **kw})

    # Initial fleet: most containers exist from t=0 so contention is real.
    for name in names:
        if rng.random() < 0.75:
            _emit_create(rng, emit, workers, name, 0.0, ncpus, avail)

    n_ops = rng.randint(8, 32)
    last_t = 0.0
    for _ in range(n_ops):
        name = rng.choice(names)
        # Occasionally pile ops onto the exact same instant: same-time
        # application order and zero-dt re-entry are classic divergence
        # territory that uniform timestamps almost never hit.
        t = last_t if rng.random() < 0.15 else t_at()
        last_t = t
        roll = rng.random()
        if workers[name] is None:
            # Not alive in the model: mostly create it, sometimes emit a
            # dangling op on purpose (runner records it as a skip).
            if roll < 0.7:
                _emit_create(rng, emit, workers, name, t, ncpus, avail)
            else:
                emit(t, "spawn", name, work=round(rng.uniform(0.05, 0.5), 6))
            continue
        if roll < 0.08:
            emit(t, "destroy", name)
            workers[name] = None
        elif roll < 0.20:
            emit(t, "set_shares", name, shares=rng.choice((128, 256, 512, 1024, 2048)))
        elif roll < 0.30:
            cpus = (None if rng.random() < 0.3
                    else round(rng.uniform(0.25, ncpus), 2))
            emit(t, "set_quota", name, cpus=cpus)
        elif roll < 0.38:
            cpuset = None if rng.random() < 0.3 else _rand_cpuset(rng, ncpus)
            emit(t, "set_cpuset", name, cpuset=cpuset)
        elif roll < 0.48:
            limit = (None if rng.random() < 0.25
                     else int(rng.uniform(0.05, 0.5) * avail))
            emit(t, "set_limit", name, limit=limit)
        elif roll < 0.54:
            emit(t, "set_soft_limit", name,
                 limit=int(rng.uniform(0.02, 0.3) * avail))
        elif roll < 0.72:
            # Memory workload, sized to make limits and swap bite.
            emit(t, "charge", name, bytes=int(rng.uniform(0.02, 0.4) * avail))
        elif roll < 0.80:
            emit(t, "uncharge", name, bytes=int(rng.uniform(0.02, 0.3) * avail))
        elif roll < 0.88:
            emit(t, "spawn", name, work=round(rng.uniform(0.05, 0.8), 6))
        elif roll < 0.92 and workers[name]:
            w = rng.randrange(workers[name])
            emit(t, "block", name, worker=w)
            if rng.random() < 0.7:
                emit(min(round(t + rng.uniform(0.01, 0.5), 6), horizon),
                     "wake", name, worker=w)
        elif roll < 0.96:
            emit(t, "set_intent", name,
                 intent=rng.choice((None, "cache", "heap", "scratch")))
        else:
            # Traffic phase: a burst of short segments until a deadline.
            until = min(round(t + rng.uniform(0.2, 1.0), 6), horizon)
            emit(t, "loop", name, workers=rng.randint(1, 3),
                 segment=round(rng.uniform(0.01, 0.1), 6), until=until)

    # A slice of the worlds hot-swap kernel policies mid-run: the swap's
    # ledger-conservation assert then runs under arbitrary fuzzed state,
    # on both engines, for every seed that draws one.
    if rng.random() < 0.35:
        for _ in range(rng.randint(1, 2)):
            sched = rng.choice((None, "default", "burstable"))
            reclaim = rng.choice((None, "default", "intent"))
            if sched is None and reclaim is None:
                sched = "default"
            emit(t_at(0.1, 0.9), "swap_policy", "world",
                 sched=sched, reclaim=reclaim)

    scn.validate()
    return scn


def _emit_create(rng: random.Random, emit, workers: dict, name: str,
                 t: float, ncpus: int, avail: int) -> None:
    kw: dict = {"workers": rng.randint(1, 3),
                "shares": rng.choice((256, 512, 1024, 2048))}
    if rng.random() < 0.4:
        kw["cpus"] = round(rng.uniform(0.5, ncpus), 2)
    if rng.random() < 0.35:
        kw["cpuset"] = _rand_cpuset(rng, ncpus)
    if rng.random() < 0.6:
        limit = int(rng.uniform(0.1, 0.6) * avail)
        kw["memory_limit"] = limit
        if rng.random() < 0.5:
            kw["memory_soft_limit"] = int(limit * rng.uniform(0.3, 0.9))
    emit(t, "create", name, **kw)
    workers[name] = kw["workers"]


_STRATEGIES = ("view", "static", "view-gang", "static-gang")


def generate_cluster(seed: int) -> dict:
    """Build the cluster scenario for ``seed`` (pure, JSON-serializable).

    Host count and shape, strategy, epoch length, hot threshold,
    bursty/gang pod mix, tracing and telemetry all vary.  Hosts are
    kept small and the hot threshold low so the rebalancer fires
    often: cross-host migrations are the interesting paths.
    """
    # The seed label keeps its original name so every seed maps to the
    # scenario it always has: cluster fixtures, CI sweeps and the pinned
    # cluster bytes stay reproducible across releases.
    rng = random.Random(derive_seed("check-shard-diff", "scenario", seed))
    n_hosts = rng.randint(2, 6)
    ncpus = rng.choice((2, 4, 8))
    epoch = rng.choice((0.25, 0.5, 1.0))
    params = {
        "n_hosts": n_hosts,
        "host_ncpus": ncpus,
        "host_memory": rng.choice((gib(1), gib(2), gib(4))),
        "epoch": epoch,
        "strategy": rng.choice(_STRATEGIES),
        "hot_frac": rng.choice((0.6, 0.7, 0.85)),
        "max_migrations_per_epoch": rng.randint(1, 4),
        "seed": seed,
        "trace": rng.random() < 0.5,
    }
    n_pods = rng.randint(8, int(3.0 * n_hosts * ncpus))
    specs = []
    horizon = epoch * rng.randint(6, 12)
    for i in range(n_pods):
        demand = round(rng.uniform(0.1, 1.5), 2)
        request = round(demand * rng.uniform(1.0, 2.5), 2)
        mem_demand = mib(rng.choice((32, 64, 128)))
        spec = {
            "name": f"pod{i:03d}",
            "cpu_request": request,
            "mem_request": mem_demand * rng.choice((1, 2)),
            "cpu_demand": demand,
            "mem_demand": mem_demand,
        }
        if rng.random() < 0.4:
            spec["burst_demand"] = round(demand * rng.uniform(1.5, 4.0), 2)
            spec["burst_at"] = round(rng.uniform(0.2, 0.8) * horizon, 2)
        if rng.random() < 0.25:
            spec["gang"] = f"gang{rng.randint(0, 3)}"
        specs.append(spec)
    # Staggered submission: a wave at t=0 and one or two mid-run waves,
    # so admissions also land on clusters with history.
    waves = sorted({0.0} | {round(rng.uniform(0.2, 0.8) * horizon, 2)
                            for _ in range(rng.randint(0, 2))})
    per_wave: list[list[dict]] = [[] for _ in waves]
    for spec in specs:
        per_wave[rng.randrange(len(waves))].append(spec)
    return {"params": params, "horizon": horizon,
            "telemetry": rng.random() < 0.5,
            "waves": [[t, wave] for t, wave in zip(waves, per_wave)]}
