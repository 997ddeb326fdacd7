"""Opt-in engine self-profiler: where does the wall clock go?

:class:`EngineProfiler` wraps a handful of instance methods on a
:class:`~repro.world.World` (or every host of a
:class:`~repro.cluster.cluster.Cluster`) and attributes *exclusive*
wall-clock time to the engine's subsystems:

* ``event_loop`` — the main stepping loop (everything inside
  ``World.run`` not claimed by a nested probe);
* ``fair_solver`` — ``FairScheduler.reallocate`` (the water-filling
  fair-share solve);
* ``sched_policy`` — the pluggable allocation arithmetic
  (``SchedPolicy.solve`` via the ``_policy_solve`` indirection);
  exclusive accounting subtracts this from ``fair_solver``, so the
  solver row is pure mechanism cost;
* ``psi_accrual`` — ``FairScheduler.advance`` (usage/pressure/throttle
  integral accrual between events);
* ``memcg`` — charge/uncharge/limit/rebalance paths of the memory
  manager;
* ``reclaim_policy`` — the pluggable reclaim planning
  (``ReclaimPolicy.plan_*`` via the ``_policy_plan`` indirection),
  likewise subtracted from ``memcg``;
* ``placement`` / ``migration`` — the cluster's scheduling round and
  rebalancer (cluster mode only), including the containers they create
  for admitted and re-homed pods (their memcg charges count under
  ``memcg``).

Policy probes wrap the kernel's *indirection* methods, not the policy
instances, so a mid-run :meth:`World.swap_policy` neither escapes the
profiler nor breaks detach.

The report also carries the domain-solve memo's activity since attach
(``solve_memo``: hits, misses, solves of domains no longer keyed, and
the rows the tables hold now) and the PSI averages' (``psi``: folds,
i.e. accumulators whose stall fractions changed, and busy rows accrued,
summed over steps), read from the schedulers' own counters.

``steps`` counts the engine steps that fired: a ``World.step`` call
that found nothing due returns False and is not counted, so the count
equals the growth of ``World.steps`` over the profiled worlds.  A
lightweight flight recorder samples ``(wall, steps, sim-time)`` every
``flight_every`` engine steps into a ring of the newest
:data:`FLIGHT_CAPACITY` samples, yielding a steps-per-second timeline
for spotting slowdowns mid-run.

The profiler measures wall-clock *only*: wrappers delegate to the
original bound methods and never touch simulation state, so golden
traces and digests are byte-identical with profiling on or off (locked
in by ``tests/test_obs_fleet.py``).  Overhead is a real cost — a Python
frame per probed call — which is why it is opt-in.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.world import World

__all__ = ["EngineProfiler", "SUBSYSTEMS", "FLIGHT_CAPACITY"]

#: Buckets the profiler attributes time to, in report order.
SUBSYSTEMS = ("event_loop", "fair_solver", "sched_policy", "psi_accrual",
              "memcg", "reclaim_policy", "placement", "migration")

#: Flight-recorder samples kept (the newest ones).
FLIGHT_CAPACITY = 512

_MISSING = object()


class EngineProfiler:
    """Exclusive wall-clock attribution across engine subsystems.

    Usage::

        prof = EngineProfiler()
        prof.attach_world(world)       # or prof.attach_cluster(cluster)
        world.run(until=300.0)
        prof.detach()
        print(prof.format_report())

    Attribution is exclusive: time spent inside ``reallocate`` while the
    event loop is running is charged to ``fair_solver``, not to both.
    Anything outside every probe (workload callbacks, tracing, user
    code) shows up as ``unattributed`` in the report, so the rows always
    sum to the observed wall time.
    """

    def __init__(self, *, flight_every: int = 4096):
        if flight_every < 1:
            raise ReproError(
                f"flight_every must be >= 1, got {flight_every}")
        self.flight_every = flight_every
        #: name -> [calls, exclusive wall seconds]
        self.buckets: dict[str, list] = {
            name: [0, 0.0] for name in SUBSYSTEMS}
        self.steps = 0
        #: (wall_s, steps, sim_s) samples, ring-bounded.
        self.flight: deque[tuple[float, int, float]] = deque(
            maxlen=FLIGHT_CAPACITY)
        self._stack: list[list] = []          # [name, last_mark]
        self._patched: list[tuple[object, str, object]] = []
        #: (world, sim time, memo and PSI counters at attach)
        self._worlds: list[tuple["World", float, tuple[int, ...]]] = []
        self._t0 = perf_counter()
        self._wall_total: float | None = None

    # -- exclusive-time accounting -----------------------------------------

    def _enter(self, name: str) -> None:
        now = perf_counter()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.buckets[top[0]][1] += now - top[1]
            top[1] = now
        bucket = self.buckets[name]
        bucket[0] += 1
        stack.append([name, now])

    def _exit(self) -> None:
        now = perf_counter()
        name, mark = self._stack.pop()
        self.buckets[name][1] += now - mark
        if self._stack:
            self._stack[-1][1] = now

    # -- instrumentation ----------------------------------------------------

    def _wrap(self, obj: object, attr: str, bucket: str) -> None:
        orig = getattr(obj, attr)
        prior = obj.__dict__.get(attr, _MISSING)

        def wrapper(*args, **kwargs):
            self._enter(bucket)
            try:
                return orig(*args, **kwargs)
            finally:
                self._exit()

        wrapper.__name__ = getattr(orig, "__name__", attr)
        setattr(obj, attr, wrapper)
        self._patched.append((obj, attr, prior))

    def _wrap_step(self, world: "World") -> None:
        orig = world.step
        prior = world.__dict__.get("step", _MISSING)

        def step_wrapper(until=None):
            fired = orig(until)
            if fired:
                self.steps += 1
                if self.steps % self.flight_every == 0:
                    self._flight_sample()
            return fired

        setattr(world, "step", step_wrapper)
        self._patched.append((world, "step", prior))

    def _flight_sample(self) -> None:
        self.flight.append((perf_counter() - self._t0, self.steps,
                            self._sim_elapsed()))

    def _sim_elapsed(self) -> float:
        return sum(world.now - start for world, start, _memo in self._worlds)

    def _solve_memo(self) -> dict:
        hits = misses = bypassed = rows = 0
        for world, _start, (hits0, misses0, bypassed0, *_) in self._worlds:
            sched = world.sched
            hits += sched.memo_hits - hits0
            misses += sched.memo_misses - misses0
            bypassed += sched.memo_bypassed - bypassed0
            rows += sched.memo_rows
        return {"hits": hits, "misses": misses, "bypassed": bypassed,
                "rows": rows}

    def _psi(self) -> dict:
        folds = row_steps = 0
        for world, _start, (*_, folds0, row_steps0) in self._worlds:
            folds += world.sched.psi_folds - folds0
            row_steps += world.sched.psi_row_steps - row_steps0
        return {"folds": folds, "row_steps": row_steps}

    def attach_world(self, world: "World") -> "EngineProfiler":
        """Probe one world's engine subsystems.  Chainable."""
        if not self._patched:
            # Wall clock runs from the first attach, not construction,
            # so scenario setup time never pollutes the attribution.
            self._t0 = perf_counter()
        sched = world.sched
        self._worlds.append((world, world.now, (
            sched.memo_hits, sched.memo_misses, sched.memo_bypassed,
            sched.psi_folds, sched.psi_row_steps)))
        self._wrap(world, "run", "event_loop")
        self._wrap(world, "run_until", "event_loop")
        self._wrap(world.sched, "reallocate", "fair_solver")
        self._wrap(world.sched, "_policy_solve", "sched_policy")
        self._wrap(world.sched, "advance", "psi_accrual")
        for attr in ("charge", "uncharge", "uncharge_all", "enforce_limit",
                     "rebalance"):
            self._wrap(world.mm, attr, "memcg")
        self._wrap(world.mm, "_policy_plan", "reclaim_policy")
        self._wrap_step(world)
        return self

    def attach_cluster(self, cluster: "Cluster") -> "EngineProfiler":
        """Probe every host world plus the cluster's own phases."""
        for host in cluster.hosts:
            self.attach_world(host.world)
        self._wrap(cluster, "_place_pending", "placement")
        self._wrap(cluster, "_rebalance", "migration")
        return self

    def detach(self) -> None:
        """Restore every patched method and freeze the wall clock."""
        if self._wall_total is None:
            self._wall_total = perf_counter() - self._t0
            self._flight_sample()
        for obj, attr, prior in reversed(self._patched):
            if prior is _MISSING:
                obj.__dict__.pop(attr, None)
            else:
                setattr(obj, attr, prior)
        self._patched.clear()

    def __enter__(self) -> "EngineProfiler":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- reporting ----------------------------------------------------------

    @property
    def wall_s(self) -> float:
        return (self._wall_total if self._wall_total is not None
                else perf_counter() - self._t0)

    def steps_per_second(self) -> float:
        wall = self.wall_s
        return self.steps / wall if wall > 0 else 0.0

    def flight_rows(self) -> list[dict]:
        """The flight recorder as per-interval steps/sec rows."""
        rows = []
        prev_wall, prev_steps = 0.0, 0
        for wall, steps, sim_s in self.flight:
            d_wall = wall - prev_wall
            d_steps = steps - prev_steps
            rows.append({
                "wall_s": wall,
                "steps": steps,
                "sim_s": sim_s,
                "steps_per_s": (d_steps / d_wall) if d_wall > 0 else 0.0,
            })
            prev_wall, prev_steps = wall, steps
        return rows

    def report(self) -> dict:
        """JSON-able attribution summary (the ``profile`` export kind)."""
        wall = self.wall_s
        attributed = 0.0
        subsystems = {}
        for name in SUBSYSTEMS:
            calls, spent = self.buckets[name]
            attributed += spent
            subsystems[name] = {
                "calls": calls,
                "wall_s": spent,
                "frac": (spent / wall) if wall > 0 else 0.0,
            }
        sim_s = self._sim_elapsed()
        return {
            "kind": "profile",
            "wall_s": wall,
            "sim_s": sim_s,
            "sim_rate": (sim_s / wall) if wall > 0 else 0.0,
            "steps": self.steps,
            "steps_per_s": self.steps_per_second(),
            "unattributed_s": max(0.0, wall - attributed),
            "subsystems": subsystems,
            "solve_memo": self._solve_memo(),
            "psi": self._psi(),
            "flight": self.flight_rows(),
        }

    def format_report(self) -> str:
        """Human-readable attribution table for the CLI."""
        rep = self.report()
        lines = [
            f"wall {rep['wall_s']:.3f}s   sim {rep['sim_s']:.1f}s   "
            f"rate {rep['sim_rate']:.1f}x   steps {rep['steps']} "
            f"({rep['steps_per_s']:.0f}/s)",
            f"{'subsystem':<12} {'calls':>10} {'wall_s':>10} {'share':>7}",
        ]
        rows = sorted(rep["subsystems"].items(),
                      key=lambda kv: -kv[1]["wall_s"])
        for name, row in rows:
            lines.append(f"{name:<12} {row['calls']:>10} "
                         f"{row['wall_s']:>10.4f} {row['frac']:>6.1%}")
        lines.append(f"{'other':<12} {'-':>10} "
                     f"{rep['unattributed_s']:>10.4f} "
                     f"{rep['unattributed_s'] / rep['wall_s']:>6.1%}"
                     if rep["wall_s"] > 0 else f"{'other':<12}")
        memo = rep["solve_memo"]
        lines.append(f"solve memo: {memo['hits']} hits, {memo['misses']} "
                     f"misses, {memo['bypassed']} unkeyed solves, "
                     f"{memo['rows']} rows held")
        psi = rep["psi"]
        lines.append(f"psi: {psi['folds']} folds over {psi['row_steps']} "
                     f"row-steps"
                     + (f" ({psi['folds'] / psi['row_steps']:.2f} per "
                        f"row-step)" if psi["row_steps"] else ""))
        tail = rep["flight"][-3:]
        if tail:
            lines.append("flight recorder (last samples): " + "  ".join(
                f"[{r['wall_s']:.2f}s {r['steps_per_s']:.0f} steps/s]"
                for r in tail))
        return "\n".join(lines)
