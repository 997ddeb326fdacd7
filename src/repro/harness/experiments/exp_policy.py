"""exp_policy — kernel policy bundles under contention, plus hot-swap.

The pluggable SchedPolicy/ReclaimPolicy boundary (``repro.policy``)
claims three things; this experiment measures all of them on one
contended mixed workload (quota'd CPU-bound "spinners" that want more
cores than their quota grants, plus memory "hogs" that charge past
their soft limits and force reclaim, each tagged with a memory
intent):

* **bundle sweep** — the same workload (same seed, same op sequence)
  runs under each built-in bundle:

  - ``default``   — the transplanted pre-refactor behaviour; the
    golden-trace anchor every other bundle diverges from.
  - ``burstable`` — quotas become burst ceilings; throttle time only
    accrues while the host is genuinely contended, so the spinners'
    throttled_time collapses while total CPU time rises.
  - ``intent``    — reclaim victims are reordered by declared intent
    (scratch, then cache, then untagged, then heap), so swap occupancy
    migrates from heap-tagged hogs onto scratch/cache-tagged ones at
    the same total reclaim volume.

* **hot-swap audit** — one run swaps bundles mid-simulation
  (``World.swap_policy``), recording the plugsched-style handoff at
  each leg; the swap must leave every conservation ledger bit-exact.
  A control run swaps ``default`` for ``default`` at the same instants
  and must end in a snapshot identical to never swapping at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.common import cell_specs, grid_trial, run_cells
from repro.harness.results import ExperimentResult, ResultTable
from repro.par import ResultCache, TrialSpec
from repro.units import gib, mib

__all__ = ["PolicyParams", "run", "run_cell", "trial", "trial_specs"]

#: Dotted path of the per-cell trial function (see repro.par).
TRIAL_FN = f"{__name__}:run_cell"

#: Work for "run forever" spinner threads; far beyond any horizon.
_FOREVER = 1e9

#: Intent tags cycled across the memory hogs (None = untagged).
_INTENT_CYCLE = (None, "cache", "heap", "scratch")


@dataclass(frozen=True)
class PolicyParams:
    """Scenario knobs for the policy-boundary experiment."""

    seed: int = 0
    ncpus: int = 8
    memory: int = gib(2)
    spinners: int = 4                # quota'd CPU-bound containers
    spinner_quota: float = 0.75      # cores each; sum leaves burst headroom
    spinner_workers: int = 2         # demand per spinner (> quota)
    hogs: int = 8                    # memory-charging containers
    hog_step: int = mib(64)          # charged per hog per epoch
    hog_limit: int = mib(512)
    hog_soft_limit: int = mib(128)
    epochs: int = 10
    epoch: float = 0.5
    bundles: tuple[str, ...] = ("default", "burstable", "intent")
    #: Mid-run swap itinerary: leg i runs under swap_path[i].
    swap_path: tuple[str, ...] = ("default", "burstable", "default")


PARAMS = PolicyParams


# ---------------------------------------------------------------------------
# Workload (pure function of the params — identical across bundles)
# ---------------------------------------------------------------------------

def _build_world(params: PolicyParams, sched: str, reclaim: str):
    from repro.container.spec import ContainerSpec
    from repro.world import World

    world = World(ncpus=params.ncpus, memory=params.memory,
                  seed=params.seed, sched_policy=sched,
                  reclaim_policy=reclaim)
    for i in range(params.spinners):
        c = world.containers.create(ContainerSpec(
            f"spin{i}", cpus=params.spinner_quota))
        for j in range(params.spinner_workers):
            c.spawn_thread(f"w{j}").assign_work(_FOREVER)
    for i in range(params.hogs):
        world.containers.create(ContainerSpec(
            f"hog{i}",
            memory_limit=params.hog_limit,
            memory_soft_limit=params.hog_soft_limit,
            memory_intent=_INTENT_CYCLE[i % len(_INTENT_CYCLE)]))
    return world


def _drive(world, params: PolicyParams, *,
           swaps: dict[int, str] | None = None):
    """Run the epoch loop; return ``(ooms, victims, handoffs)``.

    ``swaps`` maps epoch index -> bundle name; at the start of that
    epoch the world hot-swaps to the bundle (both sides).  Charges that
    OOM destroy the charging container — the kill freed its memory —
    exactly like the check runner's fault model.
    """
    from repro.errors import OutOfMemoryError
    from repro.policy import resolve_bundle

    ooms = 0
    victims: list[str] = []
    handoffs: list[dict] = []
    for e in range(params.epochs):
        if swaps and e in swaps:
            sched, reclaim = resolve_bundle(swaps[e])
            handoff = world.swap_policy(sched_policy=sched,
                                        reclaim_policy=reclaim)
            handoff["bundle"] = swaps[e]
            handoffs.append(handoff)
        for i in range(params.hogs):
            name = f"hog{i}"
            if name not in world.containers.containers:
                continue
            c = world.containers.get(name)
            try:
                world.mm.charge(c.cgroup, params.hog_step)
            except OutOfMemoryError:
                ooms += 1
                victims.append(name)
                world.containers.destroy(c)
        world.run(until=(e + 1) * params.epoch)
    return ooms, victims, handoffs


def _metrics(world, ooms: int, victims: list[str]) -> dict:
    groups = sorted(world.cgroups.walk(), key=lambda c: c.seq)
    swapped_by_intent = {"untagged": 0, "cache": 0, "heap": 0, "scratch": 0}
    for cg in groups:
        intent = getattr(cg.memory, "intent", None) or "untagged"
        swapped_by_intent[intent] += cg.memory.swapped
    return {
        "steps": world.steps,
        "sim_time": world.now,
        "total_cpu_time": sum(cg.total_cpu_time for cg in groups)
                          + world.cgroups.retired_cpu_time,
        "throttled_time": sum(cg.throttled_time for cg in groups)
                          + world.cgroups.retired_throttled_time,
        "resident": sum(cg.memory.resident for cg in groups),
        "swapped": sum(cg.memory.swapped for cg in groups),
        "swapped_by_intent": swapped_by_intent,
        "ooms": ooms,
        "oom_killed": victims,
        "conservation_error": world.sched.conservation_error(),
    }


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _bundle_trial(params: PolicyParams, *, bundle: str) -> dict:
    from repro.policy import resolve_bundle

    sched, reclaim = resolve_bundle(bundle)
    world = _build_world(params, sched, reclaim)
    ooms, victims, _ = _drive(world, params)
    out = _metrics(world, ooms, victims)
    out["bundle"] = bundle
    out["sched_policy"] = sched
    out["reclaim_policy"] = reclaim
    return out


def _swap_epochs(params: PolicyParams) -> dict[int, str]:
    """Evenly spaced swap instants for legs 1..n of the itinerary."""
    path = params.swap_path
    legs = len(path)
    epochs = params.epochs
    return {max(1, (i * epochs) // legs): path[i] for i in range(1, legs)}


def _hotswap_trial(params: PolicyParams) -> dict:
    start = params.swap_path[0]
    from repro.policy import resolve_bundle

    sched0, reclaim0 = resolve_bundle(start)
    world = _build_world(params, sched0, reclaim0)
    swaps = _swap_epochs(params)
    ooms, victims, handoffs = _drive(world, params, swaps=swaps)
    out = _metrics(world, ooms, victims)
    out["path"] = list(params.swap_path)
    out["swaps"] = [{"t": h["t"], "bundle": h["bundle"]} for h in handoffs]

    # Control: swapping default for default at the same instants must be
    # invisible — the final snapshot equals a run that never swapped.
    plain = _build_world(params, "default", "default")
    _drive(plain, params)
    selfswap = _build_world(params, "default", "default")
    _drive(selfswap, params,
           swaps={e: "default" for e in swaps})
    out["self_swap_identical"] = (plain.invariant_snapshot()
                                  == selfswap.invariant_snapshot())
    return out


def trial(params: PolicyParams, kind: str, **cell) -> dict:
    """One sweep cell; dispatches on ``kind``."""
    if kind == "bundle":
        return _bundle_trial(params, **cell)
    return _hotswap_trial(params)


run_cell = grid_trial(PolicyParams, trial)


def trial_specs(params: PolicyParams) -> list[TrialSpec]:
    cells = {f"bundle/{bundle}": {"kind": "bundle", "bundle": bundle}
             for bundle in params.bundles}
    cells["hotswap/" + "-".join(params.swap_path)] = {"kind": "hotswap"}
    return cell_specs(TRIAL_FN, "exp_policy", params, cells)


def run(params: PolicyParams | None = None, *, jobs: int = 1,
        cache: ResultCache | None = None) -> ExperimentResult:
    params = params or PolicyParams()
    result = ExperimentResult(
        experiment="exp_policy",
        description="kernel policy bundles under a contended mixed "
                    "workload, plus mid-run hot-swap conservation")
    cells = run_cells(trial_specs(params), jobs=jobs, cache=cache)

    btab = result.add_table("bundles", ResultTable(
        f"One workload ({params.spinners} quota'd spinners + "
        f"{params.hogs} intent-tagged hogs) under each policy bundle",
        ["bundle", "sched", "reclaim", "steps", "cpu_time",
         "throttled_time", "ooms", "resident_mib", "swapped_mib",
         "swap_cache_mib", "swap_heap_mib", "swap_scratch_mib",
         "conservation_err"]))
    for bundle in params.bundles:
        cell = cells[f"bundle/{bundle}"]
        by = cell["swapped_by_intent"]
        btab.add(bundle=bundle, sched=cell["sched_policy"],
                 reclaim=cell["reclaim_policy"], steps=cell["steps"],
                 cpu_time=round(cell["total_cpu_time"], 3),
                 throttled_time=round(cell["throttled_time"], 3),
                 ooms=cell["ooms"],
                 resident_mib=round(cell["resident"] / mib(1), 1),
                 swapped_mib=round(cell["swapped"] / mib(1), 1),
                 swap_cache_mib=round(by["cache"] / mib(1), 1),
                 swap_heap_mib=round(by["heap"] / mib(1), 1),
                 swap_scratch_mib=round(by["scratch"] / mib(1), 1),
                 conservation_err=cell["conservation_error"])

    hot = cells["hotswap/" + "-".join(params.swap_path)]
    htab = result.add_table("hotswap", ResultTable(
        "Mid-run policy hot-swap (" + " -> ".join(params.swap_path) + ")",
        ["leg", "t", "bundle"]))
    htab.add(leg=0, t=0.0, bundle=params.swap_path[0])
    for i, swap in enumerate(hot["swaps"], start=1):
        htab.add(leg=i, t=round(swap["t"], 3), bundle=swap["bundle"])
    result.note(
        f"hot-swap audit: {len(hot['swaps'])} swap(s) completed with every "
        f"conservation ledger bit-exact (swap_policy raises PolicyError "
        f"otherwise); default->default self-swap "
        f"{'is' if hot['self_swap_identical'] else 'IS NOT'} "
        f"snapshot-identical to never swapping")

    if "default" in params.bundles and "burstable" in params.bundles:
        d = cells["bundle/default"]
        b = cells["bundle/burstable"]
        result.note(
            f"headline: burstable cut throttled_time "
            f"{d['throttled_time']:.2f}s -> {b['throttled_time']:.2f}s while "
            f"cpu_time moved {d['total_cpu_time']:.2f}s -> "
            f"{b['total_cpu_time']:.2f}s — quotas as burst ceilings instead "
            f"of hard caps")
    if "default" in params.bundles and "intent" in params.bundles:
        d = cells["bundle/default"]["swapped_by_intent"]
        i = cells["bundle/intent"]["swapped_by_intent"]
        result.note(
            f"intent reclaim: heap-tagged swap {d['heap'] / mib(1):.0f} MiB "
            f"-> {i['heap'] / mib(1):.0f} MiB; scratch-tagged "
            f"{d['scratch'] / mib(1):.0f} MiB -> "
            f"{i['scratch'] / mib(1):.0f} MiB at the same reclaim pressure")
    result.note("expected: throttled_time(burstable) < default; "
                "swap_heap(intent) <= default while swap_scratch(intent) "
                ">= default; self-swap identical; all conservation_err ~ 0")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
