"""exp_cluster — adaptive-view placement and HPA/VPA interplay at scale.

Two sweeps on the cluster layer, fanned out through ``repro.par``:

* **placement** — ~1000 pods (mixed singles, gangs, bursty tenants)
  arrive over several epochs on an 8-host cluster; the same workload
  (same seed → identical pod population) is scheduled by each policy:

  - ``static``    — best-fit-decreasing on *declared* requests.
    Requests are inflated 1.5–3x over true demand (the overcommit gap
    every production trace shows), so the cluster "fills up" on paper
    while its cores idle: pods are rejected that the hardware could
    trivially hold.
  - ``view``      — best-fit-decreasing on the *live adaptive view*
    footprint (``min(E_CPU, quota)`` per pod, real free bytes per
    host).  Packs the same population into the same hardware with far
    fewer rejections, at the price of migrations when bursts create
    hotspots.
  - ``view-gang`` — the view packer with rank-aware all-or-nothing
    gang co-placement (no stranded partial gangs).

  Each trial reports packing density, SLO burn (pod-epochs whose
  attained CPU fell below 95% of demand), migrations, gang outcomes,
  and the cluster-conservation audit (must be clean).

* **interplay** — one serving stack under a load spike, scaled by the
  vertical autoscaler alone (``vpa``), the horizontal one alone
  (``hpa``), and both at once (``hpa+vpa``); reports tail latency,
  reserved capacity, and oscillation counts — the HPA/VPA interference
  figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.common import cell_specs, grid_trial, run_cells
from repro.harness.results import ExperimentResult, ResultTable
from repro.par import ResultCache, TrialSpec
from repro.sim.rng import RngFactory
from repro.units import gib, mib

__all__ = ["ClusterExpParams", "run", "run_cell", "trial", "trial_specs",
           "generate_pods"]

#: Dotted path of the per-cell trial function (see repro.par).
TRIAL_FN = f"{__name__}:run_cell"


@dataclass(frozen=True)
class ClusterExpParams:
    seed: int = 0
    # -- placement sweep ---------------------------------------------------
    hosts: int = 8
    host_ncpus: int = 32
    host_memory: int = gib(128)
    pods: int = 1100
    gang_fraction: float = 0.12      # fraction of pods that are gang ranks
    gang_size: int = 4
    burst_fraction: float = 0.25     # fraction of singles that burst
    mean_demand: float = 0.15        # cores, true steady demand
    mean_memory: int = mib(192)
    request_inflation: tuple[float, float] = (1.5, 3.0)
    arrival_epochs: int = 8          # pods arrive over this many epochs
    horizon: float = 16.0            # simulated seconds per policy run
    epoch: float = 1.0
    policies: tuple[str, ...] = ("static", "view", "view-gang")
    # -- interplay sweep ---------------------------------------------------
    interplay_modes: tuple[str, ...] = ("vpa", "hpa", "hpa+vpa")
    serve_ncpus: int = 12
    serve_rate: float = 40.0         # requests/second before the spike
    serve_spike_mult: float = 4.0
    serve_warm: float = 8.0
    serve_spike_len: float = 10.0
    serve_cool: float = 14.0
    serve_mean_demand: float = 0.040
    serve_workers: int = 4
    cores_per_replica: float = 1.5
    slo_target: float = 0.25         # p99 objective, seconds


PARAMS = ClusterExpParams


# ---------------------------------------------------------------------------
# Workload generation (pure function of the seed — shared by all policies)
# ---------------------------------------------------------------------------

def generate_pods(params: ClusterExpParams) -> list[tuple[int, dict]]:
    """The pod population as ``(arrival_epoch, PodSpec kwargs)`` rows.

    Returns plain dicts (not PodSpec instances) so the population is
    JSON-able and identical across worker processes.
    """
    rng = RngFactory(params.seed).stream("exp_cluster.pods")
    n = params.pods
    gang_size = params.gang_size
    n_gangs = int(n * params.gang_fraction / gang_size)
    horizon = params.horizon
    arrival_epochs = params.arrival_epochs
    lo_inf, hi_inf = params.request_inflation
    mean_demand = params.mean_demand
    mean_memory = params.mean_memory

    rows: list[tuple[int, dict]] = []
    idx = 0

    def draw_demand() -> float:
        # Lognormal with the configured mean (sigma 0.8 gives the
        # heavy-ish tail of production traces), clamped to sane cores.
        sigma = 0.8
        val = mean_demand * float(rng.lognormal(-sigma * sigma / 2, sigma))
        return min(4.0, max(0.02, round(val, 3)))

    def draw_memory() -> int:
        val = mean_memory * float(rng.lognormal(-0.32, 0.8))
        return int(min(gib(4), max(mib(32), val)))

    # Gang ranks first: symmetric shape per gang, no bursts (tightly
    # coupled ranks progress together; a bursting rank would just stall
    # at its slowest sibling).
    for g in range(n_gangs):
        demand = draw_demand()
        inflation = float(rng.uniform(lo_inf, hi_inf))
        mem = draw_memory()
        arrival = int(rng.integers(0, arrival_epochs))
        for r in range(gang_size):
            rows.append((arrival, {
                "name": f"pod{idx:04d}",
                "cpu_request": round(min(8.0, demand * inflation), 3),
                "mem_request": int(mem * 1.5),
                "cpu_demand": demand,
                "mem_demand": mem,
                "gang": f"gang{g:03d}",
            }))
            idx += 1

    while idx < n:
        demand = draw_demand()
        inflation = float(rng.uniform(lo_inf, hi_inf))
        mem = draw_memory()
        arrival = int(rng.integers(0, arrival_epochs))
        row = {
            "name": f"pod{idx:04d}",
            "cpu_request": round(min(8.0, demand * inflation), 3),
            "mem_request": int(mem * 1.5),
            "cpu_demand": demand,
            "mem_demand": mem,
        }
        if float(rng.random()) < params.burst_fraction:
            row["burst_demand"] = min(4.0, round(
                demand * float(rng.uniform(2.0, 4.0)), 3))
            row["burst_at"] = round(
                float(rng.uniform(0.3 * horizon, 0.7 * horizon)), 3)
        rows.append((arrival, row))
        idx += 1
    return rows


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _placement_trial(params: ClusterExpParams, *, policy: str) -> dict:
    from repro.check import check_cluster
    from repro.cluster import Cluster, ClusterParams, PodSpec

    # Tracing on: the span-tree audit in check_cluster then validates
    # the migration-following span chains (and tracing is passive, so
    # the placement trace digest is unaffected).
    cluster = Cluster(ClusterParams(
        n_hosts=params.hosts, host_ncpus=params.host_ncpus,
        host_memory=params.host_memory, epoch=params.epoch,
        strategy=policy, seed=params.seed, trace=True))
    population = generate_pods(params)
    epoch = params.epoch
    n_epochs = max(1, int(round(params.horizon / epoch)))
    for e in range(n_epochs):
        for arrival, kwargs in population:
            if arrival == e:
                cluster.submit(PodSpec(**kwargs))
        cluster.run(until=(e + 1) * epoch)
    summary = cluster.summary()
    summary["violations"] = check_cluster(cluster)
    return summary


def _serve_interplay_trial(params: ClusterExpParams, *, mode: str) -> dict:
    from repro.cluster.hpa import HorizontalAutoscaler, HpaParams
    from repro.container.spec import ContainerSpec
    from repro.serve import autoscaler as vertical
    from repro.serve.balancer import Balancer
    from repro.serve.latency import LatencyRecorder
    from repro.serve.loadgen import LoadGenerator, Phase
    from repro.serve.slo import Slo
    from repro.serve.workload import ServiceReplica, ServiceWorkload
    from repro.world import World

    use_vpa = mode in ("vpa", "hpa+vpa")
    use_hpa = mode in ("hpa", "hpa+vpa")
    cores = params.cores_per_replica
    world = World(ncpus=params.serve_ncpus, seed=params.seed)
    workload = ServiceWorkload(
        name="svc", mean_demand=params.serve_mean_demand, demand_cv=0.5,
        workers_per_replica=params.serve_workers, queue_capacity=400,
        resident_memory=mib(128))
    recorder = LatencyRecorder()

    def make_replica(index: int) -> ServiceReplica:
        container = world.containers.create(ContainerSpec(
            f"svc-{index}", cpus=None if use_vpa else cores))
        replica = ServiceReplica(container, workload, recorder)
        replica.start()
        return replica

    replicas = [make_replica(i) for i in range(2)]
    balancer = Balancer(replicas)
    slo = Slo(target=params.slo_target, percentile=99.0, window=2.0)
    phases = [Phase.steady(params.serve_warm, params.serve_rate),
              Phase.spike(params.serve_spike_len, params.serve_rate,
                          params.serve_spike_mult),
              Phase.steady(params.serve_cool, params.serve_rate)]
    loadgen = LoadGenerator(world, workload, phases, balancer.dispatch)

    scaler = None
    service = None
    if use_vpa:
        scaler = vertical.Autoscaler(world, vertical.AutoscalerParams(
            period=0.5, min_cores=0.5, max_cores=4.0, host_reserve=1.0))
        service = scaler.manage(workload.name, replicas, balancer, recorder,
                                slo, initial_cores=cores)
        scaler.start()
    hpa = None
    if use_hpa:
        hpa = HorizontalAutoscaler(
            world, workload.name, balancer, recorder, slo,
            factory=make_replica,
            params=HpaParams(period=1.0, min_replicas=2, max_replicas=6,
                             cooldown=2.0),
            vertical=scaler, cores_per_replica=cores)
        hpa.start()

    loadgen.start()
    duration = (params.serve_warm + params.serve_spike_len
                + params.serve_cool)
    world.run(until=duration)
    drained = world.run_until(
        lambda: loadgen.done and balancer.outstanding == 0, timeout=300.0)
    if not drained:
        raise RuntimeError(f"interplay mode {mode!r} failed to drain")
    if hpa is not None:
        hpa.stop()
    if scaler is not None:
        scaler.stop()
        scaler.finalize()

    def flips(values: list[float]) -> int:
        deltas = [b - a for a, b in zip(values, values[1:])
                  if abs(b - a) > 1e-9]
        return sum(1 for a, b in zip(deltas, deltas[1:]) if a * b < 0)

    if use_vpa and use_hpa:
        # Combined capacity: total reserved cores after every VPA tick.
        oscillations = flips([total for _, total in scaler.history])
    elif use_vpa:
        oscillations = flips([c for _, c in service.cores_history])
    else:
        oscillations = flips([float(n) for _, n in hpa.replica_history])

    if scaler is not None:
        reserved_avg = scaler.reserved_core_seconds / world.now
        reserved_peak = max(total for _, total in scaler.history)
    else:
        hist = hpa.replica_history
        reserved_avg = (cores * sum(n for _, n in hist) / len(hist)
                        if hist else cores * hpa.replicas)
        reserved_peak = cores * max((n for _, n in hist),
                                    default=hpa.replicas)

    spike_start = params.serve_warm
    spike_end = spike_start + params.serve_spike_len
    summary = recorder.summary()
    spike = recorder.summary(spike_start, spike_end + 3.0)
    return {
        "mode": mode,
        "generated": loadgen.generated,
        "completed": balancer.completed,
        "shed": balancer.shed,
        "p50": summary.p50, "p99": summary.p99,
        "spike_p99": spike.p99 if spike.count else summary.p99,
        "reserved_avg": reserved_avg,
        "reserved_peak": reserved_peak,
        "replicas_max": (max((n for _, n in hpa.replica_history), default=2)
                         if hpa is not None else 2),
        "scale_outs": hpa.scale_outs if hpa is not None else 0,
        "scale_ins": hpa.scale_ins if hpa is not None else 0,
        "oscillations": oscillations,
    }


def trial(params: ClusterExpParams, kind: str, **cell) -> dict:
    """One sweep cell; dispatches on ``kind``."""
    if kind == "placement":
        return _placement_trial(params, **cell)
    return _serve_interplay_trial(params, **cell)


run_cell = grid_trial(ClusterExpParams, trial)


def trial_specs(params: ClusterExpParams) -> list[TrialSpec]:
    cells = {f"placement/{policy}": {"kind": "placement", "policy": policy}
             for policy in params.policies}
    cells.update({f"interplay/{mode}": {"kind": "interplay", "mode": mode}
                  for mode in params.interplay_modes})
    return cell_specs(TRIAL_FN, "exp_cluster", params, cells)


def run(params: ClusterExpParams | None = None, *, jobs: int = 1,
        cache: ResultCache | None = None) -> ExperimentResult:
    params = params or ClusterExpParams()
    result = ExperimentResult(
        experiment="exp_cluster",
        description="adaptive-view cluster placement vs static requests, "
                    "plus HPA/VPA autoscaler interplay")
    cells = run_cells(trial_specs(params), jobs=jobs, cache=cache)

    ptab = result.add_table("placement", ResultTable(
        f"Placement of {params.pods} pods on {params.hosts} hosts "
        f"({params.hosts * params.host_ncpus} cores)",
        ["policy", "placed", "rejected", "density", "utilization",
         "slo_burn", "migrations", "gangs_placed", "gangs_rejected",
         "gangs_partial", "violations"]))
    for policy in params.policies:
        cell = cells[f"placement/{policy}"]
        ptab.add(policy=policy, placed=cell["placed"],
                 rejected=cell["rejected"],
                 density=round(cell["density"], 4),
                 utilization=round(cell["utilization"], 4),
                 slo_burn=round(cell["slo_burn"], 4),
                 migrations=cell["migrations"],
                 gangs_placed=cell["gangs_placed"],
                 gangs_rejected=cell["gangs_rejected"],
                 gangs_partial=cell["gangs_partial"],
                 violations=len(cell["violations"]))

    itab = result.add_table("interplay", ResultTable(
        "HPA/VPA interplay under a load spike (latency in seconds)",
        ["mode", "p50", "p99", "spike_p99", "shed", "reserved_avg",
         "reserved_peak", "replicas_max", "scale_outs", "scale_ins",
         "oscillations"]))
    for mode in params.interplay_modes:
        cell = cells[f"interplay/{mode}"]
        itab.add(mode=cell["mode"], p50=round(cell["p50"], 4),
                 p99=round(cell["p99"], 4),
                 spike_p99=round(cell["spike_p99"], 4), shed=cell["shed"],
                 reserved_avg=round(cell["reserved_avg"], 2),
                 reserved_peak=round(cell["reserved_peak"], 2),
                 replicas_max=cell["replicas_max"],
                 scale_outs=cell["scale_outs"],
                 scale_ins=cell["scale_ins"],
                 oscillations=cell["oscillations"])

    if "static" in params.policies and "view" in params.policies:
        st = cells["placement/static"]
        vw = cells["placement/view"]
        result.note(
            f"headline: view-based packing placed {vw['placed']}/"
            f"{params.pods} pods at density {vw['density']:.2f} vs static's "
            f"{st['placed']} at {st['density']:.2f} — requests inflated "
            f"{params.request_inflation[0]:.1f}-"
            f"{params.request_inflation[1]:.1f}x strand capacity the views "
            f"recover; slo_burn view={vw['slo_burn']:.3f} vs "
            f"static={st['slo_burn']:.3f}")
    bad = {tid: cell["violations"] for tid, cell in cells.items()
           if cell.get("violations")}
    result.note("cluster conservation invariants: "
                + (f"VIOLATED in {sorted(bad)}" if bad else "all clean "
                   "(per-host + cross-migration ledgers balance)"))
    result.note("expected: placed(view) > placed(static) at equal hardware; "
                "oscillations(hpa+vpa) >= max(hpa, vpa) — the interference "
                "cost of stacking both scaling axes")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
