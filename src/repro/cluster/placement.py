"""Placement strategies: where a pod (or a whole gang) should land.

Three schedulers, one interface:

* :class:`StaticRequestBinPack` — the Kubernetes default: best-fit on
  *declared* requests, blind to what pods actually use.  A host "full"
  of requests rejects new pods even while most of its cores idle.
* :class:`ViewBinPack` — the paper's signal promoted to the cluster:
  best-fit on the *live* footprint (``min(E_CPU, quota)`` per pod, real
  free bytes per host, as of the last epoch barrier plus this epoch's
  decisions — see :class:`~repro.cluster.host.Host`).  Overcommits
  safely because the views track effective, not declared, occupancy.
* :class:`GangBinPack` — a wrapper adding rank-aware co-placement for
  tightly-coupled jobs: all ranks of a gang are placed in one round
  (preferring hosts that already hold sibling ranks, so the gang spans
  as few hosts as possible) or none at all.

All strategies are deterministic: ties break on host name, so the same
seed always produces the same placement trace.
"""

from __future__ import annotations

from repro.cluster.host import Host
from repro.cluster.pod import Footprint, PodSpec
from repro.errors import ClusterError

__all__ = ["PlacementStrategy", "StaticRequestBinPack", "ViewBinPack",
           "GangBinPack", "make_strategy", "MEM_HEADROOM"]

#: Fraction of host memory :class:`ViewBinPack` leaves unpacked.
MEM_HEADROOM = 0.05


class PlacementStrategy:
    """Base class: defines feasibility and the best-fit score."""

    #: CLI/config identifier.
    name = "abstract"
    #: Whether the strategy understands gang co-placement.
    gang_aware = False

    def free_cpu(self, host: Host) -> float:
        raise NotImplementedError

    def free_mem(self, host: Host) -> float:
        raise NotImplementedError

    def cpu_need(self, fp: Footprint) -> float:
        raise NotImplementedError

    def mem_need(self, fp: Footprint) -> float:
        raise NotImplementedError

    def feasible(self, host: Host, fp: Footprint, *,
                 cpu_slack: float = 0.0, mem_slack: float = 0.0) -> bool:
        """Whether ``host`` can take ``fp`` (slack = already-reserved
        amounts from earlier picks in the same scheduling round)."""
        return (self.free_cpu(host) - cpu_slack >= self.cpu_need(fp)
                and self.free_mem(host) - mem_slack >= self.mem_need(fp))

    def fit_score(self, host: Host, fp: Footprint) -> float:
        """Best-fit: smaller remaining free CPU after placement is better."""
        return self.free_cpu(host) - self.cpu_need(fp)

    def choose(self, hosts: list[Host], fp: Footprint) -> Host | None:
        """Pick the feasible host with the tightest fit (name tie-break)."""
        best: Host | None = None
        best_key: tuple[float, str] | None = None
        for host in hosts:
            if not self.feasible(host, fp):
                continue
            key = (self.fit_score(host, fp), host.name)
            if best_key is None or key < best_key:
                best, best_key = host, key
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class StaticRequestBinPack(PlacementStrategy):
    """Best-fit-decreasing on declared requests (the baseline)."""

    name = "static"

    def free_cpu(self, host: Host) -> float:
        return host.free_cpu_request()

    def free_mem(self, host: Host) -> float:
        return host.free_mem_request()

    def cpu_need(self, fp: Footprint) -> float:
        return fp.cpu_request

    def mem_need(self, fp: Footprint) -> float:
        return fp.mem_request


class ViewBinPack(PlacementStrategy):
    """Best-fit-decreasing on the live adaptive-view footprint.

    :data:`MEM_HEADROOM` keeps a fraction of host memory unpacked so
    demand growth after admission does not immediately trigger reclaim.
    """

    name = "view"

    def free_cpu(self, host: Host) -> float:
        return host.free_cpu_view()

    def free_mem(self, host: Host) -> float:
        return host.free_mem_view() - MEM_HEADROOM * host.mem_capacity

    def cpu_need(self, fp: Footprint) -> float:
        return fp.cpu_live

    def mem_need(self, fp: Footprint) -> float:
        return fp.mem_live


class GangBinPack(PlacementStrategy):
    """Rank-aware all-or-nothing co-placement over a base strategy.

    Single pods delegate straight to the base.  For a gang, candidate
    hosts are ranked topology-aware — hosts already holding sibling
    ranks first, then most-free — and ranks are assigned greedily with
    per-host running reservations, so one scheduling round never
    over-fills a host.  If any rank cannot be placed the whole gang is
    rejected (no partial gangs, ever).
    """

    gang_aware = True

    def __init__(self, base: PlacementStrategy):
        self.base = base
        self.name = f"{base.name}-gang"

    # Single-pod interface: pure delegation.
    def free_cpu(self, host: Host) -> float:
        return self.base.free_cpu(host)

    def free_mem(self, host: Host) -> float:
        return self.base.free_mem(host)

    def cpu_need(self, fp: Footprint) -> float:
        return self.base.cpu_need(fp)

    def mem_need(self, fp: Footprint) -> float:
        return self.base.mem_need(fp)

    def choose_gang(self, hosts: list[Host],
                    specs: list[PodSpec]) -> list[tuple[PodSpec, Host]] | None:
        if not specs:
            return []
        gang_id = specs[0].gang
        # Topology rank: siblings-first, then most-free, then name.
        def host_key(h: Host) -> tuple[int, float, str]:
            siblings = sum(1 for p in h.pods.values()
                           if p.spec.gang == gang_id) if gang_id else 0
            return (-siblings, -self.free_cpu(h), h.name)

        ordered = sorted(hosts, key=host_key)
        cpu_slack: dict[str, float] = {}
        mem_slack: dict[str, float] = {}
        out: list[tuple[PodSpec, Host]] = []
        for spec in specs:
            fp = spec.footprint()
            chosen: Host | None = None
            for host in ordered:
                if self.feasible(host, fp,
                                 cpu_slack=cpu_slack.get(host.name, 0.0),
                                 mem_slack=mem_slack.get(host.name, 0.0)):
                    chosen = host
                    break
            if chosen is None:
                return None          # all-or-nothing: reject the gang
            cpu_slack[chosen.name] = (cpu_slack.get(chosen.name, 0.0)
                                      + self.cpu_need(fp))
            mem_slack[chosen.name] = (mem_slack.get(chosen.name, 0.0)
                                      + self.mem_need(fp))
            out.append((spec, chosen))
            # Re-rank: the chosen host now holds a sibling and less slack.
            ordered = sorted(ordered, key=lambda h: (
                -sum(1 for s, hh in out if hh is h) - sum(
                    1 for p in h.pods.values() if p.spec.gang == gang_id),
                -(self.free_cpu(h) - cpu_slack.get(h.name, 0.0)),
                h.name))
        return out


_STRATEGIES = {
    "static": lambda: StaticRequestBinPack(),
    "view": lambda: ViewBinPack(),
    "static-gang": lambda: GangBinPack(StaticRequestBinPack()),
    "view-gang": lambda: GangBinPack(ViewBinPack()),
}


def make_strategy(name: str) -> PlacementStrategy:
    """Instantiate a strategy by CLI name."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ClusterError(
            f"unknown placement strategy {name!r}: expected one of "
            f"{sorted(_STRATEGIES)}") from None
