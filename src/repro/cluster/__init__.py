"""repro.cluster — multi-host cluster layer over the single-World simulator.

Promotes the paper's adaptive views (``E_CPU``/``E_MEM``) from a
per-container signal to a *cluster* signal: a :class:`Cluster` of N
lockstep :class:`Host` worlds, a placement scheduler that bin-packs on
live views (with a static-request baseline and gang/rank-aware
co-placement), ledger-conserving container migration, and a horizontal
pod autoscaler that layers over the vertical ``serve.Autoscaler`` so
HPA/VPA interference is a first-class experiment.

There is one record per host (:class:`Host`: its world, its pods and
the placement surface the strategies read) and one per pod
(:class:`PlacedPod`, which survives re-homes).  Admissions, bursts and
migrations are applied to the host worlds as they are decided; each
epoch barrier refreshes the placement surfaces from the worlds.

Entry points::

    python -m repro run exp_cluster                  # the experiment
    python -m repro run exp_cluster --quick --jobs 4 # trials across 4 processes
"""

from repro.cluster.cluster import Cluster, ClusterParams
from repro.cluster.hpa import HorizontalAutoscaler, HpaParams
from repro.cluster.host import Host
from repro.cluster.migration import MigrationRecord, migrate_pod
from repro.cluster.placement import (GangBinPack, PlacementStrategy,
                                     StaticRequestBinPack, ViewBinPack,
                                     make_strategy)
from repro.cluster.pod import Footprint, PlacedPod, PodSpec

__all__ = [
    "Cluster", "ClusterParams", "Host",
    "PodSpec", "PlacedPod", "Footprint",
    "PlacementStrategy", "StaticRequestBinPack", "ViewBinPack",
    "GangBinPack", "make_strategy",
    "MigrationRecord", "migrate_pod",
    "HorizontalAutoscaler", "HpaParams",
]
