"""repro.cluster — multi-host cluster layer over the single-World simulator.

Promotes the paper's adaptive views (``E_CPU``/``E_MEM``) from a
per-container signal to a *cluster* signal: a :class:`Cluster` of N
lockstep :class:`Host` worlds, a placement scheduler that bin-packs on
live views (with a static-request baseline and gang/rank-aware
co-placement), ledger-conserving container migration, and a horizontal
pod autoscaler that layers over the vertical ``serve.Autoscaler`` so
HPA/VPA interference is a first-class experiment.

Entry points::

    python -m repro cluster                 # the exp_cluster experiment
    python -m repro cluster --quick --jobs 4   # trials across 4 processes
"""

from repro.cluster.cluster import Cluster, ClusterParams
from repro.cluster.hpa import HorizontalAutoscaler, HpaParams
from repro.cluster.host import Host, HostLedger
from repro.cluster.migration import MigrationRecord, drain_pod, readmit_pod
from repro.cluster.placement import (GangBinPack, PlacementStrategy,
                                     StaticRequestBinPack, ViewBinPack,
                                     make_strategy)
from repro.cluster.pod import Footprint, PlacedPod, PodRecord, PodSpec

__all__ = [
    "Cluster", "ClusterParams", "Host", "HostLedger",
    "PodSpec", "PlacedPod", "PodRecord", "Footprint",
    "PlacementStrategy", "StaticRequestBinPack", "ViewBinPack",
    "GangBinPack", "make_strategy",
    "MigrationRecord", "drain_pod", "readmit_pod",
    "HorizontalAutoscaler", "HpaParams",
]
