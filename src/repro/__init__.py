"""repro — "Adaptive Resource Views for Containers" (HPDC '19) reproduction.

The package implements the paper's per-container adaptive resource view
(``sys_namespace`` + virtual sysfs + ``ns_monitor``) on top of a
simulated OS kernel (fluid CFS scheduler, cgroups, memory manager with
kswapd and swap), together with the two case-study runtimes — an
elastic HotSpot-style JVM and an OpenMP runtime with dynamic
parallelism — and the workloads and harness needed to regenerate every
figure of the paper's evaluation.

Quickstart::

    from repro import World, ContainerSpec, gib

    world = World(ncpus=20, memory=gib(128))
    c = world.containers.create(ContainerSpec("c0", cpu_shares=1024))
    world.run(until=1.0)
    print(c.e_cpu, c.e_mem)
"""

from repro.container import Container, ContainerRuntime, ContainerSpec, ContainerState
from repro.container.fleet import deploy_fleet, parse_size
from repro.core import (CpuBounds, CpuViewParams, MemorySample, MemViewParams,
                        NsMonitor, ResourceView, SysNamespace)
from repro.errors import (ContainerError, JvmError, OpenMpError, OutOfMemoryError,
                          PolicyError, ReproError, WorkloadError)
from repro.kernel import CpuSet, Sysconf
from repro.metrics import Histogram, MetricsRecorder, Series
from repro.policy import (ReclaimPolicy, SchedPolicy, make_reclaim_policy,
                          make_sched_policy, register_reclaim_policy,
                          register_sched_policy, resolve_bundle)
from repro.obs import (CgroupPressure, PressureStall, jsonl_export,
                       jsonl_import, prometheus_text)
from repro.tracelog import TraceEvent, TraceLog, TraceSpan
from repro.units import GiB, KiB, MiB, gib, kib, mib
from repro.world import World

__version__ = "1.0.0"

__all__ = [
    "World",
    "Container", "ContainerRuntime", "ContainerSpec", "ContainerState",
    "deploy_fleet", "parse_size", "MetricsRecorder", "Series", "Histogram",
    "TraceEvent", "TraceLog", "TraceSpan",
    "PressureStall", "CgroupPressure",
    "prometheus_text", "jsonl_export", "jsonl_import",
    "CpuBounds", "CpuViewParams", "MemorySample", "MemViewParams",
    "NsMonitor", "ResourceView", "SysNamespace",
    "ReproError", "ContainerError", "JvmError", "OpenMpError",
    "OutOfMemoryError", "PolicyError", "WorkloadError",
    "SchedPolicy", "ReclaimPolicy", "resolve_bundle",
    "make_sched_policy", "make_reclaim_policy",
    "register_sched_policy", "register_reclaim_policy",
    "CpuSet", "Sysconf",
    "KiB", "MiB", "GiB", "kib", "mib", "gib",
    "__version__",
]
