"""Simulated OS kernel: CPUs, tasks, scheduler, cgroups, memory, sysfs."""

from repro.kernel.cgroup import Cgroup, CgroupEvent, CgroupEventKind, CgroupRoot
from repro.kernel.cpu import CpuSet, HostCpus
from repro.kernel.loadavg import LoadAvgParams, LoadTracker
from repro.kernel.namespace import Namespace, NamespaceKind, NamespaceSet, PidNamespace
from repro.kernel.proc import Process, ProcessState, ProcessTable
from repro.kernel.sysfs import HostSysfs, Sysconf, SysfsRegistry, VirtualSysfs
from repro.kernel.task import SimThread, ThreadState, ThreadTeam

__all__ = [
    "Cgroup", "CgroupEvent", "CgroupEventKind", "CgroupRoot",
    "CpuSet", "HostCpus",
    "LoadAvgParams", "LoadTracker",
    "Namespace", "NamespaceKind", "NamespaceSet", "PidNamespace",
    "Process", "ProcessState", "ProcessTable",
    "HostSysfs", "Sysconf", "SysfsRegistry", "VirtualSysfs",
    "SimThread", "ThreadState", "ThreadTeam",
]
