"""Host sysfs/procfs, the virtual sysfs, and the ``sysconf`` surface.

Applications in the paper probe resources through glibc's ``sysconf``,
which in turn reads ``sysfs``/``procfs``:

* ``_SC_NPROCESSORS_ONLN`` — number of online CPUs,
* ``_SC_PHYS_PAGES * _SC_PAGESIZE`` — physical memory size.

Neither interface is container-aware in stock Linux, so containerized
processes see host totals.  The paper's fix (§3.2): when a querying
process is linked to namespaces other than the init namespaces, a
**virtual sysfs** is created for it on first use and all subsequent
queries are redirected there, returning the *effective* resources from
the process's ``sys_namespace``.

:class:`SysfsRegistry` implements that dispatch.  The host view is
served by :class:`HostSysfs`; redirected views by :class:`VirtualSysfs`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Protocol

from repro.errors import NamespaceError
from repro.kernel.cpu import HostCpus
from repro.kernel.loadavg import LoadTracker
from repro.kernel.mm.memcg import MemoryManager
from repro.kernel.proc import Process
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.sys_namespace import SysNamespace

__all__ = ["Sysconf", "HostSysfs", "VirtualSysfs", "SysfsRegistry"]


class Sysconf(enum.Enum):
    """The subset of glibc sysconf names the paper's runtimes use."""

    NPROCESSORS_ONLN = "_SC_NPROCESSORS_ONLN"
    NPROCESSORS_CONF = "_SC_NPROCESSORS_CONF"
    PHYS_PAGES = "_SC_PHYS_PAGES"
    AVPHYS_PAGES = "_SC_AVPHYS_PAGES"
    PAGESIZE = "_SC_PAGESIZE"


class SysfsView(Protocol):
    """Common surface of host and virtual sysfs."""

    def sysconf(self, name: Sysconf) -> int: ...
    def read(self, path: str) -> str: ...


class HostSysfs:
    """The system-wide sysfs/procfs: always reports host totals."""

    def __init__(self, host: HostCpus, mm: MemoryManager, loadavg: LoadTracker,
                 scheduler=None):
        self.host = host
        self.mm = mm
        self.loadavg = loadavg
        self.scheduler = scheduler

    def sysconf(self, name: Sysconf) -> int:
        if name is Sysconf.NPROCESSORS_ONLN or name is Sysconf.NPROCESSORS_CONF:
            return self.host.ncpus
        if name is Sysconf.PHYS_PAGES:
            return self.mm.total // PAGE_SIZE
        if name is Sysconf.AVPHYS_PAGES:
            return max(0, self.mm.free) // PAGE_SIZE
        if name is Sysconf.PAGESIZE:
            return PAGE_SIZE
        raise NamespaceError(f"unsupported sysconf name {name!r}")

    def read(self, path: str) -> str:
        if path == "/sys/devices/system/cpu/online":
            return self.host.online.to_spec()
        if path == "/proc/meminfo":
            info = self.mm.meminfo()
            return "".join(f"{k}: {v // 1024} kB\n" for k, v in info.items())
        if path == "/proc/loadavg":
            l1, l5, l15 = self.loadavg.as_tuple()
            return f"{l1:.2f} {l5:.2f} {l15:.2f}"
        if path == "/proc/stat":
            # Aggregate cpu line in USER_HZ (100 jiffies/second): busy
            # time from per-cgroup accounting, destroyed groups' included
            # (host time does not run backwards on a container teardown),
            # idle from the scheduler.
            cgroups = self.mm.cgroups
            busy = (sum(cg.total_cpu_time for cg in cgroups.walk())
                    + cgroups.retired_cpu_time)
            idle = (self.scheduler.total_idle_time
                    if self.scheduler is not None else 0.0)
            return (f"cpu {int(busy * 100)} 0 0 {int(idle * 100)} 0 0 0 0 0 0\n"
                    f"ncpus {self.host.ncpus}\n")
        raise NamespaceError(f"unknown sysfs/procfs path {path!r}")


class VirtualSysfs:
    """Per-container sysfs backed by a ``sys_namespace``.

    Exports effective CPU as a finite set of online CPUs (``0..E_CPU-1``)
    and effective memory as the physical memory size, which is exactly
    the compatibility trick of §3.1: applications that count CPUs or
    multiply ``_SC_PHYS_PAGES * _SC_PAGESIZE`` need no changes.
    """

    def __init__(self, sys_ns: "SysNamespace", host: HostSysfs):
        self.sys_ns = sys_ns
        self.host = host

    def sysconf(self, name: Sysconf) -> int:
        if name is Sysconf.NPROCESSORS_ONLN or name is Sysconf.NPROCESSORS_CONF:
            return self.sys_ns.e_cpu
        if name is Sysconf.PHYS_PAGES:
            return self.sys_ns.e_mem // PAGE_SIZE
        if name is Sysconf.AVPHYS_PAGES:
            used = self.sys_ns.cgroup.memory.usage_in_bytes
            return max(0, self.sys_ns.e_mem - used) // PAGE_SIZE
        if name is Sysconf.PAGESIZE:
            return PAGE_SIZE
        raise NamespaceError(f"unsupported sysconf name {name!r}")

    def read(self, path: str) -> str:
        if path == "/sys/devices/system/cpu/online":
            e = self.sys_ns.e_cpu
            return f"0-{e - 1}" if e > 1 else "0"
        if path == "/proc/meminfo":
            used = self.sys_ns.cgroup.memory.usage_in_bytes
            free = max(0, self.sys_ns.e_mem - used)
            return (f"MemTotal: {self.sys_ns.e_mem // 1024} kB\n"
                    f"MemFree: {free // 1024} kB\n"
                    f"MemAvailable: {free // 1024} kB\n")
        # Anything else falls through to the host view (mount passthrough).
        return self.host.read(path)


class SysfsRegistry:
    """Dispatches resource queries to the host or a virtual sysfs.

    Mirrors the interception logic of §3.2: the first query from a
    process in a non-init namespace set creates (and caches) its virtual
    sysfs; later queries are redirected there.
    """

    def __init__(self, host_sysfs: HostSysfs):
        self.host_sysfs = host_sysfs
        self._virtual: dict[int, VirtualSysfs] = {}  # keyed by sys namespace id
        self.redirect_count = 0

    def view_for(self, proc: Process) -> SysfsView:
        """The sysfs a query from ``proc`` is served by."""
        sys_ns = proc.sys_namespace()
        if sys_ns is None or proc.in_init_namespaces:
            return self.host_sysfs
        view = self._virtual.get(sys_ns.ns_id)
        if view is None:
            view = VirtualSysfs(sys_ns, self.host_sysfs)  # type: ignore[arg-type]
            self._virtual[sys_ns.ns_id] = view
        self.redirect_count += 1
        return view

    def sysconf(self, proc: Process, name: Sysconf) -> int:
        """glibc's ``sysconf`` as seen by ``proc``."""
        return self.view_for(proc).sysconf(name)

    def read(self, proc: Process, path: str) -> str:
        """A ``read()`` of a sysfs/procfs path as seen by ``proc``."""
        if path == "/proc/self/cgroup":
            # cgroup-v2-style single line: which cgroup the caller is in.
            return f"0::{proc.cgroup.path}\n"
        return self.view_for(proc).read(path)

    def drop(self, sys_ns_id: int) -> None:
        """Forget the cached virtual sysfs of a torn-down container."""
        self._virtual.pop(sys_ns_id, None)
