"""``ns_monitor`` — the system-wide watcher of cgroup configuration.

§3.2: "Ns_monitor is implemented as a system-wide kernel thread.  We
modify the source code of cgroups to invoke ns_monitor if a
sys_namespace exists for a control group and there is a change to the
cgroups settings."

The monitor keeps the registry of live ``sys_namespace``s and, on every
cgroup event, keeps the static pieces of the resource views current.
Its work is proportional to what changes, not to how many views exist:

* a namespace's CPU bounds read its own :func:`cpu_bounds_key` —
  ``(shares, quota CPUs, |cpuset|)`` — plus the share total ``Σw`` of
  all registered namespaces and the fixed host CPU count.  The monitor
  keeps ``Σw`` as a running total and groups registered namespaces into
  *bounds classes* by key;
* registration, termination or a ``cpu.shares`` edit changes ``Σw``, so
  each class's bounds are recomputed once, and only the members of
  classes whose bounds moved are rewritten (bounds, then the ``E_CPU``
  clamp).  Skipping the rest is exact: every ``E_CPU`` already lies
  inside its unchanged bounds, so re-clamping it is a no-op;
* every edit of a namespace's own shares, quota or cpuset fires
  ``CPU_CHANGED`` on its cgroup, which moves that namespace to its new
  class and refreshes it;
* a memory-limit edit refreshes that namespace's soft/hard limits.
"""

from __future__ import annotations

from repro.core.effective_cpu import CpuBounds, compute_cpu_bounds, cpu_bounds_key
from repro.core.sys_namespace import SysNamespace
from repro.kernel.cgroup import CgroupEvent, CgroupEventKind, CgroupRoot

__all__ = ["NsMonitor"]


class _BoundsClass:
    """Registered namespaces sharing one bounds key, and their bounds."""

    __slots__ = ("bounds", "members")

    def __init__(self, bounds: CpuBounds):
        self.bounds = bounds
        self.members: dict[str, SysNamespace] = {}


class NsMonitor:
    """Registry of sys_namespaces plus the cgroup-event subscriber."""

    def __init__(self, cgroups: CgroupRoot):
        self.cgroups = cgroups
        self.ncpus = cgroups.host.ncpus
        self._by_cgroup: dict[str, SysNamespace] = {}
        #: Bounds key each registered path was last filed under; its
        #: shares are the path's contribution to ``_total_shares``.
        self._key_seen: dict[str, tuple[int, int, int]] = {}
        self._total_shares = 0
        self._classes: dict[tuple[int, int, int], _BoundsClass] = {}
        self.events_seen = 0
        cgroups.subscribe(self._on_cgroup_event)

    # -- registry ----------------------------------------------------------

    def register(self, sys_ns: SysNamespace) -> None:
        """Add a new container's namespace and rebalance everyone's bounds."""
        self._by_cgroup[sys_ns.cgroup.path] = sys_ns
        sys_ns.refresh_memory_limits()
        self._set_total(self._total_shares + sys_ns.cgroup.cpu.shares)
        sys_ns.initialize_cpu(self._total_shares)
        self._join(sys_ns)

    def unregister(self, sys_ns: SysNamespace) -> None:
        """Remove a terminated container's namespace and rebalance."""
        self._drop(sys_ns.cgroup.path)

    @property
    def namespaces(self) -> list[SysNamespace]:
        return list(self._by_cgroup.values())

    # -- bounds classes --------------------------------------------------------

    def _join(self, ns: SysNamespace) -> None:
        """File ``ns``, whose bounds are current, under its bounds key."""
        key = cpu_bounds_key(ns.cgroup)
        self._key_seen[ns.cgroup.path] = key
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = _BoundsClass(ns.bounds)
        cls.members[ns.cgroup.path] = ns

    def _leave(self, path: str) -> int:
        """Unfile ``path``; returns the shares it contributed to the total."""
        key = self._key_seen.pop(path)
        members = self._classes[key].members
        del members[path]
        if not members:
            del self._classes[key]
        return key[0]

    def _drop(self, path: str) -> SysNamespace | None:
        ns = self._by_cgroup.pop(path, None)
        if ns is not None:
            self._set_total(self._total_shares - self._leave(path))
        return ns

    def _set_total(self, total: int) -> None:
        if total != self._total_shares:
            self._total_shares = total
            self._rebalance()

    def _rebalance(self) -> None:
        """Recompute each class's bounds at the current ``Σw``.

        Only the members of classes whose bounds moved are rewritten.
        """
        total = self._total_shares
        for cls in self._classes.values():
            rep = next(iter(cls.members.values()))
            bounds = compute_cpu_bounds(rep.cgroup, total, self.ncpus)
            if bounds != cls.bounds:
                cls.bounds = bounds
                for ns in cls.members.values():
                    ns.refresh_cpu_bounds(total)

    # -- cgroup-event handling -----------------------------------------------

    def _on_cgroup_event(self, event: CgroupEvent) -> None:
        self.events_seen += 1
        path = event.cgroup.path
        if event.kind is CgroupEventKind.CPU_CHANGED:
            ns = self._by_cgroup.get(path)
            if ns is not None:
                old_shares = self._leave(path)
                self._set_total(self._total_shares - old_shares
                                + event.cgroup.cpu.shares)
                ns.refresh_cpu_bounds(self._total_shares)
                self._join(ns)
        elif event.kind is CgroupEventKind.MEMORY_CHANGED:
            ns = self._by_cgroup.get(path)
            if ns is not None:
                ns.refresh_memory_limits()
        elif event.kind is CgroupEventKind.DESTROYED:
            ns = self._drop(path)
            if ns is not None:
                ns.stop_timer()
        # CREATED is a no-op: registration happens when the container
        # runtime finishes namespace setup.
