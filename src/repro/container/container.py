"""A running container: cgroup + namespaces + init process + threads."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.container.spec import ContainerSpec
from repro.core.sys_namespace import SysNamespace
from repro.core.view import ResourceView
from repro.errors import ContainerError
from repro.kernel.cgroup import Cgroup
from repro.kernel.proc import Process
from repro.kernel.task import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.world import World

__all__ = ["ContainerState", "Container"]


class ContainerState(enum.Enum):
    RUNNING = "running"
    STOPPED = "stopped"


class Container:
    """Handle to a live container.

    Runtimes spawn their threads through :meth:`spawn_thread` so the
    threads land in the container's cgroup, and read resources through
    :meth:`resource_view`, which is served by the container's virtual
    sysfs (and therefore reports *effective* CPU and memory).
    """

    def __init__(self, world: "World", spec: ContainerSpec, cgroup: Cgroup,
                 init_process: Process, sys_ns: SysNamespace):
        self.world = world
        self.spec = spec
        self.cgroup = cgroup
        self.init_process = init_process
        self.sys_ns = sys_ns
        self.state = ContainerState.RUNNING
        self.threads: list[SimThread] = []
        self.started_at = world.clock.now
        #: Lifetime span id, owned by the runtime (0 when tracing is off).
        self.life_span = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def spawn_thread(self, name: str) -> SimThread:
        """Create a (blocked) thread inside the container's cgroup."""
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(f"container {self.name!r} is not running")
        t = SimThread(f"{self.name}/{name}", self.cgroup,
                      created_at=self.world.clock.now)
        self.threads.append(t)
        return t

    def spawn_process(self, name: str) -> Process:
        """Fork a process inside the container (inherits its namespaces)."""
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(f"container {self.name!r} is not running")
        return self.world.procs.fork(self.init_process, f"{self.name}/{name}",
                                     cgroup=self.cgroup)

    def resource_view(self) -> ResourceView:
        """The container's view of resources (via the virtual sysfs)."""
        return ResourceView(self.world.sysfs_registry, self.init_process)

    # -- convenience accessors used by the runtimes --------------------------

    @property
    def e_cpu(self) -> int:
        return self.sys_ns.e_cpu

    @property
    def e_mem(self) -> int:
        return self.sys_ns.e_mem

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.name!r} {self.state.value}>"
