"""JVM configuration: command-line-flag equivalents and policy selection."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import JvmError

__all__ = ["CpuDetectMode", "HeapDetectMode", "GcThreadMode", "JvmConfig"]


class CpuDetectMode(enum.Enum):
    """How the JVM determines the CPU count at launch (§2.2, §4.1)."""

    #: JDK 8 and earlier: probe host online CPUs via sysconf (stock kernel).
    HOST = "host"
    #: JDK 9: read the container's cpuset / cfs quota from cgroupfs.
    CGROUP_LIMIT = "cgroup_limit"
    #: JDK 10: like JDK 9, falling back to ``cpu.shares/1024`` when no
    #: limit is present.
    CGROUP_SHARES = "cgroup_shares"
    #: The paper's approach: effective CPU from the virtual sysfs.
    ADAPTIVE = "adaptive"


class HeapDetectMode(enum.Enum):
    """How the maximum heap size is determined when ``-Xmx`` is absent."""

    #: JDK 8: a quarter of host physical memory.
    HOST_QUARTER = "host_quarter"
    #: JDK 9/10: a quarter of the container's hard memory limit.
    LIMIT_QUARTER = "limit_quarter"
    #: Hand-optimised: exactly the hard limit (Fig. 2(b) ``hard_JVM8``).
    HARD_LIMIT = "hard_limit"
    #: Hand-optimised: exactly the soft limit (Fig. 2(b) ``soft_JVM8``).
    SOFT_LIMIT = "soft_limit"
    #: The paper's elastic heap: a dynamic VirtualMax tracks E_MEM (§4.2).
    ELASTIC = "elastic"


class GcThreadMode(enum.Enum):
    """How many of the created GC workers each collection activates."""

    #: All created workers, every GC (static ParallelGCThreads).
    STATIC = "static"
    #: HotSpot's dynamic GC threads: ``min(N, N_active)`` where N_active
    #: derives from mutator count and heap usage.
    DYNAMIC = "dynamic"
    #: The paper's formula: ``min(N, N_active, E_CPU)`` (§4.1).
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class JvmConfig:
    """A JVM launch configuration.

    ``xms``/``xmx``/``gc_threads`` mirror ``-Xms``/``-Xmx``/
    ``-XX:ParallelGCThreads``; unset values are auto-configured by the
    detection policies, exactly the behaviour the paper studies.
    """

    cpu_detect: CpuDetectMode = CpuDetectMode.HOST
    heap_detect: HeapDetectMode = HeapDetectMode.HOST_QUARTER
    gc_thread_mode: GcThreadMode = GcThreadMode.DYNAMIC
    xms: int | None = None
    xmx: int | None = None
    gc_threads: int | None = None

    def __post_init__(self) -> None:
        if self.xms is not None and self.xms <= 0:
            raise JvmError(f"-Xms must be positive, got {self.xms}")
        if self.xmx is not None and self.xmx <= 0:
            raise JvmError(f"-Xmx must be positive, got {self.xmx}")
        if self.xms is not None and self.xmx is not None and self.xms > self.xmx:
            raise JvmError(f"-Xms {self.xms} exceeds -Xmx {self.xmx}")
        if self.gc_threads is not None and self.gc_threads < 1:
            raise JvmError(f"ParallelGCThreads must be >= 1, got {self.gc_threads}")

    # -- presets matching the labels used in the paper's figures ------------

    @classmethod
    def vanilla_jdk8(cls, **kw) -> "JvmConfig":
        """Container-oblivious JDK 8 ("vanilla"): host CPUs, host/4 heap."""
        kw.setdefault("gc_thread_mode", GcThreadMode.STATIC)
        kw.setdefault("cpu_detect", CpuDetectMode.HOST)
        kw.setdefault("heap_detect", HeapDetectMode.HOST_QUARTER)
        return cls(**kw)

    @classmethod
    def dynamic_jdk8(cls, **kw) -> "JvmConfig":
        """JDK 8 with HotSpot's dynamic GC threads enabled ("dynamic")."""
        kw.setdefault("gc_thread_mode", GcThreadMode.DYNAMIC)
        kw.setdefault("cpu_detect", CpuDetectMode.HOST)
        kw.setdefault("heap_detect", HeapDetectMode.HOST_QUARTER)
        return cls(**kw)

    @classmethod
    def jdk9(cls, **kw) -> "JvmConfig":
        """Container-aware JDK 9: static cgroup limits."""
        kw.setdefault("gc_thread_mode", GcThreadMode.DYNAMIC)
        kw.setdefault("cpu_detect", CpuDetectMode.CGROUP_LIMIT)
        kw.setdefault("heap_detect", HeapDetectMode.LIMIT_QUARTER)
        return cls(**kw)

    @classmethod
    def jdk10(cls, **kw) -> "JvmConfig":
        """JDK 10: cgroup limits plus share-derived core counts."""
        kw.setdefault("gc_thread_mode", GcThreadMode.DYNAMIC)
        kw.setdefault("cpu_detect", CpuDetectMode.CGROUP_SHARES)
        kw.setdefault("heap_detect", HeapDetectMode.LIMIT_QUARTER)
        return cls(**kw)

    @classmethod
    def adaptive(cls, **kw) -> "JvmConfig":
        """The paper's JVM: effective CPU + elastic heap."""
        kw.setdefault("heap_detect", HeapDetectMode.ELASTIC)
        kw.setdefault("cpu_detect", CpuDetectMode.ADAPTIVE)
        kw.setdefault("gc_thread_mode", GcThreadMode.ADAPTIVE)
        return cls(**kw)
