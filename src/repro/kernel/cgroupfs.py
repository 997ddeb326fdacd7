"""cgroupfs: the file interface over control groups.

Administrators (and container-aware runtimes like JDK 9/10) interact
with cgroups through files under ``/sys/fs/cgroup/<controller>/...``.
This module provides that surface over the simulated hierarchy —
``read``/``write`` with the exact string formats Linux uses — so that

* experiments can change shares/limits mid-run exactly like
  ``echo 512 > .../cpu.shares`` (which fires the cgroup events
  ``ns_monitor`` subscribes to), and
* the JDK detection policies can literally parse the same files the
  real JVMs parse.
"""

from __future__ import annotations

from repro.errors import CgroupError
from repro.kernel.cgroup import Cgroup, CgroupRoot
from repro.kernel.cpu import CpuSet

__all__ = ["UNLIMITED_BYTES", "CgroupFs"]

#: What Linux reports for an unset memory limit (PAGE_COUNTER_MAX pages).
UNLIMITED_BYTES = 9223372036854771712

_ROOT = "/sys/fs/cgroup"
_CONTROLLERS = ("cpu", "cpuset", "memory")


class CgroupFs:
    """Path-based read/write access to cgroup controller files."""

    def __init__(self, cgroups: CgroupRoot):
        self.cgroups = cgroups

    # -- path handling --------------------------------------------------------

    def _resolve(self, path: str) -> tuple[str, Cgroup, str]:
        """Split ``/sys/fs/cgroup/cpu/docker/c1/cpu.shares`` into
        (controller, cgroup, filename)."""
        if not path.startswith(_ROOT + "/"):
            raise CgroupError(f"not a cgroupfs path: {path!r}")
        rest = path[len(_ROOT) + 1:]
        controller, _, tail = rest.partition("/")
        if controller not in _CONTROLLERS:
            raise CgroupError(f"unknown cgroup controller {controller!r}")
        if not tail:
            raise CgroupError(f"missing file name in {path!r}")
        *cg_parts, filename = tail.split("/")
        cg = self.cgroups.lookup("/" + "/".join(cg_parts))
        return controller, cg, filename

    def path_of(self, cg: Cgroup, controller: str, filename: str) -> str:
        """The cgroupfs path of one controller file of ``cg``."""
        rel = cg.path.strip("/")
        middle = f"/{rel}" if rel else ""
        return f"{_ROOT}/{controller}{middle}/{filename}"

    # -- reads -----------------------------------------------------------------

    def read(self, path: str) -> str:
        controller, cg, filename = self._resolve(path)
        readers = _READERS.get((controller, filename))
        if readers is None:
            raise CgroupError(f"no such cgroup file: {path!r}")
        return readers(cg)

    # -- writes ("echo value > file") ---------------------------------------------

    def write(self, path: str, value: str) -> None:
        controller, cg, filename = self._resolve(path)
        writer = _WRITERS.get((controller, filename))
        if writer is None:
            raise CgroupError(f"cgroup file not writable (or unknown): {path!r}")
        writer(cg, value.strip())

    def list_dir(self, controller: str, cgroup_path: str = "/") -> list[str]:
        """Files available for a cgroup under one controller."""
        if controller not in _CONTROLLERS:
            raise CgroupError(f"unknown cgroup controller {controller!r}")
        self.cgroups.lookup(cgroup_path)  # validate
        return sorted(f for (ctrl, f) in _READERS if ctrl == controller)


# -- file tables -----------------------------------------------------------------


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CgroupError(f"invalid integer for {what}: {value!r}") from None


def _read_quota(cg: Cgroup) -> str:
    q = cg.cpu.cfs_quota_us
    return "-1" if q is None else str(q)


def _write_quota(cg: Cgroup, value: str) -> None:
    n = _parse_int(value, "cpu.cfs_quota_us")
    cg.set_cpu_quota(None if n < 0 else n)


def _write_period(cg: Cgroup, value: str) -> None:
    cg.set_cpu_quota(cg.cpu.cfs_quota_us, _parse_int(value, "cpu.cfs_period_us"))


def _read_mem_limit(cg: Cgroup) -> str:
    limit = cg.memory.limit_in_bytes
    return str(UNLIMITED_BYTES if limit is None else limit)


def _write_mem_limit(cg: Cgroup, value: str) -> None:
    n = _parse_int(value, "memory.limit_in_bytes")
    cg.set_memory_limit(None if n < 0 or n >= UNLIMITED_BYTES else n)


def _read_soft_limit(cg: Cgroup) -> str:
    limit = cg.memory.soft_limit_in_bytes
    return str(UNLIMITED_BYTES if limit is None else limit)


def _write_soft_limit(cg: Cgroup, value: str) -> None:
    n = _parse_int(value, "memory.soft_limit_in_bytes")
    cg.set_memory_soft_limit(None if n < 0 or n >= UNLIMITED_BYTES else n)


def _read_memory_stat(cg: Cgroup) -> str:
    m = cg.memory
    return (f"rss {m.resident}\nswap {m.swapped}\n"
            f"swap_in {m.swapin_total}\nswap_out {m.swapout_total}\n")


def _read_procs(cg: Cgroup) -> str:
    tids = sorted(t.tid for t in cg.threads if t.state.value != "exited")
    return "".join(f"{tid}\n" for tid in tids)


def _read_cpu_stat(cg: Cgroup) -> str:
    """``cpu.stat``: usage and throttling counters.

    The fluid scheduler has no discrete periods, so ``nr_periods`` is
    derived from elapsed usage at the configured ``cfs_period_us``
    (none accrue without a quota); ``nr_throttled`` is
    :attr:`Cgroup.nr_throttled`, and ``throttled_time`` is the integral
    of demand the quota clipped (reported in nanoseconds like the
    kernel).  Throttled periods are elapsed periods, so
    ``nr_throttled`` never exceeds ``nr_periods`` — the kernel's
    invariant — and lifting the quota keeps both counts.
    """
    period_s = cg.cpu.cfs_period_us / 1e6
    usage_s = cg.total_cpu_time
    nr_throttled = cg.nr_throttled
    nr_periods = max(
        int(usage_s / max(period_s * max(1.0, cg.cpu.quota_cores), 1e-9)),
        nr_throttled)
    return (f"nr_periods {nr_periods}\n"
            f"nr_throttled {nr_throttled}\n"
            f"throttled_time {int(cg.throttled_time * 1e9)}\n"
            f"usage_usec {int(usage_s * 1e6)}\n")


_READERS = {
    ("cpu", "cpu.shares"): lambda cg: str(cg.cpu.shares),
    ("cpu", "cpu.stat"): _read_cpu_stat,
    ("cpu", "cpu.pressure"): lambda cg: cg.pressure.cpu.format(),
    ("memory", "memory.pressure"): lambda cg: cg.pressure.memory.format(),
    ("cpu", "cpu.cfs_quota_us"): _read_quota,
    ("cpu", "cpu.cfs_period_us"): lambda cg: str(cg.cpu.cfs_period_us),
    ("cpu", "cgroup.procs"): _read_procs,
    ("cpuset", "cpuset.cpus"): lambda cg: cg.effective_cpuset().to_spec(),
    ("memory", "memory.limit_in_bytes"): _read_mem_limit,
    ("memory", "memory.soft_limit_in_bytes"): _read_soft_limit,
    ("memory", "memory.usage_in_bytes"): lambda cg: str(cg.memory.usage_in_bytes),
    ("memory", "memory.stat"): _read_memory_stat,
}

_WRITERS = {
    ("cpu", "cpu.shares"): lambda cg, v: cg.set_cpu_shares(
        _parse_int(v, "cpu.shares")),
    ("cpu", "cpu.cfs_quota_us"): _write_quota,
    ("cpu", "cpu.cfs_period_us"): _write_period,
    ("cpuset", "cpuset.cpus"): lambda cg, v: cg.set_cpuset(
        CpuSet.parse(v) if v else None),
    ("memory", "memory.limit_in_bytes"): _write_mem_limit,
    ("memory", "memory.soft_limit_in_bytes"): _write_soft_limit,
}
