"""Parallel Scavenge cost model and collection arithmetic.

A collection's serial CPU work is derived from the bytes it must scan
and copy; the work is then split evenly over the activated GC threads
(a :class:`~repro.kernel.task.ThreadTeam`), so wall-clock GC time
emerges from the CFS model: threads beyond the container's CPU allocation
time-slice (and pay the context-switch penalty), while each
activated thread also pays a synchronization/barrier cost that grows
with the team size — the two effects that make over-threading slow and
under-threading wasteful, with the optimum at the container's effective
CPU count (§2.2, §5.2).
"""

from __future__ import annotations

from repro.errors import JvmError
from repro.units import GiB, MiB

__all__ = ["minor_gc_work", "major_gc_work", "dynamic_active_workers"]


# Calibration constants of the GC cost model.

#: Serial fixed cost of a minor collection (root scanning, setup).
MINOR_FIXED = 1.5e-3
#: Cost per eden byte examined (card tables make dead-object space
#: nearly free to skip; live tracing is the copy term below).
SCAN_PER_BYTE = 1.0 / (64 * GiB)
#: Cost per surviving byte traced and copied to survivor/old space.
COPY_PER_BYTE = 1.0 / (0.3 * GiB)
#: Serial fixed cost of a major collection.
MAJOR_FIXED = 8e-3
#: Cost per old-generation byte marked+compacted (slower than copy).
MAJOR_PER_BYTE = 1.0 / (0.5 * GiB)
#: Per-worker synchronization cost, multiplied by team size
#: (wake-up, termination protocol, barrier).
SYNC_PER_THREAD = 200e-6
#: Lock-holder-preemption coefficient: a GC team larger than the
#: container's CPU allocation gets its workers preempted inside the
#: work-stealing/termination critical sections, inflating total GC
#: work by ``1 + lhp * min(team/cores - 1, cap)``.  This is what makes
#: over-threaded stop-the-world collections catastrophically slow
#: (§2.2), unlike oversubscribed *independent* mutator threads.  The
#: saturation cap reflects that once every core is time-slicing
#: preempted lock holders, adding yet more threads changes little —
#: which is why JDK 8's 15 GC threads and JDK 9's statically-detected
#: 9–10 perform almost equally badly in Fig. 2(a).
LOCK_HOLDER_PREEMPTION = 1.5
#: Saturation point of the oversubscription term above.
LHP_OVERSUB_CAP = 1.5
#: Extra interference sensitivity of the synchronizing GC team:
#: multiplies GC work by ``1 + sens * (domain_pressure - 1)`` when
#: co-runners oversubscribe the container's contention domain.  This
#: is why adaptive GC times grow past JDK 9's cpuset-isolated GC as
#: co-runner count rises (Fig. 7(f)-(j)) even though execution time
#: still favours the adaptive JVM.
INTERFERENCE_SENSITIVITY = 0.4
#: HotSpot's HeapSizePerGCThread analogue for dynamic GC threads.
HEAP_BYTES_PER_GC_THREAD = 96 * MiB


def minor_gc_work(eden_used: int, surviving: int) -> float:
    """Serial CPU work of a minor collection (cpu-seconds)."""
    if eden_used < 0 or surviving < 0:
        raise JvmError("GC byte counts cannot be negative")
    return (MINOR_FIXED
            + eden_used * SCAN_PER_BYTE
            + surviving * COPY_PER_BYTE)


def major_gc_work(old_used: int) -> float:
    """Serial CPU work of a major (full old-gen) collection."""
    if old_used < 0:
        raise JvmError("GC byte counts cannot be negative")
    return MAJOR_FIXED + old_used * MAJOR_PER_BYTE


def gc_work_inflation(n_threads: int, cores_available: float, *,
                      domain_pressure: float = 0.0) -> float:
    """Work-inflation factor for one collection.

    Combines lock-holder preemption from the team's own oversubscription
    with the team's heightened sensitivity to co-runner interference
    (both described on the constants above).
    """
    if n_threads < 1:
        raise JvmError("n_threads must be >= 1")
    if cores_available <= 0:
        raise JvmError("cores_available must be positive")
    oversub = max(0.0, n_threads / cores_available - 1.0)
    oversub = min(oversub, LHP_OVERSUB_CAP)
    inflation = 1.0 + LOCK_HOLDER_PREEMPTION * oversub
    if domain_pressure > 1.0:
        inflation *= 1.0 + INTERFERENCE_SENSITIVITY * (domain_pressure - 1.0)
    return inflation


def dynamic_active_workers(n_created: int, mutators: int,
                           heap_used: int) -> int:
    """HotSpot's "dynamic GC threads" heuristic (simplified).

    Active workers scale with the number of mutator threads (2/3 of
    them, as in HotSpot's ``calc_default_active_workers``) and with the
    heap being collected, while a minimum amount of work per thread
    (``HEAP_BYTES_PER_GC_THREAD``) prevents pointless over-threading —
    the property §5.2 credits for "dynamic" beating "vanilla".
    """
    if n_created < 1:
        raise JvmError("n_created must be >= 1")
    by_mutators = (2 * max(1, mutators) + 2) // 3
    by_heap = max(1, -(-heap_used // HEAP_BYTES_PER_GC_THREAD))  # ceil
    return max(1, min(n_created, max(by_mutators, by_heap)))
