"""Parallel Scavenge garbage collection."""

from repro.jvm.gc.parallel_scavenge import (dynamic_active_workers,
                                            major_gc_work, minor_gc_work)

__all__ = ["dynamic_active_workers", "major_gc_work", "minor_gc_work"]
