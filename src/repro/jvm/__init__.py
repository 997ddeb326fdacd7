"""Simulated HotSpot JVM with dynamic parallelism and elastic heap."""

from repro.jvm.adaptive_sizing import (AdaptiveSizePolicy, BaseSizePolicy,
                                       ThroughputSizePolicy)
from repro.jvm.detect import (detect_cpus, detect_max_heap,
                              hotspot_parallel_gc_threads)
from repro.jvm.elastic_heap import ElasticHeapController
from repro.jvm.flags import CpuDetectMode, GcThreadMode, HeapDetectMode, JvmConfig
from repro.jvm.gc.parallel_scavenge import (dynamic_active_workers,
                                            major_gc_work, minor_gc_work)
from repro.jvm.heap import Heap, HeapSnapshot
from repro.jvm.jvm import Jvm, JvmStats

__all__ = [
    "AdaptiveSizePolicy", "BaseSizePolicy", "ThroughputSizePolicy",
    "detect_cpus", "detect_max_heap", "hotspot_parallel_gc_threads",
    "ElasticHeapController",
    "CpuDetectMode", "GcThreadMode", "HeapDetectMode", "JvmConfig",
    "dynamic_active_workers", "major_gc_work", "minor_gc_work",
    "Heap", "HeapSnapshot", "Jvm", "JvmStats",
]
