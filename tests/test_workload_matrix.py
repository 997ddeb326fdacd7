"""Every workload in every catalog must actually run to completion.

Catches catalog inconsistencies (e.g. a min_heap too small for the
live-set/promotion parameters) that static validation cannot see.
Runs are scaled down hard; what matters is that they *finish*.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.container.spec import ContainerSpec
from repro.harness.common import paper_heap_flags
from repro.jvm.flags import JvmConfig
from repro.jvm.jvm import Jvm
from repro.openmp.policy import OmpPolicy
from repro.openmp.runtime import OpenMpRuntime
from repro.units import gib
from repro.workloads.dacapo import DACAPO_NAMES, dacapo
from repro.workloads.hibench import HIBENCH_NAMES, hibench
from repro.workloads.npb import NPB_NAMES, npb
from repro.workloads.specjvm import SPECJVM_NAMES, specjvm
from repro.world import World


def run_java(workload, *, scale=0.1, ncpus=8, memory=gib(64)):
    wl = dataclasses.replace(workload, total_work=workload.total_work * scale)
    world = World(ncpus=ncpus, memory=memory)
    c = world.containers.create(ContainerSpec("c0"))
    jvm = Jvm(c, wl, JvmConfig.vanilla_jdk8(**paper_heap_flags(wl)))
    jvm.launch()
    assert world.run_until(lambda: jvm.finished, timeout=50000), wl.name
    return jvm.stats


@pytest.mark.parametrize("name", DACAPO_NAMES)
def test_dacapo_catalog_runs(name):
    stats = run_java(dacapo(name))
    assert stats.completed and not stats.oom, stats.oom_reason
    assert stats.gc_time >= 0.0


@pytest.mark.parametrize("name", SPECJVM_NAMES)
def test_specjvm_catalog_runs(name):
    stats = run_java(specjvm(name))
    assert stats.completed and not stats.oom, stats.oom_reason


@pytest.mark.parametrize("name", HIBENCH_NAMES)
def test_hibench_catalog_runs(name):
    stats = run_java(hibench(name), scale=0.05, memory=gib(128))
    assert stats.completed and not stats.oom, stats.oom_reason
    # Big-data workloads must actually exercise major collections
    # (their live sets dwarf the young generation).
    assert stats.minor_gcs > 0


@pytest.mark.parametrize("name", NPB_NAMES)
def test_npb_catalog_runs(name):
    wl = npb(name)
    world = World(ncpus=8, memory=gib(16))
    c = world.containers.create(ContainerSpec("c0"))
    rt = OpenMpRuntime(c, wl, OmpPolicy.ADAPTIVE)
    rt.start()
    assert world.run_until(lambda: rt.finished, timeout=50000), name
    assert rt.stats.completed
    assert rt.stats.regions_executed == wl.iterations * len(wl.regions)


def test_micro_benchmark_runs_scaled():
    from repro.workloads.micro import heap_micro_benchmark
    full = heap_micro_benchmark(total_work=40.0)
    wl = dataclasses.replace(full, live_set=full.live_set // 16,
                             alloc_rate=full.alloc_rate / 16,
                             min_heap=full.min_heap // 16)
    stats = run_java(wl, scale=1.0, memory=gib(32))
    assert stats.completed
