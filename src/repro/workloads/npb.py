"""NAS Parallel Benchmark models (is, ep, cg, mg, ft, ua, bt, sp, lu).

Each program is an iterative solver: many repetitions of a small set of
parallel regions, differing in region granularity (work per region),
serial fraction, and synchronization weight.  ``ep`` is embarrassingly
parallel (few huge regions, negligible sync); ``cg``/``mg`` are
fine-grained and barrier-heavy, so mis-sized teams hurt them most —
matching the spread visible in Fig. 10.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import OmpRegion, OmpWorkload

__all__ = ["NPB", "NPB_NAMES", "npb"]


def _program(name: str, *, total_work: float, n_regions: int,
             serial_frac: float, sync_per_thread: float,
             description: str) -> OmpWorkload:
    """Build an NPB model from aggregate characteristics."""
    serial_total = total_work * serial_frac
    parallel_total = total_work - serial_total
    region = OmpRegion(serial_work=serial_total / n_regions,
                       parallel_work=parallel_total / n_regions)
    return OmpWorkload(name=name, regions=(region,), iterations=n_regions,
                       sync_per_thread=sync_per_thread, description=description)


NPB: dict[str, OmpWorkload] = {
    "is": _program("is", total_work=30.0, n_regions=60, serial_frac=0.06,
                   sync_per_thread=150e-6,
                   description="integer sort: bucket exchange every iteration"),
    "ep": _program("ep", total_work=60.0, n_regions=10, serial_frac=0.01,
                   sync_per_thread=50e-6,
                   description="embarrassingly parallel random-number marshalling"),
    "cg": _program("cg", total_work=50.0, n_regions=300, serial_frac=0.05,
                   sync_per_thread=250e-6,
                   description="conjugate gradient: sparse matvec + dot products"),
    "mg": _program("mg", total_work=45.0, n_regions=250, serial_frac=0.05,
                   sync_per_thread=250e-6,
                   description="multigrid V-cycles: fine-grained stencils"),
    "ft": _program("ft", total_work=55.0, n_regions=80, serial_frac=0.04,
                   sync_per_thread=150e-6,
                   description="3-D FFT: transpose-heavy phases"),
    "ua": _program("ua", total_work=50.0, n_regions=350, serial_frac=0.08,
                   sync_per_thread=300e-6,
                   description="unstructured adaptive mesh: irregular regions"),
    "bt": _program("bt", total_work=70.0, n_regions=200, serial_frac=0.03,
                   sync_per_thread=150e-6,
                   description="block-tridiagonal solver sweeps"),
    "sp": _program("sp", total_work=65.0, n_regions=240, serial_frac=0.04,
                   sync_per_thread=200e-6,
                   description="scalar-pentadiagonal solver sweeps"),
    "lu": _program("lu", total_work=75.0, n_regions=280, serial_frac=0.05,
                   sync_per_thread=250e-6,
                   description="LU decomposition with pipelined wavefronts"),
}

NPB_NAMES: tuple[str, ...] = tuple(NPB)


def npb(name: str) -> OmpWorkload:
    """Look up an NPB program model by name.

    The paper runs a single (unstated) problem class; the models are
    sized as class A.
    """
    try:
        return NPB[name]
    except KeyError:
        raise WorkloadError(
            f"unknown NPB program {name!r}; available: {NPB_NAMES}") from None
