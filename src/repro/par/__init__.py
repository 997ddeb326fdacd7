"""Parallel fan-out execution of independent simulation trials.

The three embarrassingly-parallel hot paths of this reproduction — the
figure harness, the ablation grids and the ``repro check`` seed sweeps —
all reduce to the same shape: a list of *trials*, each a pure function
of a JSON-serializable config, producing a JSON-serializable value.
:mod:`repro.par` executes such a list across ``N`` worker processes
with three guarantees:

* **Determinism** — a trial is called as ``fn(config)`` and nothing
  else: any seed it uses is in its config, never derived from worker
  identity or completion order, so ``jobs=8`` produces results
  byte-identical to ``jobs=1``.
* **Caching** — results are content-addressed by a digest of the trial
  spec plus a hash of the ``repro`` package source
  (:class:`ResultCache`); re-running a sweep after an unrelated edit
  (docs, tests, benchmarks) skips every unchanged trial.
* **Crash isolation** — a trial that raises, or whose worker process
  dies outright, yields a recorded failure row; the sweep always
  returns one :class:`TrialResult` per :class:`TrialSpec`, in spec
  order.
"""

from repro.par.cache import ResultCache, default_cache_dir, source_hash
from repro.par.runner import (ParallelRunner, TrialResult, TrialSpec,
                              result_digest, run_trials)

__all__ = [
    "ParallelRunner",
    "ResultCache",
    "TrialResult",
    "TrialSpec",
    "default_cache_dir",
    "result_digest",
    "run_trials",
    "source_hash",
]
