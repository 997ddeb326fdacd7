"""The process-pool fan-out engine.

A sweep is a list of :class:`TrialSpec`; :class:`ParallelRunner.run`
returns one :class:`TrialResult` per spec, **in spec order**, no matter
how execution interleaved.  Trial functions are referenced by dotted
path (``"package.module:callable"``) so specs stay picklable and a
worker process can resolve them after a fresh import; they are called
as ``fn(config)`` and must return a JSON-serializable value.

Failure semantics: a trial that raises inside the worker is caught
there and returned as a failure row.  A worker that dies outright
(OOM-kill, segfault, ``os._exit``) breaks the pool; every trial that
was in flight is then retried once, each in its own single-use pool,
so innocent victims of a crashed sibling recover and only the trial
that actually kills its process twice is recorded as dead.  The sweep
itself never aborts.
"""

from __future__ import annotations

import atexit
import importlib
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from hashlib import sha256

from repro.errors import ReproError
from repro.par.cache import ResultCache

__all__ = ["ParallelRunner", "TrialResult", "TrialSpec", "result_digest",
           "run_trials"]


@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of work in a sweep."""

    #: Dotted path ``"module:callable"`` of the trial function.
    fn: str
    #: Sweep name; part of the cache key.
    experiment: str
    #: Unique-within-the-sweep identity, e.g. ``"h2/n4/adaptive"``.
    trial_id: str
    #: JSON-serializable payload, the trial function's one argument.
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"fn": self.fn, "experiment": self.experiment,
                "trial_id": self.trial_id, "config": self.config}


@dataclass
class TrialResult:
    """Outcome of one trial: a value or a recorded failure, never both."""

    trial_id: str
    ok: bool
    value: object = None
    error: str | None = None
    cached: bool = False


def _resolve(path: str):
    """Import ``"module:callable"``; errors surface as failure rows."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ReproError(f"trial fn {path!r} is not 'module:callable'")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ReproError(f"{module_name} has no attribute {attr!r}") from None


def _execute(spec_dict: dict) -> dict:
    """Worker entry point: run one trial, catching its exceptions."""
    try:
        value = _resolve(spec_dict["fn"])(spec_dict["config"])
        ok, error = True, None
    except Exception as exc:
        value, ok = None, False
        error = f"{type(exc).__name__}: {exc}"
    return {"trial_id": spec_dict["trial_id"], "ok": ok, "value": value,
            "error": error}


def _execute_batch(spec_dicts: list[dict]) -> list[dict]:
    """Worker entry point for a batch: run each trial, in order.

    Per-trial exceptions are still caught per trial (a crashy config
    costs one failure row, not the whole batch); only a hard worker
    death takes the batch down, and the runner then retries its members
    individually.
    """
    return [_execute(d) for d in spec_dicts]


# -- warm pool ---------------------------------------------------------------
#
# Forking a ProcessPoolExecutor per sweep costs ~100ms of interpreter
# startup per worker — more than a small figure's entire serial runtime,
# so a fresh pool per sweep made a pooled figure slower than a serial one.
# Pools are therefore process-global, keyed by worker count, and reused
# across sweeps; a broken pool is discarded and rebuilt lazily.

_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """A warm executor with ``jobs`` workers, created on first use."""
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _discard_pool(jobs: int) -> None:
    """Drop a (typically broken) pool; the next sweep rebuilds it."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _shutdown_pools() -> None:
    for jobs in list(_POOLS):
        _discard_pool(jobs)


class ParallelRunner:
    """Executes trial sweeps across ``jobs`` worker processes."""

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None):
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache

    def _resolve_batch_size(self, n_pending: int) -> int:
        """Auto-chunking: amortize pool/pickling overhead on small trials.

        Submitting one tiny trial per future makes per-submission
        overhead (pickling, queue round-trips) dominate; batching
        restores the win.  Small sweeps get exactly one batch per
        worker — a figure-sized run (8 trials, 4 jobs) is 4 futures of
        2 trials, not 8 singletons.  Larger sweeps keep ~4 waves per
        worker so stragglers level out, capped at 16 so a dead worker
        never takes more than one small batch down with it.
        """
        if self.jobs == 1:
            return 1
        if n_pending <= self.jobs * 4:
            return max(1, -(-n_pending // self.jobs))
        return max(1, min(16, -(-n_pending // (self.jobs * 4))))

    # -- execution ---------------------------------------------------------

    def run(self, specs: list[TrialSpec], *,
            on_result=None) -> list[TrialResult]:
        """Run every spec; one result per spec, in spec order.

        ``on_result(spec, result)`` fires as each trial settles (cache
        hits first, then live completions in completion order) — for
        progress output, not for ordering guarantees.
        """
        seen: set[str] = set()
        for spec in specs:
            if spec.trial_id in seen:
                raise ReproError(f"duplicate trial_id {spec.trial_id!r}")
            seen.add(spec.trial_id)

        results: dict[str, TrialResult] = {}
        pending: list[tuple[TrialSpec, dict, str | None]] = []
        for spec in specs:
            spec_dict = spec.to_dict()
            key = self.cache.key(spec_dict) if self.cache else None
            payload = self.cache.get(key) if self.cache else None
            if payload is not None:
                res = TrialResult(trial_id=spec.trial_id, ok=True,
                                  value=payload["value"], cached=True)
                results[spec.trial_id] = res
                if on_result:
                    on_result(spec, res)
            else:
                pending.append((spec, spec_dict, key))

        if pending:
            if self.jobs == 1:
                raws = [_execute(d) for _s, d, _k in pending]
                settled = list(zip(pending, raws))
            else:
                settled = self._run_pool(pending)
            for (spec, spec_dict, key), raw in settled:
                res = TrialResult(**raw)
                results[spec.trial_id] = res
                if res.ok and self.cache and key is not None:
                    self.cache.put(key, spec_dict, res.value)
                if on_result:
                    on_result(spec, res)
        return [results[s.trial_id] for s in specs]

    def _run_pool(self, pending):
        """Fan pending trials out; survive worker deaths with one retry."""
        settled = []
        retry: list = []
        size = self._resolve_batch_size(len(pending))
        batches = [pending[i:i + size] for i in range(0, len(pending), size)]
        pool = _get_pool(self.jobs)
        broke = False
        try:
            futures = [
                (pool.submit(_execute_batch,
                             [spec_dict for _s, spec_dict, _k in batch]),
                 batch)
                for batch in batches]
        except BrokenProcessPool:
            # Pool died between sweeps (a prior crash we hadn't seen yet):
            # rebuild once and resubmit everything.
            _discard_pool(self.jobs)
            pool = _get_pool(self.jobs)
            futures = [
                (pool.submit(_execute_batch,
                             [spec_dict for _s, spec_dict, _k in batch]),
                 batch)
                for batch in batches]
        for future, batch in futures:
            try:
                raws = future.result()
                settled.extend(zip(batch, raws))
            except BrokenProcessPool:
                # One member killed the worker mid-batch: retry every
                # member solo so the innocent ones recover.
                broke = True
                retry.extend(batch)
        if broke:
            # The warm pool is unusable after a worker death; discard it
            # so the next sweep starts from a healthy one.
            _discard_pool(self.jobs)
        # Trials in flight when a sibling (or they themselves) killed the
        # pool: give each its own disposable single-worker pool.
        for item in retry:
            _spec, spec_dict, _key = item
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    settled.append((item, solo.submit(_execute,
                                                      spec_dict).result()))
            except BrokenProcessPool:
                settled.append((item, {
                    "trial_id": spec_dict["trial_id"], "ok": False,
                    "value": None,
                    "error": "WorkerDied: process exited abnormally "
                             "(OOM-kill or hard crash)"}))
        return settled


def run_trials(specs: list[TrialSpec], *, jobs: int = 1,
               cache: ResultCache | None = None,
               on_result=None) -> list[TrialResult]:
    """Convenience wrapper: ``ParallelRunner(jobs, cache).run(specs)``."""
    return ParallelRunner(jobs=jobs, cache=cache).run(specs,
                                                      on_result=on_result)


def result_digest(results: list[TrialResult]) -> str:
    """Order-sensitive digest of per-trial outcomes.

    Serial and parallel runs of the same sweep must produce the same
    digest — the determinism oracle of the serial-vs-pooled tests.
    """
    h = sha256()
    for r in results:
        h.update(json.dumps([r.trial_id, r.ok, r.error, r.value],
                            sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()
