"""Content-addressed trial result cache.

A trial's cache key digests everything its result can depend on: the
trial function's dotted path, the experiment name, the trial id, the
canonical JSON of its config (which holds any seed), and a hash of the
``repro`` package *source* (every ``.py`` file under ``src/repro``).
Editing any simulator source invalidates the whole cache; editing
docs, tests or benchmarks invalidates nothing, so ``repro run --all``
after an unrelated commit is a sweep of cache hits.

Entries live under ``results/.cache/<k[:2]>/<k>.json`` (sharded to
keep directories small) and store the spec alongside the value, so a
cache file is independently inspectable.  Only successful trials are
cached: a failure row always re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from pathlib import Path

__all__ = ["ResultCache", "default_cache_dir", "source_hash"]

#: Bump when the cached payload layout changes.
CACHE_SCHEMA = 1


@lru_cache(maxsize=1)
def source_hash() -> str:
    """SHA-256 over every ``.py`` file of the installed repro package."""
    import repro
    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``results/.cache`` under cwd."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path("results") / ".cache"


class ResultCache:
    """Directory-backed map from trial-spec digests to result payloads."""

    def __init__(self, root: str | Path, *, package_hash: str | None = None):
        self.root = Path(root)
        self.package_hash = package_hash or source_hash()
        self.hits = 0
        self.misses = 0

    def key(self, spec_dict: dict) -> str:
        """Digest of the spec + package source; the cache address."""
        material = json.dumps(
            {"schema": CACHE_SCHEMA, "source": self.package_hash,
             "fn": spec_dict["fn"], "experiment": spec_dict["experiment"],
             "trial_id": spec_dict["trial_id"],
             "config": spec_dict["config"]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached payload for ``key``, or None (counted as a miss)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, spec_dict: dict, value) -> None:
        """Store a successful trial result (atomic rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA, "spec": spec_dict, "value": value}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}
