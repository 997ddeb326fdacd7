"""Simulated kernel memory management."""

from repro.kernel.mm.memcg import MemoryManager, MmParams
from repro.kernel.mm.swap import (SWAP_PENALTY, SwapDevice,
                                  swap_slowdown_multiplier)
from repro.kernel.mm.watermarks import Watermarks

__all__ = ["MemoryManager", "MmParams", "SWAP_PENALTY", "SwapDevice",
           "swap_slowdown_multiplier", "Watermarks"]
