"""Simulated kernel memory management."""

from repro.kernel.mm.memcg import KERNEL_RESERVED, SWAP_FACTOR, MemoryManager
from repro.kernel.mm.swap import (SWAP_PENALTY, SwapDevice,
                                  swap_slowdown_multiplier)
from repro.kernel.mm.watermarks import Watermarks

__all__ = ["KERNEL_RESERVED", "MemoryManager", "SWAP_FACTOR", "SWAP_PENALTY",
           "SwapDevice", "swap_slowdown_multiplier", "Watermarks"]
