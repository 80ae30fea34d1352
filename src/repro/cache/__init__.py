"""Set-associative cache substrate.

This package models the storage arrays the paper's techniques operate on:
geometry/address decomposition, per-set LRU order, the
set-associative tag/data arrays, and the backing hierarchy (L2 + main
memory).  It deliberately knows nothing about *probe scheduling* — which
ways get read, in what order, at what energy — because that is the
paper's contribution and lives in :mod:`repro.core`.
"""

from repro.cache.block import CacheBlock
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import L2Cache, MainMemory
from repro.cache.cacheset import CacheSet
from repro.cache.sram import EvictionRecord, FillResult, SetAssociativeCache
from repro.cache.stats import CacheStats

__all__ = [
    "CacheBlock",
    "CacheGeometry",
    "CacheSet",
    "CacheStats",
    "EvictionRecord",
    "FillResult",
    "L2Cache",
    "MainMemory",
    "SetAssociativeCache",
]
