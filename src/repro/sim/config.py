"""System configuration (paper Table 1) and named variants."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from repro.cache.geometry import CacheGeometry
from repro.core.spec import PolicySpec
from repro.cpu.config import CoreConfig


@dataclass(frozen=True)
class CacheLevelConfig:
    """Size/shape/latency of one cache level."""

    size_kb: int
    associativity: int
    block_bytes: int = 32
    latency: int = 1

    def geometry(self) -> CacheGeometry:
        """Build the corresponding :class:`CacheGeometry`."""
        return CacheGeometry(
            size_bytes=self.size_kb * 1024,
            associativity=self.associativity,
            block_bytes=self.block_bytes,
        )


@dataclass(frozen=True)
class SystemConfig:
    """Everything the simulator needs to build a system.

    Defaults reproduce Table 1: 16K 4-way 1-cycle L1s, 1M 8-way
    12-cycle L2, 80-cycle (+4/8B) memory, 8-wide core, ROB 64, LSQ 32.
    Every cache level replaces LRU, as in the paper.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    icache: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(16, 4, 32, 1))
    dcache: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(16, 4, 32, 1))
    l2: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(1024, 8, 32, 12))
    memory_latency: int = 80
    memory_cycles_per_chunk: int = 4
    memory_chunk_bytes: int = 8
    dcache_policy: PolicySpec = field(
        default_factory=lambda: PolicySpec(kind="parallel", side="dcache")
    )
    icache_policy: PolicySpec = field(
        default_factory=lambda: PolicySpec(kind="parallel", side="icache")
    )

    # -------------------------------------------------------------- #

    def key(self) -> str:
        """Stable canonical string for caching/deduplication."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def with_dcache_policy(self, kind: str, **params) -> "SystemConfig":
        """Copy with a different d-cache policy (any registered kind)."""
        return replace(
            self, dcache_policy=PolicySpec.create(kind, side="dcache", **params)
        )

    def with_icache_policy(self, kind: str, **params) -> "SystemConfig":
        """Copy with a different i-cache policy (any registered kind)."""
        return replace(
            self, icache_policy=PolicySpec.create(kind, side="icache", **params)
        )

    def with_dcache(self, **kwargs) -> "SystemConfig":
        """Copy with modified d-cache level parameters."""
        return replace(self, dcache=replace(self.dcache, **kwargs))

    def with_icache(self, **kwargs) -> "SystemConfig":
        """Copy with modified i-cache level parameters."""
        return replace(self, icache=replace(self.icache, **kwargs))

    def describe(self) -> str:
        """One-line human description."""
        return (
            f"d:{self.dcache.size_kb}K/{self.dcache.associativity}w/"
            f"{self.dcache.latency}cyc [{self.dcache_policy.kind}] "
            f"i:{self.icache.size_kb}K/{self.icache.associativity}w "
            f"[{self.icache_policy.kind}]"
        )


def paper_baseline(dcache_latency: int = 1) -> SystemConfig:
    """The paper's baseline: parallel-access L1s (Table 1)."""
    base = SystemConfig()
    if dcache_latency != 1:
        base = base.with_dcache(latency=dcache_latency)
    return base
