"""Policy construction from specs, backed by the registry.

The old closed if-chain over kind strings is gone: a spec's kind names a
registered factory (see :mod:`repro.core.registry`), so plugin policies
build through exactly the same path as the paper's built-ins.  An
unknown kind raises :class:`ValueError` naming the valid kinds (at spec
construction time when possible, and again here for specs smuggled past
validation).
"""

from __future__ import annotations

from repro.core.icache_policy import ICachePolicy
from repro.core.policy import DCachePolicy
from repro.core.spec import PolicySpec


def build_dcache_policy(spec: PolicySpec) -> DCachePolicy:
    """Instantiate the d-cache policy described by ``spec``."""
    if spec.side != "dcache":
        raise ValueError(f"expected a dcache spec, got side {spec.side!r}")
    return spec.build()


def build_icache_policy(spec: PolicySpec) -> ICachePolicy:
    """Instantiate the i-cache fetch policy described by ``spec``."""
    if spec.side != "icache":
        raise ValueError(f"expected an icache spec, got side {spec.side!r}")
    return spec.build()
