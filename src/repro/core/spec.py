"""Hashable policy specifications used by system configs and experiments.

One generic :class:`PolicySpec` covers both cache sides: a registered
*kind* plus a parameter mapping validated against the policy's declared
knobs (see :mod:`repro.core.registry`).  Specs normalize on
construction — parameters are sorted and defaults filled in — so two
specs naming the same design point compare and hash equal however they
were spelled, which the runner's cache keys and sweep de-duplication
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core import registry


@dataclass(frozen=True)
class PolicySpec:
    """Which access policy to build, for either cache side.

    Attributes:
        kind: a kind string registered for ``side``.
        side: ``"dcache"`` or ``"icache"``.
        params: sorted ``(name, value)`` pairs, complete over the
            policy's declared parameters (defaults filled in).  Kept as
            a tuple so specs stay hashable and JSON-stable.
    """

    kind: str = "parallel"
    side: str = "dcache"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        info = registry.get_policy(self.kind, self.side)  # validates kind
        merged = info.merged_params(dict(self.params))  # validates params
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    @classmethod
    def create(cls, kind: str, side: str = "dcache", **params: Any) -> "PolicySpec":
        """Build a spec from keyword parameters."""
        return cls(kind=kind, side=side, params=tuple(sorted(params.items())))

    # -------------------------------------------------------------- #

    def get(self, name: str, default: Any = None) -> Any:
        """One parameter's value (declared default already applied)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        """Parameters as a plain dict."""
        return dict(self.params)

    def build(self) -> Any:
        """Instantiate the registered policy this spec names."""
        return registry.get_policy(self.kind, self.side).build(**self.as_dict())

    # -------------------------------------------------------------- #
    # Derived attributes
    # -------------------------------------------------------------- #

    @property
    def label(self) -> str:
        """Display label, owned by the registered policy (one source of
        truth for figure legends)."""
        return registry.policy_label(self.kind, self.side)

    def describe(self) -> str:
        """Compact human form: ``kind(param=value, ...)``."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})" if inner else self.kind
