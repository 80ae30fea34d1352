"""Sequential access (Figure 1b): the energy baseline.

Wait for the tag array, then probe only the matching data way.  One-way
energy on every read, but the serialized tag->data path costs an extra
cycle on every access (the Alpha 21164 used this for its L2; the paper
shows it degrades performance ~11% when applied to an L1 d-cache).
"""

from __future__ import annotations

from repro.core.kinds import KIND_SEQUENTIAL
from repro.core.policy import DCachePolicy, MODE_SEQUENTIAL, ProbePlan
from repro.core.registry import register_policy

_PLAN = ProbePlan(mode=MODE_SEQUENTIAL, kind=KIND_SEQUENTIAL)


@register_policy("sequential", side="dcache", label="Sequential")
class SequentialPolicy(DCachePolicy):
    """Tag first, then exactly the matching data way."""

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        return _PLAN
