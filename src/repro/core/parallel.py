"""Conventional parallel access (Figure 1a): the performance baseline.

All N data ways are probed with the tag lookup; N-1 reads are wasted on
every hit, which is the energy problem the paper attacks.
"""

from __future__ import annotations

from repro.core.kinds import KIND_PARALLEL
from repro.core.policy import DCachePolicy, MODE_PARALLEL, ProbePlan
from repro.core.registry import register_policy

_PLAN = ProbePlan(mode=MODE_PARALLEL, kind=KIND_PARALLEL)


@register_policy("parallel", side="dcache", label="Parallel")
class ParallelPolicy(DCachePolicy):
    """Probe everything, select later."""

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        return _PLAN
