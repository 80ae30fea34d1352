"""Perfect way-prediction: the upper bound of Figure 11.

The paper compares its 8% overall energy-delay reduction against "10%
reduction assuming perfect way-prediction and no performance
degradation": every read probes exactly the matching way with no
mispredictions and no latency penalty.
"""

from __future__ import annotations

from repro.core.kinds import KIND_WAY_PREDICTED
from repro.core.policy import DCachePolicy, MODE_ORACLE, ProbePlan
from repro.core.registry import register_policy

_PLAN = ProbePlan(mode=MODE_ORACLE, kind=KIND_WAY_PREDICTED)


@register_policy("oracle", side="dcache", label="Perfect way-pred")
class OraclePolicy(DCachePolicy):
    """Always probe the matching way; physically unrealizable."""

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        return _PLAN
