"""The paper's contribution: energy-efficient L1 access policies.

A *policy* decides, per access, which data ways to probe and when
(parallel / sequential / predicted single way / direct-mapped single
way) and owns the prediction state (way tables, the selective-DM mapping
counters, the victim list).  The :class:`~repro.core.engine.DCacheEngine`
executes policy probe plans against the functional cache array, charges
energy per Figure 1's schedules, and reports latency to the core.

I-cache way prediction (section 2.3) lives in
:mod:`repro.core.icache_policy` (the SAWP table plus the way fields
added to the BTB and RAS, driven by the fetch unit) and executes in
:mod:`repro.core.icache`.

Policies are *plugins*: each registers against the shared registry
(:mod:`repro.core.registry`) with a kind string, display label, and
declared parameters; :class:`~repro.core.spec.PolicySpec` validates
against the registration and the factory builds through it, so adding a
policy end-to-end is one module plus one test file.
"""

from repro.core.kinds import (
    KIND_BTB_CORRECT,
    KIND_DIRECT_MAPPED,
    KIND_MISPREDICTED,
    KIND_NO_PREDICTION,
    KIND_PARALLEL,
    KIND_SAWP_CORRECT,
    KIND_SEQUENTIAL,
    KIND_WAY_PREDICTED,
)
from repro.core.policy import DCachePolicy, ProbePlan
from repro.core.parallel import ParallelPolicy
from repro.core.sequential import SequentialPolicy
from repro.core.waypred import PcWayPredictionPolicy, XorWayPredictionPolicy
from repro.core.oracle import OraclePolicy
from repro.core.selective_dm import SelectiveDmPolicy, VictimList
from repro.core.engine import DCacheEngine, LoadOutcome, StoreOutcome
from repro.core.icache import ICacheEngine
from repro.core.icache_policy import (
    ICachePolicy,
    IFetchWayPredictor,
    ParallelFetchPolicy,
    WayPredictedFetchPolicy,
)
from repro.core.registry import (
    PolicyInfo,
    iter_policies,
    policy_kinds,
    policy_label,
    register_policy,
    unregister_policy,
)
from repro.core.spec import PolicySpec
from repro.core.factory import build_dcache_policy, build_icache_policy

__all__ = [
    "DCacheEngine",
    "DCachePolicy",
    "ICacheEngine",
    "ICachePolicy",
    "IFetchWayPredictor",
    "ParallelFetchPolicy",
    "PolicyInfo",
    "PolicySpec",
    "WayPredictedFetchPolicy",
    "KIND_BTB_CORRECT",
    "KIND_DIRECT_MAPPED",
    "KIND_MISPREDICTED",
    "KIND_NO_PREDICTION",
    "KIND_PARALLEL",
    "KIND_SAWP_CORRECT",
    "KIND_SEQUENTIAL",
    "KIND_WAY_PREDICTED",
    "LoadOutcome",
    "OraclePolicy",
    "ParallelPolicy",
    "PcWayPredictionPolicy",
    "ProbePlan",
    "SelectiveDmPolicy",
    "SequentialPolicy",
    "StoreOutcome",
    "VictimList",
    "XorWayPredictionPolicy",
    "build_dcache_policy",
    "build_icache_policy",
    "iter_policies",
    "policy_kinds",
    "policy_label",
    "register_policy",
    "unregister_policy",
]
