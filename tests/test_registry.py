"""Policy registry tests: plugins, validation, and the equivalence
guarantee that registry-built policies behave exactly like directly
constructed ones."""

import json

import pytest

from repro.core import registry
from repro.core.factory import build_dcache_policy, build_icache_policy
from repro.core.icache_policy import ParallelFetchPolicy, WayPredictedFetchPolicy
from repro.core.oracle import OraclePolicy
from repro.core.parallel import ParallelPolicy
from repro.core.policy import DCachePolicy, ProbePlan
from repro.core.registry import (
    iter_policies,
    policy_kinds,
    policy_label,
    register_policy,
    unregister_policy,
)
from repro.core.selective_dm import SelectiveDmPolicy
from repro.core.sequential import SequentialPolicy
from repro.core.spec import PolicySpec
from repro.core.waypred import PcWayPredictionPolicy, XorWayPredictionPolicy
from repro.sim.config import SystemConfig
from repro.sim.runner import get_trace
from repro.sim.simulator import Simulator

#: The pre-redesign factory if-chain, inlined as the reference path:
#: kind -> directly constructed policy instance.
_DIRECT_DCACHE = {
    "parallel": lambda: ParallelPolicy(),
    "sequential": lambda: SequentialPolicy(),
    "waypred_pc": lambda: PcWayPredictionPolicy(1024),
    "waypred_xor": lambda: XorWayPredictionPolicy(1024),
    "oracle": lambda: OraclePolicy(),
    "seldm_parallel": lambda: SelectiveDmPolicy("parallel", 1024, 16, 2),
    "seldm_waypred": lambda: SelectiveDmPolicy("waypred", 1024, 16, 2),
    "seldm_sequential": lambda: SelectiveDmPolicy("sequential", 1024, 16, 2),
}


class TestRegistryQueries:
    def test_all_paper_kinds_registered(self):
        assert policy_kinds("dcache") == (
            "parallel", "sequential", "waypred_pc", "waypred_xor", "oracle",
            "seldm_parallel", "seldm_waypred", "seldm_sequential",
            "dri", "levelpred",
        )
        assert policy_kinds("icache") == ("parallel", "waypred")

    def test_unknown_kind_raises_value_error_naming_valid_kinds(self):
        """The old factory raised a bare AssertionError on an unhandled
        kind; the registry path must raise ValueError naming the kinds."""
        with pytest.raises(ValueError, match=r"unknown dcache policy 'magic'.*parallel"):
            registry.get_policy("magic", "dcache")
        with pytest.raises(ValueError, match=r"unknown icache policy 'magic'.*waypred"):
            registry.get_policy("magic", "icache")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="unknown policy side"):
            registry.get_policy("parallel", "tlb")
        with pytest.raises(ValueError, match="unknown policy side"):
            policy_kinds("l3")

    def test_labels_owned_by_registrations(self):
        assert policy_label("seldm_waypred", "dcache") == "Sel-DM + Way-pred"
        assert policy_label("waypred", "icache") == "Way-pred (SAWP+BTB+RAS)"
        assert PolicySpec.create("seldm_waypred", side="dcache").label == "Sel-DM + Way-pred"

    def test_iter_policies_covers_both_sides(self):
        infos = list(iter_policies())
        assert {info.side for info in infos} == {"dcache", "icache"}
        assert len(infos) == len(policy_kinds("dcache")) + len(policy_kinds("icache"))


class TestPolicySpec:
    def test_defaults_filled_and_sorted(self):
        spec = PolicySpec.create("seldm_waypred")
        assert spec.as_dict() == {
            "conflict_threshold": 2, "table_entries": 1024, "victim_entries": 16
        }
        # Spelling a default explicitly yields the same (hash-equal) spec.
        assert spec == PolicySpec.create("seldm_waypred", table_entries=1024)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dcache policy"):
            PolicySpec.create("magic", side="dcache")
        with pytest.raises(ValueError, match="unknown icache policy"):
            PolicySpec.create("magic", side="icache")

    def test_rejects_undeclared_params(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            PolicySpec.create("parallel", table_entries=64)
        with pytest.raises(ValueError, match="unknown parameter"):
            PolicySpec.create("waypred_pc", sawp_entries=64)

    def test_with_params_and_get(self):
        spec = PolicySpec.create("waypred_pc", side="dcache", table_entries=256)
        assert spec.get("table_entries") == 256
        assert spec.get("missing", 7) == 7

    def test_describe(self):
        assert PolicySpec.create("parallel").describe() == "parallel"
        assert "table_entries=1024" in PolicySpec.create("waypred_pc").describe()

    def test_side_mismatch_rejected_by_factories(self):
        with pytest.raises(ValueError, match="expected a dcache spec"):
            build_dcache_policy(PolicySpec.create("waypred", side="icache"))
        with pytest.raises(ValueError, match="expected an icache spec"):
            build_icache_policy(PolicySpec.create("parallel", side="dcache"))


class TestBuildEquivalence:
    @pytest.mark.parametrize("kind", sorted(_DIRECT_DCACHE))
    def test_registry_builds_same_type(self, kind):
        policy = build_dcache_policy(PolicySpec.create(kind, side="dcache"))
        direct = _DIRECT_DCACHE[kind]()
        assert type(policy) is type(direct)

    @pytest.mark.parametrize("kind", sorted(_DIRECT_DCACHE))
    def test_simresult_byte_identical_to_direct_construction(self, kind):
        """Every registered d-cache kind, built via the registry, must
        produce a byte-identical SimResult to the pre-redesign path of
        constructing the policy class directly, on a shared trace."""
        trace = get_trace("gcc", 4000)
        config = SystemConfig().with_dcache_policy(kind)

        via_registry = Simulator(config).run(trace)

        reference = Simulator(config)
        reference.dcache.policy = _DIRECT_DCACHE[kind]()  # bypass the registry
        via_direct = reference.run(trace)

        assert json.dumps(via_registry.to_flat(), sort_keys=True) == json.dumps(
            via_direct.to_flat(), sort_keys=True
        )

    @pytest.mark.parametrize("kind,cls", [
        ("parallel", ParallelFetchPolicy), ("waypred", WayPredictedFetchPolicy)
    ])
    def test_icache_policies_build_via_same_mechanism(self, kind, cls):
        policy = build_icache_policy(PolicySpec.create(kind, side="icache"))
        assert isinstance(policy, cls)

    def test_icache_waypred_spec_sizes_the_sawp(self):
        policy = build_icache_policy(
            PolicySpec.create("waypred", side="icache", sawp_entries=64)
        )
        assert policy.make_predictor().sawp.entries == 64


class TestPluginRegistration:
    def test_custom_policy_end_to_end(self):
        """A new policy registers, becomes spec/config-selectable, runs
        through the simulator, and unregisters cleanly."""

        @register_policy("always_way0", side="dcache", label="Way 0 only",
                         params={"way": 0})
        class AlwaysWayZero(DCachePolicy):
            def __init__(self, way: int = 0) -> None:
                self.way = way

            def plan_load(self, pc, addr, xor_handle):
                return ProbePlan(mode="single", way=self.way, kind="way_predicted")

        try:
            assert "always_way0" in policy_kinds("dcache")
            config = SystemConfig().with_dcache_policy("always_way0", way=1)
            assert config.dcache_policy.get("way") == 1
            result = Simulator(config).run(get_trace("gcc", 2000))
            assert result.core.committed == 2000
            assert isinstance(build_dcache_policy(config.dcache_policy), AlwaysWayZero)
        finally:
            unregister_policy("always_way0", "dcache")
        assert "always_way0" not in policy_kinds("dcache")

    def test_env_named_plugin_module_imported(self, tmp_path, monkeypatch):
        """REPRO_POLICY_MODULES makes plugin kinds resolve in processes
        whose imports we don't control (CLI, spawn-based workers)."""
        (tmp_path / "env_plugin_policy.py").write_text(
            "from repro.core.policy import DCachePolicy, ProbePlan\n"
            "from repro.core.registry import register_policy\n"
            "@register_policy('env_plugin', side='dcache', label='Env plugin')\n"
            "class EnvPluginPolicy(DCachePolicy):\n"
            "    def plan_load(self, pc, addr, xor_handle):\n"
            "        return ProbePlan(mode='parallel', kind='parallel')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_POLICY_MODULES", "env_plugin_policy")
        monkeypatch.setattr(registry, "_BUILTINS_LOADED", False)
        try:
            assert "env_plugin" in policy_kinds("dcache")
            build_dcache_policy(PolicySpec.create("env_plugin", side="dcache"))
        finally:
            unregister_policy("env_plugin", "dcache")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("parallel", side="dcache")(ParallelPolicy)

    def test_build_rejects_undeclared_param(self):
        info = registry.get_policy("parallel", "dcache")
        with pytest.raises(ValueError, match="unknown parameter"):
            info.build(bogus=1)
