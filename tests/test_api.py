"""repro.api facade and structured-result round-trip tests."""

import json

import pytest

from repro.api import Machine, PolicySpec
from repro.sim.config import SystemConfig
from repro.sim.results import (
    CoreMetrics,
    EnergyMetrics,
    L1Metrics,
    L2Metrics,
    SimResult,
)
from repro.sim import runner
from repro.sim.runner import clear_caches, get_trace


@pytest.fixture(autouse=True)
def _isolate_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_caches()
    yield
    clear_caches()


class TestMachine:
    def test_default_is_paper_baseline(self):
        assert Machine.from_config().config == SystemConfig()

    def test_policy_override_by_kind_string(self):
        machine = Machine.from_config(dcache_policy="seldm_waypred",
                                      icache_policy="waypred")
        assert machine.config.dcache_policy.kind == "seldm_waypred"
        assert machine.config.icache_policy.kind == "waypred"

    def test_policy_override_by_spec(self):
        spec = PolicySpec.create("waypred_pc", table_entries=256)
        machine = Machine.from_config(dcache_policy=spec)
        assert machine.config.dcache_policy.get("table_entries") == 256

    def test_field_overrides(self):
        machine = Machine.from_config(memory_latency=120)
        assert machine.config.memory_latency == 120

    def test_run_benchmark_name_memoizes(self):
        machine = Machine.from_config()
        first = machine.run("gcc", instructions=3000)
        second = machine.run("gcc", instructions=3000)
        assert first is second  # cached-runner path

    def test_run_trace_object(self):
        trace = get_trace("gcc", 3000)
        result = Machine.from_config().run(trace)
        assert result.core.committed == 3000

    def test_run_matches_runner_path(self):
        machine = Machine.from_config(dcache_policy="sequential")
        via_trace = machine.run(get_trace("gcc", 3000))
        via_name = machine.run("gcc", instructions=3000, use_cache=False)
        assert json.dumps(via_trace.to_flat(), sort_keys=True) == json.dumps(
            via_name.to_flat(), sort_keys=True
        )

    def test_policies_listing(self):
        infos = Machine.policies()
        kinds = {(info.side, info.kind) for info in infos}
        assert ("dcache", "seldm_waypred") in kinds
        assert ("icache", "waypred") in kinds
        assert all(info.side == "dcache" for info in Machine.policies("dcache"))

    def test_repr_describes_config(self):
        assert "seldm_waypred" in repr(Machine.from_config(dcache_policy="seldm_waypred"))


class TestFlatRoundTrip:
    def _sample(self) -> SimResult:
        return SimResult(
            benchmark="gcc",
            config_key="k",
            core=CoreMetrics(instructions=10, cycles=20, committed=10,
                             branches=3, branch_mispredicts=1, fetch_cycles=5),
            dcache=L1Metrics(loads=4, stores=2, load_misses=1, misses=1,
                             predictions=3, correct_predictions=2,
                             second_probes=1, kinds={"parallel": 4}),
            icache=L1Metrics(loads=6, misses=1, kinds={"no_prediction": 6}),
            l2=L2Metrics(accesses=2, misses=1),
            energy=EnergyMetrics(components={"l1_dcache": 1.5},
                                 processor={"clock": 3.0}),
        )

    def test_round_trip_identity(self):
        result = self._sample()
        assert SimResult.from_flat(result.to_flat()) == result

    def test_round_trip_survives_json(self):
        result = self._sample()
        rebuilt = SimResult.from_flat(json.loads(json.dumps(result.to_flat())))
        assert rebuilt == result

    def test_flat_keys_match_schema(self):
        assert tuple(sorted(self._sample().to_flat())) == SimResult.flat_field_names()

    def test_from_flat_rejects_stale_schema(self):
        with pytest.raises(ValueError, match="does not match"):
            SimResult.from_flat({"benchmark": "gcc", "bogus": 1})

    def test_from_flat_rejects_extra_keys(self):
        flat = self._sample().to_flat()
        flat["extra"] = 1
        with pytest.raises(ValueError, match="does not match"):
            SimResult.from_flat(flat)

    def test_simulated_result_round_trips(self):
        result = Machine.from_config(dcache_policy="seldm_waypred").run(
            "gcc", instructions=3000
        )
        assert SimResult.from_flat(result.to_flat()) == result

    def test_rebuilt_result_reports_the_same_processor_total(self):
        """A warm-cache rerun reads results rebuilt from their flats; its
        derived totals must be the floats a cold run computed.  Summing
        the processor components in insertion order gave this point
        11165.139122816008 fresh and 11165.13912281601 rebuilt."""
        result = runner.execute("vortex", SystemConfig(), 2000, 0, "sim", "reference")
        rebuilt = SimResult.from_flat(json.loads(json.dumps(result.to_flat())))
        assert rebuilt.energy.processor_total == result.energy.processor_total
        assert (rebuilt.energy.cache_fraction_of_processor
                == result.energy.cache_fraction_of_processor)
