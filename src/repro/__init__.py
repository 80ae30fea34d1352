"""repro: reproduction of "Reducing Set-Associative Cache Energy via
Way-Prediction and Selective Direct-Mapping" (Powell, Agarwal,
Vijaykumar, Falsafi, Roy — MICRO 2001).

Quick start::

    from repro import Machine
    from repro.sim.results import relative_energy_delay

    base = Machine.from_config().run("gcc")                    # Table 1
    tech = Machine.from_config(dcache_policy="seldm_waypred").run("gcc")
    print(relative_energy_delay(tech, base, "dcache"))

Policies are plugins: ``Machine.policies()`` lists the registry, and a
``@register_policy``-decorated class is immediately selectable by kind
string everywhere (``repro.api`` documents the ~10-line recipe).

Subpackages:

* ``repro.core``       — the paper's contribution: access policies,
  selective direct-mapping, i-cache way prediction.
* ``repro.cache``      — set-associative array model, L2, memory.
* ``repro.energy``     — Cacti-lite and Wattch-lite energy models.
* ``repro.predictors`` — branch predictors, BTB, RAS, prediction tables.
* ``repro.workload``   — synthetic SPEC-like trace generation.
* ``repro.cpu``        — trace-driven out-of-order core.
* ``repro.sim``        — configs, simulator, cached runner.
* ``repro.fastsim``    — the batched fast backend (``backend="fast"``
  everywhere a run is named), with numpy miss-rate kernels when numpy
  imports; byte-identical to the reference engines.
* ``repro.sweep``      — declarative run grids with parallel execution.
* ``repro.experiments``— one module per paper table/figure.

Sweeping many points at once::

    from repro import RunSpec, SweepEngine, SweepSpec

    spec = SweepSpec.from_grid(
        "demo", ("gcc", "swim"), (baseline, technique), 50_000
    )
    sweep = SweepEngine(jobs=4).run(spec)       # process-parallel
    tech, base = sweep.pair("gcc", technique, baseline, 50_000)
"""

from repro.api import Machine
from repro.core.registry import PolicyInfo, register_policy
from repro.core.spec import PolicySpec
from repro.sim.config import CacheLevelConfig, SystemConfig, paper_baseline
from repro.sim.results import (
    SimResult,
    performance_degradation,
    relative_energy,
    relative_energy_delay,
)
from repro.sim.runner import run_benchmark
from repro.sim.simulator import Simulator
from repro.sweep.engine import SweepEngine
from repro.sweep.result import SweepResult
from repro.sweep.spec import RunSpec, SweepSpec
from repro.workload.generator import generate_trace
from repro.workload.profiles import benchmark_names, get_profile

__version__ = "1.2.0"

__all__ = [
    "CacheLevelConfig",
    "Machine",
    "PolicyInfo",
    "PolicySpec",
    "RunSpec",
    "SimResult",
    "Simulator",
    "SweepEngine",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "benchmark_names",
    "generate_trace",
    "get_profile",
    "paper_baseline",
    "performance_degradation",
    "register_policy",
    "relative_energy",
    "relative_energy_delay",
    "run_benchmark",
]
