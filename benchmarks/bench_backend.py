"""Backend bench: both backends, miss-rate and full-sim mode.

The repository's performance trajectory in three points:

* **table4-missrate** — Table 4's grid (every benchmark at 60k dynamic
  instructions through the direct-mapped and 4-way 16K d-caches) in
  functional miss-rate mode, through both backends: the
  object-dispatch functional model (``reference``) and the batched
  python per-set replay (``fast``).
* **trace-missrate** — the same DM-vs-4-way pair over an *external*
  file-backed workload (a 60k-instruction trace written to ``csv.gz``
  and streamed back via ``trace://``), i.e. the Table-4-style report
  of the trace ingestion subsystem.
* **fig11-sim** — Figure 11's grid (every benchmark through the
  baseline, the combined seldm+waypred technique, and perfect way
  prediction) in full ``mode="sim"``: the array-state out-of-order
  core, fetch unit, and table-state predictors vs the reference
  pipeline.

Every backend is timed twice over the same points with caching disabled
and traces pre-loaded:

* **cold** — the per-trace derived streams (flat-array encodings, the
  functional model's memo) are dropped first, so the pass pays
  first-encounter costs: trace iteration/parsing and array encoding.
* **warm** — a second pass with those memos hot: the steady-state
  per-point cost, which is what a sweep over many configurations per
  trace actually amortizes to.

The headline ``speedup`` of ``fast`` is warm-over-warm (cold is also
recorded as ``cold_speedup``); the reference tier memoizes its mem-op
stream the same way, so warm-vs-warm compares like with like.

Run standalone to (re)write ``BENCH_backend.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_backend.py

or through pytest-benchmark like the other benches.  The record embeds
the environment (python, platform, CPU count) so speedups stay
comparable across machines and runs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from conftest import run_once

from repro.experiments.figures import FIGURES
from repro.experiments.tables import table4_configs, _table4_instructions
from repro.sim import runner
from repro.workload.formats import is_trace_ref, make_trace_ref, parse_trace_ref, write_trace
from repro.workload.generator import generate_trace
from repro.workload.profiles import benchmark_names

#: Minimum acceptable warm speedups of ``fast`` over ``reference``.
MISSRATE_SPEEDUP_FLOOR = 3.0       # miss-rate replay
SIM_SPEEDUP_FLOOR = 2.0            # full-sim fast pipeline

#: Per-trace memo attributes a cold pass must drop.
_DERIVED_ATTRS = ("_fastsim_encoded", "_functional_mem_ops")


def _fig11_configs():
    """The figure's unique system configs (baseline + both techniques)."""
    [fig11] = [figure for figure in FIGURES if figure.experiment_id == "fig11"]
    configs = {}
    for point in fig11.comparisons():
        configs.setdefault(point.baseline.key(), ("Baseline", point.baseline))
        configs.setdefault(point.technique.key(), (point.label, point.technique))
    return [config for _label, config in configs.values()]


def _missrate_workload():
    """(benchmark, config, instructions, mode) points of the Table-4 sweep."""
    from repro.experiments.common import ExperimentSettings

    instructions = _table4_instructions(ExperimentSettings())
    return [
        (benchmark, config, instructions, "missrate")
        for benchmark in benchmark_names()
        for config in table4_configs()
    ]


def _trace_workload(directory: Path):
    """Table-4-style points over an external (file-backed) trace."""
    path = directory / "external-gcc.csv.gz"
    write_trace(path, generate_trace("gcc", 60_000).instructions)
    ref = make_trace_ref(path)
    return [(ref, config, 0, "missrate") for config in table4_configs()]


def _sim_workload(benchmarks=None, instructions=None):
    """(benchmark, config, instructions, mode) points of the fig11 grid."""
    from repro.experiments.common import ExperimentSettings

    if instructions is None:
        instructions = ExperimentSettings().instructions
    return [
        (benchmark, config, instructions, "sim")
        for benchmark in (benchmarks or benchmark_names())
        for config in _fig11_configs()
    ]


def _preload_traces(points) -> None:
    for benchmark, _config, instructions, _mode in points:
        runner.get_trace(benchmark, instructions)


def _clear_derived(points) -> None:
    """Drop per-trace derived streams so the next pass runs cold."""
    for benchmark, _config, instructions, _mode in points:
        trace = runner.get_trace(benchmark, instructions)
        for attr in _DERIVED_ATTRS:
            try:
                delattr(trace, attr)
            except AttributeError:
                pass


def _time_backend(points, backend: str) -> float:
    started = time.perf_counter()
    for benchmark, config, instructions, mode in points:
        runner.execute(benchmark, config, instructions, mode=mode, backend=backend)
    return time.perf_counter() - started


def _time_tier(points, backend: str):
    """(cold, warm) seconds for one backend over one workload."""
    _clear_derived(points)
    cold = _time_backend(points, backend)
    warm = _time_backend(points, backend)
    return cold, warm


def _best_of(points, backend: str, passes: int = 2) -> float:
    """Minimum of ``passes`` warm timings: the scheduler-noise floor.

    Single-core CI containers jitter individual passes by 10-20%;
    the minimum is the stable estimate the speedup floors assert on.
    """
    return min(_time_backend(points, backend) for _ in range(passes))


def _name(benchmark: str) -> str:
    """Workload display name: temp-dir paths would churn the record."""
    if is_trace_ref(benchmark):
        path, _fmt = parse_trace_ref(benchmark)
        return f"trace://{Path(path).name}"
    return benchmark


def _describe_workload(points) -> dict:
    benchmarks = sorted({_name(p[0]) for p in points})
    configs = []
    for _benchmark, config, _instructions, _mode in points:
        described = config.describe()
        if described not in configs:
            configs.append(described)
    return {
        "benchmarks": benchmarks,
        "configs": configs,
        "instructions": points[0][2],
        "mode": points[0][3],
        "runs": len(points),
    }


def _measure_workload(bench_name: str, points) -> dict:
    """Time both backends over one workload; return its record.

    ``fast``'s speedups are relative to ``reference``.
    """
    _preload_traces(points)
    ref_cold, ref_warm = _time_tier(points, "reference")
    cold, warm = _time_tier(points, "fast")
    return {
        "bench": bench_name,
        "workload": _describe_workload(points),
        "tiers": {
            "reference": {"cold_seconds": round(ref_cold, 4),
                          "warm_seconds": round(ref_warm, 4)},
            "fast": {"cold_seconds": round(cold, 4), "warm_seconds": round(warm, 4),
                     "cold_speedup": round(ref_cold / cold, 2),
                     "speedup": round(ref_warm / warm, 2)},
        },
    }


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def measure() -> dict:
    """Time both backends over every workload; return the full record."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        benches = [
            _measure_workload("table4-missrate", _missrate_workload()),
            _measure_workload("trace-missrate", _trace_workload(Path(tmp))),
            _measure_workload("fig11-sim", _sim_workload()),
        ]
    return {"benches": benches, "environment": _environment()}


def test_fast_backend_missrate_speedup(benchmark):
    """The fast backend clears the 3x floor on the Table-4 sweep."""
    points = _missrate_workload()
    _preload_traces(points)
    _clear_derived(points)
    _time_backend(points, "reference")
    reference_seconds = _best_of(points, "reference")
    _time_backend(points, "fast")
    fast_seconds = run_once(benchmark, lambda: _best_of(points, "fast"))
    speedup = reference_seconds / fast_seconds
    print(f"\nmissrate: reference {reference_seconds:.3f}s fast {fast_seconds:.3f}s "
          f"speedup {speedup:.2f}x")
    assert speedup >= MISSRATE_SPEEDUP_FLOOR


def test_fast_backend_sim_speedup(benchmark):
    """Fast backend clears the 2x floor on the fig11 full-sim grid
    (subset grid: the pytest bench keeps wall-clock friendly)."""
    points = _sim_workload(benchmarks=("gcc", "swim", "mgrid"), instructions=20_000)
    _preload_traces(points)
    reference_seconds = _best_of(points, "reference")
    fast_seconds = run_once(benchmark, lambda: _best_of(points, "fast"))
    speedup = reference_seconds / fast_seconds
    print(f"\nsim: reference {reference_seconds:.3f}s fast {fast_seconds:.3f}s "
          f"speedup {speedup:.2f}x")
    assert speedup >= SIM_SPEEDUP_FLOOR


def _floor(bench: dict) -> bool:
    floor = SIM_SPEEDUP_FLOOR if bench["bench"] == "fig11-sim" else MISSRATE_SPEEDUP_FLOOR
    return bench["tiers"]["fast"]["speedup"] >= floor


def main() -> int:
    record = measure()
    out = Path(__file__).resolve().parent.parent / "BENCH_backend.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    print(f"wrote {out}")
    return 0 if all(_floor(bench) for bench in record["benches"]) else 1


if __name__ == "__main__":
    sys.exit(main())
