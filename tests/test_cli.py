"""CLI coverage: experiment regeneration, ``policies``, ``sweep``,
``--backend``, and the error paths users actually hit."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main, policies_main, sweep_main
from repro.core.registry import policy_kinds

DATA_DIR = Path(__file__).parent / "data"

TINY_SWEEP = [
    "--benchmarks", "gcc",
    "--sizes", "16",
    "--ways", "2",
    "--policies", "sequential",
    "--instructions", "2000",
]


@pytest.fixture(autouse=True)
def _small_scale(monkeypatch, tmp_path):
    """Keep every CLI invocation tiny and isolated from the repo cache."""
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    monkeypatch.setenv("REPRO_BENCHMARKS", "gcc")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


# ------------------------------------------------------------------ #
# Main command
# ------------------------------------------------------------------ #


def test_main_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "table4" in out and "fig11" in out


def test_main_static_tables_render(capsys):
    assert main(["table1", "table2", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out and "Table 3" in out


def test_main_unknown_experiment(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_main_rejects_bad_jobs(capsys):
    assert main(["table1", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_main_json_backends_identical(capsys):
    """table4 through the real CLI: --backend fast emits identical JSON."""
    assert main(["table4", "--json", "--backend", "reference"]) == 0
    reference = capsys.readouterr().out
    assert main(["table4", "--json", "--backend", "fast"]) == 0
    fast = capsys.readouterr().out
    assert reference == fast
    document = json.loads(reference)
    assert document[0]["experiment"] == "table4"
    assert document[0]["rows"]


# ------------------------------------------------------------------ #
# policies subcommand
# ------------------------------------------------------------------ #


def test_policies_ascii_lists_both_sides(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    assert "dcache policies:" in out and "icache policies:" in out
    for kind in policy_kinds("dcache"):
        assert kind in out


def test_policies_side_filter(capsys):
    assert policies_main(["--side", "icache"]) == 0
    out = capsys.readouterr().out
    assert "icache policies:" in out and "dcache policies:" not in out


def test_policies_json(capsys):
    assert policies_main(["--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    kinds = {(entry["side"], entry["kind"]) for entry in document}
    assert ("dcache", "seldm_waypred") in kinds
    assert ("icache", "waypred") in kinds
    assert all("params" in entry and "label" in entry for entry in document)


# ------------------------------------------------------------------ #
# sweep subcommand
# ------------------------------------------------------------------ #


def test_sweep_renders_summary(capsys):
    assert sweep_main(TINY_SWEEP) == 0
    captured = capsys.readouterr()
    assert "Design-space sweep" in captured.out
    assert "16K/2w/1cyc sequential" in captured.out


def test_sweep_json_backends_identical(capsys):
    assert sweep_main(TINY_SWEEP + ["--json"]) == 0
    reference = json.loads(capsys.readouterr().out)
    assert sweep_main(TINY_SWEEP + ["--json", "--backend", "fast"]) == 0
    fast = json.loads(capsys.readouterr().out)
    assert reference["backend"] == "reference" and fast["backend"] == "fast"
    assert reference["points"] == fast["points"]
    point = reference["points"][0]
    assert set(point) == {
        "label", "relative_energy_delay", "performance_degradation", "per_benchmark",
    }
    assert "gcc" in point["per_benchmark"]


def test_sweep_rejects_unknown_benchmark(capsys):
    assert sweep_main(["--benchmarks", "quake"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_sweep_rejects_empty_benchmarks(capsys):
    assert sweep_main(["--benchmarks", ""]) == 2
    assert "nothing to sweep" in capsys.readouterr().err


def test_sweep_rejects_unknown_policy(capsys):
    assert sweep_main(["--policies", "psychic"]) == 2
    assert "psychic" in capsys.readouterr().err


def test_sweep_rejects_bad_geometry(capsys):
    assert sweep_main(["--sizes", "17"]) == 2
    assert capsys.readouterr().err


def test_sweep_rejects_bad_jobs(capsys):
    assert sweep_main(TINY_SWEEP + ["--jobs", "-1"]) == 2
    assert "jobs" in capsys.readouterr().err


# ------------------------------------------------------------------ #
# REPRO_* environment plumbing
# ------------------------------------------------------------------ #


@pytest.mark.parametrize("backend", ["warp", "vector"])
def test_bad_repro_backend_env_exits_cleanly(backend, monkeypatch, capsys):
    """An unknown backend exits 2 with one line; ``vector`` (a deleted
    numpy miss-rate tier) is not a backend either."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    assert main(["table1"]) == 2
    assert "unknown backend" in capsys.readouterr().err
    assert sweep_main(TINY_SWEEP) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_sweep_ignores_unrelated_env(monkeypatch, capsys):
    """The sweep subcommand sizes its grid from flags alone: a garbage
    REPRO_SCALE must not crash it (it only reads REPRO_BACKEND)."""
    monkeypatch.setenv("REPRO_SCALE", "abc")
    assert sweep_main(TINY_SWEEP) == 0
    assert "Design-space sweep" in capsys.readouterr().out


def test_repro_backend_env_selects_fast(monkeypatch):
    from repro.experiments.common import settings_from_env

    monkeypatch.setenv("REPRO_BACKEND", "fast")
    assert settings_from_env().backend == "fast"
    monkeypatch.delenv("REPRO_BACKEND")
    assert settings_from_env().backend == "reference"


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["table4"], "REPRO_SCALE", "abc"),
        (["table4"], "REPRO_SCALE", "0"),
        (["table4"], "REPRO_SCALE", "-1"),
        (["trace", "report", str(DATA_DIR)], "REPRO_SCALE", "abc"),
        (["dynamic"], "REPRO_INTERVAL", "abc"),
        (["dynamic"], "REPRO_INTERVAL", "-5"),
        (["table1"], "REPRO_JOBS", "abc"),
        (["table1"], "REPRO_JOBS", "0"),
        (["table1"], "REPRO_JOBS", "-3"),
        (["sweep"] + TINY_SWEEP, "REPRO_JOBS", "0"),
        # --workers 0 is also invalid, so a regression fails fast
        # instead of starting a server.
        (["serve", "--workers", "0"], "REPRO_JOBS", "abc"),
        (["table4"], "REPRO_TRACE_CACHE", "abc"),
        (["table4"], "REPRO_TRACE_CACHE", "-1"),
    ],
)
def test_bad_env_value_exits_two_naming_the_variable(argv, name, value,
                                                     monkeypatch, capsys):
    """A bad REPRO_* value fails in one stderr line that names the
    variable and the value, before any work runs."""
    monkeypatch.setenv(name, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert name in lines[0] and repr(value) in lines[0]


# ------------------------------------------------------------------ #
# trace subcommand
# ------------------------------------------------------------------ #


@pytest.fixture
def trace_file(tmp_path):
    """A small CSV trace file written from a synthetic workload."""
    from repro.workload import generate_trace, write_trace

    path = tmp_path / "gcc.csv.gz"
    write_trace(path, generate_trace("gcc", 200))
    return path


def test_trace_formats_listing(capsys):
    assert main(["trace", "formats"]) == 0
    out = capsys.readouterr().out
    for name in ("din", "champsim", "csv"):
        assert name in out
    assert main(["trace", "formats", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert {entry["name"] for entry in document} >= {"din", "champsim", "csv"}
    assert all(entry["writable"] for entry in document if entry["name"] == "csv")


def test_trace_inspect_ascii_and_json(trace_file, capsys):
    assert main(["trace", "inspect", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "instructions" in out and "200" in out
    assert main(["trace", "inspect", str(trace_file), "--json",
                 "--block-bytes", "64"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["instructions"] == 200
    assert document["block_bytes"] == 64
    assert document["loads"] > 0


def test_trace_convert_round_trips(trace_file, tmp_path, capsys):
    dst = tmp_path / "out.champsim"
    assert main(["trace", "convert", str(trace_file), str(dst)]) == 0
    assert "wrote 200 instructions" in capsys.readouterr().out
    assert main(["trace", "inspect", str(dst), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["instructions"] == 200


def test_trace_convert_limit(trace_file, tmp_path, capsys):
    dst = tmp_path / "out.din"
    assert main(["trace", "convert", str(trace_file), str(dst), "--limit", "50"]) == 0
    assert "wrote 50 instructions" in capsys.readouterr().out


def test_trace_run_backends_byte_identical(trace_file, capsys):
    """Acceptance: `trace run` emits identical JSON on both backends."""
    flats = {}
    for backend in ("reference", "fast"):
        assert main(["trace", "run", str(trace_file), "--json",
                     "--backend", backend]) == 0
        flats[backend] = capsys.readouterr().out
    assert flats["reference"] == flats["fast"]
    document = json.loads(flats["reference"])
    assert document["benchmark"] == "gcc"
    assert document["core_instructions"] == 200


def test_trace_run_ascii_modes(trace_file, capsys):
    assert main(["trace", "run", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "cycles / IPC" in out and "d-cache miss rate" in out
    assert main(["trace", "run", str(trace_file), "--mode", "missrate",
                 "--instructions", "100", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "100 instructions" in out and "cycles" not in out


def test_trace_run_policy_flags(trace_file, capsys):
    assert main(["trace", "run", str(trace_file),
                 "--dcache-policy", "seldm_waypred", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "seldm_waypred" in document["config_key"]


def test_trace_run_unknown_policy_exits_two(trace_file, capsys):
    assert main(["trace", "run", str(trace_file), "--dcache-policy", "magic"]) == 2
    err = capsys.readouterr().err
    assert "magic" in err and "\n" not in err.rstrip("\n")
    # Non-ingest errors are not decorated with the format registry.
    assert "registered formats" not in err


def test_trace_report_over_directory(trace_file, capsys):
    directory = trace_file.parent
    assert main(["trace", "report", str(directory), "--instructions", "200"]) == 0
    out = capsys.readouterr().out
    assert "DM miss%" in out and "gcc" in out
    assert main(["trace", "report", str(directory), "--instructions", "200",
                 "--json", "--backend", "fast"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and rows[0]["trace"] == "gcc"


def test_trace_error_paths_one_line_naming_formats(tmp_path, capsys):
    """Unknown/corrupt/missing traces: exit 2, one line, formats named."""
    missing = tmp_path / "nope.din"
    assert main(["trace", "run", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "nope.din" in err and "registered formats" in err
    assert len(err.rstrip("\n").splitlines()) == 1

    undetectable = tmp_path / "trace.xyz"
    undetectable.write_text("0 100\n")
    assert main(["trace", "inspect", str(undetectable)]) == 2
    err = capsys.readouterr().err
    assert "trace.xyz" in err and "registered formats" in err

    corrupt = tmp_path / "bad.din"
    corrupt.write_text("not a dinero line\n")
    assert main(["trace", "run", str(corrupt)]) == 2
    err = capsys.readouterr().err
    assert "bad.din" in err and "registered formats" in err
    assert len(err.rstrip("\n").splitlines()) == 1

    assert main(["trace", "report", str(tmp_path / "missingdir")]) == 2
    assert "not found" in capsys.readouterr().err

    assert main(["trace", "inspect", str(undetectable), "--format", "hologram"]) == 2
    err = capsys.readouterr().err
    assert "hologram" in err and "registered formats" in err


def test_trace_run_unregistered_format_on_valid_file(trace_file, capsys):
    """A real trace file with a bogus ``--format``: exit 2, one line,
    registered formats named — regression for the ref resolving the
    file before noticing the format name was never registered."""
    assert main(["trace", "run", str(trace_file), "--format", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "registered formats" in err
    assert len(err.rstrip("\n").splitlines()) == 1


def test_sweep_accepts_trace_refs(trace_file, capsys):
    ref = f"trace://{trace_file}"
    assert sweep_main(["--benchmarks", ref, "--sizes", "16", "--ways", "2",
                       "--policies", "sequential", "--instructions", "200"]) == 0
    assert "Design-space sweep" in capsys.readouterr().out


def test_sweep_trace_ref_errors_exit_two(tmp_path, capsys):
    corrupt = tmp_path / "bad.din"
    corrupt.write_text("junk junk\n")
    assert sweep_main(["--benchmarks", f"trace://{corrupt}", "--instructions",
                       "200", "--ways", "2", "--policies", "sequential"]) == 2
    err = capsys.readouterr().err
    assert "bad.din" in err and "registered formats" in err

    assert sweep_main(["--benchmarks", f"trace://{tmp_path / 'gone.din'}",
                       "--instructions", "200"]) == 2
    err = capsys.readouterr().err
    assert "gone.din" in err and "registered formats" in err


def test_trace_run_icache_policy_and_bad_env_backend(trace_file, monkeypatch, capsys):
    assert main(["trace", "run", str(trace_file), "--icache-policy", "waypred",
                 "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "waypred" in document["config_key"]
    monkeypatch.setenv("REPRO_BACKEND", "warp")
    assert main(["trace", "run", str(trace_file)]) == 2
    assert "unknown backend" in capsys.readouterr().err
    assert main(["trace", "report", str(trace_file.parent)]) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_trace_report_rejects_bad_instructions(trace_file, capsys):
    assert main(["trace", "report", str(trace_file.parent),
                 "--instructions", "0"]) == 2
    assert "--instructions" in capsys.readouterr().err


def test_trace_run_rejects_negative_instructions(trace_file, capsys):
    assert main(["trace", "run", str(trace_file), "--instructions", "-100"]) == 2
    assert "--instructions" in capsys.readouterr().err


# ------------------------------------------------------------------ #
# cache subcommand
# ------------------------------------------------------------------ #


def test_cache_stats_empty(capsys):
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "results" in out and "artifacts" in out


def test_cache_lifecycle_stats_gc_clear(trace_file, capsys):
    from repro.sim import runner

    runner.clear_caches()
    assert main(["trace", "run", str(trace_file), "--mode", "missrate",
                 "--backend", "fast"]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["results"]["files"] == 1
    assert stats["artifacts"]["files"] == 1
    assert stats["artifacts"]["bytes"] > 0

    # Nothing is a month old yet.
    assert main(["cache", "gc", "--older-than", "30"]) == 0
    assert "removed 0 entries" in capsys.readouterr().out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "results: 1" in out and "artifacts: 1" in out

    assert main(["cache", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert all(stats[key]["files"] == 0 for key in ("results", "artifacts"))


def test_cache_disabled_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    assert main(["cache", "stats"]) == 2
    assert "disk cache disabled" in capsys.readouterr().err


def test_cache_gc_rejects_negative_age(capsys):
    assert main(["cache", "gc", "--older-than", "-1"]) == 2
    assert "--older-than" in capsys.readouterr().err


def test_serve_rejects_negative_compact_after(capsys):
    from repro.cli import serve_main

    assert serve_main(["--compact-after", "-1"]) == 2
    assert "--compact-after" in capsys.readouterr().err


def test_artifact_counters_on_stderr(trace_file, capsys):
    """Cold run writes one artifact, a fresh process-life loads it; the
    counters land on stderr so --json stdout stays byte-identical."""
    from repro.sim import runner

    runner.clear_caches()
    runner.reset_artifact_stats()
    assert main(["trace", "run", str(trace_file), "--mode", "missrate",
                 "--backend", "fast", "--no-cache", "--json"]) == 0
    cold = capsys.readouterr()
    assert "[artifacts: 0 loaded, 1 written]" in cold.err

    runner.clear_caches()
    runner.reset_artifact_stats()
    assert main(["trace", "run", str(trace_file), "--mode", "missrate",
                 "--backend", "fast", "--no-cache", "--json"]) == 0
    warm = capsys.readouterr()
    assert "[artifacts: 1 loaded, 0 written]" in warm.err
    assert warm.out == cold.out


# ------------------------------------------------------------------ #
# dynamic policies: --interval and the dynamic experiment
# ------------------------------------------------------------------ #


def test_policies_dynamic_column(capsys):
    """ASCII and JSON listings mark which kinds take interval ticks."""
    assert policies_main(["--side", "dcache"]) == 0
    out = capsys.readouterr().out
    assert "dynamic" in out and "static" in out

    assert policies_main(["--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    by_kind = {(e["side"], e["kind"]): e["dynamic"] for e in document}
    assert by_kind[("dcache", "dri")] is True
    assert by_kind[("dcache", "levelpred")] is True
    assert by_kind[("dcache", "parallel")] is False
    assert by_kind[("icache", "waypred")] is False


def test_main_rejects_negative_interval(capsys):
    assert main(["dynamic", "--interval", "-5"]) == 2
    assert "--interval" in capsys.readouterr().err


def test_dynamic_experiment_backends_byte_identical(capsys):
    """The CI smoke contract: the dynamic experiment's --json report is
    byte-identical between the reference and fast backends."""
    assert main(["dynamic", "--interval", "300", "--json",
                 "--backend", "reference"]) == 0
    reference = capsys.readouterr().out
    assert main(["dynamic", "--interval", "300", "--json",
                 "--backend", "fast"]) == 0
    fast = capsys.readouterr().out
    assert reference == fast
    rows = json.loads(reference)[0]["rows"]
    assert {row["technique"] for row in rows} == {"static", "dri", "levelpred"}
    assert any(row["ticks"] > 0 for row in rows)


def test_dynamic_experiment_on_sample_traces(monkeypatch, capsys):
    """The acceptance criterion: the dynamic experiment renders over
    both committed sample traces (trace:// workloads)."""
    from pathlib import Path

    data = Path(__file__).resolve().parent / "data"
    refs = [f"trace://{data / 'sample.din'}#din",
            f"trace://{data / 'sample.csv.gz'}#csv"]
    monkeypatch.setenv("REPRO_BENCHMARKS", ",".join(refs))
    assert main(["dynamic", "--interval", "300"]) == 0
    out = capsys.readouterr().out
    assert "static vs adaptive" in out
    for ref in refs:
        assert ref in out


def test_trace_run_interval_sim_mode(trace_file, capsys):
    """--interval ticks a dynamic policy through 'trace run'."""
    assert main(["trace", "run", str(trace_file), "--dcache-policy", "dri",
                 "--interval", "40", "--json", "--no-cache"]) == 0
    flat = json.loads(capsys.readouterr().out)
    assert flat.get("dynamics_ticks", 0) > 0
    assert flat["dynamics_interval"] == 40


def test_sweep_interval_flag_accepted(capsys):
    """--interval rides the design-space sweep (static grid: inert but
    cache-key-distinct)."""
    assert sweep_main(TINY_SWEEP + ["--interval", "64", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["interval"] == 64


def test_repro_interval_env(monkeypatch):
    from repro.experiments.common import settings_from_env

    monkeypatch.setenv("REPRO_INTERVAL", "777")
    assert settings_from_env().interval == 777
    monkeypatch.setenv("REPRO_INTERVAL", "junk")
    with pytest.raises(ValueError, match="REPRO_INTERVAL"):
        settings_from_env()
