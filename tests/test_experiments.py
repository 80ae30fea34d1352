"""Experiment-harness tests: registry, rendering, and small-scale runs."""

import pytest

from repro.experiments.common import ExperimentSettings, format_table, settings_from_env
from repro.experiments.figures import FIGURES, xor_timing_ratio
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    experiment_json,
    get_experiment,
    list_experiments,
)
from repro.sweep.analyze import MetricRow, mean_row
from repro.sweep.engine import SweepEngine
from repro.experiments.tables import (
    render_table1,
    render_table2,
    render_table3,
    table3_rows,
)

SMALL = ExperimentSettings(instructions=6_000, benchmarks=("gcc", "swim"))


class TestRegistry:
    def test_all_fourteen_registered(self):
        ids = list_experiments()
        assert len(ids) == 14
        for expected in ("table3", "table4", "table5", "fig4", "fig11", "dynamic"):
            assert expected in ids
        assert ids == [
            "table1", "table2", "table3", "table4", "table5", "fig4", "fig5",
            "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "dynamic",
        ]

    def test_list_returns_string_list(self):
        ids = list_experiments()
        assert isinstance(ids, list)
        assert all(isinstance(experiment_id, str) for experiment_id in ids)

    def test_round_trip_every_id_resolves(self):
        for experiment_id in list_experiments():
            experiment = get_experiment(experiment_id)
            assert isinstance(experiment, Experiment)
            assert experiment.experiment_id == experiment_id
            assert experiment is EXPERIMENTS[experiment_id]
            assert callable(experiment.renderer)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_unknown_error_names_the_id(self):
        with pytest.raises(KeyError, match="fig99"):
            get_experiment("fig99")
        with pytest.raises(KeyError, match="no-such-id"):
            get_experiment("no-such-id")


class TestSettings:
    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert settings_from_env().instructions == 6_000

    def test_env_benchmarks(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,swim")
        assert settings_from_env().benchmarks == ("gcc", "swim")

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCHMARKS", raising=False)
        settings = settings_from_env()
        assert settings.instructions == 60_000
        assert len(settings.benchmarks) == 11


class TestFormatting:
    def test_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["33", "4"]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]

    def test_mean_row(self):
        rows = [
            MetricRow("a", "t", 0.4, 0.02, {"x": 1.0}),
            MetricRow("b", "t", 0.6, 0.04, {"x": 3.0}),
        ]
        mean = mean_row(rows, "t")
        assert mean.relative_energy_delay == pytest.approx(0.5)
        assert mean.performance_degradation == pytest.approx(0.03)
        assert mean.extras["x"] == pytest.approx(2.0)


class TestStaticTables:
    def test_table1_contents(self):
        text = render_table1()
        assert "Reorder buffer size" in text and "64" in text

    def test_table2_contents(self):
        assert "swim" in render_table2()

    def test_table3_matches_paper(self):
        for row in table3_rows():
            assert row.measured == pytest.approx(row.paper, abs=0.012)
        assert "0.21" in render_table3()


class TestSmallExperiments:
    """End-to-end runs at tiny scale (2 benchmarks, 6k instructions)."""

    def test_fig04(self):
        fig4 = get_experiment("fig4")
        results = fig4.rows(SMALL)
        mean = results["Sequential"][-1]
        assert mean.relative_energy_delay < 0.6
        assert "Figure 4" in fig4.render(SMALL)

    def test_fig05(self):
        results = get_experiment("fig5").rows(SMALL)
        assert set(results) == {"PC-based", "XOR-based"}
        assert 0.3 < xor_timing_ratio() < 0.7

    def test_fig06_breakdown_sums_to_one(self):
        results = get_experiment("fig6").rows(SMALL)
        row = results["Sel-DM+Waypred"][0]
        total = sum(v for k, v in row.extras.items() if k.startswith("kind_"))
        assert total == pytest.approx(1.0, abs=0.01)

    def test_fig10(self):
        results = get_experiment("fig10").rows(SMALL)
        assert results["4-way"][-1].extras["prediction_accuracy"] > 0.8

    def test_fig11(self):
        results = get_experiment("fig11").rows(SMALL)
        assert results["Combined"][-1].extras["relative_energy"] < 1.0

    def test_table5(self):
        from repro.experiments import table5

        rows = table5.run(SMALL)
        assert len(rows) == 6
        assert all(r.ed_savings_pct > 30 for r in rows)


class TestSweepIntegration:
    """Experiments render identically at any job count, and declare
    their grids as inspectable specs."""

    def test_every_dynamic_experiment_declares_a_spec(self):
        from repro.experiments import table5, tables

        for declarer, expected_name in (
            *((figure, figure.experiment_id) for figure in FIGURES),
            (table5, "table5"),
            (tables, "table4"),
        ):
            spec = declarer.sweep_spec(SMALL)
            assert spec.name == expected_name
            assert len(spec) > 0
            assert all(run.benchmark in SMALL.benchmarks for run in spec)

    def test_shared_baseline_deduplicates(self):
        [fig6] = [figure for figure in FIGURES if figure.experiment_id == "fig6"]
        spec = fig6.sweep_spec(SMALL)
        # 5 techniques + 1 shared baseline = 6 configs per application.
        assert len(spec) == 6 * len(SMALL.benchmarks)

    def test_render_identical_serial_vs_parallel(self):
        fig8 = get_experiment("fig8")
        serial = fig8.render(SMALL, SweepEngine(jobs=1))
        parallel = fig8.render(SMALL, SweepEngine(jobs=4))
        assert serial == parallel

    def test_table4_via_missrate_sweep(self):
        from repro.experiments.tables import sweep_spec, table4_rows

        spec = sweep_spec(SMALL)
        assert all(run.mode == "missrate" for run in spec)
        rows = table4_rows(SMALL, SweepEngine(jobs=1))
        assert [r.benchmark for r in rows] == list(SMALL.benchmarks)
        for row in rows:
            assert 0.0 < row.sa_measured < 100.0

    def test_experiment_json_rows(self):
        document = experiment_json("fig4", SMALL, SweepEngine(jobs=1))
        assert document["experiment"] == "fig4"
        rows = document["rows"]["Sequential"]
        assert rows[-1]["benchmark"] == "MEAN"
        assert 0.0 < rows[-1]["relative_energy_delay"] < 1.0

    def test_repeated_benchmark_counts_twice_in_figure_mean(self):
        """A figure's MEAN row averages every row, so a benchmark named
        twice counts twice (a sweep document counts it once)."""
        [fig4] = [figure for figure in FIGURES if figure.experiment_id == "fig4"]
        settings = ExperimentSettings(
            instructions=SMALL.instructions, benchmarks=("gcc", "gcc", "swim")
        )
        rows = fig4.rows(settings, SweepEngine(jobs=1))["Sequential"]
        gcc, again, swim, mean = (row.relative_energy_delay for row in rows)
        assert again == gcc != swim
        assert mean == (gcc + gcc + swim) / 3

    def test_experiment_json_static_table(self):
        document = experiment_json("table1", SMALL, SweepEngine(jobs=1))
        assert any("Reorder buffer size" in row[0] for row in document["rows"])


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["fig99"]) == 2

    def test_runs_table3(self, capsys):
        from repro.cli import main

        assert main(["table3"]) == 0
        assert "0.21" in capsys.readouterr().out

    def test_jobs_flag(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,swim")
        assert main(["fig4", "--jobs", "2"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_bad_jobs_rejected(self, capsys):
        from repro.cli import main

        assert main(["table1", "--jobs", "0"]) == 2

    def test_json_output(self, capsys):
        import json

        from repro.cli import main

        assert main(["table3", "--json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["experiment"] == "table3"
        assert documents[0]["rows"][0]["paper"] == 1.0

    def test_json_dynamic_experiment(self, capsys, monkeypatch):
        import json

        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.1")
        monkeypatch.setenv("REPRO_BENCHMARKS", "gcc,swim")
        assert main(["fig4", "--json"]) == 0
        [document] = json.loads(capsys.readouterr().out)
        assert document["experiment"] == "fig4"
        assert document["rows"]["Sequential"][-1]["benchmark"] == "MEAN"

    def test_sweep_subcommand(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--benchmarks", "gcc,swim", "--sizes", "16",
            "--ways", "2,4", "--policies", "seldm_waypred",
            "--instructions", "6000", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "16K/2w/1cyc seldm_waypred" in out
        assert "16K/4w/1cyc seldm_waypred" in out

    def test_sweep_subcommand_json(self, capsys):
        import json

        from repro.cli import main

        assert main([
            "sweep", "--benchmarks", "gcc", "--sizes", "16", "--ways", "4",
            "--policies", "sequential", "--instructions", "6000", "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        [point] = document["points"]
        assert point["label"] == "16K/4w/1cyc sequential"
        assert 0.0 < point["relative_energy_delay"] < 1.0
        assert "gcc" in point["per_benchmark"]

    def test_sweep_unknown_policy(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--policies", "quantum", "--benchmarks", "gcc"]) == 2
