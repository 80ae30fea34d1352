"""Figure 10: i-cache way prediction across associativities."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig10(benchmark, settings, engine):
    """I-cache way prediction: high accuracy, savings grow with ways,
    negligible performance loss (paper: 39%/64%/72%, <0.5% perf)."""
    figure = get_experiment("fig10")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    ed2 = results["2-way"][-1].relative_energy_delay
    ed4 = results["4-way"][-1].relative_energy_delay
    ed8 = results["8-way"][-1].relative_energy_delay
    assert ed2 > ed4 > ed8
    assert ed4 < 0.55
    mean4 = results["4-way"][-1]
    # Prediction covers nearly all fetches with high accuracy.
    assert mean4.extras["prediction_accuracy"] > 0.9
    assert abs(mean4.performance_degradation) < 0.03
    # SAWP + BTB together supply most predictions.
    covered = mean4.extras["kind_sawp_correct"] + mean4.extras["kind_btb_correct"]
    assert covered > 0.8
