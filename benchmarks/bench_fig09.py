"""Figure 9: selective-DM with a 2-cycle base d-cache."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig09(benchmark, settings, engine):
    """At 2-cycle base latency the sel-DM savings persist and the
    all-sequential cache degrades performance the most (paper: ~13%)."""
    figure = get_experiment("fig9")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    means = {label: rows[-1] for label, rows in results.items()}
    assert means["Sel-DM+Waypred"].relative_energy_delay < 0.5
    assert means["Sel-DM+Sequential"].relative_energy_delay < 0.5
    # Sequential's slowdown exceeds the sel-DM variants'.
    assert (
        means["Sequential"].performance_degradation
        >= means["Sel-DM+Waypred"].performance_degradation
    )
