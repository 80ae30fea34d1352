"""Figure 11: overall processor energy and energy-delay."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig11(benchmark, settings, engine):
    """Combined techniques save several percent of processor energy-delay,
    bounded by the perfect-way-prediction configuration (paper: 8% vs 10%),
    with the L1 caches at 10-16% of processor energy."""
    figure = get_experiment("fig11")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    combined = results["Combined"][-1]
    perfect = results["Perfect"][-1]
    # Real savings exist...
    assert combined.relative_energy_delay < 0.99
    assert combined.extras["relative_energy"] < 0.97
    # ...and perfect way-prediction saves at least as much energy.
    assert perfect.extras["relative_energy"] <= combined.extras["relative_energy"] + 0.005
    # L1 share of processor energy in the paper's band (10-16%), with
    # slack for the lowest-IPC applications.
    assert 0.06 < combined.extras["cache_fraction"] < 0.20
