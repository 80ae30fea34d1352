"""Figure 8: effect of associativity on selective-DM."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig08(benchmark, settings, engine):
    """Savings grow with associativity (paper: 38% / 69% / 82%)."""
    figure = get_experiment("fig8")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    ed2 = results["2-way"][-1].relative_energy_delay
    ed4 = results["4-way"][-1].relative_energy_delay
    ed8 = results["8-way"][-1].relative_energy_delay
    assert ed2 > ed4 > ed8
    # Rough bands around the paper's 0.62 / 0.31 / 0.18.
    assert 0.35 < ed2 < 0.85
    assert 0.2 < ed4 < 0.55
    assert ed8 < 0.4
