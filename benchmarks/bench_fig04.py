"""Figure 4: sequential access saves energy but degrades performance."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig04(benchmark, settings, engine):
    """Sequential access: large E-D savings, visible slowdown."""
    figure = get_experiment("fig4")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    mean = results["Sequential"][-1]
    # Paper: 68% mean E-D savings; shape check: >50%.
    assert mean.relative_energy_delay < 0.5
    # Paper: 11% mean degradation; our core absorbs more of the +1 cycle
    # (see EXPERIMENTS.md) but the slowdown must be real and positive.
    assert mean.performance_degradation > 0.0
    # Every application saves energy-delay.
    for row in results["Sequential"][:-1]:
        assert row.relative_energy_delay < 0.6, row.benchmark
