"""Figure 7: effect of cache size on selective-DM."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig07(benchmark, settings, engine):
    """32K savings stay large but do not exceed 16K savings by much
    (paper: 69% -> 63%, because tag/decode grow as a share)."""
    figure = get_experiment("fig7")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    mean16 = results["16K"][-1]
    mean32 = results["32K"][-1]
    assert mean16.relative_energy_delay < 0.5
    assert mean32.relative_energy_delay < 0.6
    # Savings at 32K <= savings at 16K plus a small tolerance.
    assert mean32.relative_energy_delay >= mean16.relative_energy_delay - 0.03
