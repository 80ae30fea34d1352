"""Figure 6 (core figure): selective-DM schemes."""

from conftest import run_once

from repro.experiments import get_experiment


def test_fig06(benchmark, settings, engine):
    """Sel-DM's key properties:

    * most reads probe only the direct-mapping way;
    * sel-DM+waypred / +sequential reach sequential-class energy-delay
      with far less slowdown than the all-sequential cache;
    * sel-DM+parallel saves the least of the three variants.
    """
    figure = get_experiment("fig6")
    results = run_once(benchmark, figure.rows, settings, engine)
    print("\n" + figure.render(settings, engine))
    means = {label: rows[-1] for label, rows in results.items()}

    # Majority of reads are direct-mapped (paper: ~77% mean).
    dm_fraction = means["Sel-DM+Waypred"].extras["kind_direct_mapped"]
    assert dm_fraction > 0.6

    # Energy-delay ordering: parallel handler saves least.
    assert (
        means["Sel-DM+Sequential"].relative_energy_delay
        < means["Sel-DM+Parallel"].relative_energy_delay
    )
    assert (
        means["Sel-DM+Waypred"].relative_energy_delay
        < means["Sel-DM+Parallel"].relative_energy_delay
    )

    # Both good variants land below 0.5 relative E-D (paper: 0.27-0.31).
    assert means["Sel-DM+Waypred"].relative_energy_delay < 0.5
    assert means["Sel-DM+Sequential"].relative_energy_delay < 0.5

    # And degrade performance less than the all-sequential cache does
    # per unit of energy saved: their slowdown stays small.
    assert means["Sel-DM+Waypred"].performance_degradation < 0.08
