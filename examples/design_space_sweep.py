#!/usr/bin/env python3
"""Design-space sweep: size x associativity x latency for sel-DM+waypred.

Extends the paper's Figures 7-9 into one grid using the declarative
sweep API: the whole grid is named up front as DesignPoints, executed in
one engine pass (``--jobs N`` fans it over N worker processes), and
reduced by ``point_rows`` — the reducer behind the paper's figures and
the ``sweep`` subcommand — to each point's MEAN row.  Every point is
one (baseline, technique) pair normalized within itself, so the numbers
answer "what would this cache shape gain from the techniques?".

The same sweep is available without code from the CLI::

    repro-experiment sweep --benchmarks gcc,go,mgrid,swim \
        --sizes 16,32 --ways 2,4,8 --latencies 1,2 \
        --policies seldm_waypred --instructions 25000 --jobs 4
"""

import argparse

from repro import SystemConfig
from repro.sweep import DesignPoint, SweepEngine, design_space_spec, point_rows

BENCHMARKS = ("gcc", "go", "mgrid", "swim")
INSTRUCTIONS = 25_000


def design_points() -> list:
    """One DesignPoint per cache shape, sel-DM+waypred vs parallel."""
    points = []
    for size_kb in (16, 32):
        for ways in (2, 4, 8):
            for latency in (1, 2):
                baseline = SystemConfig().with_dcache(
                    size_kb=size_kb, associativity=ways, latency=latency
                )
                points.append(
                    DesignPoint(
                        label=f"{size_kb}K {ways}-way {latency}cyc",
                        technique=baseline.with_dcache_policy("seldm_waypred"),
                        baseline=baseline,
                    )
                )
    return points


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1)")
    args = parser.parse_args()

    points = design_points()
    engine = SweepEngine(jobs=args.jobs)
    spec = design_space_spec(points, BENCHMARKS, INSTRUCTIONS, name="design-space")
    sweep = engine.run(spec)
    means = {
        point.label: point_rows(sweep, point, BENCHMARKS, INSTRUCTIONS)[-1]
        for point in points
    }

    print(f"sel-DM+waypred over {', '.join(BENCHMARKS)}  (E-D | perf%)")
    print(f"{'shape':16s} {'1-cycle':>16s} {'2-cycle':>16s}")
    for size_kb in (16, 32):
        for ways in (2, 4, 8):
            cells = []
            for latency in (1, 2):
                mean = means[f"{size_kb}K {ways}-way {latency}cyc"]
                cells.append(
                    f"{mean.relative_energy_delay:.3f} | "
                    f"{mean.performance_degradation * 100:+.1f}"
                )
            print(f"{size_kb}K {ways}-way       {cells[0]:>16s} {cells[1]:>16s}")
    print(f"\n[{sweep.stats.describe()}]")


if __name__ == "__main__":
    main()
