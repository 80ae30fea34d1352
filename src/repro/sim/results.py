"""Structured simulation results plus the paper's relative-metric
arithmetic.

A :class:`SimResult` is organized into nested sections — one
:class:`CoreMetrics`, one :class:`L1Metrics` per L1 cache, one
:class:`L2Metrics`, one :class:`EnergyMetrics`, one
:class:`DynamicsMetrics` — and every consumer
(the runner's schema-versioned disk cache, sweep JSON export,
experiment renderers, the CLI's ``--json``) speaks this one schema.
:meth:`SimResult.to_flat`/:meth:`SimResult.from_flat` round-trip the
structure through a flat JSON-safe mapping for disk storage.

The paper normalizes per application: relative cache energy-delay is
"relative d-cache energy multiplied by relative execution time", and
performance degradation is the relative increase in execution time,
always against the 1-cycle (or 2-cycle, for Figure 9) parallel-access
configuration of the same geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from repro.utils.statsutil import safe_ratio


@dataclass
class CoreMetrics:
    """Pipeline-level counts for one run."""

    instructions: int = 0
    cycles: int = 0
    committed: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    fetch_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return safe_ratio(self.committed, self.cycles)

    @property
    def branch_accuracy(self) -> float:
        """Branch direction+target accuracy."""
        return 1.0 - safe_ratio(self.branch_mispredicts, self.branches)


@dataclass
class L1Metrics:
    """One L1 cache's access/prediction counts.

    For the i-cache, ``loads`` counts fetches and ``stores`` stays 0.
    """

    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    misses: int = 0
    predictions: int = 0
    correct_predictions: int = 0
    second_probes: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        """Loads plus stores."""
        return self.loads + self.stores

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all accesses."""
        return safe_ratio(self.misses, self.accesses)

    @property
    def load_miss_rate(self) -> float:
        """Load (fetch) miss ratio."""
        return safe_ratio(self.load_misses, self.loads)

    @property
    def prediction_accuracy(self) -> float:
        """Way/mapping prediction accuracy over predicted hits."""
        return safe_ratio(self.correct_predictions, self.predictions)

    def kind_fraction(self, kind: str) -> float:
        """Share of accesses performed as ``kind``."""
        total = sum(self.kinds.values())
        return safe_ratio(self.kinds.get(kind, 0), total)


@dataclass
class L2Metrics:
    """Unified L2 counts."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        """L2 miss ratio."""
        return safe_ratio(self.misses, self.accesses)


@dataclass
class EnergyMetrics:
    """Energy accounting in relative energy units (REU).

    Attributes:
        components: cache and prediction-structure energies priced from
            the run's event counts (``l1_dcache``, ``prediction_dcache``,
            ``l1_icache``, ``prediction_icache``, ``l2``); an L1
            component with no energy is left out.
        processor: Wattch-lite whole-processor component energies.
    """

    components: Dict[str, float] = field(default_factory=dict)
    processor: Dict[str, float] = field(default_factory=dict)

    @property
    def dcache(self) -> float:
        """L1 d-cache energy plus its prediction-structure overhead."""
        return self.components.get("l1_dcache", 0.0) + self.components.get(
            "prediction_dcache", 0.0
        )

    @property
    def icache(self) -> float:
        """L1 i-cache energy plus its prediction-structure overhead."""
        return self.components.get("l1_icache", 0.0) + self.components.get(
            "prediction_icache", 0.0
        )

    @property
    def processor_total(self) -> float:
        """Whole-processor energy (Wattch-lite).

        Summed in sorted component order, the order :meth:`SimResult.to_flat`
        stores them in, so a result rebuilt from a flat gives the same
        float as the run that produced it.
        """
        return sum(self.processor[name] for name in sorted(self.processor))

    @property
    def cache_fraction_of_processor(self) -> float:
        """L1 caches' share of processor energy (paper: 10-16%)."""
        l1 = self.processor.get("l1_icache", 0.0) + self.processor.get("l1_dcache", 0.0)
        return safe_ratio(l1, self.processor_total)


@dataclass
class DynamicsMetrics:
    """Interval-tick activity of one dynamic-policy run.

    All-zero (``ticks == 0``) for static runs and for dynamic runs that
    never reached a tick.

    Attributes:
        interval: the configured tick period (accesses or cycles).
        ticks: intervals actually delivered to a policy.
        reconfigurations: ticks whose action changed the geometry.
        bypass_toggles: ticks whose action flipped the L1-bypass state.
        bypassed_accesses: accesses that skipped L1 entirely.
        final_size_bytes: d-cache capacity at the end of the run.
    """

    interval: int = 0
    ticks: int = 0
    reconfigurations: int = 0
    bypass_toggles: int = 0
    bypassed_accesses: int = 0
    final_size_bytes: int = 0


#: The nested sections of a result, in flat-name prefix order.
_SECTIONS: Tuple[Tuple[str, type], ...] = (
    ("core", CoreMetrics),
    ("dcache", L1Metrics),
    ("icache", L1Metrics),
    ("l2", L2Metrics),
    ("energy", EnergyMetrics),
    ("dynamics", DynamicsMetrics),
)


@dataclass
class SimResult:
    """Structured result of one simulation run."""

    benchmark: str
    config_key: str
    core: CoreMetrics = field(default_factory=CoreMetrics)
    dcache: L1Metrics = field(default_factory=L1Metrics)
    icache: L1Metrics = field(default_factory=L1Metrics)
    l2: L2Metrics = field(default_factory=L2Metrics)
    energy: EnergyMetrics = field(default_factory=EnergyMetrics)
    dynamics: DynamicsMetrics = field(default_factory=DynamicsMetrics)

    # -------------------------------------------------------------- #
    # Headline conveniences
    # -------------------------------------------------------------- #

    @property
    def cycles(self) -> int:
        """Total execution cycles (the paper's T)."""
        return self.core.cycles

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.core.ipc

    # -------------------------------------------------------------- #
    # Flat round-trip (disk cache, spreadsheets)
    # -------------------------------------------------------------- #

    @classmethod
    def flat_field_names(cls) -> Tuple[str, ...]:
        """Sorted flat-schema keys; the cache schema version derives
        from these, so reshaping any section rolls the version."""
        names = ["benchmark", "config_key"]
        for prefix, section in _SECTIONS:
            names.extend(f"{prefix}_{f.name}" for f in fields(section))
        return tuple(sorted(names))

    def to_flat(self) -> Dict[str, object]:
        """Flatten to one JSON-safe ``{section_field: value}`` mapping.

        Dict-valued fields (access-kind counts, energy components) are
        emitted in sorted key order, so JSON dumps of equal results are
        byte-identical whatever order the mappings were built in.  Every
        section is emitted; a run that delivered no ticks carries an
        all-zero dynamics section.
        """
        flat: Dict[str, object] = {
            "benchmark": self.benchmark,
            "config_key": self.config_key,
        }
        for prefix, _section in _SECTIONS:
            part = getattr(self, prefix)
            for f in fields(part):
                value = getattr(part, f.name)
                if isinstance(value, dict):
                    value = {key: value[key] for key in sorted(value)}
                flat[f"{prefix}_{f.name}"] = value
        return flat

    @classmethod
    def from_flat(cls, flat: Dict[str, object]) -> "SimResult":
        """Rebuild a result from :meth:`to_flat` output.

        Raises:
            ValueError: when the mapping's keys don't exactly match the
                current flat schema (the disk cache treats this as a
                stale entry).
        """
        if tuple(sorted(flat)) != cls.flat_field_names():
            raise ValueError("flat mapping does not match the current result schema")
        sections = {}
        for prefix, section in _SECTIONS:
            kwargs = {f.name: flat[f"{prefix}_{f.name}"] for f in fields(section)}
            sections[prefix] = section(**kwargs)
        return cls(
            benchmark=str(flat["benchmark"]),
            config_key=str(flat["config_key"]),
            **sections,
        )


# ------------------------------------------------------------------ #
# Relative metrics (technique vs baseline), per the paper
# ------------------------------------------------------------------ #


def relative_execution_time(result: SimResult, baseline: SimResult) -> float:
    """T_technique / T_baseline."""
    return safe_ratio(result.core.cycles, baseline.core.cycles, default=1.0)


def performance_degradation(result: SimResult, baseline: SimResult) -> float:
    """Fractional slowdown (0.03 == 3% slower)."""
    return relative_execution_time(result, baseline) - 1.0


def _component_energy(result: SimResult, component: str) -> float:
    if component == "dcache":
        return result.energy.dcache
    if component == "icache":
        return result.energy.icache
    if component == "processor":
        return result.energy.processor_total
    raise ValueError(f"unknown component {component!r}")


def relative_energy_delay(
    result: SimResult, baseline: SimResult, component: str = "dcache"
) -> float:
    """Relative energy x relative time for ``component``.

    Args:
        component: "dcache", "icache", or "processor".
    """
    return relative_energy(result, baseline, component) * relative_execution_time(
        result, baseline
    )


def relative_energy(result: SimResult, baseline: SimResult, component: str = "processor") -> float:
    """Relative energy for ``component`` (no delay term)."""
    return safe_ratio(
        _component_energy(result, component),
        _component_energy(baseline, component),
        default=1.0,
    )
