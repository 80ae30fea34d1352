"""Wattch-lite: whole-processor energy accounting.

The paper estimates overall processor energy with Wattch and reports
(section 4.6) that the L1 i- and d-caches dissipate 10-16% of processor
energy, which bounds the achievable overall saving (~10% for perfect
way-prediction, ~8-9% measured).  This module reproduces that accounting
style: per-event energies for each major component, multiplied by event
counts from the core, plus a per-cycle clock/leakage-independent term.

The constants were chosen so that, for the parallel-access baseline at
the simulated IPC range, the two L1 caches land inside the paper's
10-16% share band; a unit test locks that property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping


@dataclass(frozen=True)
class WattchParameters:
    """Per-event processor energies (REU; parallel 16K 4-way read = 1.0).

    The clock tree follows Wattch's conditional-clocking style: a fixed
    per-cycle floor plus an activity-proportional term, so low-IPC
    applications do not drown their cache energy in idle clock power.
    """

    clock_per_cycle: float = 1.10
    clock_per_issue: float = 0.55
    frontend_per_fetch: float = 0.22
    bpred_per_fetch_cycle: float = 0.07
    rename_per_dispatch: float = 0.09
    window_per_issue: float = 0.28
    regfile_per_issue: float = 0.17
    alu_per_int_op: float = 0.30
    fpu_per_fp_op: float = 0.55
    lsq_per_mem_op: float = 0.11
    commit_per_instr: float = 0.22


@dataclass
class ProcessorEnergyReport:
    """Total processor energy and its component breakdown."""

    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Total processor energy (REU)."""
        return sum(self.components.values())

    @property
    def cache_fraction(self) -> float:
        """Share of energy in the two L1 caches (paper: 10-16%)."""
        caches = self.components.get("l1_icache", 0.0) + self.components.get("l1_dcache", 0.0)
        total = self.total
        return caches / total if total else 0.0

    def energy_delay(self, cycles: int) -> float:
        """Energy-delay product (REU x cycles)."""
        return self.total * cycles


class WattchLite:
    """Event-count based processor energy model."""

    def __init__(self, params: WattchParameters = WattchParameters()) -> None:
        self.params = params

    def report(
        self,
        cycles: int,
        fetched_instrs: int,
        fetch_cycles: int,
        dispatched_instrs: int,
        issued_instrs: int,
        int_ops: int,
        fp_ops: int,
        mem_ops: int,
        committed_instrs: int,
        cache_energies: Mapping[str, float],
    ) -> ProcessorEnergyReport:
        """Combine core event counts with the priced cache energies.

        Args:
            cache_energies: ``l1_icache``, ``l1_dcache`` (each including
                its prediction structures) and ``l2``; missing keys
                count as zero.
        """
        p = self.params
        components = {
            "clock": p.clock_per_cycle * cycles + p.clock_per_issue * issued_instrs,
            "frontend": p.frontend_per_fetch * fetched_instrs,
            "bpred": p.bpred_per_fetch_cycle * fetch_cycles,
            "rename": p.rename_per_dispatch * dispatched_instrs,
            "window": p.window_per_issue * issued_instrs,
            "regfile": p.regfile_per_issue * issued_instrs,
            "alu": p.alu_per_int_op * int_ops,
            "fpu": p.fpu_per_fp_op * fp_ops,
            "lsq": p.lsq_per_mem_op * mem_ops,
            "commit": p.commit_per_instr * committed_instrs,
            "l1_icache": cache_energies.get("l1_icache", 0.0),
            "l1_dcache": cache_energies.get("l1_dcache", 0.0),
            "l2": cache_energies.get("l2", 0.0),
        }
        return ProcessorEnergyReport(components=components)
