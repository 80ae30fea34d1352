"""Core event counters consumed by reports and the Wattch-lite model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.statsutil import safe_ratio


@dataclass
class CoreStats:
    """Aggregate pipeline statistics for one simulation.

    Every field is read by a :class:`~repro.sim.results.SimResult`
    section or by :meth:`~repro.energy.processor.WattchLite.report`.
    """

    cycles: int = 0
    fetched: int = 0
    fetch_cycles: int = 0  # cycles with an i-cache access (bpred energy)
    dispatched: int = 0
    issued: int = 0
    committed: int = 0
    int_ops: int = 0
    fp_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return safe_ratio(self.committed, self.cycles)

    @property
    def mem_ops(self) -> int:
        """Loads plus stores."""
        return self.loads + self.stores
