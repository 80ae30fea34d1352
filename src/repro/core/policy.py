"""Policy interface: probe plans and training hooks.

The engine asks the policy three questions, matching the three decision
points in the paper's framework (Figure 2):

1. :meth:`DCachePolicy.plan_load` — before the access: which ways to
   probe, and how (the prediction happens *here*, from early-pipeline
   handles, never from the tag array).
2. :meth:`DCachePolicy.placement_way` — on a fill: direct-mapping
   position or set-associative position (selective-DM's block isolation).
3. :meth:`DCachePolicy.observe_load` / :meth:`DCachePolicy.on_eviction`
   — after the access: train tables, update the victim list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.bitops import AddressFields

# Probe modes.
MODE_PARALLEL = "parallel"  #: probe every data way with the tag lookup
MODE_SINGLE = "single"  #: probe one predicted/direct-mapped way
MODE_SEQUENTIAL = "sequential"  #: wait for the tag array, probe the match
MODE_ORACLE = "oracle"  #: probe the matching way (perfect prediction)


@dataclass(frozen=True)
class ProbePlan:
    """What the access will probe.

    Attributes:
        mode: one of the ``MODE_*`` constants.
        way: the single way to probe (``MODE_SINGLE`` only).
        kind: access-kind label charged if the probe succeeds.
        table_reads: prediction-table reads performed to form the plan
            (energy accounting).
    """

    mode: str
    way: Optional[int] = None
    kind: str = "parallel"
    table_reads: int = 0


class DCachePolicy:
    """Base class for d-cache access policies.

    Subclasses override the hooks they need; the defaults describe a
    conventional cache (parallel probes, replacement-chosen placement,
    no training).
    """

    #: Human-readable policy name used in reports.
    name = "base"
    #: Whether evictions must be reported (victim-list maintenance).
    uses_victim_list = False

    def plan_load(self, pc: int, addr: int, xor_handle: int) -> ProbePlan:
        """Return the probe plan for a load at ``pc`` accessing ``addr``."""
        raise NotImplementedError

    def observe_load(
        self,
        pc: int,
        addr: int,
        xor_handle: int,
        plan: ProbePlan,
        resident_way: Optional[int],
        final_way: int,
        dm_way: int,
    ) -> int:
        """Train on the resolved access.

        Args:
            resident_way: way the block was found in, or None on a miss.
            final_way: way the block ends up in (hit way, or fill way).
            dm_way: the address's direct-mapping way.

        Returns:
            Number of prediction-table writes performed (for energy).
        """
        return 0

    def placement_way(self, addr: int, fields: AddressFields) -> Optional[int]:
        """Return the way a fill must use, or None to let LRU choose."""
        return None

    def on_eviction(self, block_addr: int) -> int:
        """Note an eviction; returns victim-list searches performed."""
        return 0
