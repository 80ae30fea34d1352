"""The out-of-order engine: dispatch, issue, execute, commit.

A cycle loop over four stages (processed commit-first so a value
produced in cycle N is consumable in cycle N+1):

1. **Commit** — in-order retirement of completed instructions, up to
   ``commit_width`` per cycle; frees LSQ slots.
2. **Issue** — oldest-first scan of the reorder buffer for instructions
   whose source registers are ready; memory operations additionally
   arbitrate for the d-cache ports.  Loads/stores access the d-cache
   engine *at issue*, which is when probe energy is spent and the
   policy's latency (base, +1 on a probe misprediction, plus any miss
   path) is incurred.
3. **Dispatch** — fetched instructions enter the ROB/LSQ, up to
   ``dispatch_width`` per cycle, stalling when either is full.
4. **Fetch** — one i-cache block per cycle via :class:`FetchUnit`.

Branches resolve at execute; a mispredicted branch un-stalls fetch at
``done + redirect_penalty``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.engine import DCacheEngine
from repro.cpu.config import CoreConfig
from repro.cpu.fetch import FetchedInstr, FetchUnit
from repro.cpu.stats import CoreStats
from repro.workload.instr import (
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_STORE,
)

#: Safety-valve floor: the minimum commit-gap (in cycles) treated as a
#: deadlock, regardless of trace length.
_DEADLOCK_FLOOR = 100_000


def deadlock_limit(instructions: int) -> int:
    """Cycles without a commit after which the model is deadlocked.

    The valve exists to catch scheduler bugs (a ROB that can never
    drain), not to bound legitimate stalls — so it scales with trace
    length instead of being a fixed constant: a fixed valve that is
    generous for a 60k-instruction trace could still fire spuriously on
    a multi-million-instruction one (e.g. pathological miss queueing
    behind a full ROB).  The bound is shared by the reference core and
    the fast core so both fail identically on a genuine deadlock.
    """
    return _DEADLOCK_FLOOR + 8 * max(instructions, 0)


class _RobEntry:
    __slots__ = ("instr", "issued", "done", "is_mem", "resolves_stall", "src_a", "src_b")

    def __init__(self, fetched: FetchedInstr) -> None:
        self.instr = fetched.instr
        self.issued = False
        self.done = 0
        self.is_mem = fetched.instr.op in (OP_LOAD, OP_STORE)
        self.resolves_stall = fetched.resolves_stall
        # Producer entries resolved at dispatch (register renaming): a
        # plain per-register ready-time scoreboard is wrong here, because
        # with a 64-entry window over a finite architectural register
        # file a *later* producer would clobber the ready time an
        # in-flight consumer still depends on, silently breaking
        # dependence chains (and with them all latency sensitivity).
        self.src_a: "_RobEntry" = None
        self.src_b: "_RobEntry" = None


class OutOfOrderCore:
    """Runs one trace to completion against an L1 pair."""

    def __init__(
        self,
        config: CoreConfig,
        fetch_unit: FetchUnit,
        dcache: DCacheEngine,
        stats: Optional[CoreStats] = None,
        interval: int = 0,
        on_tick=None,
    ) -> None:
        self.config = config
        self.fetch_unit = fetch_unit
        self.dcache = dcache
        self.stats = stats if stats is not None else CoreStats()
        #: Interval-tick plumbing: with ``interval > 0`` and a callback,
        #: ``on_tick(cycle)`` fires at the top of each cycle that is a
        #: positive multiple of ``interval`` (cycle 0 never ticks; a
        #: tick after the final cycle never fires).
        self.interval = interval
        self.on_tick = on_tick
        self._rob: Deque[_RobEntry] = deque()
        self._fetch_queue: Deque[FetchedInstr] = deque()
        self._lsq_count = 0
        # Rename map: architectural register -> youngest producer entry.
        self._rename: list = [None] * 64

    # ------------------------------------------------------------------ #

    def run(self) -> CoreStats:
        """Simulate until the trace is fully committed."""
        config = self.config
        stats = self.stats
        cycle = 0
        last_commit_cycle = 0
        valve = deadlock_limit(len(self.fetch_unit.trace))
        on_tick = self.on_tick
        next_tick = self.interval if on_tick is not None and self.interval > 0 else 0

        while not (self.fetch_unit.done and not self._fetch_queue and not self._rob):
            if next_tick and cycle == next_tick:
                on_tick(cycle)
                next_tick += self.interval
            if self._commit(cycle):
                last_commit_cycle = cycle
            self._issue(cycle)
            self._dispatch(cycle)
            if len(self._fetch_queue) < 2 * config.fetch_width:
                for fetched in self.fetch_unit.fetch(cycle):
                    self._fetch_queue.append(fetched)
            cycle += 1
            if cycle - last_commit_cycle > valve:
                raise RuntimeError(
                    f"core deadlock at cycle {cycle}: rob={len(self._rob)} "
                    f"fetchq={len(self._fetch_queue)} committed={stats.committed}"
                )

        stats.cycles = cycle
        return stats

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #

    def _commit(self, cycle: int) -> bool:
        committed = 0
        rob = self._rob
        while rob and committed < self.config.commit_width:
            head = rob[0]
            if not head.issued or head.done > cycle:
                break
            rob.popleft()
            if head.is_mem:
                self._lsq_count -= 1
            committed += 1
        self.stats.committed += committed
        return committed > 0

    def _issue(self, cycle: int) -> None:
        config = self.config
        stats = self.stats
        ports = config.dcache_ports
        issued = 0

        for entry in self._rob:
            if issued >= config.issue_width:
                break
            if entry.issued:
                continue
            instr = entry.instr
            if entry.is_mem and ports == 0:
                continue
            src_a = entry.src_a
            if src_a is not None and not (src_a.issued and src_a.done <= cycle):
                continue
            src_b = entry.src_b
            if src_b is not None and not (src_b.issued and src_b.done <= cycle):
                continue

            op = instr.op
            if op == OP_LOAD:
                outcome = self.dcache.load(instr.pc, instr.addr, instr.xor_handle)
                latency = outcome.latency
                stats.loads += 1
                ports -= 1
            elif op == OP_STORE:
                self.dcache.store(instr.pc, instr.addr)
                # The store retires through the LSQ; it does not produce a
                # register value, so a nominal 1-cycle occupancy suffices.
                latency = 1
                stats.stores += 1
                ports -= 1
            elif op == OP_FP:
                latency = config.fp_latency
                stats.fp_ops += 1
            elif op == OP_INT:
                latency = config.int_latency
                stats.int_ops += 1
            else:  # branches, calls, returns
                latency = config.branch_latency
                stats.int_ops += 1

            entry.issued = True
            entry.done = cycle + latency
            if entry.resolves_stall:
                self.fetch_unit.resume(entry.done + config.redirect_penalty)
            issued += 1

        stats.issued += issued

    def _dispatch(self, cycle: int) -> None:
        config = self.config
        queue = self._fetch_queue
        dispatched = 0
        while queue and dispatched < config.dispatch_width:
            head = queue[0]
            if head.ready_cycle > cycle:
                break
            if len(self._rob) >= config.rob_size:
                break
            is_mem = head.instr.op in (OP_LOAD, OP_STORE)
            if is_mem and self._lsq_count >= config.lsq_size:
                break
            queue.popleft()
            entry = _RobEntry(head)
            rename = self._rename
            src1 = head.instr.src1
            if src1 >= 0:
                entry.src_a = rename[src1]
            src2 = head.instr.src2
            if src2 >= 0:
                entry.src_b = rename[src2]
            if head.instr.dst >= 0:
                rename[head.instr.dst] = entry
            self._rob.append(entry)
            if is_mem:
                self._lsq_count += 1
            dispatched += 1
        self.stats.dispatched += dispatched
