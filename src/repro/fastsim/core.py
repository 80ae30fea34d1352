"""Array-state out-of-order core for the fast backend.

Cycle-for-cycle transcription of
:class:`~repro.cpu.ooo.OutOfOrderCore` — the same four stages in the
same commit-first order, the same widths, the same port arbitration,
the same register-renaming semantics — restated over flat arrays so
the per-cycle cost is list indexing instead of object-graph traversal:

* the ROB deque of ``_RobEntry`` objects becomes parallel
  fixed-length lists indexed ``sequence % rob_size`` with monotonically
  increasing head/tail sequence numbers.  Producer links are sequence
  numbers: a producer older than ``head`` has committed and a
  committed producer is ready by construction (commit requires
  ``done <= cycle``), which is exactly the reference semantics of
  holding a reference to a retired entry;
* the issue stage keeps an ordered *pending* list of unissued
  sequences.  The reference scans the whole ROB every cycle and skips
  issued entries; scanning only the unissued ones visits the same
  candidates in the same oldest-first order (issue is the only stage
  that clears the unissued state) while skipping the dominant
  per-cycle cost of a mostly-issued 64-entry window.  Each pending
  item additionally packs a *wake bound* in its low bits: once a
  blocking producer is seen to have issued with completion cycle
  ``done``, the consumer provably cannot issue before ``done`` (a
  producer's ``done`` never changes after issue), so re-scans until
  then are a single compare instead of a full dependency check —
  pure scan-cost elision, never a scheduling change.  An entry whose
  in-window producer has not issued is *parked* on that producer's ROB
  slot instead; when the producer issues, its parked consumers rejoin
  the list in sequence order with its completion cycle as their wake
  bound.  No decision changes: the older producer is scanned first, a
  parked entry cannot issue before its producer completes, and a
  producer cannot commit (freeing its slot) before it issues;
* fetched instructions arrive as packed ints through the deques of
  :class:`~repro.fastsim.fetch.FastFetchUnit` instead of
  ``FetchedInstr`` objects.

The d-cache is a :class:`~repro.fastsim.dcache.FastDCacheEngine`,
driven through its ``load_tuple``/``store_tuple`` methods in the same
access sequence as the reference core drives ``DCacheEngine`` — which
is what keeps latencies and every counter (so every priced energy)
byte-identical under ``SimResult.to_flat()``.
"""

from __future__ import annotations

from typing import Optional

from repro.cpu.config import CoreConfig
from repro.cpu.ooo import deadlock_limit
from repro.cpu.stats import CoreStats
from repro.fastsim.fetch import FastFetchUnit
from repro.workload.instr import OP_FP, OP_INT, OP_LOAD, OP_STORE

#: Pending items pack ``(sequence << _WAKE_BITS) | wake_cycle``; 34 bits
#: of wake headroom covers ~1.7e10 cycles, far past any modeled trace.
_WAKE_BITS = 34
_WAKE_MASK = (1 << _WAKE_BITS) - 1


class FastCore:
    """Runs one encoded trace to completion against an L1 pair."""

    def __init__(
        self,
        config: CoreConfig,
        fetch_unit: FastFetchUnit,
        dcache,
        stats: Optional[CoreStats] = None,
        interval: int = 0,
        on_tick=None,
    ) -> None:
        self.config = config
        self.fetch_unit = fetch_unit
        self.dcache = dcache
        self.stats = stats if stats is not None else CoreStats()
        #: Interval-tick plumbing, identical to the reference core's:
        #: ``on_tick(cycle)`` fires at the top of each cycle that is a
        #: positive multiple of ``interval``.  The idle skip clamps its
        #: jumps at the next tick boundary so the tick *count* matches
        #: the reference core even across event-free stretches.
        self.interval = interval
        self.on_tick = on_tick

    # ------------------------------------------------------------------ #

    def run(self) -> CoreStats:
        """Simulate until the trace is fully committed."""
        config = self.config
        stats = self.stats
        fetch_unit = self.fetch_unit
        encoded = fetch_unit.encoded
        t_ops = encoded.ops
        t_pcs = encoded.pcs
        t_dsts = encoded.dsts
        t_src1s = encoded.src1s
        t_src2s = encoded.src2s
        t_addrs = encoded.daddrs
        t_xors = encoded.xors
        n = encoded.instructions

        load_tuple = self.dcache.load_tuple
        store_tuple = self.dcache.store_tuple
        fetch = fetch_unit.fetch
        resume = fetch_unit.resume
        queue = fetch_unit.queue

        rob_size = config.rob_size
        lsq_size = config.lsq_size
        queue_limit = 2 * config.fetch_width
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        num_ports = config.dcache_ports
        int_latency = config.int_latency
        fp_latency = config.fp_latency
        branch_latency = config.branch_latency
        redirect_penalty = config.redirect_penalty

        # ROB as parallel circular arrays; head/tail are sequence numbers.
        r_index = [0] * rob_size  # trace index of the instruction
        r_issued = [False] * rob_size
        r_done = [0] * rob_size
        r_ismem = [False] * rob_size
        r_resolves = [0] * rob_size
        r_srca = [-1] * rob_size  # producer sequence numbers (-1: none)
        r_srcb = [-1] * rob_size
        head = 0
        tail = 0
        lsq_count = 0
        # Rename map: architectural register -> youngest producer sequence.
        rename = [-1] * 64
        # Unissued sequences, oldest first, except those parked in
        # ``waiters[slot]`` on the unissued producer in ``slot``.
        pending = []
        waiters = [[] for _ in range(rob_size)]
        woken = []

        committed_total = 0
        issued_total = 0
        dispatched_total = 0
        int_ops = 0
        fp_ops = 0
        loads = 0
        stores = 0

        cycle = 0
        last_commit_cycle = 0
        valve = deadlock_limit(n)
        on_tick = self.on_tick
        interval = self.interval
        next_tick = interval if on_tick is not None and interval > 0 else 0

        while queue or head != tail or fetch_unit.index < n:
            if next_tick and cycle == next_tick:
                on_tick(cycle)
                next_tick += interval
            # ---- commit: in-order retirement, up to commit_width ---- #
            count = 0
            while head != tail and count < commit_width:
                slot = head % rob_size
                if not r_issued[slot] or r_done[slot] > cycle:
                    break
                head += 1
                if r_ismem[slot]:
                    lsq_count -= 1
                count += 1
            if count:
                committed_total += count
                last_commit_cycle = cycle

            # ---- issue: oldest-first over the unissued window ---- #
            issued = 0
            if pending:
                ports = num_ports
                keep = 0
                for item in pending:
                    if issued >= issue_width:
                        pending[keep] = item
                        keep += 1
                        continue
                    if item & _WAKE_MASK > cycle:
                        # Blocked on a producer whose completion cycle is
                        # already known: skip the dependency walk.
                        pending[keep] = item
                        keep += 1
                        continue
                    seq = item >> _WAKE_BITS
                    slot = seq % rob_size
                    if r_ismem[slot] and ports == 0:
                        pending[keep] = item
                        keep += 1
                        continue
                    src = r_srca[slot]
                    if src >= head:  # in-window producer: check readiness
                        src_slot = src % rob_size
                        if not r_issued[src_slot]:
                            waiters[src_slot].append(seq)  # park
                            continue
                        done = r_done[src_slot]
                        if done > cycle:
                            pending[keep] = (seq << _WAKE_BITS) | done
                            keep += 1
                            continue
                    src = r_srcb[slot]
                    if src >= head:
                        src_slot = src % rob_size
                        if not r_issued[src_slot]:
                            waiters[src_slot].append(seq)
                            continue
                        done = r_done[src_slot]
                        if done > cycle:
                            pending[keep] = (seq << _WAKE_BITS) | done
                            keep += 1
                            continue

                    index = r_index[slot]
                    op = t_ops[index]
                    if op == OP_LOAD:
                        latency = load_tuple(t_pcs[index], t_addrs[index], t_xors[index])[1]
                        loads += 1
                        ports -= 1
                    elif op == OP_STORE:
                        store_tuple(t_pcs[index], t_addrs[index])
                        # The store retires through the LSQ; it does not
                        # produce a register value, so a nominal 1-cycle
                        # occupancy suffices.
                        latency = 1
                        stores += 1
                        ports -= 1
                    elif op == OP_FP:
                        latency = fp_latency
                        fp_ops += 1
                    elif op == OP_INT:
                        latency = int_latency
                        int_ops += 1
                    else:  # branches, calls, returns
                        latency = branch_latency
                        int_ops += 1

                    r_issued[slot] = True
                    done = cycle + latency
                    r_done[slot] = done
                    if r_resolves[slot]:
                        resume(done + redirect_penalty)
                    issued += 1
                    parked = waiters[slot]
                    if parked:
                        woken += [(waiter << _WAKE_BITS) | done for waiter in parked]
                        parked.clear()
                del pending[keep:]
                if woken:
                    # Woken entries cannot issue before ``done`` > cycle,
                    # so rejoining after this scan changes no decision.
                    pending += woken
                    pending.sort()
                    woken.clear()
                issued_total += issued

            # ---- dispatch: fetch queue -> ROB/LSQ ---- #
            dispatched = 0
            while queue and dispatched < dispatch_width:
                if tail - head >= rob_size:
                    break
                packed = queue[0]
                index = packed >> 1
                op = t_ops[index]
                is_mem = op == OP_LOAD or op == OP_STORE
                if is_mem and lsq_count >= lsq_size:
                    break
                queue.popleft()
                slot = tail % rob_size
                r_index[slot] = index
                r_issued[slot] = False
                r_ismem[slot] = is_mem
                r_resolves[slot] = packed & 1
                src = t_src1s[index]
                r_srca[slot] = rename[src] if src >= 0 else -1
                src = t_src2s[index]
                r_srcb[slot] = rename[src] if src >= 0 else -1
                dst = t_dsts[index]
                if dst >= 0:
                    rename[dst] = tail
                pending.append(tail << _WAKE_BITS)
                tail += 1
                if is_mem:
                    lsq_count += 1
                dispatched += 1
            dispatched_total += dispatched

            # ---- fetch: one i-cache block per cycle ---- #
            if len(queue) < queue_limit:
                fetch_active = fetch(cycle)
            else:
                fetch_active = False

            # ---- idle skip: jump over provably event-free cycles ---- #
            # When a cycle performs no work at all, the machine state is
            # frozen except for the clock; every future enabler has a
            # known time — the head-of-ROB completion (commit), a
            # pending wake bound (issue; in an idle cycle the scan
            # reached every entry, and any entry without a future bound
            # waits on an older *unissued* producer whose own chain
            # bottoms out in a bounded entry), or the fetch unit's
            # block-arrival cycle.  Jumping to the earliest of them
            # leaves every observable value identical while eliding the
            # dominant stall-spin cost.
            if count == 0 and issued == 0 and dispatched == 0 and not fetch_active:
                event = -1
                if head != tail:
                    slot = head % rob_size
                    if r_issued[slot]:
                        event = r_done[slot]  # > cycle, else it committed
                for item in pending:
                    wake = item & _WAKE_MASK
                    if wake > cycle and (event < 0 or wake < event):
                        event = wake
                fetchable = fetch_unit.index < n and len(queue) < queue_limit
                if fetchable and not fetch_unit.branch_stalled:
                    ready = fetch_unit._ready_cycle
                    if ready > cycle and (event < 0 or ready < event):
                        event = ready
                if next_tick and event > next_tick:
                    # A pending tick must be visited exactly like the
                    # reference core would: clamp the jump and let the
                    # remaining skip resume after the tick fires.
                    event = next_tick
                if event > cycle + 1:
                    cycle = event - 1  # the increment below lands on it

            cycle += 1
            if cycle - last_commit_cycle > valve:
                raise RuntimeError(
                    f"core deadlock at cycle {cycle}: rob={tail - head} "
                    f"fetchq={len(queue)} committed={committed_total}"
                )

        stats.cycles = cycle
        stats.committed += committed_total
        stats.issued += issued_total
        stats.dispatched += dispatched_total
        stats.int_ops += int_ops
        stats.fp_ops += fp_ops
        stats.loads += loads
        stats.stores += stores
        return stats
