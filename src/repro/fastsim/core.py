"""Array-state out-of-order core for the fast backend.

Cycle-for-cycle transcription of
:class:`~repro.cpu.ooo.OutOfOrderCore` — the same four stages in the
same commit-first order, the same widths, the same port arbitration,
the same register-renaming semantics — restated over flat arrays and
per-trace views, so the per-cycle cost is list indexing instead of
object-graph traversal.  Three invariants carry it:

* **A sequence number is the trace index.**  Dispatch is in trace
  order, so the ROB holds the trace indices ``[head, tail)`` and the
  fetched-but-not-dispatched ones are ``[tail, index)`` of
  :class:`~repro.fastsim.fetch.FastFetchUnit`: no fetch queue, no
  per-entry copy of the instruction.  One array holds the completion
  cycle per ROB slot (``sequence % rob_size``), 0 while unissued
  (nothing issues in cycle 0).  LSQ occupancy is the count of memory
  ops in ``[head, tail)`` (:meth:`~repro.workload.encode.EncodedTrace.memory_ops`),
  and each cycle dispatches in one step, stopping at the first memory
  op that finds the LSQ full.  The per-kind op counts of
  :class:`~repro.cpu.stats.CoreStats` are the trace's, set after the run.
* **Producer distances are clamped at ``rob_size``.**  No rename map:
  :meth:`~repro.workload.encode.EncodedTrace.producers` says how far
  back each source's producer is, 0 for none or for one ``rob_size``
  or more back.  An instruction dispatches only while fewer than
  ``rob_size`` older ones are in flight, so such a producer, like any
  older than ``head``, has committed, and a committed producer is ready
  (commit requires ``done <= cycle``).
* **At most one fetch stall is outstanding.**  A stalled fetch unit
  fetches nothing until the stalling transfer issues, so one
  ``stall_seq`` names the instruction whose issue resumes fetch.

The issue stage keeps an ordered *pending* list of unissued sequences.
The reference scans the whole ROB every cycle and skips issued entries;
scanning only the unissued ones visits the same candidates in the same
oldest-first order (issue is the only stage that clears the unissued
state) while skipping the dominant per-cycle cost of a mostly-issued
64-entry window.  Each pending item additionally packs a *wake bound*
in its low bits: once a blocking producer is seen to have issued with
completion cycle ``done``, the consumer provably cannot issue before
``done`` (a producer's ``done`` never changes after issue), so re-scans
until then are a single compare instead of a full dependency check —
pure scan-cost elision, never a scheduling change.  An entry whose
in-window producer has not issued is *parked* on that producer's ROB
slot instead; when the producer issues, its parked consumers rejoin the
list in sequence order with its completion cycle as their wake bound.
No decision changes: the older producer is scanned first, a parked
entry cannot issue before its producer completes, and a producer cannot
commit (freeing its slot) before it issues.

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
_WAKE_STEP = 1 << _WAKE_BITS  # one sequence, packed


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
        t_addrs = encoded.daddrs
        t_xors = encoded.xors
        n = encoded.instructions
        rob_size = config.rob_size
        src_a, src_b = encoded.producers(rob_size)
        is_mem = encoded.memory_ops()

        load_tuple = self.dcache.load_tuple
        store_tuple = self.dcache.store_tuple
        fetch = fetch_unit.fetch
        resume = fetch_unit.resume

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

        # The ROB holds sequences [head, tail); sequence == trace index.
        # Completion cycle per slot (``sequence % rob_size``), 0 while
        # the entry has not issued.
        r_done = [0] * rob_size
        head = 0
        tail = 0
        fetched = 0  # the fetch unit's index: [tail, fetched) is queued
        stall_seq = -1  # the fetch unit's stall-resolving sequence
        # Unissued sequences, oldest first, except those parked in
        # ``waiters[slot]`` on the unissued producer in ``slot``.
        pending = []
        waiters = [[] for _ in range(rob_size)]
        woken = []

        cycle = 0
        last_commit_cycle = 0
        valve = deadlock_limit(n)
        on_tick = self.on_tick
        interval = self.interval
        next_tick = interval if on_tick is not None and interval > 0 else 0

        while head < n:
            if next_tick and cycle == next_tick:
                on_tick(cycle)
                next_tick += interval
            # ---- commit: in-order retirement, up to commit_width ---- #
            count = 0
            while head < tail and count < commit_width:
                slot = head % rob_size
                done = r_done[slot]
                if not done or done > cycle:
                    break
                r_done[slot] = 0  # the slot's next occupant is unissued
                head += 1
                count += 1
            if count:
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
                    if not ports and is_mem[seq]:
                        pending[keep] = item
                        keep += 1
                        continue
                    distance = src_a[seq]
                    if distance and seq - distance >= head:  # in-window producer
                        src_slot = (seq - distance) % rob_size
                        done = r_done[src_slot]
                        if not done:
                            waiters[src_slot].append(seq)  # park
                            continue
                        if done > cycle:
                            pending[keep] = (seq << _WAKE_BITS) | done
                            keep += 1
                            continue
                    distance = src_b[seq]
                    if distance and seq - distance >= head:
                        src_slot = (seq - distance) % rob_size
                        done = r_done[src_slot]
                        if not done:
                            waiters[src_slot].append(seq)
                            continue
                        if done > cycle:
                            pending[keep] = (seq << _WAKE_BITS) | done
                            keep += 1
                            continue

                    op = t_ops[seq]
                    if op == OP_LOAD:
                        latency = load_tuple(t_pcs[seq], t_addrs[seq], t_xors[seq])[1]
                        ports -= 1
                    elif op == OP_STORE:
                        store_tuple(t_pcs[seq], t_addrs[seq])
                        # The store retires through the LSQ; it does not
                        # produce a register value, so a nominal 1-cycle
                        # occupancy suffices.
                        latency = 1
                        ports -= 1
                    elif op == OP_FP:
                        latency = fp_latency
                    elif op == OP_INT:
                        latency = int_latency
                    else:  # branches, calls, returns
                        latency = branch_latency

                    done = cycle + latency
                    slot = seq % rob_size
                    r_done[slot] = done
                    if seq == stall_seq:
                        resume(done + redirect_penalty)
                        stall_seq = -1
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

            # ---- dispatch: fetched instructions -> ROB/LSQ, one step ---- #
            end = tail + dispatch_width
            if end > fetched:
                end = fetched
            if end > head + rob_size:
                end = head + rob_size
            dispatched = end > tail
            if dispatched:
                if end - head > lsq_size and is_mem.count(1, head, end) > lsq_size:
                    # Stop at the first memory op that finds the LSQ full.
                    end = tail - 1
                    for _ in range(lsq_size - is_mem.count(1, head, tail) + 1):
                        end = is_mem.index(1, end + 1)
                    dispatched = end > tail
                pending.extend(range(tail << _WAKE_BITS, end << _WAKE_BITS, _WAKE_STEP))
                tail = end

            # ---- fetch: one i-cache block per cycle ---- #
            fetch_active = fetched - tail < queue_limit and fetch(cycle)
            if fetch_active:
                fetched = fetch_unit.index
                stall_seq = fetch_unit.stall_seq

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
            if count == 0 and issued == 0 and not dispatched and not fetch_active:
                event = r_done[head % rob_size] if head < tail else 0
                if not event:  # > cycle when set, else the head committed
                    event = -1
                for item in pending:
                    wake = item & _WAKE_MASK
                    if wake > cycle and (event < 0 or wake < event):
                        event = wake
                if fetched < n and fetched - tail < queue_limit and stall_seq < 0:
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
                    f"fetchq={fetched - tail} committed={head}"
                )

        # Every instruction dispatches, issues and commits exactly once,
        # so the per-kind counts are the trace's.
        loads = t_ops.count(OP_LOAD)
        stores = t_ops.count(OP_STORE)
        fp_ops = t_ops.count(OP_FP)
        stats.cycles = cycle
        stats.committed += n
        stats.issued += n
        stats.dispatched += n
        stats.int_ops += n - loads - stores - fp_ops
        stats.fp_ops += fp_ops
        stats.loads += loads
        stats.stores += stores
        return stats
