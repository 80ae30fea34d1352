"""Array-driven fetch unit for the fast core.

Cycle-for-cycle transcription of :class:`~repro.cpu.fetch.FetchUnit`
(Figure 3's mechanism: branch prediction + i-cache access + way
prediction) over the pre-encoded instruction arrays of
:class:`~repro.workload.encode.EncodedTrace`, under the fast core's
three invariants (:mod:`repro.fastsim.core`):

* **a sequence number is the trace index**: groups are fetched in trace
  order, so there is no fetch queue — the core dispatches the trace
  indices below ``index``.  The reference unit also stamps each
  instruction with a dispatch-ready cycle, but that stamp is provably
  inert: groups become ready one cycle after their fetch, and dispatch
  runs *before* fetch within a cycle;
* **at most one stall is outstanding**: a stalled unit fetches nothing
  until the core calls :meth:`resume`, so one ``stall_seq`` (the
  stalling transfer's trace index, -1 when not stalled) replaces the
  reference's per-instruction resolve flag;
* **producer distances are clamped at ``rob_size``** — the core's
  concern only: nothing here depends on the window.

A group is assembled one run at a time: the per-trace view
:meth:`~repro.workload.encode.EncodedTrace.fetch_runs` says how many
non-control instructions follow in the same i-block, so only the
control ops are visited one by one, through the table-state predictors
of :mod:`repro.fastsim.predictors`.  I-block indices come pre-shifted
from :meth:`~repro.workload.encode.EncodedTrace.iblocks`.

The i-cache is a :class:`~repro.fastsim.icache.FastICacheEngine`,
driven through ``fetch_tuple``/``way_of`` in the same access sequence
as the reference fetch unit drives ``ICacheEngine``.
"""

from __future__ import annotations

from repro.core.icache import SOURCE_BTB, SOURCE_NONE, SOURCE_RAS, SOURCE_SAWP
from repro.cpu.config import CoreConfig
from repro.cpu.stats import CoreStats
from repro.fastsim.predictors import (
    FastBranchTargetBuffer,
    FastHybridPredictor,
    FastReturnAddressStack,
)
from repro.workload.encode import encode_trace
from repro.workload.instr import OP_BRANCH, OP_CALL
from repro.workload.trace import Trace

# Way-training transition kinds (int-coded; the reference unit uses strings).
_TRAIN_NONE = 0
_TRAIN_SEQ = 1
_TRAIN_BTB = 2


class FastFetchUnit:
    """Delivers fetch groups to the fast core, one i-cache block per access."""

    def __init__(
        self,
        trace: Trace,
        icache,
        config: CoreConfig,
        stats: CoreStats,
    ) -> None:
        encoded = encode_trace(trace)
        encoded.ensure_instr_arrays(trace)
        self.encoded = encoded
        self.icache = icache
        self.config = config
        self.stats = stats
        # SAWP state is owned by the i-cache's fetch policy, exactly as
        # in the reference unit (None when the policy never predicts).
        self.way_predictor = icache.way_predictor
        self.way_predict = icache.way_predict
        self.branch_predictor = FastHybridPredictor(
            bimodal_entries=config.bimodal_entries,
            gshare_entries=config.gshare_entries,
            history_bits=config.history_bits,
            chooser_entries=config.chooser_entries,
        )
        self.btb = FastBranchTargetBuffer(config.btb_entries)
        self.ras = FastReturnAddressStack(config.ras_depth)

        #: Instructions fetched so far: the core dispatches trace
        #: indices up to this one.
        self.index = 0
        #: Trace index of the transfer that stalled fetch; it resumes
        #: fetch when it issues.  -1 while fetch is not stalled.
        self.stall_seq = -1
        self._n = encoded.instructions
        self._block_shift = icache.fields.offset_bits
        self._blocks = encoded.iblocks(self._block_shift)
        self._runs = encoded.fetch_runs(self._block_shift)
        self._base_latency = icache.base_latency
        self._fetch_tuple = icache.fetch_tuple
        self._line_buffer_block = -1  # blocks are >= 0; -1 forces an access
        self._ready_cycle = 0
        # Next-access prediction context.
        self._next_source = SOURCE_NONE
        self._next_way = None
        self._train_kind = _TRAIN_NONE
        self._train_handle = 0

    # ------------------------------------------------------------------ #
    # Core-facing control
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """True when the whole trace has been fetched."""
        return self.index >= self._n

    def resume(self, cycle: int) -> None:
        """Called by the core when the stalling transfer has resolved."""
        self.stall_seq = -1
        if cycle > self._ready_cycle:
            self._ready_cycle = cycle

    # ------------------------------------------------------------------ #
    # Per-cycle fetch
    # ------------------------------------------------------------------ #

    def fetch(self, cycle: int) -> bool:
        """Fetch one group (advance ``index``); no-op when stalled or waiting.

        Returns True when the cycle did fetch work (an i-cache access
        or a line-buffer continuation) — the core's cycle-skip logic
        uses this to recognize fully idle cycles.
        """
        i = self.index
        if i >= self._n:
            return False
        if self.stall_seq >= 0 or cycle < self._ready_cycle:
            return False

        block = self._blocks[i]
        if block != self._line_buffer_block:
            _hit, latency, _kind, way = self._fetch_tuple(
                self.encoded.pcs[i], self._next_way, self._next_source
            )
            self.stats.fetch_cycles += 1
            if self.way_predict:
                # Teach the structure that predicted this access its way.
                kind = self._train_kind
                if kind == _TRAIN_SEQ:
                    self.way_predictor.train_sequential(self._train_handle, way)
                elif kind == _TRAIN_BTB:
                    self.btb.update_way(self._train_handle, way)
            self._line_buffer_block = block
            if latency > self._base_latency:
                # Way-mispredict second probe or a miss: the block arrives
                # later; deliver the group when it does.
                self._ready_cycle = cycle + (latency - self._base_latency)
                return True
        else:
            self.stats.fetch_cycles += 1  # line-buffer continuation still occupies fetch

        self._assemble_group(block)
        return True

    # ------------------------------------------------------------------ #
    # Group assembly and branch prediction
    # ------------------------------------------------------------------ #

    def _assemble_group(self, block: int) -> None:
        ops = self.encoded.ops
        blocks = self._blocks
        runs = self._runs
        n = self._n
        start = i = self.index
        end = min(n, start + self.config.fetch_width)
        ended = False
        while i < end and blocks[i] == block:
            run = runs[i]
            if run:  # non-control instructions up to a transfer or block end
                i += run
                continue
            op = ops[i]  # a run of 0: a control op
            if op == OP_BRANCH:
                ended = self._handle_branch(i)
            elif op == OP_CALL:
                ended = self._handle_call(i)
            else:  # OP_RET
                ended = self._handle_return(i)
            i += 1
            if ended:
                break
        if i > end:  # the last run reached past the fetch width
            i = end
        self.index = i
        self.stats.fetched += i - start
        if ended:
            self._line_buffer_block = -1
            return

        if i < n and blocks[i] == block:
            # Width limit hit mid-block: continue in the line buffer.
            return
        # Fell off the block (or width limit at block end): sequential
        # transition; the SAWP predicts the next block's way.
        self._set_sequential_transition(block)
        self._line_buffer_block = -1

    def _set_sequential_transition(self, block: int) -> None:
        block_pc = block << self._block_shift
        self._next_source = SOURCE_SAWP
        self._next_way = (
            self.way_predictor.predict_sequential(block_pc) if self.way_predict else None
        )
        self._train_kind = _TRAIN_SEQ
        self._train_handle = block_pc

    def _set_taken_transition(self, branch_pc: int, btb_way: int) -> None:
        self._next_source = SOURCE_BTB
        self._next_way = btb_way if (self.way_predict and btb_way >= 0) else None
        self._train_kind = _TRAIN_BTB
        self._train_handle = branch_pc

    def _stall(self, i: int) -> None:
        self.stall_seq = i  # this instruction resolves the stall at issue
        self._next_source = SOURCE_NONE
        self._next_way = None
        self._train_kind = _TRAIN_NONE

    def _handle_branch(self, i: int) -> bool:
        """Predict and resolve a conditional branch; True ends the group."""
        encoded = self.encoded
        pc = encoded.pcs[i]
        taken = encoded.takens[i]
        target = encoded.targets[i]
        stats = self.stats
        stats.branches += 1
        predicted_taken = self.branch_predictor.predict_train(pc, taken)
        hit = self.btb.lookup(pc)

        if taken:
            self.btb.update(pc, target)
            # Reference quirk, preserved: ``update`` runs before the
            # target check and mutates the looked-up entry in place, so
            # on a BTB tag hit the stored target always compares equal.
            if predicted_taken and hit is not None:
                self._set_taken_transition(pc, hit[1])
            else:
                stats.branch_mispredicts += 1
                self._stall(i)
            return True
        if predicted_taken:
            # Predicted taken but falls through: misfetch, stall.
            stats.branch_mispredicts += 1
            self._stall(i)
            return True
        return False  # correctly predicted not-taken: keep fetching

    def _handle_call(self, i: int) -> bool:
        """Calls are always predicted taken; BTB supplies target and way."""
        encoded = self.encoded
        pc = encoded.pcs[i]
        target = encoded.targets[i]
        self.stats.branches += 1
        return_pc = pc + 4
        way = self.icache.way_of(return_pc)
        self.ras.push(return_pc, -1 if way is None else way)
        hit = self.btb.lookup(pc)
        self.btb.update(pc, target)
        # Same aliasing as _handle_branch: a tag hit always target-matches.
        if hit is not None:
            self._set_taken_transition(pc, hit[1])
        else:
            # Direct-call target resolves at decode: no stall, but no way
            # prediction for the target fetch either.
            self._next_source = SOURCE_NONE
            self._next_way = None
            self._train_kind = _TRAIN_BTB
            self._train_handle = pc
        return True

    def _handle_return(self, i: int) -> bool:
        """Returns predict through the RAS (address and way)."""
        encoded = self.encoded
        stats = self.stats
        stats.branches += 1
        popped = self.ras.pop()
        if popped is not None and popped[0] == encoded.targets[i]:
            self._next_source = SOURCE_RAS
            way = popped[1]
            self._next_way = way if (self.way_predict and way >= 0) else None
            self._train_kind = _TRAIN_NONE
            self._train_handle = 0
        else:
            stats.branch_mispredicts += 1
            self._stall(i)
        return True
