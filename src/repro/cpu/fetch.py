"""The fetch unit: branch prediction + i-cache access + way prediction.

Implements Figure 3's mechanism.  Each fetch cycle accesses one i-cache
block; the *next* fetch's way prediction is selected while the current
access completes:

* taken branch, BTB hit -> the BTB entry's way field;
* return, RAS hit -> the popped entry's way field;
* sequential / not-taken -> SAWP indexed by the current block's PC;
* branch-misprediction restart or structure miss -> no prediction
  (parallel access).

Trace-driven control flow: the trace holds only correct-path
instructions, so a direction/target misprediction is modeled by stalling
fetch until the branch resolves in the core plus a redirect penalty.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.icache import (
    ICacheEngine,
    SOURCE_BTB,
    SOURCE_NONE,
    SOURCE_RAS,
    SOURCE_SAWP,
)
from repro.cpu.config import CoreConfig
from repro.cpu.stats import CoreStats
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.ras import ReturnAddressStack
from repro.workload.instr import OP_BRANCH, OP_CALL, OP_RET, Instr
from repro.workload.trace import Trace

# Way-training transition kinds.
_TRAIN_SEQ = "seq"
_TRAIN_BTB = "btb"
_TRAIN_NONE = "none"


class FetchedInstr:
    """A fetched instruction annotated for the core."""

    __slots__ = ("instr", "ready_cycle", "resolves_stall")

    def __init__(self, instr: Instr, ready_cycle: int, resolves_stall: bool) -> None:
        self.instr = instr
        self.ready_cycle = ready_cycle
        self.resolves_stall = resolves_stall


class FetchUnit:
    """Delivers fetch groups to the core, one i-cache block per access."""

    def __init__(
        self,
        trace: Trace,
        icache: ICacheEngine,
        config: CoreConfig,
        stats: CoreStats,
    ) -> None:
        self.trace = trace.instructions
        self.icache = icache
        self.config = config
        self.stats = stats
        # SAWP state is owned by the i-cache's fetch policy (None when
        # the policy never predicts; every use is guarded by way_predict).
        self.way_predictor = icache.way_predictor
        self.branch_predictor = HybridPredictor(
            bimodal_entries=config.bimodal_entries,
            gshare_entries=config.gshare_entries,
            history_bits=config.history_bits,
            chooser_entries=config.chooser_entries,
        )
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack(config.ras_depth)

        self._index = 0
        self._block_shift = icache.fields.offset_bits
        self._line_buffer_block: Optional[int] = None
        self._ready_cycle = 0
        self._branch_stalled = False
        # Next-access prediction context.
        self._next_source = SOURCE_NONE
        self._next_way: Optional[int] = None
        self._train_kind = _TRAIN_NONE
        self._train_handle = 0

    # ------------------------------------------------------------------ #
    # Core-facing control
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """True when the whole trace has been fetched."""
        return self._index >= len(self.trace)

    def resume(self, cycle: int) -> None:
        """Called by the core when the stalling branch has resolved."""
        self._branch_stalled = False
        self._ready_cycle = max(self._ready_cycle, cycle)

    # ------------------------------------------------------------------ #
    # Per-cycle fetch
    # ------------------------------------------------------------------ #

    def fetch(self, cycle: int) -> List[FetchedInstr]:
        """Fetch one group; empty list when stalled or waiting."""
        if self.done:
            return []
        if self._branch_stalled or cycle < self._ready_cycle:
            return []

        pc = self.trace[self._index].pc
        block = pc >> self._block_shift

        if block != self._line_buffer_block:
            outcome = self.icache.fetch(pc, self._next_way, self._next_source)
            self.stats.fetch_cycles += 1
            self._train_way(outcome.way)
            self._line_buffer_block = block
            if outcome.latency > self.icache.base_latency:
                # Way-mispredict second probe or a miss: the block arrives
                # later; deliver the group when it does.
                self._ready_cycle = cycle + (outcome.latency - self.icache.base_latency)
                return []
        else:
            self.stats.fetch_cycles += 1  # line-buffer continuation still occupies fetch

        return self._assemble_group(cycle, block)

    # ------------------------------------------------------------------ #
    # Group assembly and branch prediction
    # ------------------------------------------------------------------ #

    def _assemble_group(self, cycle: int, block: int) -> List[FetchedInstr]:
        group: List[FetchedInstr] = []
        trace = self.trace
        width = self.config.fetch_width
        ready = cycle + 1  # decode/dispatch next cycle

        while (
            self._index < len(trace)
            and len(group) < width
            and (trace[self._index].pc >> self._block_shift) == block
        ):
            instr = trace[self._index]
            self._index += 1
            self.stats.fetched += 1
            fetched = FetchedInstr(instr, ready, resolves_stall=False)
            group.append(fetched)

            if instr.op == OP_BRANCH:
                ended = self._handle_branch(instr, fetched, block)
            elif instr.op == OP_CALL:
                ended = self._handle_call(instr, block)
            elif instr.op == OP_RET:
                ended = self._handle_return(instr, fetched, block)
            else:
                ended = False
            if ended:
                self._line_buffer_block = None
                return group

        # Fell off the block (or width limit at block end): sequential
        # transition; the SAWP predicts the next block's way.
        if self._index < len(trace) and (trace[self._index].pc >> self._block_shift) == block:
            # Width limit hit mid-block: continue in the line buffer.
            return group
        self._set_sequential_transition(block)
        self._line_buffer_block = None
        return group

    def _set_sequential_transition(self, block: int) -> None:
        block_pc = block << self._block_shift
        self._next_source = SOURCE_SAWP
        self._next_way = (
            self.way_predictor.predict_sequential(block_pc) if self.icache.way_predict else None
        )
        self._train_kind = _TRAIN_SEQ
        self._train_handle = block_pc

    def _set_taken_transition(self, branch_pc: int, btb_way: Optional[int]) -> None:
        self._next_source = SOURCE_BTB
        self._next_way = btb_way if self.icache.way_predict else None
        self._train_kind = _TRAIN_BTB
        self._train_handle = branch_pc

    def _set_restart_transition(self) -> None:
        self._next_source = SOURCE_NONE
        self._next_way = None
        self._train_kind = _TRAIN_NONE

    def _stall(self, fetched: FetchedInstr) -> None:
        fetched.resolves_stall = True
        self._branch_stalled = True
        self._set_restart_transition()

    def _handle_branch(self, instr: Instr, fetched: FetchedInstr, block: int) -> bool:
        """Predict and resolve a conditional branch; True ends the group."""
        self.stats.branches += 1
        predicted_taken = self.branch_predictor.predict(instr.pc)
        self.branch_predictor.train(instr.pc, instr.taken)
        entry = self.btb.lookup(instr.pc)

        if instr.taken:
            self.btb.update(instr.pc, instr.target)
            target_ok = entry is not None and entry.target == instr.target
            if predicted_taken and target_ok:
                self._set_taken_transition(instr.pc, entry.way)
            else:
                self.stats.branch_mispredicts += 1
                self._stall(fetched)
            return True
        if predicted_taken:
            # Predicted taken but falls through: misfetch, stall.
            self.stats.branch_mispredicts += 1
            self._stall(fetched)
            return True
        return False  # correctly predicted not-taken: keep fetching

    def _handle_call(self, instr: Instr, block: int) -> bool:
        """Calls are always predicted taken; BTB supplies target and way."""
        self.stats.branches += 1
        return_pc = instr.pc + 4
        self.ras.push(return_pc, self.icache.way_of(return_pc))
        entry = self.btb.lookup(instr.pc)
        self.btb.update(instr.pc, instr.target)
        if entry is not None and entry.target == instr.target:
            self._set_taken_transition(instr.pc, entry.way)
        else:
            # Direct-call target resolves at decode: no stall, but no way
            # prediction for the target fetch either.
            self._set_restart_transition()
            self._train_kind = _TRAIN_BTB
            self._train_handle = instr.pc
        return True

    def _handle_return(self, instr: Instr, fetched: FetchedInstr, block: int) -> bool:
        """Returns predict through the RAS (address and way)."""
        self.stats.branches += 1
        popped = self.ras.pop()
        if popped is not None and popped[0] == instr.target:
            self._next_source = SOURCE_RAS
            self._next_way = popped[1] if self.icache.way_predict else None
            self._train_kind = _TRAIN_NONE
            self._train_handle = 0
        else:
            self.stats.branch_mispredicts += 1
            self._stall(fetched)
        return True

    # ------------------------------------------------------------------ #
    # Way-structure training
    # ------------------------------------------------------------------ #

    def _train_way(self, actual_way: int) -> None:
        """After an access resolves, teach the structure that predicted it."""
        if not self.icache.way_predict:
            return
        if self._train_kind == _TRAIN_SEQ:
            self.way_predictor.train_sequential(self._train_handle, actual_way)
        elif self._train_kind == _TRAIN_BTB:
            self.btb.update_way(self._train_handle, actual_way)
