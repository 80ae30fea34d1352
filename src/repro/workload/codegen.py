"""Synthetic static code layout and its dynamic control-flow walker.

The i-cache experiments (Figure 10) need a realistic fetch-address
stream: sequential runs inside basic blocks (SAWP territory), taken
branches and loop back-edges (BTB territory), calls/returns (RAS
territory), and a code footprint that may or may not fit the L1 i-cache
(fpppp's does not, which is why its way-prediction accuracy drops).

The model: a program is a set of functions laid out contiguously in a
code region.  Each function is a sequence of *segments*; a segment is
either one basic block or a loop over a few consecutive blocks with a
per-site trip count.  Block terminators are conditional branches (with a
per-site bias), calls, loop back-edges, or fall-throughs; the last block
returns.  Every static property (slot opcodes, stream bindings, branch
biases, trip counts) is fixed at build time so PC-indexed predictors see
a stable program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.utils.rng import DeterministicRng

#: Code region base address; far below the data regions.
CODE_BASE = 0x0040_0000
#: Bytes per instruction.
INSTR_BYTES = 4

# Slot kinds fixed at layout time.
SLOT_INT = 0
SLOT_FP = 1
SLOT_LOAD = 2
SLOT_STORE = 3

# Terminator kinds.
TERM_FALL = 0  #: fall through, no branch instruction
TERM_COND = 1  #: conditional branch skipping the next block when taken
TERM_CALL = 2  #: call another function
TERM_LOOP = 3  #: loop back-edge (taken while trips remain)
TERM_RET = 4  #: function return


@dataclass(slots=True)
class BlockSpec:
    """One static basic block.

    Attributes:
        start_pc: address of the first instruction.
        slots: per-instruction kind, ``SLOT_*``; terminator not included.
        stream_ids: for each slot, the bound data-stream index (memory
            slots) or -1.
        term_kind: one of the ``TERM_*`` constants.
        term_bias: probability a ``TERM_COND`` branch is taken.
        term_target_pc: branch/call target (filled during layout).
        callee: function index for ``TERM_CALL``.
        loop_trip: nominal trip count for ``TERM_LOOP`` sites.
    """

    start_pc: int
    slots: List[int]
    stream_ids: List[int]
    term_kind: int
    term_bias: float = 0.5
    term_target_pc: int = 0
    callee: int = -1
    loop_trip: int = 1

    @property
    def term_pc(self) -> int:
        """PC of the terminator instruction, the block's last.

        Fall-through blocks still occupy the slot (the generator emits a
        filler ALU instruction there) so PCs stay contiguous.
        """
        return self.start_pc + len(self.slots) * INSTR_BYTES


@dataclass(slots=True)
class Segment:
    """A run of blocks, possibly looped.

    Attributes:
        block_indices: indices into the function's block list.
        is_loop: whether the segment repeats.
    """

    block_indices: List[int]
    is_loop: bool = False


@dataclass(slots=True)
class FunctionSpec:
    """One static function: contiguous blocks grouped into segments."""

    index: int
    entry_pc: int
    blocks: List[BlockSpec] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)


@dataclass(slots=True)
class CodeLayout:
    """The whole synthetic program."""

    functions: List[FunctionSpec]
    code_bytes: int


class LayoutParameters:
    """Knobs consumed by :func:`build_layout`; see BenchmarkProfile."""

    def __init__(
        self,
        num_functions: int,
        blocks_per_function: int,
        mean_block_len: float,
        mem_frac: float,
        store_share: float,
        fp_frac: float,
        cond_frac: float,
        call_frac: float,
        loop_frac: float,
        mean_trip: float,
        branch_bias: float,
        num_streams: int,
        stream_weights: List[float],
        stream_first_id: List[int],
        stream_counts: List[int],
    ) -> None:
        self.num_functions = num_functions
        self.blocks_per_function = blocks_per_function
        self.mean_block_len = mean_block_len
        self.mem_frac = mem_frac
        self.store_share = store_share
        self.fp_frac = fp_frac
        self.cond_frac = cond_frac
        self.call_frac = call_frac
        self.loop_frac = loop_frac
        self.mean_trip = mean_trip
        self.branch_bias = branch_bias
        self.num_streams = num_streams
        self.stream_weights = stream_weights
        self.stream_first_id = stream_first_id
        self.stream_counts = stream_counts


def measure_block_weights(layout: "CodeLayout", rng: DeterministicRng,
                          probe_blocks: int = 25_000) -> Dict[int, int]:
    """Estimate dynamic execution counts per block by walking the layout.

    Static heuristics (loop trip counts) miss call-frequency effects —
    a leaf function invoked from a hot loop executes orders of magnitude
    more often than its static weight suggests.  A probe walk of
    ``probe_blocks`` blocks with an independent RNG measures the real
    distribution, stepping loops whole (:meth:`ControlFlowWalker.run_loop`).

    Returns:
        Map from block ``start_pc`` to observed execution count.
        Unvisited blocks are absent; :func:`bind_streams` weighs them
        as 1, so their sites still get bound.
    """
    walker = ControlFlowWalker(layout, rng)
    counts: Dict[int, int] = {}
    left = probe_blocks
    while left > 0:
        loop = walker.run_loop(left)
        if not loop:
            pc = walker.next_block()[0].start_pc
            counts[pc] = counts.get(pc, 0) + 1
            left -= 1
        for block, visits in loop:
            if visits:
                counts[block.start_pc] = counts.get(block.start_pc, 0) + visits
                left -= visits
    return counts


def bind_streams(
    layout: "CodeLayout",
    params: "LayoutParameters",
    rng: DeterministicRng,
    block_weights: Dict[int, int],
) -> None:
    """Assign a stream instance to every memory site, weighted by the
    measured execution counts.

    A naive independent draw per static site makes the *dynamic* family
    mix wildly variable: a conflict-group site landing in a hot loop can
    multiply the conflict share tenfold.  Greedy quota-filling over the
    measured weights (largest sites first) keeps the dynamic family mix
    close to the configured weights.
    """
    sites = []
    for func in layout.functions:
        for block in func.blocks:
            weight = block_weights.get(block.start_pc, 1)
            for slot_index, slot in enumerate(block.slots):
                if slot in (SLOT_LOAD, SLOT_STORE):
                    sites.append((weight, block, slot_index))
    if not sites:
        return

    rng.shuffle(sites)
    sites.sort(key=lambda item: item[0], reverse=True)  # stable: keeps shuffle for ties

    total_weight = float(sum(weight for weight, _, _ in sites))
    weight_sum = float(sum(params.stream_weights))
    quotas = [total_weight * w / weight_sum for w in params.stream_weights]
    assigned = [0.0] * len(quotas)
    instance_loads = [[0.0] * count for count in params.stream_counts]
    keys = list(zip(quotas, params.stream_weights))  # (deficit, weight) per family

    for weight, block, slot_index in sites:
        # Largest absolute remaining deficit takes the site.  Processing
        # sites hottest-first means the big sites land on big-quota
        # families (hot scalars, hot array walks) and small-quota
        # families fill from the cooler tail without overshooting.
        family = max(range(len(keys)), key=keys.__getitem__)
        assigned[family] += weight
        keys[family] = (quotas[family] - assigned[family], params.stream_weights[family])
        # Within the family, the least-loaded instance takes the site so
        # every instance carries an equal dynamic share (this is what
        # pins the big-array fraction of walk accesses).
        loads = instance_loads[family]
        instance = min(range(len(loads)), key=loads.__getitem__)
        loads[instance] += weight
        block.stream_ids[slot_index] = params.stream_first_id[family] + instance


def _build_block(
    pc: int, rng: DeterministicRng, params: LayoutParameters
) -> Tuple[List[int], List[int]]:
    """Return (slots, stream_ids) for one block body.

    Stream ids are placeholders (-1); :func:`bind_streams` fills them
    once loop structure (execution weights) is known.
    """
    length = rng.geometric(max(params.mean_block_len - 1, 1.0), maximum=24)
    slots: List[int] = []
    stream_ids: List[int] = []
    for _ in range(length):
        if rng.chance(params.mem_frac):
            if rng.chance(params.store_share):
                slots.append(SLOT_STORE)
            else:
                slots.append(SLOT_LOAD)
        else:
            if rng.chance(params.fp_frac):
                slots.append(SLOT_FP)
            else:
                slots.append(SLOT_INT)
        stream_ids.append(-1)
    return slots, stream_ids


def build_layout(params: LayoutParameters, rng: DeterministicRng) -> CodeLayout:
    """Build the static program."""
    functions: List[FunctionSpec] = []
    pc = CODE_BASE
    for func_index in range(params.num_functions):
        func = FunctionSpec(index=func_index, entry_pc=pc)
        # --- blocks ---
        num_blocks = max(2, params.blocks_per_function)
        for _ in range(num_blocks):
            slots, stream_ids = _build_block(pc, rng, params)
            block = BlockSpec(start_pc=pc, slots=slots, stream_ids=stream_ids, term_kind=TERM_FALL)
            func.blocks.append(block)
            # Reserve space for a terminator; unused when TERM_FALL.
            pc += (len(slots) + 1) * INSTR_BYTES
        # --- segments: group consecutive blocks, some looped ---
        cursor = 0
        while cursor < num_blocks - 1:  # last block is the return
            if rng.chance(params.loop_frac) and cursor + 2 <= num_blocks - 1:
                body = rng.randint(1, min(3, num_blocks - 1 - cursor))
                indices = list(range(cursor, cursor + body))
                func.segments.append(Segment(block_indices=indices, is_loop=True))
                tail = func.blocks[indices[-1]]
                tail.term_kind = TERM_LOOP
                tail.term_target_pc = func.blocks[indices[0]].start_pc
                tail.loop_trip = rng.geometric(params.mean_trip, maximum=64)
                cursor += body
            else:
                indices = [cursor]
                func.segments.append(Segment(block_indices=indices, is_loop=False))
                cursor += 1
        # Terminators for non-loop blocks.
        for segment in func.segments:
            if segment.is_loop:
                continue
            block = func.blocks[segment.block_indices[0]]
            draw = rng.uniform()
            if draw < params.cond_frac:
                block.term_kind = TERM_COND
                # Biased either way: half the sites mostly-taken.
                bias = params.branch_bias if rng.chance(0.5) else 1.0 - params.branch_bias
                block.term_bias = bias
            elif draw < params.cond_frac + params.call_frac and params.num_functions > 1:
                block.term_kind = TERM_CALL
                # Callee fixed at build time (a static call site).
                block.callee = rng.randint(1, params.num_functions - 1)
        # The final block returns.
        func.blocks[-1].term_kind = TERM_RET
        func.segments.append(Segment(block_indices=[num_blocks - 1], is_loop=False))
        functions.append(func)

    # Resolve conditional-branch targets now that addresses are final:
    # a taken conditional skips the next block.
    for func in functions:
        for i, block in enumerate(func.blocks):
            if block.term_kind == TERM_COND:
                if i + 2 < len(func.blocks):
                    block.term_target_pc = func.blocks[i + 2].start_pc
                else:
                    block.term_target_pc = func.blocks[-1].start_pc
            elif block.term_kind == TERM_CALL:
                block.term_target_pc = functions[block.callee].entry_pc

    return CodeLayout(functions=functions, code_bytes=pc - CODE_BASE)


@dataclass(slots=True)
class _Frame:
    """Interpreter frame: where we are inside one function activation."""

    func: FunctionSpec
    segment_idx: int
    block_pos: int  # position within the segment's block list
    trips_left: int
    return_pc: int


class ControlFlowWalker:
    """Walks the layout, yielding (block, taken) pairs in execution order.

    ``taken`` reports how the block's terminator resolved, which the
    generator turns into branch instructions.  The walker restarts the
    program's hot outer loop when execution falls off ``main`` (function
    0), so traces of any length can be produced.
    """

    def __init__(self, layout: CodeLayout, rng: DeterministicRng, max_call_depth: int = 8) -> None:
        self.layout = layout
        self.rng = rng
        self.max_call_depth = max_call_depth
        self._stack: List[_Frame] = []
        self._enter_function(0, return_pc=0)

    def _enter_function(self, index: int, return_pc: int) -> None:
        func = self.layout.functions[index]
        first_seg = func.segments[0]
        trips = func.blocks[first_seg.block_indices[-1]].loop_trip if first_seg.is_loop else 1
        self._stack.append(
            _Frame(func=func, segment_idx=0, block_pos=0, trips_left=trips, return_pc=return_pc)
        )

    def _advance_segment(self, frame: _Frame) -> None:
        frame.segment_idx += 1
        frame.block_pos = 0
        if frame.segment_idx < len(frame.func.segments):
            segment = frame.func.segments[frame.segment_idx]
            if segment.is_loop:
                tail = frame.func.blocks[segment.block_indices[-1]]
                # Re-draw around the nominal trip count for variety.
                frame.trips_left = max(1, tail.loop_trip + self.rng.randint(-1, 1))
            else:
                frame.trips_left = 1

    def next_block(self) -> Tuple[BlockSpec, bool, int]:
        """Return (block, terminator_taken, return_pc_for_calls_or_rets).

        ``return_pc`` is meaningful for TERM_CALL (address execution
        resumes at) and TERM_RET (the target of the return).
        """
        frame = self._stack[-1]
        segment = frame.func.segments[frame.segment_idx]
        block = frame.func.blocks[segment.block_indices[frame.block_pos]]

        taken = False
        aux_pc = 0
        if block.term_kind == TERM_LOOP:
            frame.trips_left -= 1
            if frame.trips_left > 0:
                taken = True
                frame.block_pos = 0
            else:
                self._advance_segment(frame)
        elif block.term_kind == TERM_COND:
            taken = self.rng.chance(block.term_bias)
            self._advance_segment(frame)
            if taken and frame.segment_idx < len(frame.func.segments) - 1:
                # Skip the next segment, but never past the return block.
                self._advance_segment(frame)
        elif block.term_kind == TERM_CALL:
            taken = True
            aux_pc = block.term_pc + INSTR_BYTES
            if len(self._stack) < self.max_call_depth:
                self._advance_segment(frame)  # resume after the call
                self._enter_function(block.callee, return_pc=aux_pc)
            else:
                self._advance_segment(frame)  # too deep: elide the call
                taken = False
        elif block.term_kind == TERM_RET:
            taken = True
            aux_pc = frame.return_pc
            self._stack.pop()
            if not self._stack:
                # Program finished: restart main (outer program loop).
                self._enter_function(0, return_pc=0)
                aux_pc = self.layout.functions[0].entry_pc
        else:  # TERM_FALL
            if frame.block_pos + 1 < len(segment.block_indices):
                frame.block_pos += 1
            else:
                self._advance_segment(frame)
        top = self._stack[-1]
        if top.segment_idx >= len(top.func.segments):
            self._unwind()
        return block, taken, aux_pc

    def run_loop(self, budget: int) -> List[Tuple[BlockSpec, int]]:
        """Consume the rest of the current loop segment, at most ``budget`` blocks.

        Returns each body block with its visit count (0 if the budget
        ends first), or ``[]`` outside a loop.  Loop bodies are
        fall-through blocks plus a ``TERM_LOOP`` tail: nothing in them
        draws, so this equals as many :meth:`next_block` calls.
        """
        frame = self._stack[-1]
        segment = frame.func.segments[frame.segment_idx]
        if not segment.is_loop:
            return []
        size = len(segment.block_indices)
        start = frame.block_pos
        remaining = size - start + (frame.trips_left - 1) * size
        end = start + min(budget, remaining)
        # Visits to body position p are the j in [start, end) with j = p mod size.
        visits = [
            (frame.func.blocks[index],
             (end - pos + size - 1) // size - (start - pos + size - 1) // size)
            for pos, index in enumerate(segment.block_indices)
        ]
        if end - start == remaining:
            self._advance_segment(frame)
            self._unwind()
        else:
            frame.block_pos = end % size
            frame.trips_left -= end // size  # one trip per tail visit
        return visits

    def _unwind(self) -> None:
        """Falling past the last segment means implicit return."""
        while self._stack and self._stack[-1].segment_idx >= len(self._stack[-1].func.segments):
            self._stack.pop()
            if not self._stack:
                self._enter_function(0, return_pc=0)
                break
