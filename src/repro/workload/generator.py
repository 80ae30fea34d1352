"""Trace synthesis: streams + code layout -> dynamic instruction trace."""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import List

from repro.utils.rng import DeterministicRng
from repro.workload.codegen import (
    INSTR_BYTES,
    ControlFlowWalker,
    LayoutParameters,
    SLOT_FP,
    SLOT_INT,
    SLOT_LOAD,
    SLOT_STORE,
    TERM_COND,
    TERM_LOOP,
    TERM_RET,
    bind_streams,
    build_layout,
    measure_block_weights,
)
from repro.workload.instr import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_RET,
    OP_STORE,
)
from repro.workload.profiles import BenchmarkProfile, get_profile
from repro.workload.streams import (
    AddressStream,
    ChaseStream,
    ConflictStream,
    HotDataLayout,
    ObjectPoolStream,
    RegionAllocator,
    ScalarStream,
    WalkStream,
)
from repro.workload.trace import COLUMN_NAMES, ColumnTrace

#: Version of the synthesis pipeline as cache keys see it.  Generation
#: is pure, so (benchmark, instructions, salt) identifies a synthetic
#: trace *for one version of this module* — bump on any change to the
#: generated streams so persisted encoded-trace artifacts keyed on the
#: old behavior are never served for the new one.
GENERATOR_VERSION = 1

#: log2 of the block size used for XOR-handle construction.
_BLOCK_SHIFT = 5

# Register file split: integer r1..r30, floating point f32..f62.
_INT_REGS = list(range(1, 31))
_FP_REGS = list(range(32, 63))

# Body slots are emitted as their own opcodes.
assert (SLOT_INT, SLOT_FP, SLOT_LOAD, SLOT_STORE) == (OP_INT, OP_FP, OP_LOAD, OP_STORE)


def _below(getrandbits, n: int) -> int:
    """``randint(0, n - 1)`` (and ``choice`` over ``n`` items) exactly as
    ``random.Random`` draws it: rejection-sample ``n.bit_length()`` bits."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class TraceGenerator:
    """Generates deterministic traces for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, salt: int = 0) -> None:
        self.profile = profile
        self._rng = DeterministicRng(f"workload/{profile.name}", salt)
        self.streams = self._build_streams()
        params = self._layout_parameters()
        self.layout = build_layout(params, self._rng.fork("layout"))
        # Two-pass binding: probe-walk the layout to measure real block
        # execution frequencies, then bind memory sites to stream
        # families so the *dynamic* family mix matches the profile.
        weights = measure_block_weights(self.layout, self._rng.fork("probe"))
        bind_streams(self.layout, params, self._rng.fork("bind"), weights)
        self._walker = ControlFlowWalker(self.layout, self._rng.fork("walk"))
        # Emission binds the raw generators' methods (see ``_below``).
        self._regs = self._rng.fork("regs").raw
        self._addr = self._rng.fork("addr").raw
        self._noise = self._rng.fork("noise").raw
        # Register-model state, carried across generate() calls: recent
        # integer, FP, load and ALU results, and the two dest cursors.
        self._recent = (
            deque([1, 2, 3, 4], maxlen=8), deque([32, 33, 34, 35], maxlen=8),
            deque([1, 2], maxlen=4), deque([3, 4], maxlen=4),
        )
        self._cursors = (0, 0)
        # Pointer-family streams get load-fed address registers.
        self._pointer_family = [
            isinstance(s, (ObjectPoolStream, ConflictStream, ChaseStream))
            for s in self.streams
        ]

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _build_streams(self) -> List[AddressStream]:
        """Instantiate the stream pool in family order.

        The hot working set (scalars, object pools, small arrays,
        conflict-group positions) is placed by :class:`HotDataLayout` so
        no two hot blocks share a direct-mapped position, while their
        tags — and hence ways — vary.  Large streaming regions (big
        walks, chases) live above the hot segment with cache coloring.
        """
        profile = self.profile
        allocator = RegionAllocator()
        hot = HotDataLayout(self._rng.fork("hot"))
        streams: List[AddressStream] = []
        for _ in range(profile.num_scalars):
            streams.append(ScalarStream(hot.take_block()))
        for _ in range(profile.num_pools):
            blocks = [hot.take_block() for _ in range(profile.pool_blocks)]
            streams.append(ObjectPoolStream(blocks))
        # Exactly round(frac * n) big walk instances.  Bigs take the
        # *last* indices: site binding fills instances least-loaded-first
        # starting at index 0, so the hottest sites land on small arrays
        # and the big streaming arrays keep their intended modest share.
        num_big = round(profile.walk_big_frac * profile.num_walks)
        for index in range(profile.num_walks):
            big = index >= profile.num_walks - num_big
            if big:
                size = max(int(profile.walk_big_kb * 1024), 4 * profile.walk_stride)
                base = allocator.region(size, align=4096, color=True)
            else:
                size = max(int(profile.walk_small_kb * 1024), 4 * profile.walk_stride)
                base = hot.take_chunk((size + 31) // 32)
            streams.append(WalkStream(base, size, stride=profile.walk_stride))
        for _ in range(profile.num_conflict_groups):
            tags = allocator.conflict_tags(profile.conflict_group_size)
            streams.append(
                ConflictStream(
                    hot.take_position(), tags, run_length=profile.conflict_run_length
                )
            )
        for _ in range(profile.num_chases):
            size = int(profile.chase_kb * 1024)
            streams.append(ChaseStream(allocator.region(size), size))
        return streams

    def _layout_parameters(self) -> LayoutParameters:
        profile = self.profile
        counts = [
            profile.num_scalars,
            profile.num_pools,
            profile.num_walks,
            profile.num_conflict_groups,
            profile.num_chases,
        ]
        first_ids = []
        running = 0
        for count in counts:
            first_ids.append(running)
            running += count
        return LayoutParameters(
            num_functions=profile.num_functions,
            blocks_per_function=profile.blocks_per_function,
            mean_block_len=profile.mean_block_len,
            mem_frac=profile.mem_frac,
            store_share=profile.store_share,
            fp_frac=profile.fp_frac,
            cond_frac=profile.cond_frac,
            call_frac=profile.call_frac,
            loop_frac=profile.loop_frac,
            mean_trip=profile.mean_trip,
            branch_bias=profile.branch_bias,
            num_streams=running,
            stream_weights=profile.stream_weights(),
            stream_first_id=first_ids,
            stream_counts=counts,
        )

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #

    def generate(self, num_instructions: int) -> ColumnTrace:
        """Produce a trace of exactly ``num_instructions`` instructions.

        One loop appends straight into the columns of a
        :class:`ColumnTrace`; no ``Instr`` is built here.  A taken
        control instruction's ``target`` is the next block's start, so a
        trace ending on a terminator still walks one more block.

        Registers model dataflow locality.  ~85% of sources are recent
        results, the latest heavily favored, which puts load latency on
        the critical path (why the paper's 2-cycle sequential d-cache
        costs ~11% on an 8-wide out-of-order core).  Array and scalar
        addresses come from ALU results (induction variables), so walks
        never wait on the cache; pointer families and branches often
        consume the latest load (``p->next``).
        """
        if num_instructions < 1:
            raise ValueError("num_instructions must be >= 1")
        columns = {name: [] for name in COLUMN_NAMES}
        ops, pcs, dsts, src1s, src2s, daddrs, takens, targets, xors = columns.values()
        walk = self._walker.next_block
        rand, bits = self._regs.random, self._regs.getrandbits
        noise_rand, noise_bits = self._noise.random, self._noise.getrandbits
        addr_bits = self._addr.getrandbits  # streams need only randint; skip its checks
        addr_rng = SimpleNamespace(randint=lambda lo, hi: lo + _below(addr_bits, hi - lo + 1))
        recent_int, recent_fp, recent_load, recent_alu = self._recent
        int_cursor, fp_cursor = self._cursors
        next_address = [stream.next_address for stream in self.streams]
        pointer = self._pointer_family
        scale = self.profile.xor_noise_scale
        noise = [min(1.0, stream.handle_noise * scale) for stream in self.streams]

        def source(pool, bank):
            if rand() < 0.85:
                back = 0
                last = len(pool) - 1
                while back < last and rand() < 0.45:
                    back += 1
                return pool[-1 - back]
            return bank[_below(bits, len(bank))]  # random.choice(bank)

        count = 0
        resolve = False  # the last terminator was taken: target = next block start
        while True:
            block, taken, _ = walk()
            if resolve:
                targets[-1] = block.start_pc
            if count == num_instructions:
                break
            slots = block.slots
            if count + len(slots) > num_instructions:
                slots = slots[:num_instructions - count]
            body = len(slots)
            start = block.start_pc
            ops += slots  # slot kinds are their opcodes
            pcs += range(start, start + INSTR_BYTES * body, INSTR_BYTES)
            takens += [False] * body
            targets += [0] * body
            for kind, stream_id in zip(slots, block.stream_ids):
                if kind <= SLOT_FP:
                    if kind == SLOT_FP:
                        fp_cursor = (fp_cursor + 1) % len(_FP_REGS)
                        dst, pool, bank = _FP_REGS[fp_cursor], recent_fp, _FP_REGS
                    else:
                        int_cursor = (int_cursor + 1) % len(_INT_REGS)
                        dst, pool, bank = _INT_REGS[int_cursor], recent_int, _INT_REGS
                        recent_alu.append(dst)
                    pool.append(dst)
                    dsts.append(dst)
                    src1s.append(source(pool, bank))
                    src2s.append(source(pool, bank))
                    daddrs.append(0)
                    xors.append(0)
                    continue
                addr = next_address[stream_id](addr_rng)
                daddrs.append(addr)
                if kind == SLOT_LOAD:
                    handle = addr >> _BLOCK_SHIFT
                    # DeterministicRng.chance semantics: no draw at 0 or 1.
                    chance = noise[stream_id]
                    if chance >= 1.0 or (chance > 0.0 and noise_rand() < chance):
                        handle ^= 1 + _below(noise_bits, 1 << 12)
                    xors.append(handle)
                    int_cursor = (int_cursor + 1) % len(_INT_REGS)
                    dst = _INT_REGS[int_cursor]
                    recent_int.append(dst)
                else:
                    xors.append(0)
                    dst = -1
                dsts.append(dst)
                if not pointer[stream_id]:
                    src1s.append(recent_alu[-1 - _below(bits, len(recent_alu))])
                elif rand() < 0.7:
                    src1s.append(recent_load[-1])
                else:
                    src1s.append(source(recent_int, _INT_REGS))
                if dst < 0:
                    src2s.append(source(recent_int, _INT_REGS))
                else:
                    src2s.append(-1)
                    recent_load.append(dst)
            count += body
            if count == num_instructions:
                break
            # The terminator slot: its target is resolved by the next block.
            kind = block.term_kind
            if kind == TERM_COND or kind == TERM_LOOP:
                op, dst = OP_BRANCH, -1
                src1 = recent_load[-1] if rand() < 0.6 else source(recent_int, _INT_REGS)
            elif taken:  # a return, or a call the depth limit kept
                op, dst, src1 = OP_RET if kind == TERM_RET else OP_CALL, -1, -1
            else:  # fall-through filler, or an elided call: an ALU op
                int_cursor = (int_cursor + 1) % len(_INT_REGS)
                op, dst, src1 = OP_INT, _INT_REGS[int_cursor], -1
                recent_int.append(dst)
                recent_alu.append(dst)
            ops.append(op)
            pcs.append(block.term_pc)
            dsts.append(dst)
            src1s.append(src1)
            src2s.append(-1)
            daddrs.append(0)
            takens.append(taken)
            targets.append(0)
            xors.append(0)
            resolve = taken
            count += 1
        self._cursors = (int_cursor, fp_cursor)
        return ColumnTrace(self.profile.name, columns)


def generate_trace(benchmark: str, num_instructions: int, salt: int = 0) -> ColumnTrace:
    """Convenience wrapper: profile lookup + generation."""
    return TraceGenerator(get_profile(benchmark), salt).generate(num_instructions)
