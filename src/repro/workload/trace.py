"""Trace containers: eager lists, streaming files, lazy traces, summaries.

Also home of the chunk planner for sampled parallel replay
(:func:`plan_chunks`): splitting a position range into owned regions,
each preceded by a warmup-overlap prefix, is pure arithmetic over the
stream length and belongs with the containers rather than with any one
simulation tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.workload.instr import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_RET,
    OP_STORE,
    Instr,
)

#: Default block size (bytes) for summaries — the Table 1 L1 geometry.
DEFAULT_BLOCK_BYTES = 32

#: Default instructions per :class:`StreamingTrace` chunk.  Small enough
#: that a chunk of live :class:`Instr` objects is a few MB at most,
#: large enough that per-chunk overhead vanishes against parse cost.
DEFAULT_CHUNK_INSTRUCTIONS = 65_536


@dataclass(frozen=True)
class TraceSummary:
    """Instruction-mix statistics of a trace."""

    instructions: int
    loads: int
    stores: int
    branches: int
    calls: int
    returns: int
    int_ops: int
    fp_ops: int
    unique_load_pcs: int
    unique_blocks_touched: int

    @property
    def load_frac(self) -> float:
        """Loads as a fraction of all instructions."""
        return self.loads / self.instructions if self.instructions else 0.0

    @property
    def store_frac(self) -> float:
        """Stores as a fraction of all instructions."""
        return self.stores / self.instructions if self.instructions else 0.0

    @property
    def control_frac(self) -> float:
        """Control-flow instructions as a fraction of all instructions."""
        total = self.branches + self.calls + self.returns
        return total / self.instructions if self.instructions else 0.0


def block_shift(block_bytes: int) -> int:
    """log2 of a power-of-two block size (validated)."""
    if block_bytes < 1 or block_bytes & (block_bytes - 1):
        raise ValueError(f"block_bytes must be a positive power of two, got {block_bytes}")
    return block_bytes.bit_length() - 1


def summarize_instructions(
    instructions: Iterable[Instr], block_bytes: int = DEFAULT_BLOCK_BYTES
) -> TraceSummary:
    """Single-pass instruction-mix summary of any instruction stream.

    ``unique_blocks_touched`` counts i-blocks of ``block_bytes`` bytes;
    the stream is consumed lazily, so a :class:`StreamingTrace` can be
    summarized without materializing it.
    """
    shift = block_shift(block_bytes)
    counts = {OP_INT: 0, OP_FP: 0, OP_LOAD: 0, OP_STORE: 0, OP_BRANCH: 0, OP_CALL: 0, OP_RET: 0}
    total = 0
    load_pcs = set()
    blocks = set()
    for instr in instructions:
        total += 1
        counts[instr.op] += 1
        if instr.op == OP_LOAD:
            load_pcs.add(instr.pc)
        blocks.add(instr.pc >> shift)
    return TraceSummary(
        instructions=total,
        loads=counts[OP_LOAD],
        stores=counts[OP_STORE],
        branches=counts[OP_BRANCH],
        calls=counts[OP_CALL],
        returns=counts[OP_RET],
        int_ops=counts[OP_INT],
        fp_ops=counts[OP_FP],
        unique_load_pcs=len(load_pcs),
        unique_blocks_touched=len(blocks),
    )


@dataclass(frozen=True)
class ChunkRegion:
    """One owned region of a chunked replay, plus its warmup prefix.

    The region *owns* positions ``[start, end)`` — statistics are
    counted there and nowhere else — but replay begins at
    ``warmup_start <= start`` so cache/predictor state warms over the
    overlap prefix before counting starts.  Regions tile the stream:
    every position belongs to exactly one region's owned range.
    """

    index: int
    warmup_start: int
    start: int
    end: int

    @property
    def overlap(self) -> int:
        """Warmup positions replayed before the owned region."""
        return self.start - self.warmup_start

    @property
    def owned(self) -> int:
        """Owned positions (where statistics are counted)."""
        return self.end - self.start


@dataclass(frozen=True)
class ChunkPlan:
    """A full chunked-replay plan over ``total`` stream positions.

    ``overlap`` is the requested warmup-overlap length per chunk, or
    ``None`` for the *full prefix* — every chunk replays from position
    0, which reproduces serial state exactly for any replacement policy
    (the exactness default; finite overlaps trade replay work for a
    bounded warmup error, reported by the runner's error-bound check).
    """

    total: int
    overlap: Optional[int]
    regions: Tuple[ChunkRegion, ...]

    @property
    def chunks(self) -> int:
        """Number of owned regions (the effective chunk count)."""
        return len(self.regions)

    def describe(self) -> str:
        """One-line human description of the plan."""
        overlap = "full" if self.overlap is None else str(self.overlap)
        return (
            f"{self.chunks} chunk(s) over {self.total} position(s), "
            f"overlap={overlap}"
        )

    def to_document(self) -> dict:
        """JSON-safe description (embedded in error-bound reports)."""
        return {
            "chunks": self.chunks,
            "overlap": "full" if self.overlap is None else self.overlap,
            "total": self.total,
            "boundaries": [region.start for region in self.regions] + [self.total],
        }


def plan_chunks(total: int, chunks: int, overlap: Optional[int] = None) -> ChunkPlan:
    """Split ``total`` stream positions into owned regions with warmup.

    Args:
        total: stream length (memory operations for miss-rate replay).
        chunks: requested chunk count; clamped to ``total`` so every
            region owns at least one position (a zero-length stream
            yields an empty plan whose merge is all-zero counters).
        overlap: warmup positions replayed before each owned region
            (clamped at stream start), or ``None`` for the full prefix
            — every chunk replays from position 0 (exact for any
            policy).

    Raises:
        ValueError: ``chunks < 1`` or a negative ``overlap``.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if overlap is not None and overlap < 0:
        raise ValueError(f"overlap must be >= 0 or None, got {overlap}")
    if total <= 0:
        return ChunkPlan(total=max(0, total), overlap=overlap, regions=())
    effective = min(chunks, total)
    regions = []
    for index in range(effective):
        start = index * total // effective
        end = (index + 1) * total // effective
        warmup_start = 0 if overlap is None else max(0, start - overlap)
        regions.append(
            ChunkRegion(index=index, warmup_start=warmup_start, start=start, end=end)
        )
    return ChunkPlan(total=total, overlap=overlap, regions=tuple(regions))


class Trace:
    """A sequence of dynamic instructions plus its origin metadata."""

    def __init__(self, name: str, instructions: Sequence[Instr]) -> None:
        self.name = name
        self.instructions: List[Instr] = list(instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instr:
        return self.instructions[index]

    def iter_chunks(self, chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS) -> Iterator[List[Instr]]:
        """The instruction stream as bounded lists (the streaming surface)."""
        if chunk_instructions < 1:
            raise ValueError(f"chunk_instructions must be >= 1, got {chunk_instructions}")
        for start in range(0, len(self.instructions), chunk_instructions):
            yield self.instructions[start:start + chunk_instructions]

    def summary(self, block_bytes: int = DEFAULT_BLOCK_BYTES) -> TraceSummary:
        """Compute the instruction-mix summary.

        Args:
            block_bytes: block size used for ``unique_blocks_touched``
                (defaults to the configured Table 1 geometry's 32 bytes).
        """
        return summarize_instructions(self, block_bytes)


class StreamingTrace(Trace):
    """A trace backed by a re-openable reader instead of an in-memory list.

    Implements the :class:`Trace` protocol via chunked iteration:
    ``__iter__``/``iter_chunks``/``summary`` hold at most one chunk of
    :class:`Instr` objects alive, so multi-million-instruction files can
    feed the chunk-wise encoder (:mod:`repro.workload.encode`) and the
    functional miss-rate paths without ever materializing.  Only the
    random-access surface the reference *pipeline* needs —
    ``instructions``/``__getitem__`` — materializes the full list, and
    memoizes it.

    Args:
        name: trace name (reported as ``SimResult.benchmark``).
        opener: zero-argument callable returning a fresh instruction
            iterator; called once per pass, so the source must be
            re-openable (files are).
        chunk_instructions: chunk granularity for ``iter_chunks``.
        length: dynamic instruction count, if already known; otherwise
            the first full pass memoizes it.
    """

    def __init__(
        self,
        name: str,
        opener: Callable[[], Iterator[Instr]],
        chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
        length: Optional[int] = None,
    ) -> None:
        if chunk_instructions < 1:
            raise ValueError(f"chunk_instructions must be >= 1, got {chunk_instructions}")
        self.name = name
        self._opener = opener
        self.chunk_instructions = chunk_instructions
        self._length = length
        self._materialized: Optional[List[Instr]] = None

    # ------------------------------------------------------------------ #
    # Bounded-memory surface
    # ------------------------------------------------------------------ #

    def iter_chunks(self, chunk_instructions: Optional[int] = None) -> Iterator[List[Instr]]:
        """Yield the stream as lists of at most ``chunk_instructions``.

        A completed pass memoizes the trace length as a side effect, so
        ``len`` after any full iteration is free.
        """
        size = self.chunk_instructions if chunk_instructions is None else chunk_instructions
        if size < 1:
            raise ValueError(f"chunk_instructions must be >= 1, got {size}")
        if self._materialized is not None:
            for start in range(0, len(self._materialized), size):
                yield self._materialized[start:start + size]
            return
        reader = self._opener()
        total = 0
        while True:
            chunk: List[Instr] = []
            for instr in reader:
                chunk.append(instr)
                if len(chunk) >= size:
                    break
            if not chunk:
                break
            total += len(chunk)
            yield chunk
            if len(chunk) < size:
                break
        self._length = total

    def __iter__(self) -> Iterator[Instr]:
        for chunk in self.iter_chunks():
            yield from chunk

    def __len__(self) -> int:
        if self._length is None:
            if self._materialized is not None:
                self._length = len(self._materialized)
            else:
                total = 0
                for chunk in self.iter_chunks():
                    total += len(chunk)
                self._length = total
        return self._length

    # ------------------------------------------------------------------ #
    # Random-access surface (materializes)
    # ------------------------------------------------------------------ #

    @property
    def instructions(self) -> List[Instr]:
        """The full instruction list, materialized on first access.

        Only the reference out-of-order pipeline needs this (its fetch
        unit indexes the trace); the fast backend and both miss-rate
        paths stay on the chunked surface.
        """
        if self._materialized is None:
            out: List[Instr] = []
            for chunk in self.iter_chunks():
                out.extend(chunk)
            self._materialized = out
            self._length = len(out)
        return self._materialized

    def __getitem__(self, index: int) -> Instr:
        return self.instructions[index]


class LazyTrace(Trace):
    """A trace whose instruction list is built on first touch.

    Name and length are known up front — the runner reads them from an
    encoded-trace artifact's header — so a consumer that needs only
    those, or only the artifact-backed encoding memoized on this object,
    never builds the list.  The first access to ``instructions`` (which
    iteration, indexing and ``iter_chunks`` all go through) calls
    ``build`` and keeps its result.

    Args:
        name: trace name (reported as ``SimResult.benchmark``).
        length: dynamic instruction count.
        build: zero-argument callable returning the full :class:`Trace`.
    """

    def __init__(self, name: str, length: int, build: Callable[[], Trace]) -> None:
        self.name = name
        self._length = length
        self._build = build
        self._built: Optional[List[Instr]] = None

    @property
    def instructions(self) -> List[Instr]:
        """The full instruction list, built on first access."""
        if self._built is None:
            self._built = self._build().instructions
        return self._built

    def __len__(self) -> int:
        return self._length
