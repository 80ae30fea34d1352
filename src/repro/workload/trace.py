"""Trace containers: eager lists, columns, streaming files, lazy traces, summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

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

#: The nine per-instruction columns, named as ``EncodedTrace`` names its
#: instruction arrays.
COLUMN_NAMES = ("ops", "pcs", "dsts", "src1s", "src2s", "daddrs", "takens", "targets", "xors")

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


class Trace:
    """A sequence of dynamic instructions plus its origin metadata."""

    #: The stream as :data:`COLUMN_NAMES` lists when it was generated
    #: into them (:class:`ColumnTrace`), else ``None``.
    columns: Optional[Dict[str, list]] = None

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


class ColumnTrace(Trace):
    """A trace held as the nine per-instruction :attr:`columns`.

    Synthetic traces are generated straight into these lists, which the
    fast and vector tiers adopt as the encoding.  Only object consumers
    (the reference tier, summaries, trace writers) build the
    :class:`Instr` list, once, on first touch of ``instructions``.
    """

    def __init__(self, name: str, columns: Dict[str, list]) -> None:
        self.name = name
        self.columns = columns
        self._built: Optional[List[Instr]] = None

    @property
    def instructions(self) -> List[Instr]:
        """The full instruction list, built from the columns on first access."""
        if self._built is None:
            c = self.columns
            self._built = list(map(
                Instr, c["pcs"], c["ops"], c["dsts"], c["src1s"], c["src2s"],
                c["daddrs"], c["takens"], c["targets"], c["xors"],
            ))
        return self._built

    def __len__(self) -> int:
        return len(self.columns["ops"])


class LazyTrace(Trace):
    """An artifact-backed trace, generated on first touch.

    Name and length are known up front — the runner reads them from an
    encoded-trace artifact's header — so a consumer that needs only
    those, or only the artifact-backed encoding memoized on this object,
    never generates.  The first access to ``instructions`` (which
    iteration, indexing and ``iter_chunks`` all go through) or to
    ``columns`` calls ``build`` and keeps the trace it returns.

    Args:
        name: trace name (reported as ``SimResult.benchmark``).
        length: dynamic instruction count.
        build: zero-argument callable returning the full :class:`Trace`.
    """

    def __init__(self, name: str, length: int, build: Callable[[], Trace]) -> None:
        self.name = name
        self._length = length
        self._build = build
        self._built: Optional[Trace] = None

    def _trace(self) -> Trace:
        if self._built is None:
            self._built = self._build()
        return self._built

    @property
    def instructions(self) -> List[Instr]:
        """The full instruction list of the built trace."""
        return self._trace().instructions

    @property
    def columns(self) -> Optional[Dict[str, list]]:
        """The built trace's columns (``None`` if it has none)."""
        return self._trace().columns

    def __len__(self) -> int:
        return self._length
