"""Vectorized numpy miss-rate kernels (the ``vector`` tier of ``"fast"``).

This is the one module that imports numpy.  The python fast tier
(:mod:`repro.fastsim.missrate`) replays a pre-encoded address stream in
trace order, paying a Python-level loop iteration per access.  This
tier runs the same driver — ticks, flushes, bypass and counting are
shared — but hands it one primitive instead of the python kernels:
:func:`_vector_misses`, which classifies a range of the block stream
from a cold cache without a per-access loop: for both cache shapes the
hit/miss outcome can be computed *offline*.

* **Direct-mapped** — an access hits iff the previous access to its set
  touched the same block.  One set-major sort puts every set's accesses
  adjacent in time order, a single adjacent-compare classifies all of
  them, and one scatter restores trace order.
* **LRU** — the classic stack property: an access hits iff the number
  of distinct blocks touched in its set since the previous access to
  the same block is below the associativity.  That predicate never
  depends on cache *state*, so it vectorizes: adjacent same-block runs
  are distance-0 hits (the bulk of every stream), a previous-occurrence
  gather bounds the distinct count from above (``gap <= assoc`` means a
  certain hit) and below (2-way: any longer gap is a certain miss), a
  prefix-sum over 2-periodic positions resolves pure two-block
  alternation windows, and only the residue — a fraction of a percent
  of accesses on the paper's workloads — falls to an early-exit scalar
  scan over the collapsed stream.

``backend="fast"`` miss-rate runs resolve to this tier whenever numpy
imports (:func:`resolve_tier`).  Without numpy a direct call goes whole
to :func:`~repro.fastsim.missrate.fast_miss_rate`.  That route is
silent and lossless because every tier is byte-identical by contract
(enforced by the differential and golden suites).

The block stream comes from :func:`block_array`: a read-only ``uint64``
array built over the encoding's raw address buffer
(:meth:`~repro.workload.encode.EncodedTrace.buffer`, the mapped section
itself when an artifact backs the encoding) and kept in the encoding's
derived-view memo, one per block size.

The sort trick used throughout: set-major order with time order
preserved inside each set comes from one ``np.sort`` over the packed
key ``(set_index << 32) | position`` — several times faster than a
stable ``argsort`` — and the low half of the sorted key *is* the
gather permutation.  Because the set index is a suffix of the block
address, equal blocks always land in the same set, so adjacent-compare
logic needs only block values and set boundaries need no special
casing.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cache.geometry import CacheGeometry
from repro.fastsim.missrate import _replay, fast_miss_rate
from repro.sim.functional import MissRateResult
from repro.utils.bitops import AddressFields
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.trace import Trace

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

__all__ = [
    "block_array",
    "numpy_available",
    "resolve_tier",
    "vector_miss_rate",
]


def numpy_available() -> bool:
    """True when numpy imported successfully."""
    return np is not None


def resolve_tier(backend: str, mode: str = "missrate") -> str:
    """The kernel tier a requested backend actually executes with.

    ``"fast"`` miss-rate runs use the vector kernels exactly when numpy
    imported, and the python kernels otherwise.  Full-sim mode always
    resolves to the array-state python pipeline: the vector tier has no
    full-sim kernels.
    """
    if backend == "reference":
        return "reference"
    if mode != "missrate":
        return "fast"
    return "vector" if np is not None else "fast"


def vector_miss_rate(
    trace: Union[Trace, EncodedTrace],
    geometry: CacheGeometry,
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Vectorized equivalent of
    :func:`~repro.sim.functional.measure_miss_rate`.

    Runs the shared miss-rate driver (static or ticked) with
    :func:`_vector_misses` as its classifier.  Without numpy the run
    goes to :func:`~repro.fastsim.missrate.fast_miss_rate` whole;
    results are identical either way.
    """
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    if np is None:
        return fast_miss_rate(
            encoded, geometry, warmup_fraction,
            interval=interval, policy_factory=policy_factory,
        )
    return _replay(encoded, geometry, warmup_fraction, interval,
                   policy_factory, _vector_misses)


def block_array(encoded: EncodedTrace, fields: AddressFields):
    """The block-address stream as a read-only ``uint64`` array.

    The numpy analogue of :meth:`EncodedTrace.blocks`: built over the
    raw address buffer, so an artifact-backed encoding is read straight
    from the mapped section, and memoized per block size in the
    encoding's derived-view memo.
    """
    def build():
        addrs = np.frombuffer(encoded.buffer("addrs"), dtype=np.uint64)
        blocks = addrs >> np.uint64(fields.offset_bits)
        blocks.flags.writeable = False
        return blocks

    return encoded.derived(("block_array", fields.offset_bits), build)


def _vector_misses(encoded: EncodedTrace, geometry: CacheGeometry,
                   start: int, end: int) -> Optional[bytes]:
    """Miss flags of positions ``[start, end)`` replayed from a cold cache.

    The tier's one primitive: the shared driver classifies each epoch's
    horizon through it and gets one 0/1 byte per position.  ``None``
    declines the range (the sort key would overflow), and the driver
    continues on the python kernels.  Ranges are never empty.
    """
    blocks = block_array(encoded, geometry.fields)[start:end]
    num_sets = geometry.num_sets
    assoc = geometry.associativity
    if num_sets > (1 << 32) or blocks.shape[0] >= (1 << 32):
        return None  # set index or position would overflow the sort key
    if assoc == 1:
        hits = _direct_mapped(blocks, num_sets)
    else:
        hits = _lru(blocks, num_sets, assoc)
    return (~hits).tobytes()


# ------------------------------------------------------------------ #
# Shared pieces
# ------------------------------------------------------------------ #


def _set_major_order(blocks, num_sets: int):
    """Sort the stream set-major with time order preserved per set.

    Returns ``(order, sorted_blocks)`` where ``order`` is the gather
    permutation (``sorted_blocks = blocks[order]``); scattering through
    it restores trace order.  One ``np.sort`` over the packed
    ``(set << 32) | position`` key replaces a stable argsort.
    """
    n = blocks.shape[0]
    index = blocks & np.uint64(num_sets - 1)
    key = (index << np.uint64(32)) | np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return order, blocks[order]


# ------------------------------------------------------------------ #
# Direct-mapped
# ------------------------------------------------------------------ #


def _direct_mapped(blocks, num_sets: int):
    """Gather, adjacent-compare, scatter: the whole replay in one pass.

    In set-major order an access hits iff its predecessor *in the sort*
    is the same block: equal blocks share a set (the index is an address
    suffix), so set boundaries can never fake a hit.
    """
    n = blocks.shape[0]
    order, sorted_blocks = _set_major_order(blocks, num_sets)
    hit_sorted = np.zeros(n, dtype=bool)
    np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=hit_sorted[1:])
    hits = np.empty(n, dtype=bool)
    hits[order] = hit_sorted
    return hits


# ------------------------------------------------------------------ #
# LRU (stack-distance classification)
# ------------------------------------------------------------------ #


def _lru(blocks, num_sets: int, assoc: int):
    """Classify every access by the LRU stack property, statelessly.

    Layered so each (cheaper) rule resolves the bulk of what the
    previous one left:

    1. adjacent same-block runs within a set are distance-0 hits;
    2. over the collapsed (run-start) stream, ``gap <= assoc`` between
       consecutive occurrences of a block certainly hits, no previous
       occurrence certainly misses;
    3. at ``assoc == 2`` every remaining access certainly misses
       (collapsed neighbours are distinct, so any longer window holds
       at least two distinct blocks);
    4. at ``assoc >= 3`` a pure two-block alternation window (checked
       with one prefix sum over 2-periodic positions) certainly hits;
    5. the residue gets an early-exit scalar scan that stops at
       ``assoc`` distinct blocks.
    """
    n = blocks.shape[0]
    order, sorted_blocks = _set_major_order(blocks, num_sets)
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=run_start[1:])
    hits_sorted = ~run_start

    collapsed_pos = np.flatnonzero(run_start)
    collapsed = sorted_blocks[collapsed_pos]
    m = collapsed.shape[0]
    # Previous occurrence of the same block in the collapsed stream
    # (same block means same set, and a set's span is contiguous, so
    # everything between two occurrences belongs to the same set).
    by_block = np.argsort(collapsed, kind="stable")
    prev = np.full(m, -1, dtype=np.int64)
    same = collapsed[by_block[1:]] == collapsed[by_block[:-1]]
    prev[by_block[1:][same]] = by_block[:-1][same]
    position = np.arange(m, dtype=np.int64)
    gap = position - prev
    has_prev = prev >= 0
    hit = has_prev & (gap <= assoc)
    resolved = hit | ~has_prev
    if assoc > 2:
        # Pure two-block alternation: c[j] == c[j-2] throughout the
        # window body means exactly two distinct blocks -> a hit.
        alternating = np.zeros(m, dtype=bool)
        alternating[2:] = collapsed[2:] == collapsed[:-2]
        prefix = np.empty(m + 1, dtype=np.int64)
        prefix[0] = 0
        np.cumsum(alternating, out=prefix[1:])
        low = prev + 3
        span = position - low
        candidates = np.flatnonzero(~resolved & (span > 0))
        full = (prefix[position[candidates]] - prefix[low[candidates]]) == span[candidates]
        alternation_hits = candidates[full]
        hit[alternation_hits] = True
        resolved[alternation_hits] = True
        unresolved = np.flatnonzero(~resolved)
        if unresolved.size:
            _scan_unresolved(collapsed, prev, unresolved, assoc, hit)

    hits_sorted[collapsed_pos] = hit
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def _scan_unresolved(collapsed, prev, unresolved, assoc: int, hit) -> None:
    """Scalar residue: count distinct blocks backward, stop early.

    The window between occurrences is at most a few dozen entries for
    real streams and the scan exits at ``assoc`` distinct blocks, so
    this touches a vanishing fraction of the collapsed stream.
    """
    blocks_list = collapsed.tolist()
    prev_list = prev.tolist()
    for k in unresolved.tolist():
        stop = prev_list[k]
        distinct = set()
        is_hit = True
        j = k - 1
        while j > stop:
            distinct.add(blocks_list[j])
            if len(distinct) >= assoc:
                is_hit = False
                break
            j -= 1
        hit[k] = is_hit
