"""Vectorized numpy miss-rate kernels (the ``"vector"`` backend tier).

The python fast tier (:mod:`repro.fastsim.missrate`) replays a
pre-encoded address stream in trace order, paying a Python-level loop
iteration per access.  This tier runs the same driver — ticks, flushes,
bypass and counting are shared — but hands it one primitive instead of
the python kernels: :func:`_vector_hits`, which classifies a block
slice from a cold cache without a per-access loop, for the policies
whose hit/miss outcome can be computed *offline*:

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
* **Tree-PLRU** — genuinely stateful (victim choice depends on the
  bit-tree left behind by every prior access), so it cannot be
  classified offline.  Instead the collapsed stream is partitioned into
  *rounds* — the k-th access of every set — and whole rounds advance a
  ``(num_sets, ways)`` slot matrix and ``(num_sets, ways-1)`` bit-tree
  matrix at once, walking the tree levels vectorially.  2-way tree-PLRU
  *is* exact LRU (one bit pointing away from the last-used way), so
  that case routes to the LRU kernel; on heavily skewed streams, where
  rounds degenerate to a handful of lanes each, the classifier declines
  and the driver continues on the python kernels (see
  ``_PLRU_MIN_BATCH``).

Everything else runs whole on
:func:`~repro.fastsim.missrate.fast_miss_rate`: ``fifo``/``random``
victims follow an object-driven order (the deterministic RNG stream of
``random`` must advance exactly as the reference's does), and plugin
replacement kinds have no array form at all.  That route — and the
case where numpy is not importable — is silent and lossless because
every tier is byte-identical by contract (enforced by the differential
and golden suites).

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

import os
from typing import Union

from repro.cache.geometry import CacheGeometry
from repro.fastsim.missrate import _replay, fast_miss_rate
from repro.sim.functional import MissRateResult
from repro.workload.encode import EncodedTrace, encode_trace
from repro.workload.trace import Trace

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

__all__ = [
    "NO_VECTOR_ENV",
    "numpy_available",
    "resolve_tier",
    "vector_enabled",
    "vector_miss_rate",
]

#: Set to a non-empty value other than ``0`` to opt out of the vector
#: tier even when numpy is importable (``backend="fast"`` then stays on
#: the python kernels, and ``backend="vector"`` falls back to them).
NO_VECTOR_ENV = "REPRO_NO_VECTOR"

#: Minimum collapsed accesses per PLRU round for the batched state
#: advance to beat the python tier; thinner rounds mean the per-round
#: numpy dispatch overhead dominates, so skewed streams are declined.
_PLRU_MIN_BATCH = 32


def numpy_available() -> bool:
    """True when numpy imported successfully."""
    return np is not None


def vector_enabled() -> bool:
    """True when the vector tier may run: numpy present and not opted out."""
    return np is not None and os.environ.get(NO_VECTOR_ENV, "0") in ("", "0")


def resolve_tier(backend: str, mode: str = "missrate") -> str:
    """The kernel tier a requested backend actually executes with.

    ``"fast"`` auto-upgrades to the vector kernels for miss-rate runs
    when they are enabled; ``"vector"`` silently degrades to the python
    kernels when they are not (no numpy, or :data:`NO_VECTOR_ENV` set).
    Full-sim mode always resolves to the array-state python pipeline —
    energy accumulation stays a scalar pass so float-addition order is
    bit-identical to the reference.
    """
    if backend == "reference":
        return "reference"
    if mode != "missrate":
        return "fast"
    return "vector" if vector_enabled() else "fast"


def vector_miss_rate(
    trace: Union[Trace, EncodedTrace],
    geometry: CacheGeometry,
    replacement: str = "lru",
    warmup_fraction: float = 0.2,
    *,
    interval: int = 0,
    policy_factory=None,
) -> MissRateResult:
    """Vectorized equivalent of
    :func:`~repro.sim.functional.measure_miss_rate`.

    Runs the shared miss-rate driver (static or ticked) with
    :func:`_vector_hits` as its classifier.  Replacement kinds with no
    array form, and a disabled tier, go to
    :func:`~repro.fastsim.missrate.fast_miss_rate` whole; results are
    identical either way.
    """
    encoded = trace if isinstance(trace, EncodedTrace) else encode_trace(trace)
    if not vector_enabled() or (
        geometry.associativity > 1 and replacement not in ("lru", "plru")
    ):
        return fast_miss_rate(
            encoded, geometry, replacement, warmup_fraction,
            interval=interval, policy_factory=policy_factory,
        )
    return _replay(encoded, geometry, replacement, warmup_fraction,
                   interval, policy_factory, _vector_hits)


def _vector_hits(blocks, geometry: CacheGeometry, replacement: str):
    """Per-position hit mask for ``blocks`` replayed from a cold cache.

    The tier's one primitive: the shared driver classifies each epoch's
    block-array slice through it.  ``None`` declines the slice (no
    kernel applies, or PLRU rounds would be too thin), and the driver
    continues on the python kernels.  Slices are never empty.
    """
    num_sets = geometry.num_sets
    assoc = geometry.associativity
    if num_sets > (1 << 32) or blocks.shape[0] >= (1 << 32):
        return None  # set index or position would overflow the sort key
    if assoc == 1:
        return _direct_mapped(blocks, num_sets)
    if replacement == "lru" or (replacement == "plru" and assoc == 2):
        # A 2-way PLRU tree is exact LRU: its single bit always points
        # at the less recently used way.
        return _lru(blocks, num_sets, assoc)
    if replacement == "plru":
        return _plru(blocks, num_sets, assoc)
    return None


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


# ------------------------------------------------------------------ #
# Tree-PLRU (round-partitioned state advance)
# ------------------------------------------------------------------ #


def _plru(blocks, num_sets: int, assoc: int):
    """Advance all sets' tree state one occurrence-rank at a time.

    Repeated same-block accesses are hits that re-touch the same way,
    and a tree-PLRU touch is idempotent, so the state walk runs over
    the collapsed stream only; run tails are unconditional hits.  In
    round k every set contributes at most its k-th collapsed access, so
    a round's accesses touch disjoint sets and one batched
    lookup/victim/touch over a ``(num_sets, ways)`` slot matrix and a
    ``(num_sets, ways-1)`` bit matrix is exact.  Returns ``None`` when
    the stream is too skewed for rounds to pay for themselves.
    """
    n = blocks.shape[0]
    index = blocks & np.uint64(num_sets - 1)
    key = (index << np.uint64(32)) | np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
    set_ids = (key >> np.uint64(32)).astype(np.int64)
    sorted_blocks = blocks[order]
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_blocks[1:], sorted_blocks[:-1], out=run_start[1:])
    hits_sorted = ~run_start

    collapsed_pos = np.flatnonzero(run_start)
    collapsed_sets = set_ids[collapsed_pos]
    m = collapsed_pos.shape[0]
    # Occurrence rank of each collapsed access within its set.
    set_start = np.empty(m, dtype=bool)
    set_start[0] = True
    np.not_equal(collapsed_sets[1:], collapsed_sets[:-1], out=set_start[1:])
    start_index = np.maximum.accumulate(
        np.where(set_start, np.arange(m, dtype=np.int64), 0)
    )
    rank = np.arange(m, dtype=np.int64) - start_index
    rounds = int(rank.max()) + 1
    if m < rounds * _PLRU_MIN_BATCH:
        return None  # rounds too thin: python tier wins

    # Compact block ids so the slot matrix stores small ints.
    block_ids = np.unique(sorted_blocks[collapsed_pos], return_inverse=True)[1]
    block_ids = block_ids.astype(np.int64)
    # Round buckets: rank-major, collapsed order within a rank.
    round_key = (rank.astype(np.uint64) << np.uint64(32)) | np.arange(m, dtype=np.uint64)
    round_key.sort()
    round_order = (round_key & np.uint64(0xFFFFFFFF)).astype(np.int64)
    bounds = np.empty(rounds + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(np.bincount(rank, minlength=rounds), out=bounds[1:])

    slots = np.full((num_sets, assoc), -1, dtype=np.int64)
    bits = np.zeros((num_sets, assoc - 1), dtype=np.int8)
    collapsed_hit = np.empty(m, dtype=bool)
    for k in range(rounds):
        chosen = round_order[bounds[k]:bounds[k + 1]]
        sets = collapsed_sets[chosen]
        wanted = block_ids[chosen]
        rows = np.arange(sets.shape[0])
        ways = slots[sets]
        match = ways == wanted[:, None]
        hit = match.any(axis=1)
        invalid = ways == -1
        has_invalid = invalid.any(axis=1)
        # Victim walk over the pre-touch tree (bit 0 points left).
        tree = bits[sets]
        node = np.zeros(sets.shape[0], dtype=np.int64)
        base = np.zeros(sets.shape[0], dtype=np.int64)
        span = assoc
        while span > 1:
            span //= 2
            right = tree[rows, node] != 0
            node = 2 * node + np.where(right, 2, 1)
            base += np.where(right, span, 0)
        # Lookup first, lowest invalid way next, tree victim last —
        # the CacheSet order exactly.
        way = np.where(
            hit, match.argmax(axis=1), np.where(has_invalid, invalid.argmax(axis=1), base)
        )
        ways[rows, way] = wanted  # no-op for hits: that way holds the block
        slots[sets] = ways
        # Touch walk: each level's bit points away from the used side.
        node[:] = 0
        base[:] = 0
        span = assoc
        while span > 1:
            span //= 2
            left = way < base + span
            tree[rows, node] = np.where(left, 1, 0)
            node = 2 * node + np.where(left, 1, 2)
            base += np.where(left, 0, span)
        bits[sets] = tree
        collapsed_hit[chosen] = hit

    hits_sorted[collapsed_pos] = collapsed_hit
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits
