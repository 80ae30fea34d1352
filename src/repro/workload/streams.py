"""Data-address stream components.

Each static load/store site in the synthetic program binds to one stream
instance; the stream supplies effective addresses (and the XOR-handle
quality) every time that site executes.  The four stream families map to
the memory behaviours the paper's techniques react to:

* :class:`ScalarStream` — a hot block referenced repeatedly (globals,
  stack scalars).  Always hits after warmup; PC-based way prediction is
  nearly perfect on it ("a load in a loop accessing the same word in a
  block in different iterations", section 2.2.1).
* :class:`WalkStream` — a sequential array walk ("sequential array
  elements").  Produces per-PC block locality (high PC-prediction
  accuracy) and, when the array exceeds the cache, a capacity-miss rate
  of roughly ``stride/block``.
* :class:`ConflictStream` — a group of blocks sharing one direct-mapped
  position but having distinct tags.  They coexist in a set-associative
  cache (group size <= associativity) but thrash a direct-mapped cache
  and the direct-mapped *placement* of selective-DM, which is exactly
  what the victim list exists to detect.
* :class:`ChaseStream` — pointer chasing over a region: little locality,
  unstable XOR handles, capacity misses scaling with region size.
"""

from __future__ import annotations

from typing import List

from repro.utils.rng import DeterministicRng

#: Block size assumed when building conflict groups; matches the paper's
#: 32-byte lines.  The streams only use it to align conflict addresses,
#: so simulating other block sizes still works (conflicts just spread).
BLOCK_BYTES = 32
#: Conflict groups collide in the bottom ``CONFLICT_POSITION_BITS`` of
#: the block address: 9 bits covers the 16K direct-mapped cache's set
#: field (512 sets) and therefore also the 2/4/8-way caches' set+DM-way
#: fields, so a group conflicts consistently across every geometry in
#: the paper's sweep.
CONFLICT_POSITION_BITS = 9


class AddressStream:
    """Interface: a source of effective addresses for bound load/store PCs.

    Attributes:
        handle_noise: probability that the XOR-approximate handle for an
            access is perturbed (register value not yet a good proxy for
            the address — section 2.2.1's late-availability problem).
    """

    handle_noise = 0.0

    def next_address(self, rng: DeterministicRng) -> int:
        """Return the next effective address; ``rng`` needs only ``randint``."""
        raise NotImplementedError


class ScalarStream(AddressStream):
    """A single hot word, optionally wandering within one block."""

    handle_noise = 0.02

    def __init__(self, base: int) -> None:
        self.base = base

    def next_address(self, rng: DeterministicRng) -> int:
        # Stay inside one block: different words, same block.
        return self.base + 8 * rng.randint(0, (BLOCK_BYTES // 8) - 1)


class ObjectPoolStream(AddressStream):
    """A load touching a *different* hot object on each execution.

    Models register-indirect accesses inside functions invoked on many
    objects (linked structures, virtual dispatch, hash buckets): the
    blocks are all resident (no misses) but the block changes between
    executions, which is precisely what breaks PC-based way prediction
    ("the PC does not provide information about the actual address",
    section 4.2).  The XOR handle is noisy too — the object base
    register is loaded late, so the XOR approximation often reflects a
    stale pointer.

    The member blocks are *scattered* (distinct sets, distinct tags), so
    their resident ways genuinely vary — which is what makes the block
    change defeat way prediction rather than accidentally landing on the
    same way every time.
    """

    handle_noise = 0.30

    def __init__(self, block_addresses: List[int]) -> None:
        if len(block_addresses) < 2:
            raise ValueError("an object pool needs at least two blocks")
        self.block_addresses = list(block_addresses)

    def next_address(self, rng: DeterministicRng) -> int:
        base = self.block_addresses[rng.randint(0, len(self.block_addresses) - 1)]
        return base + 8 * rng.randint(0, (BLOCK_BYTES // 8) - 1)


class WalkStream(AddressStream):
    """Sequential walk: ``base + i*stride`` wrapping at ``length``."""

    handle_noise = 0.18

    def __init__(self, base: int, length_bytes: int, stride: int = 8) -> None:
        if length_bytes < stride:
            raise ValueError("walk length must cover at least one stride")
        self.base = base
        self.length_bytes = length_bytes
        self.stride = stride
        self._offset = 0

    def next_address(self, rng: DeterministicRng) -> int:
        addr = self.base + self._offset
        self._offset += self.stride
        if self._offset >= self.length_bytes:
            self._offset = 0
        return addr


class ConflictStream(AddressStream):
    """Run-structured accesses over blocks sharing a DM position.

    The members share one direct-mapped position (identical low
    ``CONFLICT_POSITION_BITS`` block-address bits — the same set in every
    modeled L1 geometry and the same DM way) with distinct tags; with
    ``group_size`` <= associativity they coexist in a set-associative
    cache but displace each other under direct mapping.

    Accesses come in *runs*: the stream stays on one member for
    ``run_length`` accesses, then switches.  Runs are what real
    conflicting working sets look like (phases over one structure, then
    another), and they matter for two of the paper's observables:

    * the direct-mapped miss-rate gap of Table 4 is ``share/run_length``
      (a DM cache misses only at run boundaries), and
    * the selective-DM mapping counter flips to set-associative reliably,
      because once the victim list has demoted the members to
      set-associative placement, *every hit inside a run* is a hit via a
      set-associative way and increments the counter (section 2.2.2) —
      which is how the paper ends up with ~20% of accesses probing
      set-associatively while Table 4's gaps stay at a few percent.
    """

    handle_noise = 0.30

    def __init__(self, position: int, tags: List[int], run_length: int = 8) -> None:
        if len(tags) < 2:
            raise ValueError("a conflict group needs at least two members")
        if len(set(tags)) != len(tags):
            raise ValueError("conflict group tags must be distinct")
        if run_length < 1:
            raise ValueError("run_length must be >= 1")
        self.addresses = [
            ((tag << CONFLICT_POSITION_BITS) | position) * BLOCK_BYTES for tag in tags
        ]
        self.run_length = run_length
        self._member = 0
        self._left_in_run = run_length

    def next_address(self, rng: DeterministicRng) -> int:
        if self._left_in_run <= 0:
            self._member = (self._member + 1) % len(self.addresses)
            # Redraw around the nominal run length for variety.
            self._left_in_run = max(1, self.run_length + rng.randint(-1, 1))
        self._left_in_run -= 1
        base = self.addresses[self._member]
        # Vary the word within the block so stores touch different words.
        return base + 8 * rng.randint(0, (BLOCK_BYTES // 8) - 1)


class ChaseStream(AddressStream):
    """Pointer chase: uniformly random block within a region."""

    handle_noise = 0.85

    def __init__(self, base: int, region_bytes: int) -> None:
        if region_bytes < BLOCK_BYTES:
            raise ValueError("chase region must hold at least one block")
        self.base = base
        self.region_blocks = region_bytes // BLOCK_BYTES

    def next_address(self, rng: DeterministicRng) -> int:
        block = rng.randint(0, self.region_blocks - 1)
        return self.base + block * BLOCK_BYTES + 8 * rng.randint(0, (BLOCK_BYTES // 8) - 1)


class HotDataLayout:
    """Places the hot (resident) working set without DM self-conflicts.

    The 9-bit *position* space (set + DM-way fields of every modeled L1
    geometry, 512 block slots) is partitioned so that no two hot blocks
    share a position: array walks take contiguous position chunks
    (preserving their spatial locality), conflict groups take dedicated
    positions, and scalars/object-pool blocks scatter over the rest.
    Scattered blocks cycle through 16 different 16K windows of the data
    segment, so their *tags* — and therefore their direct-mapping ways
    and fill ways — vary the way a real working set's do.
    """

    #: Base of the hot data segment.
    HOT_BASE = 0x4000_0000
    #: Number of distinct 16K windows used by scattered hot blocks.
    WINDOWS = 16

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self._next_chunk = 0  # walk chunks grow from position 0 upward
        scatter = list(range(512))
        rng.shuffle(scatter)
        self._scatter = scatter  # consumed from the end
        self._window = 0

    def _claim_scatter(self) -> int:
        while self._scatter:
            position = self._scatter.pop()
            if position >= self._next_chunk:
                return position
        raise RuntimeError("hot position space exhausted; shrink the hot set")

    def take_chunk(self, blocks: int) -> int:
        """Claim ``blocks`` contiguous positions; returns the base address."""
        base_position = self._next_chunk
        if base_position + blocks > 512:
            raise RuntimeError("hot position space exhausted; shrink the walks")
        self._next_chunk = base_position + blocks
        self._window = (self._window + 1) % self.WINDOWS
        return self.HOT_BASE + self._window * 16384 + base_position * BLOCK_BYTES

    def take_block(self) -> int:
        """Claim one scattered position; returns its block address."""
        position = self._claim_scatter()
        self._window = (self._window + 1) % self.WINDOWS
        return self.HOT_BASE + self._window * 16384 + position * BLOCK_BYTES

    def take_position(self) -> int:
        """Claim a raw position (conflict groups build their own tags)."""
        return self._claim_scatter()


class RegionAllocator:
    """Hands out non-overlapping, alignment-respecting data regions.

    Conflict groups choose their own low address bits, so the allocator
    also manages the tag space above ``CONFLICT_POSITION_BITS`` to keep
    conflict blocks from colliding with allocated regions: ordinary
    regions come from low tag space, conflict tags from a high range.
    """

    #: Ordinary (large, streaming) data regions start here — above the
    #: hot segment managed by :class:`HotDataLayout`.
    DATA_BASE = 0x5000_0000
    #: Conflict-group tags start at this tag value (addresses ~3 GiB),
    #: far above any allocated region.
    CONFLICT_TAG_BASE = 0x1_8000

    def __init__(self) -> None:
        self._next = self.DATA_BASE
        self._next_conflict_tag = self.CONFLICT_TAG_BASE
        self._color = 0

    def region(self, size_bytes: int, align: int = 4096, color: bool = True) -> int:
        """Allocate ``size_bytes`` and return the base address.

        With ``color=True``, consecutive regions receive a skewed start
        offset ("cache coloring").  Without it, large equal-sized arrays
        walked in lockstep would keep their current blocks in the *same*
        cache set at every instant (bases differing only in high bits),
        collapsing every stream into one set — a pathology real
        allocators avoid and real address spaces rarely exhibit.

        ``color=False`` packs regions contiguously; used for the hot
        scalar/small-array arena, which in real programs is a compact
        data/stack segment whose blocks never alias each other in a
        direct-mapped cache.
        """
        base = (self._next + align - 1) // align * align
        if color:
            base += self._color * BLOCK_BYTES
            # Walk the colors through block-sized slots with stride 41
            # (coprime with every power of two, so colors cover all sets).
            self._color = (self._color + 41) % 512
        self._next = base + size_bytes
        return base

    def conflict_tags(self, count: int, spacing: int = 3) -> List[int]:
        """Return ``count`` distinct tags for one conflict group.

        Spacing keeps groups from sharing tags, and a deliberate stride
        pattern avoids accidental regularity with walk regions.
        """
        tags = [self._next_conflict_tag + i * spacing for i in range(count)]
        self._next_conflict_tag += count * spacing + 1
        return tags
