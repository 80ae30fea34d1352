"""Flat-array trace encoding for the batched fast backend.

The reference engines walk a trace as a list of :class:`Instr` objects
and pay Python attribute dispatch on every access.  The fast backend
instead pre-encodes a trace ONCE into parallel flat arrays and decodes
block addresses per block size exactly once (via
:meth:`~repro.utils.bitops.AddressFields.decode_blocks`).  After
encoding, the hot loops touch only plain ints in plain lists.  Two
granularities exist, built on demand:

* the memory-op stream (``addrs``/``is_load``) consumed by the batched
  miss-rate kernel (:mod:`repro.fastsim.missrate`);
* the full instruction stream (op kinds, PCs, source/destination
  registers, branch directions and targets, data addresses, XOR
  handles — see :meth:`EncodedTrace.ensure_instr_arrays`) consumed by
  the fast out-of-order core (:mod:`repro.fastsim.core`) and fetch
  unit (:mod:`repro.fastsim.fetch`), plus per-block-size i-block
  indices (:meth:`EncodedTrace.iblocks`) so fetch never re-derives
  ``pc >> offset_bits`` per access.

Encodings are memoized on the trace object itself (traces are immutable
once built, and the runner already memoizes traces per benchmark), and
block decodes are memoized per block size inside the encoding, so a
sweep that runs many configurations over one trace encodes once and
decodes once per distinct block size.

Generated traces start out as these columns
(:class:`~repro.workload.trace.ColumnTrace`): the instruction arrays
adopt them in O(1) and the memory-op stream derives from them, so only
the reference tier ever builds their ``Instr`` objects.  Other traces
are read by *chunked iteration*
(:meth:`~repro.workload.trace.Trace.iter_chunks`), never through
``trace.instructions``: an ingested
:class:`~repro.workload.trace.StreamingTrace` encodes with at most one
chunk of ``Instr`` objects alive, and is iterated *at most once* — the
first granularity built owns the pass, and the memory-op stream derives
from the instruction arrays when those exist.

When numpy is importable, the memory-op stream is additionally exposed
as numpy arrays (:meth:`EncodedTrace.addrs_np`,
:meth:`EncodedTrace.is_load_np`, and the per-geometry
:meth:`EncodedTrace.blocks_np` / :meth:`EncodedTrace.set_indices_np` /
:meth:`EncodedTrace.tags_np` decodes) for the vector kernel tier
(:mod:`repro.fastsim.vector`).  The base views are zero-copy
``frombuffer`` wrappers over the chunk-built ``array`` storage — the
streaming memory bound survives untouched — and every view is marked
read-only so the memos cannot be corrupted through an aliased array.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from typing import Dict, List, Optional, Tuple

from repro.utils.bitops import AddressFields, bit_mask
from repro.workload.instr import OP_LOAD, OP_STORE
from repro.workload.trace import COLUMN_NAMES, Trace

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: Attribute used to memoize the encoding on the trace object.
_CACHE_ATTR = "_fastsim_encoded"

#: Version of the encoding itself — what the flat arrays *mean*.  Baked
#: into every persisted artifact (:mod:`repro.workload.artifact`): bump
#: it whenever array semantics change (new op kinds, different decode
#: rules) so stale artifacts are silently re-encoded, never mis-read.
ENCODER_VERSION = 1

#: Artifact payloads are little-endian on disk; on a little-endian host
#: (every CI leg) they alias memory directly, so numpy views over a
#: mapped artifact are zero-copy.  Big-endian hosts take the lossless
#: byteswapping ``array.array`` path instead.
_LITTLE_ENDIAN = sys.byteorder == "little"


class EncodedTrace:
    """A trace's access streams as parallel flat arrays.

    Attributes:
        name: the source trace's name.
        instructions: dynamic instruction count of the source trace
            (property; triggers the encoding pass if none ran yet).
        addrs: effective data address per memory op, trace order
            (property; built on first access).
        is_load: 1 for loads, 0 for stores, per memory op (property).
        ops/pcs/dsts/src1s/src2s/daddrs/takens/targets/xors: full
            per-instruction arrays, ``None`` until
            :meth:`ensure_instr_arrays` builds them (the miss-rate path
            never pays for them).  Plain lists, not ``array``: the fast
            core reads elements far more often than it stores them, and
            list indexing returns cached small ints without boxing.
    """

    __slots__ = (
        "name",
        "_instructions",
        "_addrs",
        "_is_load",
        "_source",
        "_block_cache",
        "_np_cache",
        "ops",
        "pcs",
        "dsts",
        "src1s",
        "src2s",
        "daddrs",
        "takens",
        "targets",
        "xors",
        "_iblock_cache",
        "_artifact",
    )

    def __init__(self, trace: Trace) -> None:
        self.name = trace.name
        # Nothing is parsed here: the source is kept until the first
        # build pass runs, so one simulation costs one iteration of the
        # trace however it is consumed (miss-rate or full sim).  The
        # reference is dropped as soon as a pass completes — holding a
        # StreamingTrace is free, and for in-memory traces the memo
        # already lives *on* the trace object.
        self._source: Optional[Trace] = trace
        self._instructions: Optional[int] = None
        self._addrs: Optional[array] = None
        self._is_load: Optional[array] = None
        self._block_cache: Dict[int, List[int]] = {}
        # Numpy views/decodes of the memory-op stream, memoized by
        # (kind, shift/mask) tuples; empty forever when numpy is absent.
        self._np_cache: Dict[tuple, "object"] = {}
        # Instruction-stream arrays: built lazily (ensure_instr_arrays)
        # from the trace the runner keeps memoized anyway.
        self.ops: Optional[List[int]] = None
        self.pcs: Optional[List[int]] = None
        self.dsts: Optional[List[int]] = None
        self.src1s: Optional[List[int]] = None
        self.src2s: Optional[List[int]] = None
        self.daddrs: Optional[List[int]] = None
        self.takens: Optional[List[bool]] = None
        self.targets: Optional[List[int]] = None
        self.xors: Optional[List[int]] = None
        self._iblock_cache: Dict[int, List[int]] = {}
        # A loaded on-disk artifact backing this encoding, or None.
        # Sections restore lazily from it instead of re-reading the
        # source trace; numpy views alias its mapped pages zero-copy.
        self._artifact = None

    @classmethod
    def from_artifact(cls, artifact) -> "EncodedTrace":
        """An encoding backed by a loaded on-disk artifact.

        Nothing is materialized here: every accessor restores (or, for
        the numpy views, *aliases*) the artifact's sections on first
        use, so N workers mapping one artifact share one set of OS
        page-cache pages instead of N private heaps.
        """
        encoded = cls.__new__(cls)
        encoded.name = artifact.name
        encoded._source = None
        encoded._instructions = artifact.instructions
        encoded._addrs = None
        encoded._is_load = None
        encoded._block_cache = {}
        encoded._np_cache = {}
        encoded.ops = None
        encoded.pcs = None
        encoded.dsts = None
        encoded.src1s = None
        encoded.src2s = None
        encoded.daddrs = None
        encoded.takens = None
        encoded.targets = None
        encoded.xors = None
        encoded._iblock_cache = {}
        encoded._artifact = artifact
        return encoded

    # -------------------------------------------------------------- #
    # Memory-op stream
    # -------------------------------------------------------------- #

    def _ensure_mem_arrays(self) -> None:
        """Build ``addrs``/``is_load`` once, without re-reading the
        source when the instruction arrays already hold everything."""
        if self._addrs is not None:
            return
        if self._artifact is not None and self._artifact.has("addrs"):
            # Lossless pure-python restore (`array.array.frombytes`) —
            # the one copy the python kernels pay; the numpy accessors
            # below never come through here for an artifact-backed
            # encoding, they alias the mapped buffer directly.
            from repro.workload import artifact as _afmt

            self._addrs = _afmt.bytes_to_array(self._artifact.section("addrs"), "Q")
            self._is_load = _afmt.bytes_to_array(
                self._artifact.section("is_load"), "b"
            )
            return
        # Unsigned 64-bit arrays: compact, C-backed storage with
        # plain-int element access covering the full address space
        # (ingested kernel-space addresses exceed 2**63; readers
        # range-check against 2**64 at parse time).
        ops, daddrs = self.ops, self.daddrs
        if ops is None and self._source.columns is not None:
            columns = self._source.columns
            ops, daddrs = columns["ops"], columns["daddrs"]
            self._instructions = len(ops)
            self._source = None
        if ops is not None:
            memory = [op == OP_LOAD or op == OP_STORE for op in ops]
            addrs = array("Q", compress(daddrs, memory))
            is_load = array("b", [op == OP_LOAD for op in compress(ops, memory)])
        else:
            addrs, is_load, instructions = array("Q"), array("b"), 0
            for chunk in self._source.iter_chunks():
                instructions += len(chunk)
                for i in chunk:
                    if i.op == OP_LOAD or i.op == OP_STORE:
                        addrs.append(i.addr)
                        is_load.append(i.op == OP_LOAD)
            self._instructions = instructions
            self._source = None
        self._addrs = addrs
        self._is_load = is_load

    @property
    def addrs(self) -> array:
        """Effective data address per memory op (built on first use)."""
        self._ensure_mem_arrays()
        return self._addrs

    @property
    def is_load(self) -> array:
        """1 for loads, 0 for stores, per memory op (built on first use)."""
        self._ensure_mem_arrays()
        return self._is_load

    @property
    def instructions(self) -> int:
        """Dynamic instruction count of the source trace."""
        if self._instructions is None:
            self._ensure_mem_arrays()
        return self._instructions

    def __len__(self) -> int:
        """Number of memory operations (not instructions)."""
        if self._addrs is None and self._artifact is not None:
            if self._artifact.has("addrs"):
                return self._artifact.count("addrs")
        return len(self.addrs)

    def blocks(self, fields: AddressFields) -> List[int]:
        """Block-address decode of the address stream, memoized.

        Set indices are not materialized — the kernels derive them as
        ``block & (num_sets - 1)``, which is cheaper than a second
        array lookup — and the decode is shared by every geometry with
        the same block size.
        """
        blocks = self._block_cache.get(fields.offset_bits)
        if blocks is None:
            section = f"blocks:{fields.offset_bits}"
            if self._artifact is not None and self._artifact.has(section):
                from repro.workload import artifact as _afmt

                blocks = _afmt.bytes_to_array(
                    self._artifact.section(section), "Q"
                ).tolist()
            else:
                blocks = fields.decode_blocks(self.addrs)
            self._block_cache[fields.offset_bits] = blocks
        return blocks

    # -------------------------------------------------------------- #
    # Numpy views of the memory-op stream (the vector kernel tier)
    # -------------------------------------------------------------- #

    @staticmethod
    def _require_numpy() -> None:
        if _np is None:
            raise RuntimeError(
                "numpy is not importable; the vector tier is unavailable "
                "(install the [vector] extra or use the python tiers)"
            )

    def _mem_buffer(self, name: str):
        """The raw buffer behind ``addrs``/``is_load`` for numpy views.

        Artifact-backed encodings hand out the mapped section directly
        (zero-copy: the view aliases the artifact's OS page-cache
        pages); otherwise the chunk-built ``array`` storage is the
        buffer, exactly as before.
        """
        if (
            self._addrs is None
            and self._artifact is not None
            and self._artifact.has(name)
            and _LITTLE_ENDIAN
        ):
            return self._artifact.section(name)
        self._ensure_mem_arrays()
        return self._addrs if name == "addrs" else self._is_load

    def addrs_np(self):
        """Zero-copy read-only ``uint64`` view of :attr:`addrs`.

        Shares the chunk-built ``array`` buffer — no per-element copy,
        and the streaming-encode memory bound is untouched.

        Raises:
            RuntimeError: numpy is not importable.
        """
        self._require_numpy()
        view = self._np_cache.get(("addrs",))
        if view is None:
            view = _np.frombuffer(self._mem_buffer("addrs"), dtype=_np.uint64)
            view.flags.writeable = False
            self._np_cache[("addrs",)] = view
        return view

    def is_load_np(self):
        """Zero-copy read-only boolean view of :attr:`is_load`.

        Raises:
            RuntimeError: numpy is not importable.
        """
        self._require_numpy()
        view = self._np_cache.get(("is_load",))
        if view is None:
            view = _np.frombuffer(
                self._mem_buffer("is_load"), dtype=_np.int8
            ).view(_np.bool_)
            view.flags.writeable = False
            self._np_cache[("is_load",)] = view
        return view

    def blocks_np(self, fields: AddressFields):
        """Block-address stream as a read-only ``uint64`` array.

        The numpy analogue of :meth:`blocks`, memoized per block size
        exactly the same way (shared by every geometry with the same
        ``offset_bits``).

        Raises:
            RuntimeError: numpy is not importable.
        """
        self._require_numpy()
        key = ("blocks", fields.offset_bits)
        blocks = self._np_cache.get(key)
        if blocks is None:
            section = f"blocks:{fields.offset_bits}"
            if (
                self._artifact is not None
                and self._artifact.has(section)
                and _LITTLE_ENDIAN
            ):
                blocks = _np.frombuffer(
                    self._artifact.section(section), dtype=_np.uint64
                )
            else:
                blocks = self.addrs_np() >> _np.uint64(fields.offset_bits)
                blocks.flags.writeable = False
            self._np_cache[key] = blocks
        return blocks

    def set_indices_np(self, fields: AddressFields):
        """Set-index stream as a read-only ``uint64`` array.

        Memoized per (block size, set count); the kernels themselves
        derive indices inline as ``block & (num_sets - 1)``, so this
        decode only materializes when asked for.

        Raises:
            RuntimeError: numpy is not importable.
        """
        self._require_numpy()
        key = ("sets", fields.offset_bits, fields.index_bits)
        indices = self._np_cache.get(key)
        if indices is None:
            indices = self.blocks_np(fields) & _np.uint64(bit_mask(fields.index_bits))
            indices.flags.writeable = False
            self._np_cache[key] = indices
        return indices

    def tags_np(self, fields: AddressFields):
        """Tag stream as a read-only ``uint64`` array, memoized per
        total (offset + index) shift.

        Raises:
            RuntimeError: numpy is not importable.
        """
        self._require_numpy()
        shift = fields.offset_bits + fields.index_bits
        key = ("tags", shift)
        tags = self._np_cache.get(key)
        if tags is None:
            tags = self.addrs_np() >> _np.uint64(shift)
            tags.flags.writeable = False
            self._np_cache[key] = tags
        return tags

    # -------------------------------------------------------------- #
    # Instruction stream
    # -------------------------------------------------------------- #

    def ensure_instr_arrays(self, trace: Trace) -> None:
        """Build the full per-instruction arrays once (idempotent).

        A generated trace hands over its :attr:`~Trace.columns` as they
        are, in O(1).  Any other trace is read again through chunked
        iteration (never ``trace.instructions``), which keeps streaming
        traces from materializing: the nine flat int lists are the only
        O(n) state, live ``Instr`` objects stay bounded by the chunk
        size.  After this the memory-op stream derives from these
        arrays, so the source is never read again.
        """
        if self.ops is not None:
            return
        if self._artifact is not None and self._artifact.has("ops"):
            self._adopt(self._restore_instr_arrays())
            return
        columns = trace.columns
        if columns is None:
            columns = {name: [] for name in COLUMN_NAMES}
            ops, pcs, dsts, src1s, src2s, daddrs, takens, targets, xors = columns.values()
            for chunk in trace.iter_chunks():
                for i in chunk:
                    ops.append(i.op)
                    pcs.append(i.pc)
                    dsts.append(i.dst)
                    src1s.append(i.src1)
                    src2s.append(i.src2)
                    daddrs.append(i.addr)
                    takens.append(i.taken)
                    targets.append(i.target)
                    xors.append(i.xor_handle)
        self._adopt(columns)
        self._source = None

    def _adopt(self, columns: Dict[str, list]) -> None:
        """Take the nine per-instruction lists as this encoding's arrays."""
        for name in COLUMN_NAMES:
            setattr(self, name, columns[name])
        self._instructions = len(self.ops)

    def _restore_instr_arrays(self) -> Dict[str, list]:
        """The nine per-instruction lists, restored from the backing
        artifact — no trace re-read, no parse."""
        from repro.workload import artifact as _afmt

        art = self._artifact
        restored = {
            name: _afmt.bytes_to_array(art.section(name), dtype).tolist()
            for name, dtype in _afmt.INSTR_SECTIONS
        }
        # The live encoding stores genuine bools (the fast core branches
        # on them); the artifact stores int8, so convert back.
        restored["takens"] = [value != 0 for value in restored["takens"]]
        return restored

    def export_sections(self) -> Dict[str, Tuple[str, bytes]]:
        """Everything persistable as section name -> (dtype, payload).

        The memory-op stream is always included (building it from
        already-built instruction arrays is cheap, and it is the one
        stream every tier consumes); block decodes and instruction
        arrays are included only when this encoding built them —
        sections resident in a backing artifact pass through as raw
        mapped bytes without materializing.

        Raises:
            OverflowError/ValueError/TypeError: a source value out of
                range for its on-disk dtype (e.g. a plugin reader
                yielding out-of-range register ids) — callers treat the
                workload as un-cacheable and skip persisting.
        """
        from repro.workload import artifact as _afmt

        sections: Dict[str, Tuple[str, bytes]] = {}
        art = self._artifact
        if self._addrs is None and art is not None and art.has("addrs"):
            sections["addrs"] = ("Q", art.section("addrs"))
            sections["is_load"] = ("b", art.section("is_load"))
        else:
            self._ensure_mem_arrays()
            sections["addrs"] = ("Q", _afmt.list_to_bytes(self._addrs, "Q"))
            sections["is_load"] = ("b", _afmt.list_to_bytes(self._is_load, "b"))
        for offset_bits, block_list in self._block_cache.items():
            sections[f"blocks:{offset_bits}"] = (
                "Q", _afmt.list_to_bytes(block_list, "Q"),
            )
        for key, view in self._np_cache.items():
            if key[0] != "blocks":
                continue
            name = f"blocks:{key[1]}"
            if name in sections:
                continue
            if _LITTLE_ENDIAN:
                sections[name] = ("Q", view.tobytes())
            else:  # pragma: no cover - no big-endian CI leg
                sections[name] = ("Q", _afmt.list_to_bytes(view.tolist(), "Q"))
        if art is not None:
            for name in art.section_names():
                if name.startswith("blocks:") and name not in sections:
                    sections[name] = ("Q", art.section(name))
        if self.ops is not None:
            for name, dtype in _afmt.INSTR_SECTIONS:
                sections[name] = (
                    dtype, _afmt.list_to_bytes(getattr(self, name), dtype),
                )
        elif art is not None and art.has("ops"):
            for name, dtype in _afmt.INSTR_SECTIONS:
                sections[name] = (dtype, art.section(name))
        return sections

    def iblocks(self, offset_bits: int) -> List[int]:
        """Per-instruction i-cache block indices, memoized per shift.

        Requires :meth:`ensure_instr_arrays` to have run; shared by
        every i-cache geometry with the same block size, exactly like
        the data-side :meth:`blocks` memo.
        """
        blocks = self._iblock_cache.get(offset_bits)
        if blocks is None:
            if self.pcs is None:
                raise RuntimeError("ensure_instr_arrays() must run before iblocks()")
            blocks = [pc >> offset_bits for pc in self.pcs]
            self._iblock_cache[offset_bits] = blocks
        return blocks


def encode_trace(trace: Trace) -> EncodedTrace:
    """Return the (memoized) flat-array encoding of ``trace``."""
    encoded = getattr(trace, _CACHE_ATTR, None)
    if encoded is None:
        encoded = EncodedTrace(trace)
        setattr(trace, _CACHE_ATTR, encoded)
    return encoded
