"""Flat-array trace encoding for the fast tier.

The reference engines walk a trace as a list of :class:`Instr` objects
and pay Python attribute dispatch on every access.  The fast tier
instead encodes a trace ONCE into parallel flat arrays, so their
hot loops touch only plain ints in plain lists.  An encoding holds the
trace's own streams, each built on demand:

* the memory-op stream (``addrs``/``is_load``) consumed by the
  miss-rate driver (:mod:`repro.fastsim.missrate`);
* the nine per-instruction columns (op kinds, PCs, source/destination
  registers, branch directions and targets, data addresses, XOR
  handles — see :meth:`EncodedTrace.ensure_instr_arrays`) consumed by
  the fast out-of-order core (:mod:`repro.fastsim.core`) and fetch unit
  (:mod:`repro.fastsim.fetch`).

Everything else is a *derived view*: a pure function of a stream and a
key, namely the per-block-size data-block decode
(:meth:`EncodedTrace.blocks`) and the i-block decode
(:meth:`EncodedTrace.iblocks`).  Each is one shift per element, built
once per key in the encoding's single memo
(:meth:`EncodedTrace.derived`) and never persisted.

Encodings are memoized on the trace object itself (traces are immutable
once built, and the runner already memoizes traces per benchmark), so a
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

:meth:`EncodedTrace.buffer` hands out the raw buffer behind ``addrs``
or ``is_load``: the mapped artifact section when an artifact backs the
encoding, else the ``array`` storage.  The miss-rate driver counts
loads straight off it.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

from repro.utils.bitops import AddressFields
from repro.workload.instr import OP_LOAD, OP_STORE
from repro.workload.trace import COLUMN_NAMES, Trace

#: Attribute used to memoize the encoding on the trace object.
_CACHE_ATTR = "_fastsim_encoded"

#: Version of the encoding itself — what the flat arrays *mean*.  Baked
#: into every persisted artifact (:mod:`repro.workload.artifact`): bump
#: it whenever array semantics change (new op kinds, different decode
#: rules) so stale artifacts are silently re-encoded, never mis-read.
ENCODER_VERSION = 1

#: Artifact payloads are little-endian on disk; on a little-endian host
#: (every CI leg) :meth:`EncodedTrace.buffer` hands out the mapped
#: section itself.  Big-endian hosts take the lossless byteswapping
#: ``array.array`` path instead.
_LITTLE_ENDIAN = sys.byteorder == "little"

T = TypeVar("T")


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
        "name", "_source", "_artifact", "_instructions", "_addrs", "_is_load",
        "_derived",
    ) + COLUMN_NAMES

    def __init__(self, trace: Optional[Trace], artifact=None) -> None:
        # Nothing is parsed here: the source is kept until the first
        # build pass runs, so one simulation costs one iteration of the
        # trace however it is consumed (miss-rate or full sim).  The
        # reference is dropped as soon as a pass completes — holding a
        # StreamingTrace is free, and for in-memory traces the memo
        # already lives *on* the trace object.
        self._source = trace
        # A loaded on-disk artifact backing this encoding, or None.
        # Streams restore lazily from its sections instead of re-reading
        # the source trace.
        self._artifact = artifact
        if artifact is None:
            self.name = trace.name
            self._instructions: Optional[int] = None
        else:
            self.name = artifact.name
            self._instructions = artifact.instructions
        self._addrs: Optional[array] = None
        self._is_load: Optional[array] = None
        for name in COLUMN_NAMES:
            setattr(self, name, None)
        self._derived: Dict[Hashable, object] = {}

    @classmethod
    def from_artifact(cls, artifact) -> "EncodedTrace":
        """An encoding backed by a loaded on-disk artifact.

        Nothing is materialized here: every stream restores from the
        artifact's sections on first use (or, through :meth:`buffer`,
        is handed out as the mapped section itself), so N workers
        mapping one artifact share one set of OS page-cache pages
        instead of N private heaps.
        """
        return cls(None, artifact)

    # -------------------------------------------------------------- #
    # Memory-op stream
    # -------------------------------------------------------------- #

    def _ensure_mem_arrays(self) -> None:
        """Build ``addrs``/``is_load`` once, without re-reading the
        source when the instruction arrays already hold everything."""
        if self._addrs is not None:
            return
        if self._artifact is not None:
            # Lossless pure-python restore (`array.array.frombytes`) —
            # the one copy the python kernels pay.
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
            return self._artifact.count("addrs")
        return len(self.addrs)

    def buffer(self, name: str):
        """The raw native-order buffer behind ``addrs`` or ``is_load``.

        An artifact-backed encoding hands out the mapped section itself
        until a python restore has run, so a view of it aliases the
        artifact's OS page-cache pages; otherwise the ``array`` storage
        is the buffer.
        """
        if self._addrs is None and self._artifact is not None and _LITTLE_ENDIAN:
            return self._artifact.section(name)
        self._ensure_mem_arrays()
        return self._addrs if name == "addrs" else self._is_load

    # -------------------------------------------------------------- #
    # Derived views
    # -------------------------------------------------------------- #

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The view memoized under ``key``, built by ``build()`` on
        first request.

        The one memo of views computed from the streams (keys name the
        view and its parameters, e.g. ``("blocks", offset_bits)``).
        Views live as long as the encoding and are never persisted.
        """
        view = self._derived.get(key)
        if view is None:
            view = self._derived[key] = build()
        return view

    def blocks(self, fields: AddressFields) -> List[int]:
        """Block-address decode of the address stream, memoized.

        Set indices are not materialized — the kernels derive them as
        ``block & (num_sets - 1)``, which is cheaper than a second
        array lookup — and the decode is shared by every geometry with
        the same block size.
        """
        return self.derived(("blocks", fields.offset_bits),
                            lambda: fields.decode_blocks(self.addrs))

    def iblocks(self, offset_bits: int) -> List[int]:
        """Per-instruction i-cache block indices, memoized per shift.

        Requires :meth:`ensure_instr_arrays` to have run; shared by
        every i-cache geometry with the same block size, exactly like
        the data-side :meth:`blocks` memo.
        """
        if self.pcs is None:
            raise RuntimeError("ensure_instr_arrays() must run before iblocks()")
        return self.derived(("iblocks", offset_bits),
                            lambda: [pc >> offset_bits for pc in self.pcs])

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
        """The trace's streams as section name -> (dtype, payload).

        The memory-op stream is always included (building it from
        already-built instruction arrays is cheap, and it is the one
        stream every tier consumes); the instruction arrays only when
        this encoding built them or its artifact holds them.  Sections
        resident in a backing artifact pass through as raw mapped bytes
        without materializing.  Derived views are never exported, so
        the ``blocks:<offset_bits>`` sections that older artifacts
        carry are dropped here.

        Raises:
            OverflowError/ValueError/TypeError: a source value out of
                range for its on-disk dtype (e.g. a plugin reader
                yielding out-of-range register ids) — callers treat the
                workload as un-cacheable and skip persisting.
        """
        from repro.workload import artifact as _afmt

        sections: Dict[str, Tuple[str, bytes]] = {}
        art = self._artifact
        if self._addrs is None and art is not None:
            sections["addrs"] = ("Q", art.section("addrs"))
            sections["is_load"] = ("b", art.section("is_load"))
        else:
            self._ensure_mem_arrays()
            sections["addrs"] = ("Q", _afmt.list_to_bytes(self._addrs, "Q"))
            sections["is_load"] = ("b", _afmt.list_to_bytes(self._is_load, "b"))
        if self.ops is not None:
            for name, dtype in _afmt.INSTR_SECTIONS:
                sections[name] = (
                    dtype, _afmt.list_to_bytes(getattr(self, name), dtype),
                )
        elif art is not None and art.has("ops"):
            for name, dtype in _afmt.INSTR_SECTIONS:
                sections[name] = (dtype, art.section(name))
        return sections


def encode_trace(trace: Trace) -> EncodedTrace:
    """Return the (memoized) flat-array encoding of ``trace``."""
    encoded = getattr(trace, _CACHE_ATTR, None)
    if encoded is None:
        encoded = EncodedTrace(trace)
        setattr(trace, _CACHE_ATTR, encoded)
    return encoded
