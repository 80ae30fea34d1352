"""Persistent encoded-trace artifacts: one binary file per workload.

Every fast/vector-tier run starts from :class:`~repro.workload.encode.
EncodedTrace`'s flat arrays, and until now those memos lived per
process: a sweep fanned out over N pool workers and a service
restarting between submissions each redid the identical parse+encode
work.  This module serializes the flat buffers
ONCE into an on-disk artifact that later processes ``mmap`` read-only —
the software analogue of way memoization (Ishihara & Fallah): cache the
previously computed lookup work and skip the redundant effort.

Layout (all integers little-endian)::

    bytes 0..3    magic  b"RPET"
    bytes 4..7    artifact format version (uint32)
    bytes 8..11   header length H (uint32)
    bytes 12..12+H  header JSON (encoder version, trace name,
                    instruction count, section table)
    ...           section payloads, each 8-byte aligned raw
                  little-endian buffers

The section table maps section name -> ``{"dtype", "count", "offset"}``
with absolute byte offsets.  Sections present depend on what the source
encoding had built: the memory-op stream (``addrs``/``is_load``),
per-block-size decodes (``blocks:<offset_bits>``), and the nine lazy
per-instruction arrays when the fast pipeline built them.

Robustness contract: :func:`load_artifact` returns ``None`` — never
raises — for anything that is not a well-formed artifact of the current
format *and* encoder version: wrong magic, version skew, truncation
(every section is bounds-checked against the file size), malformed
header, incoherent section groups.  Callers silently fall back to
re-encoding, so caching stays best-effort.  Writes publish atomically
(temp sibling + ``os.replace``, the repository convention), so
concurrent writers racing on one key are harmless and a reader can
never observe a torn artifact.

Keying and placement policy (which workload maps to which file, when to
attach and publish) live with the run caches in
:mod:`repro.sim.runner`; this module is only the binary format.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
from array import array
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.workload.encode import ENCODER_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "MAGIC",
    "TraceArtifact",
    "load_artifact",
    "write_artifact",
]

#: File magic: "Repro Persistent Encoded Trace".
MAGIC = b"RPET"

#: On-disk format version; bump on any layout change so older files are
#: ignored (re-encoded), never mis-parsed.
ARTIFACT_VERSION = 1

#: dtype code -> element size in bytes.  The codes double as
#: ``array.array`` typecodes ("Q" uint64, "q" int64, "b" int8).
DTYPE_SIZES = {"Q": 8, "q": 8, "b": 1}

#: The nine per-instruction sections (name, dtype), in restore order.
#: Registers are int64 ("q"): ingested traces may carry arbitrary
#: register numbers (and -1 for "none"); addresses/PCs/targets/handles
#: are uint64 ("Q") because ingested kernel-space values exceed 2**63.
INSTR_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("ops", "b"),
    ("pcs", "Q"),
    ("dsts", "q"),
    ("src1s", "q"),
    ("src2s", "q"),
    ("daddrs", "Q"),
    ("takens", "b"),
    ("targets", "Q"),
    ("xors", "Q"),
)

_HEAD = struct.Struct("<4sII")
_ALIGN = 8
_BIG_ENDIAN = struct.pack("=I", 1) != struct.pack("<I", 1)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class TraceArtifact:
    """A loaded artifact: the mapped buffer plus its section table.

    The object owns the ``mmap``; numpy views built over its sections
    keep it alive through their ``base`` chain, so the mapping lives
    exactly as long as anything still references the data.
    """

    __slots__ = ("path", "name", "instructions", "_buffer", "_sections")

    def __init__(
        self,
        path: Path,
        name: str,
        instructions: int,
        buffer: Union[mmap.mmap, bytes],
        sections: Dict[str, Tuple[str, int, int]],
    ) -> None:
        self.path = path
        self.name = name
        self.instructions = instructions
        self._buffer = buffer
        # name -> (dtype, count, offset)
        self._sections = sections

    def has(self, name: str) -> bool:
        """Whether section ``name`` is present."""
        return name in self._sections

    def section_names(self) -> Tuple[str, ...]:
        """Every stored section name."""
        return tuple(self._sections)

    def dtype(self, name: str) -> str:
        """The dtype code of section ``name``."""
        return self._sections[name][0]

    def count(self, name: str) -> int:
        """Element count of section ``name``."""
        return self._sections[name][1]

    def section(self, name: str) -> memoryview:
        """Section ``name``'s raw bytes as a read-only zero-copy view."""
        dtype, count, offset = self._sections[name]
        nbytes = count * DTYPE_SIZES[dtype]
        return memoryview(self._buffer)[offset:offset + nbytes]

    def block_sizes(self) -> Tuple[int, ...]:
        """``offset_bits`` of every stored per-block-size decode."""
        return tuple(
            int(name.split(":", 1)[1])
            for name in self._sections
            if name.startswith("blocks:")
        )


def _validate_sections(sections: Dict[str, Tuple[str, int, int]]) -> bool:
    """Reject incoherent section groups (a malformed file could
    otherwise present a mem stream without its load flags)."""
    # The mem stream is mandatory — every export includes it, and the
    # fallback restore paths assume it.
    if "addrs" not in sections or "is_load" not in sections:
        return False
    if sections["addrs"][1] != sections["is_load"][1]:
        return False
    instr_present = [name for name, _dtype in INSTR_SECTIONS if name in sections]
    if instr_present and len(instr_present) != len(INSTR_SECTIONS):
        return False
    if instr_present:
        counts = {sections[name][1] for name, _dtype in INSTR_SECTIONS}
        if len(counts) != 1:
            return False
    return True


def load_artifact(path: Union[str, Path]) -> Optional[TraceArtifact]:
    """Map an artifact read-only; ``None`` for anything malformed.

    Never raises for a bad file: wrong magic, format/encoder version
    skew, truncated payloads, malformed headers, and unreadable paths
    all return ``None`` so callers re-encode from source.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size < _HEAD.size:
                return None
            buffer: Union[mmap.mmap, bytes]
            try:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                # Filesystems without mmap support still get the skip-
                # the-encode benefit through a plain read.
                handle.seek(0)
                buffer = handle.read()
        magic, version, header_len = _HEAD.unpack_from(buffer, 0)
        if magic != MAGIC or version != ARTIFACT_VERSION:
            return None
        if _HEAD.size + header_len > size:
            return None
        header = json.loads(bytes(buffer[_HEAD.size:_HEAD.size + header_len]))
        if header.get("encoder") != ENCODER_VERSION:
            return None
        name = header["name"]
        instructions = header["instructions"]
        if not isinstance(name, str) or not isinstance(instructions, int):
            return None
        sections: Dict[str, Tuple[str, int, int]] = {}
        for section_name, entry in header["sections"].items():
            dtype = entry["dtype"]
            count = entry["count"]
            offset = entry["offset"]
            if dtype not in DTYPE_SIZES:
                return None
            if not isinstance(count, int) or not isinstance(offset, int):
                return None
            if count < 0 or offset < 0:
                return None
            if offset + count * DTYPE_SIZES[dtype] > size:
                return None  # truncated payload
            sections[section_name] = (dtype, count, offset)
        if not _validate_sections(sections):
            return None
        return TraceArtifact(path, name, instructions, buffer, sections)
    except (OSError, ValueError, KeyError, TypeError, struct.error):
        return None


def write_artifact(
    path: Union[str, Path],
    name: str,
    instructions: int,
    sections: Dict[str, Tuple[str, bytes]],
) -> bool:
    """Atomically publish an artifact; ``True`` on success.

    Args:
        path: destination file.
        name: source trace name (restored as ``EncodedTrace.name``).
        instructions: dynamic instruction count of the source trace.
        sections: section name -> ``(dtype, payload bytes)``; payload
            length must be a multiple of the dtype's element size.

    Best-effort like every cache write: any OS failure cleans up the
    temp sibling and returns ``False``.  Concurrent writers racing on
    one path are harmless — both produce byte-identical content for a
    key, and ``os.replace`` is atomic.
    """
    path = Path(path)
    for dtype, payload in sections.values():
        if dtype not in DTYPE_SIZES or len(payload) % DTYPE_SIZES[dtype]:
            return False
    # Two-pass layout: the header length depends on the offsets, which
    # depend on the header length — fix the header by sizing it with
    # placeholder offsets first, then pad it to its final length.
    draft = {
        section_name: {"dtype": dtype, "count": len(payload) // DTYPE_SIZES[dtype],
                       "offset": 0}
        for section_name, (dtype, payload) in sections.items()
    }

    def header_bytes(entries: Dict[str, Dict[str, int]]) -> bytes:
        return json.dumps(
            {"encoder": ENCODER_VERSION, "name": name,
             "instructions": instructions, "sections": entries},
            sort_keys=True,
        ).encode("utf-8")
    # Offsets only grow the header by bounded digits; one relayout pass
    # with offsets measured against the padded draft converges because
    # the draft is padded up to alignment.
    header_len = _aligned(len(header_bytes(draft)) + 64)
    offset = _aligned(_HEAD.size + header_len)
    for section_name, entry in draft.items():
        entry["offset"] = offset
        offset = _aligned(offset + entry["count"] * DTYPE_SIZES[entry["dtype"]])
    table = draft
    header = header_bytes(table)
    if len(header) > header_len:  # pragma: no cover - 64-byte slack holds
        return False
    header = header.ljust(header_len, b" ")
    tmp = path.with_name(
        f".tmp{os.getpid()}.{threading.get_native_id()}.{path.name}"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(_HEAD.pack(MAGIC, ARTIFACT_VERSION, header_len))
            handle.write(header)
            position = _HEAD.size + header_len
            for section_name, entry in table.items():
                target = entry["offset"]
                if target > position:
                    handle.write(b"\x00" * (target - position))
                    position = target
                payload = sections[section_name][1]
                handle.write(payload)
                position += len(payload)
        os.replace(tmp, path)
        return True
    except OSError:
        try:
            Path(tmp).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass
        return False


def list_to_bytes(values, dtype: str) -> bytes:
    """Encode a flat int/bool sequence as little-endian raw bytes.

    Raises:
        OverflowError/ValueError/TypeError: a value out of range for
            ``dtype`` (e.g. a plugin reader yielding negative XOR
            handles) — callers treat the workload as un-cacheable.
    """
    encoded = array(dtype, values)
    if encoded.itemsize != DTYPE_SIZES[dtype]:  # pragma: no cover - LP64 only
        raise ValueError(f"platform itemsize mismatch for dtype {dtype!r}")
    if _BIG_ENDIAN:  # pragma: no cover - no big-endian CI leg
        encoded.byteswap()
    return encoded.tobytes()


def bytes_to_array(payload, dtype: str) -> array:
    """Decode raw little-endian bytes back into an ``array.array``.

    This is the lossless pure-python fallback path
    (``array.array.frombytes``); the numpy path views the same bytes
    zero-copy via ``np.frombuffer`` instead.
    """
    decoded = array(dtype)
    decoded.frombytes(payload)
    if _BIG_ENDIAN:  # pragma: no cover - no big-endian CI leg
        decoded.byteswap()
    return decoded
