"""The trace-format registry: ingestion of externally captured traces.

The paper evaluates on SPEC traces; this repro's synthetic generators
match their *statistics*, but way-prediction accuracy claims are only
credible if third-party address streams replay through the same
pipeline.  This module is the extension seam for that — the exact
mirror of the policy registry (:mod:`repro.core.registry`), keyed by
format name instead of policy kind.  A format registers itself once::

    from repro.workload.formats import register_trace_format

    @register_trace_format(
        "myfmt", label="My tracer", extensions=(".mt",), version=1,
    )
    def read_myfmt(path):
        with open(path) as handle:
            for line in handle:
                yield Instr(...)

and the whole stack picks it up: ``trace://file.mt#myfmt`` workload
refs become valid in :class:`~repro.sweep.spec.RunSpec` grids and
``Machine.run``, ``repro-experiment trace`` recognizes the extension,
and the runner's disk cache fingerprints the file content together
with the declared format ``version`` so editing a trace (or bumping a
reader) never serves stale results.

Three formats ship built in:

* ``din`` — classic Dinero III records: ``<label> <hex-addr>`` per
  line with label 0 = read, 1 = write, 2 = instruction fetch;
* ``champsim`` — a ChampSim-style textual address log:
  ``<pc> <kind> [operands]`` with kinds I/F (plain ops), L/S
  (``<addr>``) and B/C/R (``<taken> <target>``);
* ``csv`` — a header-row CSV (gzip transparently supported, e.g.
  ``.csv.gz``) with an ``op`` column plus any of ``pc``, ``addr``,
  ``taken``, ``target``, ``dst``, ``src1``, ``src2``, ``xor`` — the
  lossless interchange format ``trace convert`` round-trips through.

All readers are generators and all loading goes through
:class:`~repro.workload.trace.StreamingTrace`, so files are parsed in
bounded chunks however long they are.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import zlib
from csv import DictReader, DictWriter
from csv import Error as CsvError
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Union,
)

from repro.workload.instr import (
    OP_BRANCH,
    OP_CALL,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_NAMES,
    OP_RET,
    OP_STORE,
    Instr,
)
from repro.workload.trace import StreamingTrace

#: URI scheme marking a workload name as a trace file reference.
TRACE_SCHEME = "trace://"

#: Synthetic code base address for formats that carry no PCs.
_BASE_PC = 0x0040_0000

#: log2 block size used to derive exact XOR handles for ingested loads
#: (matches the synthetic generator's handle construction).
_HANDLE_SHIFT = 5

#: Registered formats, keyed by name; insertion-ordered.
_FORMATS: Dict[str, "TraceFormatInfo"] = {}

#: Content fingerprints memoized per (path, stat signature).
_FINGERPRINT_CACHE: Dict[Tuple[str, int, int, int], str] = {}


class TraceParseError(ValueError):
    """A trace file could not be read or decoded.

    Subclasses :class:`ValueError` so the CLI and sweep error paths
    treat ingest failures exactly like unknown policy kinds: one line,
    non-zero exit, no traceback.
    """


@dataclass(frozen=True)
class TraceFormatInfo:
    """One registered trace format: identity, detection, and I/O.

    Attributes:
        name: the ``trace://path#name`` / CLI format string.
        label: short display label for listings.
        extensions: filename suffixes that auto-detect this format
            (matched after stripping a trailing ``.gz``).
        reader: ``reader(path) -> Iterator[Instr]`` generator.
        writer: optional ``writer(path, instrs) -> int`` for
            ``trace convert`` (returns instructions written).
        version: reader schema version — part of the content
            fingerprint, so bumping it invalidates cached results.
        description: one-line summary (defaults to the reader's first
            docstring line).
    """

    name: str
    label: str
    extensions: Tuple[str, ...]
    reader: Callable[[Path], Iterator[Instr]] = field(compare=False)
    writer: Optional[Callable[[Path, Iterable[Instr]], int]] = field(
        compare=False, default=None
    )
    version: int = 1
    description: str = ""


def register_trace_format(
    name: str,
    label: Optional[str] = None,
    extensions: Tuple[str, ...] = (),
    writer: Optional[Callable[[Path, Iterable[Instr]], int]] = None,
    version: int = 1,
    description: Optional[str] = None,
) -> Callable[[Callable[[Path], Iterator[Instr]]], Callable[[Path], Iterator[Instr]]]:
    """Decorator registering a trace reader under ``name``.

    Mirrors :func:`repro.core.registry.register_policy`: the decorated
    reader is returned unchanged, duplicate names raise, and lookups by
    unknown name raise a :class:`ValueError` naming every valid format.
    """

    def decorator(reader: Callable[[Path], Iterator[Instr]]):
        if name in _FORMATS:
            raise ValueError(f"trace format {name!r} is already registered")
        doc = (reader.__doc__ or "").strip().splitlines()
        _FORMATS[name] = TraceFormatInfo(
            name=name,
            label=label if label is not None else name,
            extensions=tuple(ext.lower() for ext in extensions),
            reader=reader,
            writer=writer,
            version=version,
            description=description if description is not None else (doc[0] if doc else ""),
        )
        return reader

    return decorator


def unregister_trace_format(name: str) -> None:
    """Remove a registration (plugin teardown and tests)."""
    _FORMATS.pop(name, None)


def trace_format_names() -> Tuple[str, ...]:
    """Registered format names, in registration order."""
    return tuple(_FORMATS)


def iter_trace_formats() -> Tuple[TraceFormatInfo, ...]:
    """All registered formats, in registration order."""
    return tuple(_FORMATS.values())


def get_trace_format(name: str) -> TraceFormatInfo:
    """The :class:`TraceFormatInfo` registered under ``name``.

    Raises:
        ValueError: naming the unknown format and every valid one.
    """
    info = _FORMATS.get(name)
    if info is None:
        raise ValueError(
            f"unknown trace format {name!r}; registered formats: {trace_format_names()}"
        )
    return info


def detect_trace_format(path: Union[str, Path]) -> TraceFormatInfo:
    """Pick the format whose extension matches ``path``.

    A trailing ``.gz`` is stripped first unless a format claims the
    doubled suffix itself (``.csv.gz``).

    Raises:
        ValueError: when no registered extension matches, naming the
            file and every registered format.
    """
    lowered = Path(path).name.lower()
    candidates = [lowered]
    if lowered.endswith(".gz"):
        candidates.append(lowered[: -len(".gz")])
    for info in _FORMATS.values():
        for ext in info.extensions:
            if any(candidate.endswith(ext) for candidate in candidates):
                return info
    raise ValueError(
        f"cannot detect trace format of {str(path)!r}; "
        f"registered formats: {trace_format_names()}"
    )


def _resolve_format(path: Union[str, Path], fmt: Optional[str]) -> TraceFormatInfo:
    return get_trace_format(fmt) if fmt is not None else detect_trace_format(path)


# ------------------------------------------------------------------ #
# Loading
# ------------------------------------------------------------------ #


def trace_name(path: Union[str, Path]) -> str:
    """Display/benchmark name of a trace file: the stem, sans ``.gz``."""
    name = Path(path).name
    if name.lower().endswith(".gz"):
        name = name[: -len(".gz")]
    stem = name.rsplit(".", 1)[0] if "." in name else name
    return stem or name


def _guarded_read(info: TraceFormatInfo, path: Path) -> Iterator[Instr]:
    """Run a reader, folding I/O and decode failures into TraceParseError.

    ``zlib.error`` covers mid-stream gzip corruption (an intact header
    with a mangled deflate body — truncation raises EOFError instead);
    ``csv.Error`` covers structural CSV damage the dialect parser
    rejects (e.g. a mangled line exceeding the field-size limit).
    """
    try:
        yield from info.reader(path)
    except (OSError, EOFError, UnicodeDecodeError, zlib.error, CsvError) as error:
        raise TraceParseError(
            f"cannot read {info.name} trace {str(path)!r}: {error}"
        ) from error


def _limited(instrs: Iterator[Instr], limit: Optional[int]) -> Iterator[Instr]:
    if limit is None:
        yield from instrs
        return
    remaining = limit
    for instr in instrs:
        if remaining <= 0:
            break
        yield instr
        remaining -= 1


def load_trace(
    path: Union[str, Path],
    fmt: Optional[str] = None,
    *,
    limit: Optional[int] = None,
    name: Optional[str] = None,
    length: Optional[int] = None,
) -> StreamingTrace:
    """Open a trace file as a bounded-memory :class:`StreamingTrace`.

    Args:
        path: the trace file.
        fmt: registered format name; auto-detected from the extension
            when omitted.
        limit: replay at most this many instructions (``None`` = all).
        name: override the trace/benchmark name (default: file stem).
        length: the replayed instruction count, when already known
            (e.g. from an encoded-trace artifact's header); spares a
            streaming trace the counting pass ``len()`` would make.

    Raises:
        TraceParseError: missing, unreadable, empty, or corrupt file.
        ValueError: unknown or undetectable format.
    """
    path = Path(path)
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1 or None, got {limit}")
    info = _resolve_format(path, fmt)
    if not path.is_file():
        raise TraceParseError(f"trace file not found: {str(path)!r}")

    def opener() -> Iterator[Instr]:
        return _limited(_guarded_read(info, path), limit)

    # Probe the first instruction now: empty and immediately corrupt
    # files should fail at load time with a clean message, not from the
    # middle of a simulation.
    if next(opener(), None) is None:
        raise TraceParseError(
            f"trace file {str(path)!r} contains no instructions ({info.name} format)"
        )
    trace_label = name if name is not None else trace_name(path)
    return StreamingTrace(trace_label, opener, length=length)


def write_trace(
    path: Union[str, Path], instructions: Iterable[Instr], fmt: Optional[str] = None
) -> int:
    """Write an instruction stream in a registered format.

    The writer targets a temporary sibling file that is atomically
    renamed into place on success, so a failure mid-write (e.g. a parse
    error in a stream being converted) never leaves a corrupt partial
    file — and converting a trace onto its own path is safe, because
    the source keeps streaming while the temporary accumulates.

    Returns the number of instructions written.

    Raises:
        ValueError: unknown/undetectable format, or a format with no
            writer.
    """
    path = Path(path)
    info = _resolve_format(path, fmt)
    if info.writer is None:
        writable = tuple(i.name for i in _FORMATS.values() if i.writer is not None)
        raise ValueError(
            f"trace format {info.name!r} has no writer; writable formats: {writable}"
        )
    # Prefix (not suffix) the temp name: writers pick gzip by the
    # trailing ``.gz``, which must survive on the temporary.
    tmp = path.with_name(f".tmp{os.getpid()}.{path.name}")
    try:
        written = info.writer(tmp, instructions)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return written


# ------------------------------------------------------------------ #
# trace:// workload references
# ------------------------------------------------------------------ #


def is_trace_ref(name: Any) -> bool:
    """True when a workload/benchmark name is a ``trace://`` reference."""
    return isinstance(name, str) and name.startswith(TRACE_SCHEME)


def make_trace_ref(path: Union[str, Path], fmt: Optional[str] = None) -> str:
    """Build the ``trace://path[#format]`` ref naming a trace file."""
    ref = f"{TRACE_SCHEME}{path}"
    return f"{ref}#{fmt}" if fmt else ref


def parse_trace_ref(ref: str) -> Tuple[str, Optional[str]]:
    """Split ``trace://path[#format]`` into (path, format-or-None).

    The format fragment is the text after the *last* ``#``, and only
    when it is a bare identifier (no ``/`` or ``.``): file names may
    themselves contain ``#``, so ``trace://run#1.din`` is the path
    ``run#1.din`` with no explicit format.

    Raises:
        ValueError: not a trace ref, or an empty path.
    """
    if not is_trace_ref(ref):
        raise ValueError(f"not a trace reference (no {TRACE_SCHEME} prefix): {ref!r}")
    rest = ref[len(TRACE_SCHEME):]
    path, fmt = rest, None
    if "#" in rest:
        head, _, fragment = rest.rpartition("#")
        if "/" not in fragment and "." not in fragment:
            path, fmt = head, (fragment or None)
    if not path:
        raise ValueError(f"trace reference names no file: {ref!r}")
    return path, fmt


def _check_ref_format(ref: str, fmt: Optional[str]) -> None:
    """Reject a ``trace://path#format`` ref naming an unregistered format.

    Raised as :class:`TraceParseError` — not the registry's plain
    ``ValueError`` — so every ref consumer (CLI subcommands,
    ``runner.get_trace``, service submission) reports it through the
    one-line ingest-error convention: exit 2, registered formats named.
    """
    if fmt is None:
        return
    try:
        get_trace_format(fmt)
    except ValueError as error:
        raise TraceParseError(f"{ref!r}: {error}") from None


def load_trace_ref(
    ref: str,
    *,
    limit: Optional[int] = None,
    length: Optional[int] = None,
) -> StreamingTrace:
    """Open the trace a ``trace://`` workload reference names."""
    path, fmt = parse_trace_ref(ref)
    _check_ref_format(ref, fmt)
    return load_trace(path, fmt, limit=limit, length=length)


def trace_fingerprint(path: Union[str, Path], fmt: Optional[str] = None) -> str:
    """Content identity of a trace file: SHA-256 + format name/version.

    Cache keys embed this, so editing the file on disk — or bumping a
    reader's declared ``version`` — changes every dependent key and
    stale cached results are simply never found.  The hash is memoized
    per (path, mtime_ns, size, inode) stat signature, so sweeping many
    configurations over one trace hashes it once.
    """
    info = _resolve_format(path, fmt)
    try:
        stat = os.stat(path)
    except OSError as error:
        raise TraceParseError(f"trace file not found: {str(path)!r} ({error})") from error
    cache_key = (str(Path(path).resolve()), stat.st_mtime_ns, stat.st_size, stat.st_ino)
    digest = _FINGERPRINT_CACHE.get(cache_key)
    if digest is None:
        hasher = hashlib.sha256()
        try:
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    hasher.update(block)
        except OSError as error:
            raise TraceParseError(
                f"cannot read trace file {str(path)!r}: {error}"
            ) from error
        digest = hasher.hexdigest()
        _FINGERPRINT_CACHE[cache_key] = digest
    return f"sha256:{digest}:{info.name}.v{info.version}"


def trace_ref_fingerprint(ref: str) -> str:
    """:func:`trace_fingerprint` addressed by a ``trace://`` reference."""
    path, fmt = parse_trace_ref(ref)
    _check_ref_format(ref, fmt)
    return trace_fingerprint(path, fmt)


# ------------------------------------------------------------------ #
# Shared parse helpers
# ------------------------------------------------------------------ #


def _open_text(path: Path) -> io.TextIOBase:
    """Open a (possibly gzip-compressed) text trace, by magic bytes."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _parse_int(token: str, path: Path, lineno: int, what: str, base: int = 0) -> int:
    try:
        return int(token, base)
    except ValueError:
        if base == 0:
            # Base 0 rejects zero-padded decimals ('0010'), which are
            # common in trace dumps; honor the documented "0x hex or
            # plain decimal" contract.
            try:
                return int(token, 10)
            except ValueError:
                pass
        raise TraceParseError(
            f"{str(path)!r} line {lineno}: invalid {what} {token!r}"
        ) from None


#: Exclusive upper bound for data addresses: the encoders buffer the
#: address stream in unsigned 64-bit arrays.
_MAX_ADDRESS = 1 << 64


def _parse_addr(token: str, path: Path, lineno: int, what: str, base: int = 0) -> int:
    """Parse a data address and range-check it against the 64-bit
    address space, so out-of-range values fail here with file+line
    context instead of overflowing an encoder array mid-simulation."""
    value = _parse_int(token, path, lineno, what, base)
    if not 0 <= value < _MAX_ADDRESS:
        raise TraceParseError(
            f"{str(path)!r} line {lineno}: {what} {token!r} outside the "
            f"64-bit address space"
        )
    return value


def _fail(path: Path, lineno: int, message: str) -> TraceParseError:
    return TraceParseError(f"{str(path)!r} line {lineno}: {message}")


def _rotating_dst(count: int) -> int:
    """Deterministic destination register (r1..r30) for ingested ops."""
    return 1 + (count % 30)


# ------------------------------------------------------------------ #
# Built-in formats
# ------------------------------------------------------------------ #


def _open_text_write(path: Path):
    """Writer-side counterpart of :func:`_open_text`: gzip by suffix."""
    if str(path).lower().endswith(".gz"):
        return gzip.open(path, "wt", encoding="utf-8", newline="")
    return open(path, "w", encoding="utf-8", newline="")


def _write_din(path: Path, instructions: Iterable[Instr]) -> int:
    written = 0
    with _open_text_write(path) as handle:
        for instr in instructions:
            if instr.op == OP_LOAD:
                handle.write(f"0 {instr.addr:x}\n")
            elif instr.op == OP_STORE:
                handle.write(f"1 {instr.addr:x}\n")
            else:
                handle.write(f"2 {instr.pc:x}\n")
            written += 1
    return written


@register_trace_format(
    "din",
    label="Dinero III",
    extensions=(".din",),
    writer=_write_din,
    version=1,
)
def read_din(path: Path) -> Iterator[Instr]:
    """Classic Dinero records: ``<label> <hex-addr>``, label 0/1/2.

    Label 0 is a data read (load), 1 a data write (store), and 2 an
    instruction fetch, which sets the current PC.  Data records between
    fetches advance a synthetic 4-byte PC so the instruction stream
    stays well formed; loads get exact XOR handles derived from their
    block address.  Blank lines and ``#`` comments are skipped; any
    trailing fields (e.g. Dinero's optional size) are ignored.
    """
    pc = _BASE_PC
    emitted = 0
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise _fail(path, lineno, f"expected '<label> <hex-addr>', got {line!r}")
            label = parts[0]
            addr = _parse_addr(parts[1], path, lineno, "address", base=16)
            if label == "2":
                pc = addr & ~3
                yield Instr(pc=pc, op=OP_INT, dst=_rotating_dst(emitted))
            elif label == "0":
                yield Instr(
                    pc=pc,
                    op=OP_LOAD,
                    dst=_rotating_dst(emitted),
                    addr=addr,
                    xor_handle=addr >> _HANDLE_SHIFT,
                )
            elif label == "1":
                yield Instr(pc=pc, op=OP_STORE, addr=addr)
            else:
                raise _fail(
                    path, lineno,
                    f"unknown dinero record label {label!r} (valid: 0, 1, 2)",
                )
            pc += 4
            emitted += 1


_CHAMPSIM_PLAIN = {"I": OP_INT, "F": OP_FP}
_CHAMPSIM_MEMORY = {"L": OP_LOAD, "S": OP_STORE}
_CHAMPSIM_CONTROL = {"B": OP_BRANCH, "C": OP_CALL, "R": OP_RET}


def _write_champsim(path: Path, instructions: Iterable[Instr]) -> int:
    kinds = {OP_INT: "I", OP_FP: "F", OP_LOAD: "L", OP_STORE: "S",
             OP_BRANCH: "B", OP_CALL: "C", OP_RET: "R"}
    written = 0
    with _open_text_write(path) as handle:
        for instr in instructions:
            kind = kinds[instr.op]
            if kind in _CHAMPSIM_MEMORY:
                handle.write(f"0x{instr.pc:x} {kind} 0x{instr.addr:x}\n")
            elif kind in _CHAMPSIM_CONTROL:
                taken = 1 if instr.taken else 0
                handle.write(f"0x{instr.pc:x} {kind} {taken} 0x{instr.target:x}\n")
            else:
                handle.write(f"0x{instr.pc:x} {kind}\n")
            written += 1
    return written


@register_trace_format(
    "champsim",
    label="ChampSim-style log",
    extensions=(".champsim",),
    writer=_write_champsim,
    version=1,
)
def read_champsim(path: Path) -> Iterator[Instr]:
    """ChampSim-style textual log: ``<pc> <kind> [operands]`` per line.

    Kinds: ``I``/``F`` (plain int/fp op), ``L``/``S`` with a data
    address, and ``B``/``C``/``R`` with ``<taken> <target>``.  PCs and
    addresses accept ``0x``-prefixed hex or plain decimal.  Blank lines
    and ``#`` comments are skipped.
    """
    emitted = 0
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise _fail(path, lineno, f"expected '<pc> <kind> ...', got {line!r}")
            pc = _parse_int(parts[0], path, lineno, "pc")
            kind = parts[1].upper()
            if kind in _CHAMPSIM_PLAIN:
                yield Instr(pc=pc, op=_CHAMPSIM_PLAIN[kind], dst=_rotating_dst(emitted))
            elif kind in _CHAMPSIM_MEMORY:
                if len(parts) < 3:
                    raise _fail(path, lineno, f"{kind} record needs a data address")
                addr = _parse_addr(parts[2], path, lineno, "address")
                if kind == "L":
                    yield Instr(
                        pc=pc,
                        op=OP_LOAD,
                        dst=_rotating_dst(emitted),
                        addr=addr,
                        xor_handle=addr >> _HANDLE_SHIFT,
                    )
                else:
                    yield Instr(pc=pc, op=OP_STORE, addr=addr)
            elif kind in _CHAMPSIM_CONTROL:
                if len(parts) < 4:
                    raise _fail(path, lineno, f"{kind} record needs '<taken> <target>'")
                taken = _parse_int(parts[2], path, lineno, "taken flag")
                target = _parse_int(parts[3], path, lineno, "target")
                yield Instr(
                    pc=pc, op=_CHAMPSIM_CONTROL[kind], taken=bool(taken), target=target
                )
            else:
                valid = sorted(
                    {**_CHAMPSIM_PLAIN, **_CHAMPSIM_MEMORY, **_CHAMPSIM_CONTROL}
                )
                raise _fail(
                    path, lineno, f"unknown record kind {parts[1]!r} (valid: {valid})"
                )
            emitted += 1


#: CSV columns, in writer order; only ``op`` is mandatory on read.
_CSV_COLUMNS = ("op", "pc", "addr", "taken", "target", "dst", "src1", "src2", "xor")

_OP_BY_NAME = {name: op for op, name in OP_NAMES.items()}


def _csv_field(row: Dict[str, str], key: str, default: int, what: str,
               path: Path, lineno: int) -> int:
    """One optional numeric CSV cell: empty/missing means ``default``."""
    token = (row.get(key) or "").strip()
    if not token:
        return default
    return _parse_int(token, path, lineno, what)


def _write_csv(path: Path, instructions: Iterable[Instr]) -> int:
    written = 0
    with _open_text_write(path) as handle:
        writer = DictWriter(handle, fieldnames=list(_CSV_COLUMNS))
        writer.writeheader()
        for instr in instructions:
            writer.writerow(
                {
                    "op": OP_NAMES[instr.op],
                    "pc": f"0x{instr.pc:x}",
                    "addr": f"0x{instr.addr:x}",
                    "taken": 1 if instr.taken else 0,
                    "target": f"0x{instr.target:x}",
                    "dst": instr.dst,
                    "src1": instr.src1,
                    "src2": instr.src2,
                    "xor": f"0x{instr.xor_handle:x}",
                }
            )
            written += 1
    return written


@register_trace_format(
    "csv",
    label="CSV address stream",
    extensions=(".csv", ".csv.gz"),
    writer=_write_csv,
    version=1,
)
def read_csv(path: Path) -> Iterator[Instr]:
    """Header-row CSV (gzip transparent): ``op`` plus optional fields.

    Recognized columns: ``op`` (one of int/fp/load/store/branch/call/
    ret), ``pc``, ``addr``, ``taken``, ``target``, ``dst``, ``src1``,
    ``src2``, ``xor``.  Numbers accept ``0x`` hex or decimal.  A
    missing ``pc`` column falls back to a synthetic 4-byte-step PC;
    loads without an explicit ``xor`` column get exact block handles.
    This is the lossless interchange format: ``trace convert`` to CSV
    preserves every :class:`~repro.workload.instr.Instr` field.
    """
    with _open_text(path) as handle:
        reader = DictReader(handle)
        if reader.fieldnames is None or "op" not in reader.fieldnames:
            raise TraceParseError(
                f"{str(path)!r}: CSV trace needs a header row with an 'op' column "
                f"(recognized columns: {_CSV_COLUMNS})"
            )
        pc = _BASE_PC
        emitted = 0
        for row in reader:
            lineno = reader.line_num
            op_name = (row.get("op") or "").strip().lower()
            op = _OP_BY_NAME.get(op_name)
            if op is None:
                raise _fail(
                    path, lineno,
                    f"unknown op {op_name!r} (valid: {sorted(_OP_BY_NAME)})",
                )

            pc = _csv_field(row, "pc", pc, "pc", path, lineno)
            addr = _csv_field(row, "addr", 0, "address", path, lineno)
            if not 0 <= addr < _MAX_ADDRESS:
                raise _fail(
                    path, lineno, f"address {addr:#x} outside the 64-bit address space"
                )
            dst_default = _rotating_dst(emitted) if op == OP_LOAD else -1
            xor_default = addr >> _HANDLE_SHIFT if op == OP_LOAD else 0
            yield Instr(
                pc=pc,
                op=op,
                dst=_csv_field(row, "dst", dst_default, "dst", path, lineno),
                src1=_csv_field(row, "src1", -1, "src1", path, lineno),
                src2=_csv_field(row, "src2", -1, "src2", path, lineno),
                addr=addr,
                taken=bool(_csv_field(row, "taken", 0, "taken flag", path, lineno)),
                target=_csv_field(row, "target", 0, "target", path, lineno),
                xor_handle=_csv_field(row, "xor", xor_default, "xor handle", path, lineno),
            )
            pc += 4
            emitted += 1
