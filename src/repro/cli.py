"""Command-line entry point: ``repro-experiment``.

Six modes:

* ``repro-experiment [IDS...] [--jobs N] [--json]`` — regenerate the
  paper's tables/figures, fanning each experiment's run grid over N
  worker processes.  Reports are byte-identical for any ``--jobs``
  value because results are keyed by run spec, never completion order.
* ``repro-experiment sweep [grid options]`` — run an ad-hoc design-space
  grid (size x ways x latency x policy, each point normalized against
  the parallel baseline of the same shape) without writing code.
  ``--benchmarks`` accepts ``trace://path[#format]`` refs alongside
  benchmark names, so ingested traces sweep like synthetic workloads.
* ``repro-experiment policies [--json]`` — list every policy kind
  registered for each cache side (built-ins and plugins alike), with
  labels and declared parameters.
* ``repro-experiment trace {formats,inspect,convert,run,report}`` —
  work with externally captured trace files: list the ingest formats,
  summarize a file, convert between formats, run one file through the
  simulator, or render a Table-4-style report over a directory.
* ``repro-experiment serve [--port N ...]`` — run the sweep service: an
  HTTP/JSON job API with a crash-safe SQLite queue, per-tenant rate
  limits, streaming progress, and reports byte-identical to this CLI's
  ``--json`` output for the same work.
* ``repro-experiment cache {stats,gc,clear}`` — inspect and manage the
  shared on-disk caches: per-run results and encoded-trace artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.core.registry import SIDES, iter_policies
from repro.experiments.common import settings_from_env
from repro.sim.runner import BACKENDS, RUN_MODES, run_benchmark, trace_cache_capacity
from repro.experiments.registry import (
    experiment_json,
    get_experiment,
    list_experiments,
)
from repro.sim.config import SystemConfig
from repro.sweep.analyze import (
    design_space_document,
    design_space_points,
    design_space_spec,
    render_summaries,
    summarize,
)
from repro.sweep.engine import SweepEngine, default_jobs
from repro.workload.formats import (
    TraceParseError,
    is_trace_ref,
    iter_trace_formats,
    load_trace,
    make_trace_ref,
    trace_format_names,
    write_trace,
)
from repro.workload.profiles import benchmark_names


def _int_list(raw: str) -> List[int]:
    return [int(part) for part in raw.split(",") if part]


def _str_list(raw: str) -> List[str]:
    return [part for part in raw.split(",") if part]


def main(argv: Optional[List[str]] = None) -> int:
    """Run experiments or an ad-hoc sweep and print the reports."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "policies":
        return policies_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Regenerate tables/figures from 'Reducing Set-Associative Cache "
            "Energy via Way-Prediction and Selective Direct-Mapping' "
            "(Powell et al., MICRO 2001).  Use the 'sweep' subcommand for "
            "ad-hoc design-space grids."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids (default: all). Valid: {', '.join(list_experiments())}",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes per experiment grid (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON array of experiment documents instead of ASCII",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "simulation backend: 'reference' (object-dispatch engines) "
            "or 'fast' (batched kernels; numpy miss-rate kernels when "
            "numpy imports); reports are byte-identical. "
            "Default: $REPRO_BACKEND or reference"
        ),
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=None,
        metavar="N",
        help=(
            "dynamic-policy tick period in cycles for experiments that "
            "run dynamic policies (default: $REPRO_INTERVAL or each "
            "experiment's own default)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    try:  # --jobs 0, or a bad $REPRO_JOBS/$REPRO_SCALE/$REPRO_INTERVAL/$REPRO_TRACE_CACHE
        jobs = args.jobs if args.jobs is not None else default_jobs()
        engine = SweepEngine(jobs=jobs)
        settings = settings_from_env()
        trace_cache_capacity()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if args.backend is not None:
        settings = replace(settings, backend=args.backend)
    if args.interval is not None:
        if args.interval < 0:
            print(f"--interval must be >= 0, got {args.interval}", file=sys.stderr)
            return 2
        settings = replace(settings, interval=args.interval)
    if settings.backend not in BACKENDS:  # bad $REPRO_BACKEND
        print(
            f"unknown backend {settings.backend!r}; valid: {BACKENDS}",
            file=sys.stderr,
        )
        return 2

    ids = args.experiments or list_experiments()
    try:
        experiments = [get_experiment(experiment_id) for experiment_id in ids]
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2

    if args.json:
        documents = [
            experiment_json(experiment.experiment_id, settings, engine)
            for experiment in experiments
        ]
        print(json.dumps(documents, indent=2, sort_keys=True))
        return 0

    for experiment in experiments:
        started = time.time()
        print(experiment.render(settings, engine))
        print(f"[{experiment.experiment_id} done in {time.time() - started:.1f}s]\n")
    return 0


def policies_main(argv: List[str]) -> int:
    """The ``policies`` subcommand: list the policy registry."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment policies",
        description=(
            "List every registered L1 access policy (built-ins and "
            "plugins), per cache side, with display labels and declared "
            "parameters."
        ),
    )
    parser.add_argument(
        "--side",
        choices=SIDES,
        default=None,
        help="restrict the listing to one cache side",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the registry as a JSON array")
    args = parser.parse_args(argv)

    infos = list(iter_policies(args.side))
    if args.json:
        document = [
            {
                "kind": info.kind,
                "side": info.side,
                "label": info.label,
                "params": info.defaults(),
                "dynamic": info.dynamic,
                "description": info.description,
            }
            for info in infos
        ]
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    for side in SIDES if args.side is None else (args.side,):
        rows = [info for info in infos if info.side == side]
        if not rows:
            continue
        print(f"{side} policies:")
        for info in rows:
            params = ", ".join(f"{k}={v}" for k, v in info.params) or "-"
            dynamic = "dynamic" if info.dynamic else "static"
            print(f"  {info.kind:18s} {info.label:24s} {dynamic:8s} [{params}]")
            if info.description:
                print(f"  {'':18s} {info.description}")
        print()
    return 0


def _resolve_backend(explicit: Optional[str]) -> str:
    """The backend a subcommand runs on: flag, else $REPRO_BACKEND.

    Raises:
        ValueError: an unknown backend name (from either source).
    """
    backend = (
        explicit if explicit is not None
        else os.environ.get("REPRO_BACKEND", "reference")
    )
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    return backend


def _ingest_error_message(error: BaseException) -> str:
    """One-line ingest-failure message, naming the registered formats
    exactly once however the original message was phrased."""
    message = str(error)
    if "registered formats" not in message:
        message += f" [registered formats: {', '.join(trace_format_names())}]"
    return message


def trace_main(argv: List[str]) -> int:
    """The ``trace`` subcommand: ingest and run external trace files."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment trace",
        description=(
            "Work with externally captured traces: list the registered "
            "ingest formats, summarize a file, convert between formats, "
            "run one file through the simulator, or render a Table-4-style "
            "miss-rate report over a directory of traces."
        ),
    )
    commands = parser.add_subparsers(dest="action", required=True)

    formats_parser = commands.add_parser(
        "formats", help="list the registered trace formats")
    formats_parser.add_argument("--json", action="store_true",
                                help="emit the format registry as a JSON array")

    inspect_parser = commands.add_parser(
        "inspect", help="stream a trace file and print its instruction mix")
    inspect_parser.add_argument("file", help="trace file in any registered format")
    inspect_parser.add_argument("--format", dest="fmt", default=None, metavar="F",
                                help="format name (default: detect by extension)")
    inspect_parser.add_argument("--block-bytes", type=int, default=32, metavar="N",
                                help="block size for unique-block stats (default: 32)")
    inspect_parser.add_argument("--json", action="store_true",
                                help="emit the summary as JSON")

    convert_parser = commands.add_parser(
        "convert", help="re-encode a trace file into another registered format")
    convert_parser.add_argument("src", help="source trace file")
    convert_parser.add_argument("dst", help="destination trace file")
    convert_parser.add_argument("--from", dest="src_fmt", default=None, metavar="F",
                                help="source format (default: detect by extension)")
    convert_parser.add_argument("--to", dest="dst_fmt", default=None, metavar="F",
                                help="destination format (default: detect by extension)")
    convert_parser.add_argument("--limit", type=int, default=None, metavar="N",
                                help="convert at most N instructions (default: all)")

    run_parser = commands.add_parser(
        "run", help="run one trace file through the simulator")
    run_parser.add_argument("file", help="trace file in any registered format")
    run_parser.add_argument("--format", dest="fmt", default=None, metavar="F",
                            help="format name (default: detect by extension)")
    run_parser.add_argument("--mode", choices=RUN_MODES, default="sim",
                            help="full simulation or functional miss rate (default: sim)")
    run_parser.add_argument("--backend", choices=BACKENDS, default=None,
                            help="simulation backend (default: $REPRO_BACKEND or reference)")
    run_parser.add_argument("--instructions", type=int, default=0, metavar="N",
                            help="replay at most N instructions (default: whole file)")
    run_parser.add_argument("--dcache-policy", default=None, metavar="KIND",
                            help="d-cache policy kind (default: parallel)")
    run_parser.add_argument("--icache-policy", default=None, metavar="KIND",
                            help="i-cache policy kind (default: parallel)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the result caches")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the full flat result record as JSON")
    run_parser.add_argument(
        "--interval", type=int, default=0, metavar="N",
        help=(
            "dynamic-policy tick period (accesses in missrate mode, "
            "cycles in sim mode; 0 = no ticks)"
        ),
    )

    report_parser = commands.add_parser(
        "report",
        help="Table-4-style DM vs 4-way miss-rate report over a trace directory")
    report_parser.add_argument("directory", help="directory of trace files")
    report_parser.add_argument("--backend", choices=BACKENDS, default=None,
                               help="simulation backend (default: $REPRO_BACKEND or reference)")
    report_parser.add_argument("--instructions", type=int, default=None, metavar="N",
                               help="replay cap per trace (default: $REPRO_SCALE sizing)")
    report_parser.add_argument("--jobs", type=int, default=None, metavar="N",
                               help="worker processes (default: $REPRO_JOBS or 1)")
    report_parser.add_argument("--json", action="store_true",
                               help="emit the report rows as JSON")

    args = parser.parse_args(argv)
    handlers = {
        "formats": _trace_formats,
        "inspect": _trace_inspect,
        "convert": _trace_convert,
        "run": _trace_run,
        "report": _trace_report,
    }
    try:
        return handlers[args.action](args)
    except (ValueError, OSError, OverflowError) as error:
        # OverflowError: a plugin reader yielding out-of-range addresses
        # overflows the unsigned encoder arrays (built-in readers
        # range-check at parse time and raise TraceParseError instead).
        # One line, no traceback.  Ingest failures (missing/corrupt
        # files) additionally name the registered formats; unrelated
        # errors (unknown policy, bad backend) print unadorned —
        # their own messages already name the valid values.
        message = (
            _ingest_error_message(error)
            if isinstance(error, TraceParseError)
            else str(error)
        )
        print(message, file=sys.stderr)
        return 2


def _trace_formats(args) -> int:
    infos = iter_trace_formats()
    if args.json:
        document = [
            {
                "name": info.name,
                "label": info.label,
                "extensions": list(info.extensions),
                "writable": info.writer is not None,
                "version": info.version,
                "description": info.description,
            }
            for info in infos
        ]
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print("trace formats:")
    for info in infos:
        extensions = ", ".join(info.extensions) or "-"
        mode = "read/write" if info.writer is not None else "read-only"
        print(f"  {info.name:10s} {info.label:22s} [{extensions}] ({mode}, v{info.version})")
        if info.description:
            print(f"  {'':10s} {info.description}")
    return 0


def _trace_inspect(args) -> int:
    trace = load_trace(args.file, args.fmt)
    summary = trace.summary(block_bytes=args.block_bytes)
    if args.json:
        document = {
            "file": args.file,
            "name": trace.name,
            "block_bytes": args.block_bytes,
            "instructions": summary.instructions,
            "loads": summary.loads,
            "stores": summary.stores,
            "branches": summary.branches,
            "calls": summary.calls,
            "returns": summary.returns,
            "int_ops": summary.int_ops,
            "fp_ops": summary.fp_ops,
            "unique_load_pcs": summary.unique_load_pcs,
            "unique_blocks_touched": summary.unique_blocks_touched,
            "load_frac": round(summary.load_frac, 6),
            "store_frac": round(summary.store_frac, 6),
            "control_frac": round(summary.control_frac, 6),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"{trace.name} ({args.file})")
    print(f"  instructions          {summary.instructions}")
    print(f"  loads / stores        {summary.loads} / {summary.stores} "
          f"({summary.load_frac:.1%} / {summary.store_frac:.1%})")
    print(f"  branches/calls/rets   {summary.branches}/{summary.calls}/{summary.returns} "
          f"({summary.control_frac:.1%} control)")
    print(f"  int / fp ops          {summary.int_ops} / {summary.fp_ops}")
    print(f"  unique load PCs       {summary.unique_load_pcs}")
    print(f"  unique {args.block_bytes}B blocks     {summary.unique_blocks_touched}")
    return 0


def _trace_convert(args) -> int:
    trace = load_trace(args.src, args.src_fmt, limit=args.limit)
    written = write_trace(args.dst, iter(trace), args.dst_fmt)
    print(f"wrote {written} instructions: {args.src} -> {args.dst}")
    return 0


def _print_artifact_counters() -> None:
    """Render this process's encoded-trace artifact activity to stderr.

    Stderr keeps ``--json`` stdout byte-identical whether artifacts are
    hot, cold, or disabled (the acceptance contract CI diffs); the
    counter line is what the artifact smoke greps to prove a warm run
    really loaded the artifact instead of re-encoding.
    """
    from repro.sim import runner

    stats = runner.artifact_stats()
    print(f"[artifacts: {stats['loads']} loaded, {stats['stores']} written]",
          file=sys.stderr)


def _trace_run(args) -> int:
    backend = _resolve_backend(args.backend)
    if args.instructions < 0:
        raise ValueError(
            f"--instructions must be >= 0 (0 = whole file), got {args.instructions}"
        )
    config = SystemConfig()
    if args.dcache_policy is not None:
        config = config.with_dcache_policy(args.dcache_policy)
    if args.icache_policy is not None:
        config = config.with_icache_policy(args.icache_policy)
    ref = make_trace_ref(args.file, args.fmt)
    result = run_benchmark(
        ref, config, args.instructions, mode=args.mode, backend=backend,
        use_cache=not args.no_cache, interval=args.interval,
    )
    _print_artifact_counters()
    if args.json:
        print(json.dumps(result.to_flat(), indent=2, sort_keys=True))
        return 0
    print(f"{result.benchmark}: {result.core.instructions} instructions "
          f"({args.mode}, {backend} backend)")
    if args.mode == "sim":
        print(f"  cycles / IPC          {result.core.cycles} / {result.core.ipc:.3f}")
        print(f"  i-cache miss rate     {result.icache.miss_rate:.2%}")
    print(f"  d-cache miss rate     {result.dcache.miss_rate:.2%} "
          f"({result.dcache.misses} misses / {result.dcache.accesses} accesses)")
    if args.mode == "sim":
        print(f"  d-cache energy        {result.energy.dcache:.1f}")
        print(f"  processor energy      {result.energy.processor_total:.1f}")
    return 0


def _trace_report(args) -> int:
    from dataclasses import asdict

    from repro.experiments import external

    settings = settings_from_env()
    settings = replace(settings, backend=_resolve_backend(args.backend))
    if args.instructions is not None:
        if args.instructions < 1:
            raise ValueError(f"--instructions must be >= 1, got {args.instructions}")
        settings = replace(settings, instructions=args.instructions)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    engine = SweepEngine(jobs=jobs)
    if args.json:
        rows = external.external_rows(args.directory, settings, engine)
        print(json.dumps([asdict(row) for row in rows], indent=2, sort_keys=True))
        return 0
    print(external.render(args.directory, settings, engine))
    return 0


def serve_main(argv: List[str]) -> int:
    """The ``serve`` subcommand: run the sweep service in the foreground."""
    import asyncio
    from pathlib import Path

    from repro.service.app import ServiceConfig, serve

    parser = argparse.ArgumentParser(
        prog="repro-experiment serve",
        description=(
            "Run the sweep service: an HTTP/JSON job API over the sweep "
            "engine, with a crash-safe SQLite queue (restart resumes "
            "interrupted jobs from the shared result cache), idempotent "
            "submission by content fingerprint, per-tenant rate limits, "
            "and streaming NDJSON progress."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765, metavar="N",
                        help="listen port; 0 picks an ephemeral port (default: 8765)")
    parser.add_argument("--db", default=".repro_service/jobs.sqlite", metavar="PATH",
                        help="SQLite job journal (default: .repro_service/jobs.sqlite)")
    parser.add_argument("--reports-dir", default=".repro_service/reports",
                        metavar="DIR",
                        help="sharded report store root (default: .repro_service/reports)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="engine worker processes per executing job "
                             "(default: $REPRO_JOBS or 1)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="concurrently executing jobs (default: 1)")
    parser.add_argument("--rate", type=float, default=10.0, metavar="R",
                        help="per-tenant submissions/second; <= 0 disables "
                             "rate limiting (default: 10)")
    parser.add_argument("--burst", type=float, default=20.0, metavar="B",
                        help="per-tenant burst capacity (default: 20)")
    parser.add_argument("--max-queue", type=int, default=64, metavar="N",
                        help="open-job bound before 503 back-pressure (default: 64)")
    parser.add_argument("--compact-after", type=float, default=None, metavar="SEC",
                        dest="compact_after",
                        help="periodically delete done/failed jobs older than "
                             "SEC seconds from the journal (default: keep all)")
    args = parser.parse_args(argv)

    try:  # a bad $REPRO_JOBS
        engine_jobs = args.jobs if args.jobs is not None else default_jobs()
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if engine_jobs < 1:
        print(f"--jobs must be >= 1, got {engine_jobs}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.compact_after is not None and args.compact_after < 0:
        print(f"--compact-after must be >= 0, got {args.compact_after}",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        db_path=Path(args.db),
        reports_dir=Path(args.reports_dir),
        engine_jobs=engine_jobs,
        workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        max_queue=args.max_queue,
        compact_after=args.compact_after,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        pass
    return 0


#: Managed cache file categories, in report order.
_CACHE_CATEGORIES = ("results", "artifacts")


def cache_main(argv: List[str]) -> int:
    """The ``cache`` subcommand: manage the shared on-disk caches."""
    from repro.sim import runner

    parser = argparse.ArgumentParser(
        prog="repro-experiment cache",
        description=(
            "Inspect and manage the shared on-disk caches under "
            "$REPRO_CACHE_DIR (default .repro_cache): per-run results "
            "and encoded-trace artifacts."
        ),
    )
    commands = parser.add_subparsers(dest="action", required=True)
    stats_parser = commands.add_parser(
        "stats", help="entry counts and byte totals per cache category")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the stats as JSON")
    gc_parser = commands.add_parser(
        "gc", help="delete cache entries older than a cutoff")
    gc_parser.add_argument("--older-than", type=float, required=True,
                           metavar="DAYS", dest="older_than",
                           help="delete entries not modified in the last N days")
    commands.add_parser("clear", help="delete every cache entry")
    args = parser.parse_args(argv)

    root = runner.disk_cache_dir()
    if root is None:
        print("disk cache disabled (REPRO_DISK_CACHE=0)", file=sys.stderr)
        return 2
    if args.action == "stats":
        return _cache_stats(root, args.json)
    cutoff = None
    if args.action == "gc":
        if args.older_than < 0:
            print(f"--older-than must be >= 0, got {args.older_than}",
                  file=sys.stderr)
            return 2
        cutoff = time.time() - args.older_than * 86400.0
    removed = {name: 0 for name in _CACHE_CATEGORIES}
    for category, path in _cache_entries(root):
        try:
            if cutoff is not None and path.stat().st_mtime >= cutoff:
                continue
            path.unlink()
            removed[category] += 1
        except OSError:
            continue  # racing another process: gc stays best-effort
    total = sum(removed.values())
    print(f"removed {total} entries "
          f"(results: {removed['results']}, "
          f"artifacts: {removed['artifacts']})")
    return 0


def _cache_entries(root):
    """Yield ``(category, path)`` for every managed cache file."""
    for path in root.glob("*.json"):
        yield "results", path
    artifacts = root / "artifacts"
    if artifacts.is_dir():
        for path in artifacts.glob("*.etr"):
            yield "artifacts", path


def _cache_stats(root, as_json: bool) -> int:
    stats = {category: {"files": 0, "bytes": 0} for category in _CACHE_CATEGORIES}
    for category, path in _cache_entries(root):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        stats[category]["files"] += 1
        stats[category]["bytes"] += size
    document = {"dir": str(root), **stats}
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"cache dir: {root}")
    for category in _CACHE_CATEGORIES:
        entry = stats[category]
        print(f"  {category:14s} "
              f"{entry['files']:6d} files  {entry['bytes']:10d} bytes")
    return 0


def sweep_main(argv: List[str]) -> int:
    """The ``sweep`` subcommand: ad-hoc d-cache design-space grids."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment sweep",
        description=(
            "Run an ad-hoc design-space sweep: every (size, ways, latency, "
            "policy) point is simulated against the parallel-access baseline "
            "of the same shape and summarized as mean relative energy-delay "
            "and performance degradation."
        ),
    )
    parser.add_argument(
        "--benchmarks",
        type=_str_list,
        default=None,
        metavar="A,B,...",
        help=(
            "applications to average over (default: all eleven); "
            "trace://path[#format] refs to ingested trace files are "
            "accepted alongside benchmark names"
        ),
    )
    parser.add_argument("--sizes", type=_int_list, default=[16], metavar="KB,...",
                        help="d-cache sizes in KB (default: 16)")
    parser.add_argument("--ways", type=_int_list, default=[4], metavar="N,...",
                        help="d-cache associativities (default: 4)")
    parser.add_argument("--latencies", type=_int_list, default=[1], metavar="CYC,...",
                        help="d-cache latencies in cycles (default: 1)")
    parser.add_argument(
        "--policies",
        type=_str_list,
        default=["seldm_waypred"],
        metavar="P,...",
        help="d-cache policies to evaluate (default: seldm_waypred)",
    )
    parser.add_argument(
        "--baseline-policy",
        default="parallel",
        metavar="P",
        help="policy every point is normalized against (default: parallel)",
    )
    parser.add_argument("--instructions", type=int, default=25_000, metavar="N",
                        help="dynamic instructions per run (default: 25000)")
    parser.add_argument("--salt", type=int, default=0, metavar="S",
                        help="trace-generation salt (default: 0)")
    parser.add_argument(
        "--component",
        default="dcache",
        choices=("dcache", "icache", "processor"),
        help="energy component for the E-D metric (default: dcache)",
    )
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary (and per-benchmark detail) as JSON")
    parser.add_argument(
        "--interval", type=int, default=0, metavar="N",
        help=(
            "dynamic-policy tick period in cycles (0 = no ticks; only "
            "dynamic policy kinds consume it)"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="simulation backend (default: $REPRO_BACKEND or reference)",
    )
    args = parser.parse_args(argv)
    # Resolve the backend from the flag/environment directly: the sweep
    # subcommand sizes its grid from its own flags, so it must not
    # inherit settings_from_env()'s REPRO_SCALE parsing (or its errors).
    try:
        backend = _resolve_backend(args.backend)
    except ValueError as error:  # bad $REPRO_BACKEND
        print(error, file=sys.stderr)
        return 2

    if args.benchmarks is not None and not args.benchmarks:
        print("--benchmarks given but empty: nothing to sweep", file=sys.stderr)
        return 2
    benchmarks = args.benchmarks or list(benchmark_names())
    unknown = [
        name for name in benchmarks
        if name not in benchmark_names() and not is_trace_ref(name)
    ]
    if unknown:
        print(
            f"unknown benchmark(s) {unknown}; valid: {list(benchmark_names())} "
            f"or trace://path[#format] refs",
            file=sys.stderr,
        )
        return 2
    try:
        points = design_space_points(
            args.sizes, args.ways, args.latencies, args.policies,
            args.baseline_policy,
        )
    except ValueError as error:  # unknown policy kind, bad shape
        print(error, file=sys.stderr)
        return 2
    if not points:
        print("empty grid: nothing to sweep", file=sys.stderr)
        return 2

    try:  # --jobs 0, or a bad $REPRO_JOBS
        jobs = args.jobs if args.jobs is not None else default_jobs()
        engine = SweepEngine(jobs=jobs)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    try:
        spec = design_space_spec(points, benchmarks, args.instructions, args.salt,
                                 name="adhoc-sweep", backend=backend,
                                 interval=args.interval)
        sweep = engine.run(spec)
    except TraceParseError as error:  # missing/corrupt trace:// workload
        print(_ingest_error_message(error), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as error:  # bad instructions, engine errors
        print(error, file=sys.stderr)
        return 2
    _print_artifact_counters()

    if args.json:
        document = design_space_document(
            sweep, points, benchmarks, args.instructions, args.component,
            args.salt, backend=backend, interval=args.interval,
        )
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        summaries = summarize(
            sweep, points, benchmarks, args.instructions, args.component,
            args.salt, backend=backend, interval=args.interval,
        )
        title = (
            f"Design-space sweep over {', '.join(benchmarks)} "
            f"({args.component} E-D vs {args.baseline_policy} baseline)"
        )
        print(render_summaries(summaries, title))
        print(f"[{sweep.stats.describe()}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
