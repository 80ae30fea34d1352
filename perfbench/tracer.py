"""Per-layer span tracer for the benchmark's traced pass.

The tracer wraps public functions of the simulator *at the site where
callers look them up*: a module attribute (``runner.generate_trace``,
because callers ``from ... import`` by name), a class attribute (methods
and ``Simulator.run``), or a dispatch table (``runner``'s per-tier
miss-rate measures).  Every wrapped call opens a span on a per-thread
stack; when it closes, its duration minus the time its child spans
covered is added to its layer's *self time*, so self times of all layers
never double count and sum to the covered wall time.

Spans are kept in memory (one tuple each) and written out by the caller
at the end; per-instruction reader iterations are folded into self time
without a span record, to keep the traced pass close to the untraced one.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  ``unattributed`` is the remainder
#: against the traced wall time and is computed by the caller.
LAYERS = (
    "import", "generator", "formats", "artifact.load", "artifact.write",
    "encode", "vector", "missrate", "core", "fallback", "reference",
    "energy", "cache.load", "cache.store", "runner", "sweep", "service.client",
)


class Tracer:
    """Span stack per thread, self time and counters per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (layer, name, start, end, parent index or -1, thread id)
        self.spans: List[Tuple[str, str, float, float, int, int]] = []

    # -------------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str, name: str, record: bool = True) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        stack = self._stack()
        index = -1
        if record:
            parent = stack[-1][4] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append((layer, name, 0.0, 0.0, parent,
                                   threading.get_ident()))
        frame = [layer, name, time.perf_counter(), 0.0, index]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame``: charge self time, credit the parent."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        layer, name, start, child_s, index = frame
        duration = end - start
        with self._lock:
            self.self_s[layer] += duration - child_s
            if index >= 0:
                old = self.spans[index]
                self.spans[index] = (layer, name, start, end, old[4], old[5])
        if stack:
            stack[-1][3] += duration

    def span(self, layer: str, name: str) -> "_Span":
        """``with tracer.span(layer, name):`` around bench-side calls."""
        return _Span(self, layer, name)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -------------------------------------------------------------- #

    def wrap(
        self,
        layer,
        name: str,
        function: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """A traced stand-in for ``function``.

        ``layer`` is a layer name or a callable ``(args) -> layer`` for
        calls whose layer depends on the receiver (``Simulator.run``).
        ``on_result(args, result)`` records counters from the outcome.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(layer(args) if callable(layer) else layer, name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def wrap_iter(self, layer: str, name: str, iterable, counter: str):
        """Time every ``next()`` of ``iterable`` as self time of ``layer``."""
        iterator = iter(iterable)
        while True:
            frame = self.enter(layer, name, record=False)
            try:
                item = next(iterator)
            except StopIteration:
                self.exit(frame)
                return
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            self.count(counter)
            yield item


class _Span:
    def __init__(self, tracer: Tracer, layer: str, name: str) -> None:
        self._tracer = tracer
        self._layer = layer
        self._name = name
        self._frame: Optional[list] = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer.enter(self._layer, self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.exit(self._frame)


def install(tracer: Tracer) -> None:
    """Patch every traced entry point of the simulator in this process.

    Must run after the modules are imported and before any workload
    code runs.  Patches stay for the life of the process (the traced
    pass runs in its own short-lived process).
    """
    from repro.core.engine import DCacheEngine
    from repro.energy.cactilite import CactiLite
    from repro.energy.processor import WattchLite
    from repro.fastsim import fetch, missrate, vector
    from repro.service.client import ServiceClient
    from repro.sim import runner
    from repro.sim.simulator import Simulator
    from repro.sweep.engine import SweepEngine
    from repro.workload import encode, formats

    def patch(owner, attribute: str, layer, on_result=None) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, tracer.wrap(layer, attribute, original, on_result))

    def counted(key: str):
        return lambda _args, _result: tracer.count(key)

    # Trace resolution: generation, ingest, artifact attach.
    patch(runner, "generate_trace", "generator", counted("generator.calls"))
    patch(runner, "load_trace_ref", "formats", counted("formats.refs"))
    patch(runner, "trace_ref_fingerprint", "formats")
    patch(runner, "get_trace", "runner")
    for info in formats.iter_trace_formats():
        reader = info.reader

        def timed_reader(path, _reader=reader):
            return tracer.wrap_iter("formats", "read", _reader(path), "formats.instrs")

        # Format infos are frozen records; the registry hands out the
        # same objects every lookup sees.
        object.__setattr__(info, "reader", timed_reader)
    patch(runner, "load_artifact", "artifact.load",
          lambda _a, loaded: tracer.count("artifact.loads", loaded is not None))
    patch(runner, "write_artifact", "artifact.write",
          lambda _a, written: tracer.count("artifact.writes", bool(written)))

    # Encoding: the public entry at every lookup site, plus the lazy
    # build passes the kernels trigger through the EncodedTrace API.
    for module in (runner, fetch, missrate, vector):
        patch(module, "encode_trace", "encode", counted("encode.calls"))
    for method in (
        "_ensure_mem_arrays", "blocks", "blocks_np", "set_indices_np",
        "tags_np", "addrs_np", "is_load_np", "ensure_instr_arrays",
        "iblocks", "export_sections",
    ):
        if hasattr(encode.EncodedTrace, method):
            patch(encode.EncodedTrace, method, "encode")

    # Kernels: the runner dispatches miss-rate runs through a per-tier
    # table, and the vector tier falls back to the python kernel by name.
    measures = runner._MISSRATE_MEASURES
    for tier, layer in (("vector", "vector"), ("fast", "missrate"),
                        ("reference", "reference")):
        measures[tier] = tracer.wrap(layer, f"{tier}_miss_rate", measures[tier],
                                     counted(f"{layer}.calls"))
    patch(vector, "fast_miss_rate", "missrate", counted("vector.fallbacks"))

    def sim_layer(args) -> str:
        simulator = args[0]
        if simulator.backend == "reference":
            return "reference"
        return "fallback" if isinstance(simulator.dcache, DCacheEngine) else "core"

    def sim_done(args, result) -> None:
        layer = sim_layer(args)
        tracer.count(f"{layer}.points")
        tracer.count(f"{layer}.instrs", result.core.instructions)

    patch(Simulator, "run", sim_layer, sim_done)
    patch(CactiLite, "energy_model", "energy")
    patch(WattchLite, "report", "energy")

    # Result cache and execution, as the sweep engine calls them.
    patch(runner, "load_cached", "cache.load",
          lambda _a, hit: tracer.count("cache.hits" if hit is not None else "cache.misses"))
    patch(runner, "store_result", "cache.store", counted("cache.stores"))
    patch(runner, "execute", "runner")
    patch(SweepEngine, "run", "sweep")

    # Service client: every request opens one connection here.
    patch(ServiceClient, "_connect", "service.client", counted("service.requests"))
