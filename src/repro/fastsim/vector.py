"""Names the benchmark harness still reads; no kernels live here.

The numpy miss-rate kernels this module once held are deleted:
``backend="fast"`` miss-rate runs always take the python kernels of
:mod:`repro.fastsim.missrate`, and no module of the package imports
numpy.  Two readers in ``perfbench/`` still reach into this module, so
it keeps exactly three names until ROADMAP item 5's benchmark PR
retires both readers:

* ``perfbench/worker.py`` calls :func:`resolve_tier` in every prepare
  process to record each point's tier;
* ``perfbench/tracer.py`` patches :func:`encode_trace` and
  :func:`fast_miss_rate` here, and wraps the runner's
  ``_MISSRATE_MEASURES["vector"]`` entry, which maps to
  :func:`fast_miss_rate` and is never dispatched to.
"""

from __future__ import annotations

from repro.fastsim.missrate import fast_miss_rate
from repro.workload.encode import encode_trace

__all__ = ["encode_trace", "fast_miss_rate", "resolve_tier"]


def resolve_tier(backend: str, mode: str = "missrate") -> str:
    """The kernel tier a backend runs in ``mode``: the backend itself."""
    return backend
