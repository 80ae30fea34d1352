"""The batched fast-path simulation backend.

Every result the project reports can be produced by one of two
backends:

* ``"reference"`` — the original object-dispatch engines: per-access
  :class:`~repro.core.engine.DCacheEngine` /
  :class:`~repro.core.icache.ICacheEngine` driven over ``Instr``
  objects.  Maximally introspectable, layer by layer.
* ``"fast"`` — this package.  Traces are pre-encoded into flat arrays
  (:mod:`repro.workload.encode`), the functional miss-rate path runs as
  a batched per-set replay (:mod:`repro.fastsim.missrate`), and the full
  simulator swaps in array-state L1 engines
  (:mod:`repro.fastsim.dcache`, :mod:`repro.fastsim.icache`) for every
  registered policy — inlined kernels for the paper's static d-cache
  kinds, one adapter kernel over the policy object for dynamic kinds
  and plugins — over an array-state L2 (:mod:`repro.fastsim.l2`),
  driven by the array-state out-of-order core and fetch unit
  (:mod:`repro.fastsim.core`, :mod:`repro.fastsim.fetch`) with the
  table-state branch predictors of :mod:`repro.fastsim.predictors`,
  so ``mode="sim"`` runs batched end to end.

The fast backend's contract is *byte-identical results*: the same
:class:`~repro.sim.functional.MissRateResult` and the same
:class:`~repro.sim.results.SimResult` (``to_flat()`` equality, energy
floats included — the engines count the reference engines' events, and
the simulator prices every tier's counts with one function).  The
differential property suite
(``tests/test_differential.py``) and the golden-trace equivalence tests
(``tests/test_fastsim.py``) enforce the contract for every policy kind
in the registry.
"""

from repro.fastsim.core import FastCore
from repro.fastsim.dcache import FastDCacheEngine
from repro.fastsim.fetch import FastFetchUnit
from repro.fastsim.icache import FastICacheEngine
from repro.fastsim.kernels import fast_dcache_kinds
from repro.fastsim.l2 import FastL2
from repro.fastsim.missrate import fast_miss_rate
from repro.fastsim.predictors import (
    FastBranchTargetBuffer,
    FastHybridPredictor,
    FastReturnAddressStack,
)

__all__ = [
    "FastBranchTargetBuffer",
    "FastCore",
    "FastDCacheEngine",
    "FastFetchUnit",
    "FastHybridPredictor",
    "FastICacheEngine",
    "FastL2",
    "FastReturnAddressStack",
    "fast_dcache_kinds",
    "fast_miss_rate",
]
