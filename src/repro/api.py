"""The documented library entry point: ``repro.api``.

Three calls cover the common library workflow::

    from repro.api import Machine

    machine = Machine.from_config(dcache_policy="seldm_waypred")
    result = machine.run("gcc", instructions=50_000)   # -> SimResult
    for info in Machine.policies("dcache"):
        print(info.kind, "-", info.label)

A :class:`Machine` wraps one immutable :class:`~repro.sim.config.SystemConfig`;
``run`` accepts a benchmark name (executed through the memoizing
runner, so repeated runs are free), a prebuilt
:class:`~repro.workload.trace.Trace` (executed directly on a fresh
simulator), or an externally captured trace file — a
:class:`~pathlib.Path` or a ``trace://path#format`` reference — which
streams through the format registry
(:mod:`repro.workload.formats`)::

    result = machine.run(Path("workload.din"))
    result = machine.run("trace://logs/app.csv.gz#csv", backend="fast")

Results come back as the structured
:class:`~repro.sim.results.SimResult`.

Custom policies plug in through the registry re-exported here::

    from repro.api import register_policy
    from repro.core.policy import DCachePolicy, ProbePlan

    @register_policy("mine", side="dcache", label="My policy",
                     params={"table_entries": 512})
    class MyPolicy(DCachePolicy):
        ...

    Machine.from_config(dcache_policy="mine").run("gcc", instructions=10_000)

For remote execution, the sweep-service client is re-exported here:
:class:`ServiceClient` / :func:`submit_and_wait` talk to a running
``repro-experiment serve`` instance and return report texts
byte-identical to the CLI's ``--json`` output.  The re-exports resolve
on first use, so importing this module never loads the service stack
(``asyncio``, ``sqlite3``, ``http.client``)::

    from repro.api import submit_and_wait

    report = submit_and_wait(
        {"kind": "experiment", "experiments": ["table4"]}, port=8765
    )
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.core.registry import (
    PolicyInfo,
    iter_policies,
    policy_kinds,
    register_policy,
    unregister_policy,
)
from repro.core.spec import PolicySpec
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.runner import run_benchmark
from repro.sim.simulator import Simulator
from repro.workload.formats import (
    is_trace_ref,
    load_trace,
    make_trace_ref,
    register_trace_format,
    trace_format_names,
    unregister_trace_format,
)
from repro.workload.trace import Trace

if TYPE_CHECKING:  # resolved lazily at run time by __getattr__ below
    from repro.service.client import ServiceClient, ServiceError, submit_and_wait

__all__ = [
    "Machine",
    "PolicyInfo",
    "PolicySpec",
    "ServiceClient",
    "ServiceError",
    "SimResult",
    "SystemConfig",
    "iter_policies",
    "load_trace",
    "make_trace_ref",
    "policy_kinds",
    "register_policy",
    "register_trace_format",
    "submit_and_wait",
    "trace_format_names",
    "unregister_policy",
    "unregister_trace_format",
]

#: Service-client names re-exported lazily (PEP 562 ``__getattr__``).
_SERVICE_EXPORTS = frozenset({"ServiceClient", "ServiceError", "submit_and_wait"})


def __getattr__(name: str) -> Any:
    """Import the service client on first use of one of its re-exports."""
    if name in _SERVICE_EXPORTS:
        from repro.service import client

        value = getattr(client, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Machine:
    """One configured system, ready to run traces.

    Build with :meth:`from_config`; the wrapped config is immutable, so
    a machine can be reused across runs and shared freely.
    """

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()

    # -------------------------------------------------------------- #
    # Construction
    # -------------------------------------------------------------- #

    @classmethod
    def from_config(
        cls,
        config: Optional[SystemConfig] = None,
        *,
        dcache_policy: Union[str, PolicySpec, None] = None,
        icache_policy: Union[str, PolicySpec, None] = None,
        **overrides: Any,
    ) -> "Machine":
        """Build a machine from a config plus convenient overrides.

        Args:
            config: base configuration (default: the paper's Table 1).
            dcache_policy: registered kind string or full spec.
            icache_policy: registered kind string or full spec.
            **overrides: any other :class:`SystemConfig` field (e.g.
                ``memory_latency=120``).
        """
        config = config if config is not None else SystemConfig()
        if dcache_policy is not None:
            spec = (
                PolicySpec.create(dcache_policy, side="dcache")
                if isinstance(dcache_policy, str)
                else dcache_policy
            )
            config = replace(config, dcache_policy=spec)
        if icache_policy is not None:
            spec = (
                PolicySpec.create(icache_policy, side="icache")
                if isinstance(icache_policy, str)
                else icache_policy
            )
            config = replace(config, icache_policy=spec)
        if overrides:
            config = replace(config, **overrides)
        return cls(config)

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #

    def run(
        self,
        trace: Union[Trace, str, Path],
        instructions: Optional[int] = None,
        salt: int = 0,
        use_cache: bool = True,
        backend: str = "reference",
    ) -> SimResult:
        """Run one workload on this machine.

        Args:
            trace: a prebuilt :class:`Trace` (including a
                :class:`~repro.workload.trace.StreamingTrace`), a
                benchmark name (see
                :func:`repro.workload.profiles.benchmark_names`), a
                ``trace://path[#format]`` reference, or a
                :class:`~pathlib.Path` to a trace file in any
                registered format.
            instructions: trace length for a benchmark name (default
                50,000), or a replay cap for a file trace (default:
                the whole file).
            salt: trace-generation salt when ``trace`` is a name
                (ignored for file traces).
            use_cache: resolve benchmark/file runs against the memo
                caches (file runs are keyed by content fingerprint, so
                an edited file always re-executes).
            backend: ``"reference"`` or ``"fast"`` (the batched
                backend); results are byte-identical by contract.

        Returns:
            The structured :class:`SimResult`.
        """
        if isinstance(trace, Trace):
            return Simulator(self.config, backend=backend).run(trace)
        if isinstance(trace, Path):
            trace = make_trace_ref(trace)
        if is_trace_ref(trace):
            instructions = 0 if instructions is None else instructions
        elif instructions is None:
            instructions = 50_000
        return run_benchmark(
            trace, self.config, instructions, salt=salt, use_cache=use_cache,
            backend=backend,
        )

    def simulator(self, backend: str = "reference") -> Simulator:
        """A fresh (single-use) simulator for this configuration."""
        return Simulator(self.config, backend=backend)

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    @staticmethod
    def policies(side: Optional[str] = None) -> Tuple[PolicyInfo, ...]:
        """Registered policies (both sides, or one)."""
        return tuple(iter_policies(side))

    def describe(self) -> str:
        """One-line human description of the wrapped config."""
        return self.config.describe()

    def __repr__(self) -> str:
        return f"Machine({self.config.describe()})"
