"""Test-suite fixtures: small geometries, models, and traces.

Also isolates each session from exported ``REPRO_*`` variables and
from the on-disk caches, and pins the Hypothesis profile for the
differential property suite: the default ``ci`` profile is fully
deterministic (``derandomize=True``, no deadline), so property tests
cannot flake in CI; set ``HYPOTHESIS_PROFILE=dev`` locally to explore
with random seeds.
"""

import os

import pytest

from repro.cache.geometry import CacheGeometry
from repro.sim.config import SystemConfig

try:
    from hypothesis import HealthCheck
    from hypothesis import settings as hypothesis_settings

    hypothesis_settings.register_profile(
        "ci",
        deadline=None,  # simulation examples vary wildly in wall-clock
        derandomize=True,  # fixed example stream: no CI flakes
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile(
        "dev",
        deadline=None,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    pass


@pytest.fixture(scope="session", autouse=True)
def _hermetic_environment(tmp_path_factory):
    """Clear every exported ``REPRO_*`` variable, and point the
    run/artifact caches at a per-session temp directory.

    Cache keys do not cover simulator code, so a suite reading the
    working tree's ``.repro_cache/`` could pass on results a regressed
    simulator never produced.  Every session therefore starts empty.
    Likewise a ``REPRO_JOBS`` or ``REPRO_BACKEND`` left in the shell
    would change what the tests exercise.  Tests that need a value set
    it themselves with ``monkeypatch``, and subprocesses inherit the
    cleaned environment.
    """
    with pytest.MonkeyPatch.context() as patch:
        for name in [name for name in os.environ if name.startswith("REPRO_")]:
            patch.delenv(name)
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro_cache")))
        yield


def pytest_addoption(parser):
    """``--update-golden`` regenerates tests/golden/ snapshots in place."""
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden experiment snapshots instead of diffing them",
    )


@pytest.fixture
def geometry16k4w():
    """The paper's reference L1 geometry."""
    return CacheGeometry(16 * 1024, 4, 32)


@pytest.fixture
def tiny_geometry():
    """A 4-set, 2-way toy cache for exhaustive behavioural tests."""
    return CacheGeometry(256, 2, 32)


@pytest.fixture
def base_config():
    """The paper's Table 1 baseline system."""
    return SystemConfig()
