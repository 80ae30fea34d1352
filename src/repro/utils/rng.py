"""Deterministic random number generation for reproducible experiments.

Every stochastic component (the workload generators) draws
from a :class:`DeterministicRng` seeded from a stable string so that two
runs of the same experiment produce bit-identical traces and results.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def seed_from_name(name: str, salt: int = 0) -> int:
    """Derive a stable 64-bit seed from a human-readable name.

    Uses SHA-256 rather than ``hash()`` because the latter is randomized
    per interpreter run.
    """
    digest = hashlib.sha256(f"{name}:{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK64


class DeterministicRng:
    """A seeded wrapper around :class:`random.Random` with domain helpers.

    The wrapper exists so call sites never touch the global ``random``
    module, and so the seeding convention (stable string names) is applied
    uniformly.
    """

    def __init__(self, name: str, salt: int = 0) -> None:
        self.name = name
        self.salt = salt
        self._random = random.Random(seed_from_name(name, salt))

    def fork(self, sub_name: str) -> "DeterministicRng":
        """Return an independent child stream; order of forks is stable."""
        return DeterministicRng(f"{self.name}/{sub_name}", self.salt)

    @property
    def raw(self) -> random.Random:
        """The underlying generator, for hot loops that bind its methods."""
        return self._random

    def uniform(self) -> float:
        """Return a float in [0, 1)."""
        return self._random.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def randint(self, low: int, high: int) -> int:
        """Return an integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly random element of ``items``."""
        return self._random.choice(items)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def geometric(self, mean: float, maximum: Optional[int] = None) -> int:
        """Return a geometric variate with the given mean (>= 1).

        Used for basic-block lengths and run lengths in the workload
        generator.  The distribution is shifted so the minimum is 1.
        """
        if mean < 1.0:
            raise ValueError(f"geometric mean must be >= 1, got {mean}")
        success = 1.0 / mean
        count = 1
        while not self._random.random() < success:
            count += 1
            if maximum is not None and count >= maximum:
                return maximum
        return count
