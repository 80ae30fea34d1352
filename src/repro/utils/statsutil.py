"""Small statistics helpers shared by results reporting.

The paper reports arithmetic means of relative energy-delay and
performance degradation across applications.
"""

from __future__ import annotations

from typing import Iterable, List


def _as_list(values: Iterable[float]) -> List[float]:
    result = list(values)
    if not result:
        raise ValueError("mean of empty sequence")
    return result


def arithmetic_mean(values: Iterable[float]) -> float:
    """Return the arithmetic mean."""
    items = _as_list(values)
    return sum(items) / len(items)


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Return numerator/denominator, or ``default`` when the denominator is 0."""
    if denominator == 0:
        return default
    return numerator / denominator
