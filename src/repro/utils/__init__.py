"""Shared low-level utilities: bit manipulation, RNG, and statistics helpers.

These are deliberately dependency-free so every other subpackage can use
them without import cycles.
"""

from repro.utils.bitops import (
    AddressFields,
    bit_mask,
    extract_bits,
    is_power_of_two,
    log2_exact,
)
from repro.utils.rng import DeterministicRng, seed_from_name
from repro.utils.statsutil import arithmetic_mean, safe_ratio

__all__ = [
    "AddressFields",
    "bit_mask",
    "extract_bits",
    "is_power_of_two",
    "log2_exact",
    "DeterministicRng",
    "seed_from_name",
    "arithmetic_mean",
    "safe_ratio",
]
