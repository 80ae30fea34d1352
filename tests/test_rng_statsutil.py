"""Tests for deterministic RNG and statistics helpers."""

import pytest

from repro.utils.rng import DeterministicRng, seed_from_name
from repro.utils.statsutil import arithmetic_mean, safe_ratio


class TestSeeding:
    def test_same_name_same_seed(self):
        assert seed_from_name("gcc") == seed_from_name("gcc")

    def test_different_names_differ(self):
        assert seed_from_name("gcc") != seed_from_name("go")

    def test_salt_changes_seed(self):
        assert seed_from_name("gcc", 0) != seed_from_name("gcc", 1)

    def test_streams_reproducible(self):
        a = DeterministicRng("x")
        b = DeterministicRng("x")
        assert [a.randint(0, 100) for _ in range(50)] == [
            b.randint(0, 100) for _ in range(50)
        ]

    def test_forks_are_independent_but_stable(self):
        a = DeterministicRng("x").fork("child")
        b = DeterministicRng("x").fork("child")
        c = DeterministicRng("x").fork("other")
        seq_a = [a.uniform() for _ in range(10)]
        assert seq_a == [b.uniform() for _ in range(10)]
        assert seq_a != [c.uniform() for _ in range(10)]


class TestRngHelpers:
    def test_chance_extremes(self):
        rng = DeterministicRng("t")
        assert not rng.chance(0.0)
        assert rng.chance(1.0)

    def test_chance_rate(self):
        rng = DeterministicRng("t")
        hits = sum(rng.chance(0.3) for _ in range(20_000))
        assert 0.27 < hits / 20_000 < 0.33

    def test_geometric_mean_parameter(self):
        rng = DeterministicRng("t")
        draws = [rng.geometric(8.0) for _ in range(20_000)]
        assert 7.0 < sum(draws) / len(draws) < 9.0

    def test_geometric_minimum_one(self):
        rng = DeterministicRng("t")
        assert all(rng.geometric(1.0) == 1 for _ in range(100))

    def test_geometric_maximum_respected(self):
        rng = DeterministicRng("t")
        assert all(rng.geometric(50.0, maximum=5) <= 5 for _ in range(500))

    def test_geometric_rejects_sub_one_mean(self):
        with pytest.raises(ValueError):
            DeterministicRng("t").geometric(0.5)


class TestMeans:
    def test_arithmetic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_safe_ratio(self):
        assert safe_ratio(1.0, 2.0) == 0.5
        assert safe_ratio(1.0, 0.0) == 0.0
        assert safe_ratio(1.0, 0.0, default=1.0) == 1.0
