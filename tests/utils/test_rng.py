"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, ensure_rng


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_reproducible(self):
        a = ensure_rng(7).random(5)
        b = ensure_rng(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_accepted(self):
        a = ensure_rng(np.int64(9)).random()
        b = ensure_rng(9).random()
        assert a == b

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError, match="seed must be"):
            ensure_rng("not-a-seed")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            ensure_rng(1.5)


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 0) is None

    def test_deterministic(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)

    def test_streams_differ(self):
        assert derive_seed(5, 0) != derive_seed(5, 1)

    def test_from_generator_draws(self):
        gen = np.random.default_rng(0)
        s1 = derive_seed(gen, 0)
        s2 = derive_seed(gen, 0)
        assert isinstance(s1, int) and isinstance(s2, int)
        assert s1 != s2  # successive draws from the same generator

    def test_result_in_range(self):
        value = derive_seed(123456, 7)
        assert 0 <= value < 2**63 - 1
