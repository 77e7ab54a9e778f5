"""Tests for the QuboModel container."""

import numpy as np
import pytest

from repro.exceptions import QuboError
from repro.qubo.model import QuboModel


class TestConstruction:
    def test_defaults(self):
        m = QuboModel(np.zeros((3, 3)))
        assert m.n_variables == 3
        assert m.offset == 0.0
        np.testing.assert_array_equal(m.effective_linear, np.zeros(3))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            QuboModel(np.zeros((2, 3)))

    def test_rejects_wrong_linear_shape(self):
        with pytest.raises(QuboError, match="linear"):
            QuboModel(np.zeros((2, 2)), [1.0])

    def test_rejects_nan_linear(self):
        with pytest.raises(QuboError):
            QuboModel(np.zeros((2, 2)), [np.nan, 0.0])

    def test_rejects_nan_offset(self):
        with pytest.raises(QuboError):
            QuboModel(np.zeros((2, 2)), offset=float("nan"))

    def test_diagonal_folded_into_linear(self):
        m = QuboModel(np.diag([2.0, 3.0]), [1.0, 1.0])
        np.testing.assert_allclose(m.effective_linear, [3.0, 4.0])
        np.testing.assert_allclose(m.coupling, np.zeros((2, 2)))

    def test_coupling_symmetrised(self):
        m = QuboModel(np.array([[0.0, 4.0], [0.0, 0.0]]))
        np.testing.assert_allclose(
            m.coupling, np.array([[0.0, 2.0], [2.0, 0.0]])
        )

    def test_readonly_views(self, small_qubo):
        with pytest.raises(ValueError):
            small_qubo.coupling[0, 0] = 1.0
        with pytest.raises(ValueError):
            small_qubo.effective_linear[0] = 1.0


class TestEvaluate:
    def test_known_energies(self, small_qubo):
        assert small_qubo.evaluate([0, 0]) == 0.0
        assert small_qubo.evaluate([1, 0]) == -1.0
        assert small_qubo.evaluate([0, 1]) == -1.0
        assert small_qubo.evaluate([1, 1]) == 0.0

    def test_offset_added(self):
        m = QuboModel(np.zeros((2, 2)), offset=5.0)
        assert m.evaluate([0, 0]) == 5.0

    def test_asymmetric_equals_symmetric(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(5, 5))
        m_asym = QuboModel(q)
        m_sym = QuboModel(0.5 * (q + q.T))
        x = rng.integers(0, 2, size=5).astype(float)
        assert np.isclose(m_asym.evaluate(x), m_sym.evaluate(x))

    def test_wrong_shape(self, small_qubo):
        with pytest.raises(QuboError):
            small_qubo.evaluate([1.0, 0.0, 0.0])

    def test_batch_matches_single(self, random_qubo_12):
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 2, size=(20, 12)).astype(float)
        batch = random_qubo_12.evaluate_batch(xs)
        singles = [random_qubo_12.evaluate(x) for x in xs]
        np.testing.assert_allclose(batch, singles)

    def test_batch_wrong_shape(self, random_qubo_12):
        with pytest.raises(QuboError):
            random_qubo_12.evaluate_batch(np.zeros((5, 3)))

    def test_relaxed_input_accepted(self, small_qubo):
        # Evaluation is defined on [0, 1]^n too (used by QHD).
        value = small_qubo.evaluate([0.5, 0.5])
        assert np.isclose(value, 0.5 * 2.0 * 0.5 - 1.0)


class TestFlipDeltas:
    def test_matches_definition(self, random_qubo_12):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=12).astype(float)
        deltas = random_qubo_12.flip_deltas(x)
        for i in range(12):
            y = x.copy()
            y[i] = 1.0 - y[i]
            expected = random_qubo_12.evaluate(y) - random_qubo_12.evaluate(x)
            assert np.isclose(deltas[i], expected)

    def test_single_flip_matches_vector(self, random_qubo_12):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=12).astype(float)
        deltas = random_qubo_12.flip_deltas(x)
        for i in range(12):
            assert np.isclose(
                random_qubo_12.flip_delta(x, i), deltas[i]
            )

    def test_local_fields_definition(self, random_qubo_12):
        # h_i = E(x | x_i=1) - E(x | x_i=0)
        rng = np.random.default_rng(4)
        x = rng.random(12)
        fields = random_qubo_12.local_fields(x)
        for i in range(12):
            x1, x0 = x.copy(), x.copy()
            x1[i], x0[i] = 1.0, 0.0
            expected = random_qubo_12.evaluate(x1) - random_qubo_12.evaluate(
                x0
            )
            assert np.isclose(fields[i], expected)

    def test_local_fields_batch(self, random_qubo_12):
        rng = np.random.default_rng(5)
        xs = rng.random((7, 12))
        batch = random_qubo_12.local_fields_batch(xs)
        for row, x in zip(batch, xs):
            np.testing.assert_allclose(row, random_qubo_12.local_fields(x))


class TestBruteForce:
    def test_small_known(self, small_qubo):
        x, energy = small_qubo.brute_force_minimum()
        assert energy == -1.0
        assert x.sum() == 1

    def test_zero_variables(self):
        m = QuboModel(np.zeros((0, 0)), offset=3.0)
        x, energy = m.brute_force_minimum()
        assert energy == 3.0
        assert len(x) == 0

    def test_cap_enforced(self):
        m = QuboModel(np.zeros((30, 30)))
        with pytest.raises(QuboError, match="limited"):
            m.brute_force_minimum()

    def test_all_ones_optimum(self):
        # All couplings negative: the optimum is all ones.
        n = 6
        q = -np.triu(np.ones((n, n)), k=1)
        m = QuboModel(q, -np.ones(n))
        x, energy = m.brute_force_minimum()
        np.testing.assert_array_equal(x, np.ones(n))

    def test_matches_exhaustive_python(self, random_qubo_12):
        import itertools

        best = min(
            random_qubo_12.evaluate(np.asarray(bits, dtype=float))
            for bits in itertools.product((0, 1), repeat=12)
        )
        _, energy = random_qubo_12.brute_force_minimum()
        assert np.isclose(energy, best)
