"""Tests for QHD classical post-processing."""

import numpy as np
import pytest

from repro.exceptions import QuboError
from repro.qhd.refinement import refine_candidates, round_positions
from repro.qubo.random_instances import random_qubo


class TestRoundPositions:
    def test_threshold(self):
        out = round_positions(np.array([0.49, 0.51, 0.5, 1.0, 0.0]))
        np.testing.assert_array_equal(out, [0, 1, 0, 1, 0])

    def test_batch(self):
        out = round_positions(np.array([[0.6, 0.2], [0.4, 0.9]]))
        np.testing.assert_array_equal(out, [[1, 0], [0, 1]])


class TestRefineCandidates:
    def test_improves_or_preserves_energy(self):
        model = random_qubo(20, 0.3, seed=0)
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 2, size=(10, 20)).astype(float)
        raw_energies = model.evaluate_batch(raw)
        refined, energies = refine_candidates(model, raw)
        assert energies.min() <= raw_energies.min() + 1e-12

    def test_output_is_local_minimum(self):
        model = random_qubo(15, 0.4, seed=2)
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 2, size=(5, 15)).astype(float)
        refined, energies = refine_candidates(model, raw)
        for x in refined:
            deltas = model.flip_deltas(x.astype(float))
            assert deltas.min() >= -1e-9  # no improving flip remains

    def test_deduplicates(self):
        model = random_qubo(8, 0.5, seed=4)
        same = np.tile(np.array([1.0, 0, 0, 1, 0, 1, 1, 0]), (6, 1))
        refined, _ = refine_candidates(model, same)
        assert len(refined) == 1

    def test_zero_sweeps_only_dedups(self):
        model = random_qubo(8, 0.5, seed=5)
        rng = np.random.default_rng(6)
        raw = rng.integers(0, 2, size=(4, 8)).astype(float)
        refined, energies = refine_candidates(model, raw, max_sweeps=0)
        for x, e in zip(refined, energies):
            assert np.isclose(model.evaluate(x.astype(float)), e)

    def test_rejects_1d(self):
        model = random_qubo(4, 0.5, seed=7)
        with pytest.raises(ValueError):
            refine_candidates(model, np.zeros(4))

    def test_energies_match_samples(self):
        model = random_qubo(12, 0.3, seed=8)
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 2, size=(7, 12)).astype(float)
        refined, energies = refine_candidates(model, raw)
        recomputed = model.evaluate_batch(refined.astype(float))
        np.testing.assert_allclose(energies, recomputed)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 853, 856])
    @pytest.mark.parametrize("rows", [1, 80])
    def test_dedup_equals_np_unique(self, width, rows):
        """Unique rows in ``np.unique(batch, axis=0)``'s exact order."""
        model = random_qubo(width, 0.1, seed=width)
        rng = np.random.default_rng(width + rows)
        pool = (rng.random((max(1, rows // 3), width)) < 0.45).astype(float)
        batch = pool[rng.integers(0, len(pool), size=rows)]
        refined, energies = refine_candidates(model, batch, max_sweeps=0)
        want = np.unique(batch, axis=0)
        np.testing.assert_array_equal(refined, want.astype(np.int8))
        np.testing.assert_array_equal(energies, model.evaluate_batch(want))

    @pytest.mark.parametrize("max_sweeps", [0, 5])
    def test_rejects_non_binary(self, max_sweeps):
        model = random_qubo(4, 0.5, seed=7)
        raw = np.array([[0.0, 1.0, 0.5, 1.0], [0.0, 1.0, 0.0, 1.0]])
        with pytest.raises(QuboError, match="binary"):
            refine_candidates(model, raw, max_sweeps=max_sweeps)
