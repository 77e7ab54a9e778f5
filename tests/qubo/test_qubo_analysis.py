"""Tests for the QUBO density statistic."""

import numpy as np

from repro.qubo.analysis import qubo_density
from repro.qubo.model import QuboModel


class TestQuboDensity:
    def test_empty_coupling(self):
        m = QuboModel(np.zeros((5, 5)), np.ones(5))
        assert qubo_density(m) == 0.0

    def test_full_coupling(self):
        q = np.triu(np.ones((4, 4)), k=1)
        assert qubo_density(QuboModel(q)) == 1.0

    def test_single_variable(self):
        assert qubo_density(QuboModel(np.ones((1, 1)))) == 0.0

    def test_counts_symmetrised(self):
        q = np.zeros((3, 3))
        q[0, 1] = 1.0  # becomes (0,1) and (1,0) after symmetrisation
        assert np.isclose(qubo_density(QuboModel(q)), 2 / 6)
