"""Property tests for the incremental flip-delta engine.

The contract under test: a :class:`FlipDeltaState` driven through any
sequence of accepted flips agrees with a fresh ``model.flip_deltas(x)``
recomputation at the final assignment — on the dense backend, the
explicit-coupling sparse backend, and the factor-backed sparse backend
(where factor-row updates fold directly into the maintained fields,
never a full reprojection).

``FrozenFlipState`` / ``FrozenBatchFlipState`` below are frozen copies
of the flip and best-flip arithmetic from before factor rows were
updated through strided views and the flip signs were maintained: every
factor row goes through ``fields[indices] += w * data`` and every
argmin rebuilds ``1 - 2x``.  ``TestFrozenKernelContract`` pins the
current engine to them bit for bit.

``frozen_local_search_batch`` is the batched 1-opt descent from before
it kept only the still-improving trajectories in its working set: every
sweep takes the argmin over the whole batch and flips the improving
rows through fancy-indexed gathers and scatters.
``TestLiveRowDescentContract`` pins :func:`local_search_batch` to it.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import QuboError
from repro.graphs import lfr_graph, ring_of_cliques
from repro.qubo import (
    BatchFlipDeltaState,
    FlipDeltaState,
    QuboModel,
    SparseQuboModel,
    build_community_qubo,
)
from repro.qubo.random_instances import random_qubo


def _dense_model(seed, n=32, density=0.3):
    return random_qubo(n, density, seed=seed)


def _sparse_model(seed, n=48, density=0.08):
    return SparseQuboModel.from_dense(random_qubo(n, density, seed=seed))


def _factor_model(seed, n_nodes=40, k=3):
    graph, _ = lfr_graph(n_nodes, mixing=0.15, seed=seed)
    return build_community_qubo(graph, k, backend="sparse").model


def _random_factor_model(seed, n=30, t=6):
    rng = np.random.default_rng(seed)
    coupling = sparse.random(
        n, n, density=0.1, random_state=rng, format="csr"
    )
    f_mat = sparse.random(t, n, density=0.4, random_state=rng, format="csr")
    return SparseQuboModel(
        coupling,
        rng.normal(size=n),
        offset=0.5,
        factors=(rng.normal(size=t), f_mat, rng.normal(size=t)),
    )


MODEL_FACTORIES = [
    pytest.param(_dense_model, id="dense"),
    pytest.param(_sparse_model, id="sparse"),
    pytest.param(_factor_model, id="sparse-factors"),
    pytest.param(_random_factor_model, id="random-factors"),
]

#: Columns of each factor row of ``_mixed_factor_model`` over n = 24,
#: with the slice step the row layout must record (0 = index array).
#: The last row repeats the second's columns, as the community QUBO's
#: null-model and balance rows do, so adding the two rows' updates in
#: one pass would change the rounding.
MIXED_ROWS = [
    ([0, 1, 2, 3, 4, 5, 6, 7], 1),
    ([2, 5, 8, 11, 14, 17, 20, 23], 3),
    ([1, 2, 4, 8, 16], 0),
    ([], 0),
    ([9], 1),
    ([3, 10], 7),
    ([0, 4, 8, 12, 16, 20], 4),
    ([5, 6, 9, 10, 13, 14], 0),
    ([2, 5, 8, 11, 14, 17, 20, 23], 3),
]


def _mixed_factor_model(seed, n=24):
    """Factor rows that mix slices, index arrays and short rows."""
    rng = np.random.default_rng(seed)
    rows = [t for t, (cols, _) in enumerate(MIXED_ROWS) for _ in cols]
    cols = [c for cols, _ in MIXED_ROWS for c in cols]
    f_mat = sparse.csr_matrix(
        (rng.normal(size=len(cols)), (rows, cols)),
        shape=(len(MIXED_ROWS), n),
    )
    t = len(MIXED_ROWS)
    return SparseQuboModel(
        sparse.random(n, n, density=0.15, random_state=rng, format="csr"),
        rng.normal(size=n),
        factors=(rng.normal(size=t), f_mat, rng.normal(size=t)),
    )


FACTOR_FACTORIES = [
    pytest.param(_factor_model, id="sparse-factors"),
    pytest.param(_random_factor_model, id="random-factors"),
    pytest.param(_mixed_factor_model, id="mixed-factors"),
]


def _next_sparse_model(model):
    """A fresh model on ``model``'s coupling and factor structure.

    The stream's case: every event batch builds a new model whose
    factor rows keep their columns while the factor data,
    coefficients and linear term change.
    """
    factors = None
    terms = model.factor_terms()
    if terms is not None:
        alpha, f_csr, _, _ = terms
        data = sparse.csr_matrix(
            (f_csr.data * 1.5 - 0.25, f_csr.indices, f_csr.indptr),
            shape=f_csr.shape,
        )
        factors = (alpha * 0.75 + 0.125, data, np.full(alpha.shape, -0.5))
    return SparseQuboModel(
        model.coupling,
        np.asarray(model.effective_linear) + 0.25,
        model.offset,
        factors=factors,
    )


class FrozenFlipState:
    """``FlipDeltaState.flip`` / ``best_flip`` before strided factor rows.

    Frozen copy: the fields, energy and assignment start from the same
    model calls as the engine, and every flip replays the old
    arithmetic — ``1 - 2x`` rebuilt per call, ``alpha[trows] * fvals``
    formed per flip, every factor row scattered through its indices.
    """

    def __init__(self, model, x):
        self.x = np.array(x, dtype=np.float64)
        self.fields = np.asarray(
            model.local_fields(self.x), dtype=np.float64
        ).copy()
        self.energy = float(model.evaluate(self.x))
        self._wire(model)

    def _wire(self, model):
        coupling = model.coupling
        if sparse.issparse(coupling):
            csr = coupling.tocsr()
            self.dense_rows = None
            self.row_indptr, self.row_indices, self.row_data = (
                csr.indptr, csr.indices, csr.data,
            )
        else:
            self.dense_rows = np.asarray(coupling, dtype=np.float64)
        getter = getattr(model, "factor_terms", None)
        factors = None if getter is None else getter()
        self.f_alpha = None
        if factors is not None:
            self.f_alpha, f_csr, f_csc, self.f_diag = factors
            self.f_row_indptr = f_csr.indptr
            self.f_row_indices = f_csr.indices
            self.f_row_data = f_csr.data
            self.f_col_indptr = f_csc.indptr
            self.f_col_indices = f_csc.indices
            self.f_col_data = f_csc.data

    def best_flip(self, where=None):
        scratch = np.empty_like(self.x)
        np.multiply(self.x, -2.0, out=scratch)
        np.add(scratch, 1.0, out=scratch)
        np.multiply(scratch, self.fields, out=scratch)
        if where is not None:
            scratch[np.logical_not(where)] = np.inf
        index = int(np.argmin(scratch))
        return index, float(scratch[index])

    def flip(self, index):
        i = int(index)
        fields = self.fields
        s = 1.0 - 2.0 * self.x[i]
        delta = float(s * fields[i])
        if self.dense_rows is not None:
            fields += (2.0 * s) * self.dense_rows[i]
        else:
            a, b = self.row_indptr[i], self.row_indptr[i + 1]
            fields[self.row_indices[a:b]] += (2.0 * s) * self.row_data[a:b]
        if self.f_alpha is not None:
            ca, cb = self.f_col_indptr[i], self.f_col_indptr[i + 1]
            trows = self.f_col_indices[ca:cb]
            if trows.size:
                fvals = self.f_col_data[ca:cb]
                weights = (2.0 * s) * (self.f_alpha[trows] * fvals)
                indptr = self.f_row_indptr
                indices = self.f_row_indices
                data = self.f_row_data
                for t, w in zip(trows.tolist(), weights.tolist()):
                    ra, rb = indptr[t], indptr[t + 1]
                    fields[indices[ra:rb]] += w * data[ra:rb]
                fields[i] -= (2.0 * s) * self.f_diag[i]
        self.x[i] = 1.0 - self.x[i]
        self.energy += delta
        return delta


class FrozenBatchFlipState(FrozenFlipState):
    """``BatchFlipDeltaState.flip`` before strided factor rows."""

    def __init__(self, model, xs):
        self.x = np.array(xs, dtype=np.float64)
        self.fields = np.asarray(
            model.local_fields_batch(self.x), dtype=np.float64
        ).copy()
        self.energies = np.asarray(
            model.evaluate_batch(self.x), dtype=np.float64
        ).copy()
        self._wire(model)

    def flip(self, rows, cols):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        signs = 1.0 - 2.0 * self.x[rows, cols]
        deltas = signs * self.fields[rows, cols]
        indptr = self.row_indptr
        indices = self.row_indices
        data = self.row_data
        for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
            a, b = indptr[c], indptr[c + 1]
            self.fields[r, indices[a:b]] += (2.0 * s) * data[a:b]
        f_indptr = self.f_row_indptr
        f_indices = self.f_row_indices
        f_data = self.f_row_data
        for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
            ca, cb = self.f_col_indptr[c], self.f_col_indptr[c + 1]
            trows = self.f_col_indices[ca:cb]
            if not trows.size:
                continue
            fvals = self.f_col_data[ca:cb]
            weights = (2.0 * s) * (self.f_alpha[trows] * fvals)
            row_fields = self.fields[r]
            for t, w in zip(trows.tolist(), weights.tolist()):
                ra, rb = f_indptr[t], f_indptr[t + 1]
                row_fields[f_indices[ra:rb]] += w * f_data[ra:rb]
            row_fields[c] -= (2.0 * s) * self.f_diag[c]
        self.x[rows, cols] = 1.0 - self.x[rows, cols]
        self.energies[rows] += deltas
        return deltas


class FrozenDescentState(FrozenFlipState):
    """``BatchFlipDeltaState`` as the whole-batch descent drove it.

    Frozen copy: ``best_flips`` rebuilds ``1 - 2x`` over every row,
    dense flips add ``(2 s)[:, None] * S[cols]`` into ``fields[rows]``,
    sparse flips update each row through its CSR slice and factor rows.
    """

    def __init__(self, model, xs):
        self.x = np.array(xs, dtype=np.float64)
        self.fields = np.asarray(
            model.local_fields_batch(self.x), dtype=np.float64
        ).copy()
        self._wire(model)

    def best_flips(self):
        scratch = np.empty_like(self.x)
        np.multiply(self.x, -2.0, out=scratch)
        np.add(scratch, 1.0, out=scratch)
        np.multiply(scratch, self.fields, out=scratch)
        cols = np.argmin(scratch, axis=1)
        return cols, scratch[np.arange(len(cols)), cols]

    def flip(self, rows, cols):
        signs = 1.0 - 2.0 * self.x[rows, cols]
        if self.dense_rows is not None:
            self.fields[rows] += (
                (2.0 * signs)[:, None] * self.dense_rows[cols]
            )
        else:
            for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
                a, b = self.row_indptr[c], self.row_indptr[c + 1]
                self.fields[r, self.row_indices[a:b]] += (
                    (2.0 * s) * self.row_data[a:b]
                )
        if self.f_alpha is not None:
            for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
                ca, cb = self.f_col_indptr[c], self.f_col_indptr[c + 1]
                trows = self.f_col_indices[ca:cb]
                if not trows.size:
                    continue
                weights = (2.0 * s) * (
                    self.f_alpha[trows] * self.f_col_data[ca:cb]
                )
                row_fields = self.fields[r]
                for t, w in zip(trows.tolist(), weights.tolist()):
                    ra, rb = self.f_row_indptr[t], self.f_row_indptr[t + 1]
                    row_fields[self.f_row_indices[ra:rb]] += (
                        w * self.f_row_data[ra:rb]
                    )
                row_fields[c] -= (2.0 * s) * self.f_diag[c]
        self.x[rows, cols] = 1.0 - self.x[rows, cols]


def frozen_local_search_batch(model, xs, max_sweeps):
    """``local_search_batch`` before live rows; also returns flip counts."""
    state = FrozenDescentState(model, xs)
    active = np.ones(len(xs), dtype=bool)
    rows = np.arange(len(xs))
    flips = np.zeros(len(xs), dtype=np.int64)
    for _ in range(max_sweeps):
        if not np.any(active):
            break
        best, best_deltas = state.best_flips()
        improving = best_deltas < -1e-12
        improving &= active
        if not np.any(improving):
            break
        state.flip(rows[improving], best[improving])
        flips += improving
        active = improving
    result = state.x
    return result.astype(np.int8), model.evaluate_batch(result), flips


class TestFlipDeltaState:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_after_random_flips(self, factory, seed):
        """After k accepted flips the state matches model.flip_deltas."""
        model = factory(seed)
        rng = np.random.default_rng(100 + seed)
        n = model.n_variables
        x = (rng.random(n) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x)
        for _ in range(150):
            state.flip(int(rng.integers(n)))
        fresh = model.flip_deltas(state.x)
        np.testing.assert_allclose(state.deltas(), fresh, atol=1e-9)
        assert state.energy == pytest.approx(
            model.evaluate(state.x), abs=1e-9
        )
        assert state.n_flips == 150

    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    def test_initial_deltas_bit_exact(self, factory):
        """Before any flip the state IS the fresh computation."""
        model = factory(7)
        rng = np.random.default_rng(7)
        x = (rng.random(model.n_variables) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x)
        np.testing.assert_array_equal(state.deltas(), model.flip_deltas(x))

    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    def test_flip_returns_applied_delta(self, factory):
        model = factory(3)
        rng = np.random.default_rng(3)
        x = (rng.random(model.n_variables) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x)
        energy_before = state.energy
        i = int(rng.integers(model.n_variables))
        expected = state.delta(i)
        assert state.flip(i) == expected
        assert state.energy == energy_before + expected
        # Flipping a bit negates its own delta (its field is unchanged).
        assert state.delta(i) == pytest.approx(-expected, abs=1e-9)

    def test_single_index_matches_full_array(self):
        model = _factor_model(5)
        rng = np.random.default_rng(5)
        x = (rng.random(model.n_variables) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x)
        for _ in range(30):
            state.flip(int(rng.integers(model.n_variables)))
        deltas = state.deltas()
        for i in range(0, model.n_variables, 7):
            assert state.delta(i) == deltas[i]

    def test_refresh_resyncs_exactly(self):
        model = _factor_model(9)
        rng = np.random.default_rng(9)
        x = (rng.random(model.n_variables) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x)
        for _ in range(200):
            state.flip(int(rng.integers(model.n_variables)))
        state.refresh()
        np.testing.assert_array_equal(
            state.deltas(), model.flip_deltas(state.x)
        )
        assert state.energy == model.evaluate(state.x)

    def test_x_is_read_only(self):
        model = _dense_model(0)
        state = FlipDeltaState(model, np.zeros(model.n_variables))
        with pytest.raises(ValueError):
            state.x[0] = 1.0

    def test_rejects_wrong_shape(self):
        model = _dense_model(0)
        with pytest.raises(QuboError, match="shape"):
            FlipDeltaState(model, np.zeros(model.n_variables + 1))

    def test_rejects_non_model(self):
        with pytest.raises(QuboError, match="BaseQubo"):
            FlipDeltaState("not a model", np.zeros(3))

    def test_input_vector_not_aliased(self):
        model = _dense_model(1)
        x = np.zeros(model.n_variables)
        state = FlipDeltaState(model, x)
        state.flip(0)
        assert x[0] == 0.0  # the caller's array is untouched


class TestBatchFlipDeltaState:
    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    def test_rows_match_fresh_after_flips(self, factory):
        """Every trajectory row agrees with fresh per-row recomputation."""
        model = factory(11)
        rng = np.random.default_rng(11)
        n = model.n_variables
        batch = (rng.random((5, n)) < 0.5).astype(np.float64)
        state = BatchFlipDeltaState(model, batch)
        for _ in range(40):
            rows = np.arange(5)
            cols = rng.integers(0, n, size=5)
            state.flip(rows, cols)
        deltas = state.deltas()
        for r in range(5):
            np.testing.assert_allclose(
                deltas[r], model.flip_deltas(state.x[r]), atol=1e-9
            )
        np.testing.assert_allclose(
            state.energies, model.evaluate_batch(state.x), atol=1e-9
        )

    def test_partial_row_subset_flips(self):
        """Flipping a subset of rows leaves the other rows untouched."""
        model = _sparse_model(13)
        rng = np.random.default_rng(13)
        n = model.n_variables
        batch = (rng.random((4, n)) < 0.5).astype(np.float64)
        state = BatchFlipDeltaState(model, batch)
        before = state.deltas()[2].copy()
        state.flip(np.array([0, 3]), np.array([1, 2]))
        np.testing.assert_array_equal(state.deltas()[2], before)
        np.testing.assert_array_equal(state.x[2], batch[2])

    def test_matches_single_trajectory_state(self):
        """A batch of one evolves exactly like the single-x state."""
        model = _factor_model(17)
        rng = np.random.default_rng(17)
        n = model.n_variables
        x = (rng.random(n) < 0.5).astype(np.float64)
        single = FlipDeltaState(model, x)
        batch = BatchFlipDeltaState(model, x[None, :])
        for _ in range(25):
            i = int(rng.integers(n))
            d_single = single.flip(i)
            d_batch = batch.flip(np.array([0]), np.array([i]))[0]
            assert d_single == d_batch
        np.testing.assert_array_equal(batch.deltas()[0], single.deltas())

    def test_rejects_1d(self):
        model = _dense_model(0)
        with pytest.raises(QuboError, match="shape"):
            BatchFlipDeltaState(model, np.zeros(model.n_variables))


class TestFactorTermsAccessor:
    def test_none_without_factors(self):
        model = _sparse_model(0)
        assert model.factor_terms() is None

    def test_shapes_and_caching(self):
        graph, _ = ring_of_cliques(3, 5)
        model = build_community_qubo(graph, 3, backend="sparse").model
        terms = model.factor_terms()
        assert terms is not None
        alpha, f_csr, f_csc, diag = terms
        assert f_csr.shape == f_csc.shape
        assert f_csr.shape[1] == model.n_variables
        assert alpha.shape == (f_csr.shape[0],)
        assert diag.shape == (model.n_variables,)
        # The CSC copy is built lazily once and shared across calls.
        assert model.factor_terms()[2] is f_csc


class TestBestFlip:
    """The fused argmin must equal the copying ``deltas()`` path."""

    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_copying_argmin_along_trajectory(self, factory, seed):
        model = factory(seed)
        rng = np.random.default_rng(300 + seed)
        n = model.n_variables
        state = FlipDeltaState(
            model, (rng.random(n) < 0.5).astype(np.float64)
        )
        for _ in range(60):
            deltas = state.deltas()
            expected_index = int(np.argmin(deltas))
            index, delta = state.best_flip()
            assert index == expected_index
            assert delta == deltas[expected_index]
            state.flip(int(rng.integers(n)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masked_matches_np_where_path(self, seed):
        model = _dense_model(seed)
        rng = np.random.default_rng(400 + seed)
        n = model.n_variables
        state = FlipDeltaState(
            model, (rng.random(n) < 0.5).astype(np.float64)
        )
        for _ in range(40):
            allowed = rng.random(n) < 0.6
            if not allowed.any():
                allowed[int(rng.integers(n))] = True
            masked = np.where(allowed, state.deltas(), np.inf)
            expected_index = int(np.argmin(masked))
            index, delta = state.best_flip(where=allowed)
            assert index == expected_index
            assert delta == masked[expected_index]
            state.flip(int(rng.integers(n)))

    def test_tie_breaks_to_lowest_index(self):
        # Symmetric instance: both unit flips carry the same delta.
        model = QuboModel(np.zeros((3, 3)), [-2.0, -2.0, -2.0])
        state = FlipDeltaState(model, np.zeros(3))
        assert state.best_flip() == (0, -2.0)

    def test_empty_mask_rejected(self):
        model = _dense_model(0)
        state = FlipDeltaState(model, np.zeros(model.n_variables))
        with pytest.raises(QuboError, match="allowed"):
            state.best_flip(where=np.zeros(model.n_variables, dtype=bool))

    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    def test_batch_matches_copying_argmin(self, factory):
        model = factory(1)
        rng = np.random.default_rng(77)
        n = model.n_variables
        xs = (rng.random((5, n)) < 0.5).astype(np.float64)
        state = BatchFlipDeltaState(model, xs)
        for _ in range(20):
            deltas = state.deltas()
            expected_cols = np.argmin(deltas, axis=1)
            rows = np.arange(len(xs))
            cols, best = state.best_flips()
            np.testing.assert_array_equal(cols, expected_cols)
            np.testing.assert_array_equal(
                best, deltas[rows, expected_cols]
            )
            state.flip(rows, rng.integers(0, n, size=len(xs)))

    def test_read_only_and_idempotent(self):
        model = _dense_model(2)
        state = FlipDeltaState(model, np.zeros(model.n_variables))
        first = state.best_flip()
        # Plain scalars out of the state-owned scratch: repeated reads
        # are idempotent and never mutate the trajectory.
        assert isinstance(first[0], int) and isinstance(first[1], float)
        assert state.best_flip() == first
        assert state.n_flips == 0


class TestRepatch:
    """``repatch``: re-anchor a live state to a patched model.

    A repatched state must equal a fresh state on the new model
    bit-exactly on every backend.
    """

    @pytest.mark.parametrize(
        "factory", [_dense_model, _sparse_model, _factor_model,
                    _random_factor_model]
    )
    def test_full_repatch_equals_fresh_state(self, factory):
        model = factory(seed=0)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=model.n_variables).astype(np.float64)
        state = FlipDeltaState(model, x)
        for _ in range(5):
            state.flip(int(rng.integers(model.n_variables)))
        if isinstance(model, SparseQuboModel):
            patched = _next_sparse_model(model)
        else:
            patched = QuboModel(
                np.asarray(model.coupling),
                np.asarray(model.effective_linear) + 0.25,
                model.offset,
            )
        state.repatch(patched)
        reference = FlipDeltaState(patched, state.x)
        np.testing.assert_array_equal(state.deltas(), reference.deltas())
        assert state.energy == reference.energy
        assert state.model is patched

    def test_rejects_model_shape_mismatch(self):
        model = _dense_model(seed=8, n=16)
        other = _dense_model(seed=8, n=17)
        x = np.zeros(16)
        state = FlipDeltaState(model, x)
        with pytest.raises(QuboError):
            state.repatch(other)
        with pytest.raises(QuboError):
            state.repatch("not a model")


class TestFrozenKernelContract:
    """Bit-exact against ``FrozenFlipState`` / ``FrozenBatchFlipState``.

    Strided factor rows, the per-bind ``alpha_t f_ti`` weights and the
    maintained flip signs must reproduce the frozen arithmetic exactly:
    fields, assignment and energy after every flip, and the
    ``(index, delta)`` of every best flip, masked or not.
    """

    @pytest.mark.parametrize(
        "factory",
        MODEL_FACTORIES
        + [pytest.param(_mixed_factor_model, id="mixed-factors")],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_flip_and_best_flip_match_frozen(self, factory, seed):
        model = factory(seed)
        rng = np.random.default_rng(700 + seed)
        n = model.n_variables
        x0 = (rng.random(n) < 0.5).astype(np.float64)
        state = FlipDeltaState(model, x0)
        frozen = FrozenFlipState(model, x0)
        for step in range(120):
            allowed = rng.random(n) < 0.5
            allowed[int(rng.integers(n))] = True
            best = frozen.best_flip()
            assert state.best_flip() == best
            assert state.best_flip(where=allowed) == frozen.best_flip(
                where=allowed
            )
            # Alternate descent moves with random ones.
            index = best[0] if step % 2 else int(rng.integers(n))
            assert state.flip(index) == frozen.flip(index)
            np.testing.assert_array_equal(state._fields, frozen.fields)
            np.testing.assert_array_equal(state.x, frozen.x)
            assert state.energy == frozen.energy

    @pytest.mark.parametrize("factory", FACTOR_FACTORIES)
    def test_batch_flip_matches_frozen(self, factory):
        model = factory(4)
        rng = np.random.default_rng(704)
        n = model.n_variables
        xs = (rng.random((6, n)) < 0.5).astype(np.float64)
        state = BatchFlipDeltaState(model, xs)
        frozen = FrozenBatchFlipState(model, xs)
        for _ in range(60):
            size = int(rng.integers(1, 7))
            rows = rng.choice(6, size=size, replace=False)
            cols = rng.integers(0, n, size=size)
            np.testing.assert_array_equal(
                state.flip(rows, cols), frozen.flip(rows, cols)
            )
            np.testing.assert_array_equal(state._fields, frozen.fields)
            np.testing.assert_array_equal(state.x, frozen.x)
            np.testing.assert_array_equal(state.energies, frozen.energies)

    def test_mixed_rows_take_both_update_paths(self):
        layout = _mixed_factor_model(0).factor_row_layout()
        assert layout[:, 4].tolist() == [step for _, step in MIXED_ROWS]
        for (cols, step), (ra, rb, start, stop, _) in zip(
            MIXED_ROWS, layout.tolist()
        ):
            assert rb - ra == len(cols)
            if step:
                assert list(range(start, stop, step)) == cols

    def test_community_rows_are_all_slices(self):
        """Null-model and balance rows step by k, assignment rows by 1."""
        model = _factor_model(0)  # k = 3
        assert set(model.factor_row_layout()[:, 4].tolist()) == {1, 3}

    def test_layout_rejects_storage_that_is_not_increasing(self):
        from repro.qubo.sparse import _row_progressions

        indptr = np.array([0, 3, 5, 6, 6, 9])
        indices = np.array([5, 3, 1, 2, 2, 4, 1, 3, 5])
        assert _row_progressions(indptr, indices).tolist() == [
            [0, 3, 5, 5, 0],  # decreasing progression
            [3, 5, 2, 2, 0],  # repeated column
            [5, 6, 4, 5, 1],  # single entry: the slice 4:5
            [6, 6, 0, 0, 0],  # empty row
            [6, 9, 1, 6, 2],
        ]

    def test_layout_cached_and_shared_by_patch(self):
        model = _factor_model(1)
        layout = model.factor_row_layout()
        assert model.factor_row_layout() is layout
        np.testing.assert_array_equal(
            _next_sparse_model(model).factor_row_layout(), layout
        )
        assert _sparse_model(0).factor_row_layout() is None


class TestBinaryAssignments:
    """Both states reject assignments with entries other than 0 and 1."""

    def test_single_state_rejects_non_binary(self):
        model = QuboModel([[0, 2], [0, 0]], [-1, -1])
        for bad in ([0.5, 3.0], [np.nan, 0.0], [2.0, 0.0]):
            with pytest.raises(QuboError, match="binary"):
                FlipDeltaState(model, bad)
        FlipDeltaState(model, np.array([1, 0], dtype=np.int8))

    def test_batch_state_rejects_non_binary(self):
        model = QuboModel([[0, 2], [0, 0]], [-1, -1])
        for bad in ([[0.5, 2.0]], [[0.0, 1.0], [np.nan, 1.0]]):
            with pytest.raises(QuboError, match="binary"):
                BatchFlipDeltaState(model, bad)
        BatchFlipDeltaState(model, [[1, 0], [0, 1]])


class TestRepeatedRows:
    """``BatchFlipDeltaState.flip`` rejects a trajectory listed twice."""

    def test_repeated_row_rejected_before_any_update(self):
        rng = np.random.default_rng(0)
        model = QuboModel(rng.standard_normal((4, 4)), rng.standard_normal(4))
        state = BatchFlipDeltaState(model, np.zeros((1, 4)))
        with pytest.raises(QuboError, match="repeat"):
            state.flip([0, 0], [0, 1])
        np.testing.assert_array_equal(state.x, np.zeros((1, 4)))
        assert state.energies[0] == model.evaluate(np.zeros(4))

    @pytest.mark.parametrize("rows", [[2, 0, 2], [1, -2]])
    def test_repeats_anywhere_rejected(self, rows):
        model = _dense_model(3, n=6)
        state = BatchFlipDeltaState(model, np.zeros((3, 6)))
        with pytest.raises(QuboError, match="repeat"):
            state.flip(rows, list(range(len(rows))))

    def test_distinct_rows_still_flip(self):
        model = _dense_model(3, n=6)
        state = BatchFlipDeltaState(model, np.zeros((3, 6)))
        state.flip([2, 0], [1, 4])
        assert state.x[2, 1] == 1.0 and state.x[0, 4] == 1.0
        np.testing.assert_allclose(
            state.energies, model.evaluate_batch(state.x), atol=1e-12
        )


class TestLiveRowDescentContract:
    """``local_search_batch`` equals ``frozen_local_search_batch``.

    Retired trajectories leave the working set and live ones are
    compacted to a prefix, yet every refined assignment and energy must
    be ``array_equal`` to the whole-batch descent, in the input order.
    """

    @staticmethod
    def _assert_matches_frozen(model, xs, max_sweeps):
        from repro.solvers.greedy import local_search_batch

        got_x, got_e = local_search_batch(model, xs, max_sweeps=max_sweeps)
        want_x, want_e, flips = frozen_local_search_batch(
            model, xs, max_sweeps
        )
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_e, want_e)
        return flips

    @pytest.mark.parametrize("factory", MODEL_FACTORIES)
    @pytest.mark.parametrize("max_sweeps", [3, None])
    def test_model_factories(self, factory, max_sweeps):
        model = factory(2)
        n = model.n_variables
        rng = np.random.default_rng(800)
        xs = (rng.random((12, n)) < 0.5).astype(np.float64)
        sweeps = 2 * n + 100 if max_sweeps is None else max_sweeps
        self._assert_matches_frozen(model, xs, sweeps)

    def test_base_solve_shape(self):
        """Dense, ~900 variables, 80 candidates with ~45% ones."""
        graph, _ = lfr_graph(112, mixing=0.2, seed=8)
        model = build_community_qubo(graph, 8, backend="dense").model
        n = model.n_variables
        assert 850 <= n <= 950 and model.kronecker_terms() is not None
        rng = np.random.default_rng(801)
        xs = np.unique((rng.random((80, n)) < 0.45).astype(np.float64), axis=0)
        flips = self._assert_matches_frozen(model, xs, 2 * n + 100)
        assert flips.min() > 100

    def test_rows_converge_at_different_sweeps(self):
        model = _factor_model(3, n_nodes=30, k=3)
        n = model.n_variables
        rng = np.random.default_rng(802)
        start = (rng.random(n) < 0.5).astype(np.float64)
        minimum, _, _ = frozen_local_search_batch(
            model, start[None, :], 2 * n + 100
        )
        xs = np.vstack(
            [
                (rng.random((3, n)) < 0.5).astype(np.float64),
                minimum.astype(np.float64),
                (rng.random((3, n)) < 0.2).astype(np.float64),
            ]
        )
        flips = self._assert_matches_frozen(model, xs, 2 * n + 100)
        assert flips[3] == 0
        assert len(set(flips.tolist())) >= 4

    def test_descend_restores_row_order_and_state(self):
        model = _dense_model(4)
        n = model.n_variables
        rng = np.random.default_rng(803)
        xs = (rng.random((9, n)) < 0.5).astype(np.float64)
        state = BatchFlipDeltaState(model, xs)
        sweeps = state.descend(2 * n + 100)
        assert sweeps == state.n_flips > 0
        np.testing.assert_allclose(
            state.deltas(),
            (1.0 - 2.0 * state.x) * model.local_fields_batch(state.x),
            atol=1e-9,
        )
        np.testing.assert_allclose(
            state.energies, model.evaluate_batch(state.x), atol=1e-9
        )
        cols, deltas = state.best_flips()
        assert np.all(deltas >= -1e-12)
        assert state.descend(5) == 0


class TestFlipsAfterFactorRepatch:
    """Flips on a state repatched onto new factor data and coefficients.

    The stream builds a new model every batch with the same factor
    structure, so anything a state derives from the factors at bind
    time must be rebuilt by ``repatch`` — the stream flips on exactly
    such states.
    """

    @pytest.mark.parametrize("factory", FACTOR_FACTORIES)
    def test_single_state_flips_match_fresh_state(self, factory):
        model = factory(5)
        rng = np.random.default_rng(705)
        n = model.n_variables
        state = FlipDeltaState(
            model, (rng.random(n) < 0.5).astype(np.float64)
        )
        for _ in range(20):
            state.flip(int(rng.integers(n)))
        patched = _next_sparse_model(model)
        state.repatch(patched)
        fresh = FlipDeltaState(patched, state.x)
        for index in rng.integers(0, n, size=50).tolist():
            assert state.flip(index) == fresh.flip(index)
        np.testing.assert_array_equal(state._fields, fresh._fields)
        assert state.energy == fresh.energy
