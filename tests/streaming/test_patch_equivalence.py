"""Incremental-vs-recompute equivalence: the streaming pinning suite.

:class:`repro.qubo.CommunityQuboPatcher` claims that updating the
Algorithm 1 QUBO after a batch of edge events produces **bit-exactly**
the model a from-scratch :func:`build_community_qubo` would build on
the updated graph (same pinned penalties, same backend) — every
coupling coefficient, the effective linear term, the offset, the
sparse factor internals, every ``flip_deltas`` read, and the
re-materialised :class:`FlipDeltaState` fields.  Hypothesis drives
random graphs through random event sequences on both storage backends
and checks exactly that after every batch.

The update is itself one ``build_community_qubo`` call with the pinned
parameters, so the model comparisons here compare a build with itself;
they pin the pinning and the repatched state.  That the stream's
models are the ones the old assembly produced is proven against frozen
copies of that assembly in ``tests/qubo/test_canonical_build.py``.

The rebuild pins the patcher's frozen penalty weights explicitly:
``default_penalties`` would re-derive λ from the *updated* graph,
which is a different (also valid) model — the streaming contract is
"same model, new coefficients", not "re-tuned model".
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QuboError
from repro.graphs.graph import Graph
from repro.qubo import (
    CommunityQuboPatcher,
    FlipDeltaState,
    build_community_qubo,
)

BACKENDS = ("dense", "sparse")

#: Weights drawn for initial edges and events.  Arbitrary floats would
#: work too (the patch replays the builder's exact float expressions);
#: a small pool keeps shrunk counterexamples readable.
WEIGHTS = (0.25, 0.5, 1.0, 2.0, 3.5)


@st.composite
def streaming_cases(draw):
    """A random graph, penalty configuration and event-batch sequence."""
    n = draw(st.integers(min_value=3, max_value=10))
    k = draw(st.integers(min_value=1, max_value=3))
    node = st.integers(min_value=0, max_value=n - 1)
    weight = st.sampled_from(WEIGHTS)

    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = [
        (draw(node), draw(node), draw(weight)) for _ in range(n_edges)
    ]

    event = st.one_of(
        st.tuples(st.just("insert"), node, node, weight),
        st.tuples(st.just("delete"), node, node),
        st.tuples(st.just("reweight"), node, node, weight),
    )
    batches = draw(
        st.lists(
            st.lists(event, min_size=0, max_size=5),
            min_size=1,
            max_size=3,
        )
    )

    params = {
        "lambda_assignment": draw(st.sampled_from([0.0, 0.5, 2.0])),
        "lambda_balance": draw(st.sampled_from([0.0, 0.25])),
        "modularity_weight": draw(st.sampled_from([0.0, 0.7, 1.0])),
        "cut_weight": draw(st.sampled_from([0.0, 0.3])),
    }
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, k, edges, batches, params, seed


def _assert_sparse_internals_equal(patched, fresh):
    coupling_a, coupling_b = patched.coupling, fresh.coupling
    np.testing.assert_array_equal(coupling_a.indptr, coupling_b.indptr)
    np.testing.assert_array_equal(coupling_a.indices, coupling_b.indices)
    np.testing.assert_array_equal(coupling_a.data, coupling_b.data)
    terms_a, terms_b = patched.factor_terms(), fresh.factor_terms()
    assert (terms_a is None) == (terms_b is None)
    if terms_a is None:
        return
    alpha_a, f_a, f_t_a, diag_a = terms_a
    alpha_b, f_b, f_t_b, diag_b = terms_b
    np.testing.assert_array_equal(alpha_a, alpha_b)
    np.testing.assert_array_equal(diag_a, diag_b)
    for mat_a, mat_b in ((f_a, f_b), (f_t_a, f_t_b)):
        np.testing.assert_array_equal(mat_a.indptr, mat_b.indptr)
        np.testing.assert_array_equal(mat_a.indices, mat_b.indices)
        np.testing.assert_array_equal(mat_a.data, mat_b.data)


def _assert_models_equal(patched, fresh, backend):
    """Every stored coefficient of both models must be bit-identical."""
    assert patched.offset == fresh.offset
    np.testing.assert_array_equal(
        np.asarray(patched.effective_linear),
        np.asarray(fresh.effective_linear),
    )
    if backend == "dense":
        np.testing.assert_array_equal(
            np.asarray(patched.coupling), np.asarray(fresh.coupling)
        )
    else:
        _assert_sparse_internals_equal(patched, fresh)


@pytest.mark.parametrize("backend", BACKENDS)
class TestPatchEquivalence:
    @given(case=streaming_cases())
    @settings(max_examples=25, deadline=None)
    def test_patched_model_bit_exact_vs_rebuild(self, backend, case):
        n, k, edges, batches, params, seed = case
        graph = Graph(n, edges)
        qubo = build_community_qubo(graph, k, backend=backend, **params)
        patcher = CommunityQuboPatcher(qubo)
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=qubo.model.n_variables).astype(
            np.float64
        )
        state = FlipDeltaState(qubo.model, x)

        for batch in batches:
            graph, _ = graph.apply_updates(batch)
            patched = patcher.update(graph)
            fresh = build_community_qubo(
                graph, k, backend=backend, **params
            )
            assert patched.backend == backend == fresh.backend

            # 1. Every stored coefficient.
            _assert_models_equal(patched.model, fresh.model, backend)

            # 2. flip_deltas on random assignments.
            for _ in range(3):
                probe = rng.integers(0, 2, size=x.shape[0]).astype(
                    np.float64
                )
                np.testing.assert_array_equal(
                    patched.model.flip_deltas(probe),
                    fresh.model.flip_deltas(probe),
                )

            # 3. FlipDeltaState fields: the maintained state repatched
            # onto the patched model vs a from-scratch state on the
            # rebuilt model.
            state.repatch(patched.model)
            reference = FlipDeltaState(fresh.model, x)
            np.testing.assert_array_equal(
                state.deltas(), reference.deltas()
            )
            np.testing.assert_array_equal(state._fields, reference._fields)
            assert state.energy == reference.energy

    @given(case=streaming_cases())
    @settings(max_examples=10, deadline=None)
    def test_apply_events_composes_graph_and_patch(self, backend, case):
        n, k, edges, batches, params, _ = case
        graph = Graph(n, edges)
        patcher = CommunityQuboPatcher(
            build_community_qubo(graph, k, backend=backend, **params)
        )
        for batch in batches:
            graph, touched = graph.apply_updates(batch)
            patched, seen = patcher.apply_events(batch)
            np.testing.assert_array_equal(seen, touched)
            fresh = build_community_qubo(
                graph, k, backend=backend, **params
            )
            _assert_models_equal(patched.model, fresh.model, backend)


class TestPatcherValidation:
    def test_rejects_foreign_graph_size(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        patcher = CommunityQuboPatcher(build_community_qubo(graph, 2))
        other = Graph(5, [(0, 1)])
        with pytest.raises(QuboError):
            patcher.update(other)

    def test_guard_flip_falls_back_to_rebuild(self):
        """Losing/gaining all edges flips the sparse modularity guard."""
        graph = Graph(3, [(0, 1, 1.0)])
        qubo = build_community_qubo(
            graph,
            2,
            lambda_assignment=1.0,
            lambda_balance=0.0,
            backend="sparse",
        )
        patcher = CommunityQuboPatcher(qubo)
        # Delete the only edge: 2m -> 0, modularity group disappears.
        empty, _ = graph.apply_updates([("delete", 0, 1)])
        patched = patcher.update(empty)
        fresh = build_community_qubo(
            empty,
            2,
            lambda_assignment=1.0,
            lambda_balance=0.0,
            backend="sparse",
        )
        _assert_models_equal(patched.model, fresh.model, "sparse")
        # And back: the guard re-engages.
        refilled, _ = empty.apply_updates([("insert", 1, 2, 2.0)])
        patched = patcher.update(refilled)
        fresh = build_community_qubo(
            refilled,
            2,
            lambda_assignment=1.0,
            lambda_balance=0.0,
            backend="sparse",
        )
        _assert_models_equal(patched.model, fresh.model, "sparse")
