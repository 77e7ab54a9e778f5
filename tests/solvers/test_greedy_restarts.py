"""GreedySolver's batched random restarts against the sequential loop.

``frozen_greedy_solve`` is a frozen copy of ``GreedySolver.solve`` from
before its random restarts descended as one batch: a fresh
``rng.random(n)`` start and one ``local_search`` call per restart, the
budget polled before each, and a strict ``<`` fold.  Under the default
unlimited budget the solver must reproduce its answer exactly: ``x``
(values and dtype), ``energy`` (``==``) and ``status``.

On a random QUBO every start is descended, so ``iterations`` and
``metadata`` must equal the frozen loop's too.  On a community QUBO
(one with ``one_hot_blocks``) the solver descends only the starts
whose Eq. 3 violation count ``Σ_i |Σ_c x[i·k + c] − 1|`` is at most
``max_sweeps``; there ``iterations`` and ``metadata`` must equal
``kept_sequential_loop``, the sequential loop over the same draws
that descends only those starts.  That a filtered start ends
infeasible follows from one flip moving the count by at most one;
that it never beats the incumbent is what the answer checks pin.

Random 1-opt restarts often end exactly tied with the incumbent, and
on community QUBOs the label symmetry makes such ties land on
different assignments, so last-bit differences in the fields or the
energies would change which restart is kept.  The cases below include
restarts that win and restarts that tie the incumbent exactly.
"""

import numpy as np
import pytest

from repro.graphs import lfr_graph, ring_of_cliques
from repro.graphs.coarsen import coarsen_to_threshold
from repro.qubo import build_community_qubo
from repro.qubo.delta import _RowwiseBatchFlipDeltaState
from repro.qubo.random_instances import random_qubo
from repro.solvers.base import SolveResult, SolverStatus
from repro.solvers.greedy import (
    GreedySolver,
    greedy_construct,
    local_search,
    local_search_rows,
)
from repro.utils.rng import ensure_rng
from repro.utils.timer import TimeBudget


def frozen_greedy_solve(
    model, n_restarts=8, max_sweeps=100, seed=None, outcomes=None
):
    """The sequential restart loop; ``outcomes`` collects each restart.

    Each entry is ``(energy, incumbent_energy, same_x)``, recorded
    before the fold compares them.
    """
    rng = ensure_rng(seed)
    budget = TimeBudget(float("inf"))
    n = model.n_variables

    best_x = greedy_construct(model)
    best_x, best_energy, total_sweeps = local_search(
        model, best_x, max_sweeps
    )
    restarts_run = 1
    for _ in range(n_restarts - 1):
        if budget.exhausted():
            break
        start = (rng.random(n) < 0.5).astype(np.float64)
        x, energy, sweeps = local_search(model, start, max_sweeps)
        total_sweeps += sweeps
        restarts_run += 1
        if outcomes is not None:
            outcomes.append(
                (energy, best_energy, np.array_equal(x, best_x))
            )
        if energy < best_energy:
            best_x, best_energy = x, energy
    status = (
        SolverStatus.TIME_LIMIT
        if restarts_run < n_restarts
        else SolverStatus.HEURISTIC
    )
    return SolveResult(
        x=best_x,
        energy=best_energy,
        status=status,
        wall_time=0.0,
        solver_name="greedy",
        iterations=total_sweeps,
        metadata={"restarts": restarts_run},
    )


def kept_sequential_loop(model, k, n_restarts=8, max_sweeps=100, seed=None):
    """``(iterations, metadata)`` of the sequential loop over kept starts.

    It draws what ``frozen_greedy_solve`` draws, one ``rng.random(n)``
    per restart, and descends a start only when its violation count,
    summed node by node over ``k`` communities, is at most
    ``max_sweeps``.
    """
    rng = ensure_rng(seed)
    n = model.n_variables
    _, _, total_sweeps = local_search(
        model, greedy_construct(model), max_sweeps
    )
    restarts_run = 1
    for _ in range(n_restarts - 1):
        start = (rng.random(n) < 0.5).astype(np.float64)
        violations = sum(
            abs(start[node * k : (node + 1) * k].sum() - 1)
            for node in range(n // k)
        )
        if violations <= max_sweeps:
            _, _, sweeps = local_search(model, start, max_sweeps)
            total_sweeps += sweeps
            restarts_run += 1
    return total_sweeps, {"restarts": restarts_run}


def _assert_matches_frozen(
    model, n_restarts=8, max_sweeps=100, seed=0, k=None
):
    """The answer is the frozen loop's; the work is that of the starts kept.

    ``k`` names a community QUBO's community count; ``None`` means the
    model has no one-hot blocks and every start is descended.
    """
    outcomes = []
    want = frozen_greedy_solve(
        model, n_restarts, max_sweeps, seed, outcomes=outcomes
    )
    got = GreedySolver(
        n_restarts=n_restarts, max_sweeps=max_sweeps, seed=seed
    ).solve(model)
    assert got.x.dtype == want.x.dtype
    np.testing.assert_array_equal(got.x, want.x)
    assert got.energy == want.energy
    assert got.status is want.status
    if k is None:
        assert model.one_hot_blocks() is None
        iterations, metadata = want.iterations, want.metadata
    else:
        assert model.one_hot_blocks() == (model.n_variables // k, k)
        iterations, metadata = kept_sequential_loop(
            model, k, n_restarts, max_sweeps, seed
        )
    assert got.iterations == iterations
    assert got.metadata == metadata
    return outcomes


#: The default solver, and one whose restarts all reach local minima.
LONG_CONFIGS = [(8, 100), (16, 400)]

#: Community count of each LFR fixture's QUBO.
LFR_COMMUNITIES = {
    "lfr_dense": 4,
    "lfr_coarse": 8,
    "lfr_sparse": 8,
    "lfr_forced_sparse": 6,
}


def _ring_models():
    for cliques, size in [(2, 3), (3, 4), (4, 5)]:
        graph, _ = ring_of_cliques(cliques, size)
        for k in (2, 3, 4):
            for backend in ("dense", "sparse"):
                yield pytest.param(
                    (graph, k, backend),
                    id=f"ring{cliques}x{size}-k{k}-{backend}",
                )


@pytest.fixture(scope="module")
def lfr_dense():
    """The serve shape: LFR n=200, k=4, dense (800 variables)."""
    graph, _ = lfr_graph(200, mixing=0.1, seed=1)
    model = build_community_qubo(graph, 4).model
    assert model.n_variables == 800 and not hasattr(model, "factor_terms")
    return model


@pytest.fixture(scope="module")
def lfr_coarse():
    """k=8 dense QUBO of a coarsened LFR n=1000 graph with self-loops."""
    graph, _ = lfr_graph(1000, mixing=0.2, seed=3)
    hierarchy = coarsen_to_threshold(
        graph, 150, max_degree=2.0 * graph.total_weight / 8
    )
    coarse = hierarchy.levels[-1].coarse_graph
    edge_u, edge_v, _ = coarse.edge_arrays()
    assert np.any(edge_u == edge_v)
    model = build_community_qubo(coarse, 8).model
    assert not hasattr(model, "factor_terms")
    return model


@pytest.fixture(scope="module")
def lfr_sparse():
    """The stream shape: LFR n=1000, k=8, factor-backed sparse."""
    graph, _ = lfr_graph(1000, mixing=0.2, seed=1)
    model = build_community_qubo(graph, 8).model
    assert model.n_variables == 8000 and model.factor_terms() is not None
    return model


@pytest.fixture(scope="module")
def lfr_forced_sparse():
    """LFR n=600, k=6 built with ``backend="sparse"``."""
    graph, _ = lfr_graph(600, mixing=0.2, seed=2)
    model = build_community_qubo(graph, 6, backend="sparse").model
    assert model.factor_terms() is not None
    return model


class TestBatchedRestartContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "name", ["lfr_dense", "lfr_coarse", "lfr_sparse", "lfr_forced_sparse"]
    )
    def test_lfr_community_qubos(self, name, seed, request):
        _assert_matches_frozen(
            request.getfixturevalue(name), seed=seed, k=LFR_COMMUNITIES[name]
        )

    @pytest.mark.parametrize("case", list(_ring_models()))
    def test_ring_of_cliques(self, case):
        graph, k, backend = case
        model = build_community_qubo(graph, k, backend=backend).model
        for n_restarts, max_sweeps in LONG_CONFIGS:
            for seed in (0, 1, 2):
                _assert_matches_frozen(
                    model, n_restarts, max_sweeps, seed, k=k
                )

    @pytest.mark.parametrize("n", [8, 13, 40, 77, 120])
    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_random_qubos(self, n, density):
        model = random_qubo(n, density, seed=n)
        for n_restarts, max_sweeps in LONG_CONFIGS:
            for seed in (0, 1, 2):
                _assert_matches_frozen(model, n_restarts, max_sweeps, seed)

    @pytest.mark.parametrize("n_restarts", [1, 2, 8, 16])
    @pytest.mark.parametrize("max_sweeps", [1, 5, 100, 400])
    def test_restart_and_sweep_caps(self, n_restarts, max_sweeps):
        graph, _ = ring_of_cliques(3, 4)
        models = [
            (random_qubo(40, 0.5, seed=7), None),
            (build_community_qubo(graph, 3, backend="sparse").model, 3),
        ]
        for model, k in models:
            for seed in (0, 1, 2):
                _assert_matches_frozen(
                    model, n_restarts, max_sweeps, seed, k=k
                )

    def test_a_restart_wins(self):
        outcomes = _assert_matches_frozen(random_qubo(40, 0.5, seed=40))
        assert any(energy < best for energy, best, _ in outcomes)

    def test_a_restart_ties_on_another_assignment(self):
        """An exact tie on a different x: a ``<=`` fold would keep it."""
        graph, _ = ring_of_cliques(2, 3)
        model = build_community_qubo(graph, 2, backend="dense").model
        outcomes = _assert_matches_frozen(model, seed=2, k=2)
        assert any(
            energy == best and not same for energy, best, same in outcomes
        )


class TestLocalSearchRows:
    @pytest.mark.parametrize("name", ["lfr_dense", "lfr_forced_sparse"])
    def test_each_row_equals_local_search(self, name, request):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        starts = rng.random((5, model.n_variables)) < 0.5
        xs, energies, sweeps = local_search_rows(model, starts, 60)
        assert xs.dtype == np.int8 and sweeps.shape == (5,)
        for start, x, energy, count in zip(starts, xs, energies, sweeps):
            want_x, want_energy, want_sweeps = local_search(
                model, start.astype(np.float64), 60
            )
            np.testing.assert_array_equal(x, want_x)
            assert energy == want_energy
            assert count == want_sweeps

    @pytest.mark.parametrize("name", ["lfr_dense", "lfr_forced_sparse"])
    def test_running_energies_track_the_model(self, name, request):
        model = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        starts = rng.random((4, model.n_variables)) < 0.5
        state = _RowwiseBatchFlipDeltaState(model, starts)
        scale = np.abs(model.evaluate_batch(state.x)).max()
        np.testing.assert_allclose(
            state.energies, model.evaluate_batch(state.x), atol=1e-12 * scale
        )
        state.descend(30)
        np.testing.assert_allclose(
            state.energies, model.evaluate_batch(state.x), atol=1e-12 * scale
        )

    def test_rejects_1d(self, lfr_dense):
        with pytest.raises(ValueError):
            local_search_rows(lfr_dense, np.zeros(lfr_dense.n_variables))


def _probe_graphs():
    """Small rings and LFR graphs, on both sides of the filter."""
    yield "ring3x4", lambda: ring_of_cliques(3, 4)[0]
    yield "ring6x5", lambda: ring_of_cliques(6, 5)[0]
    yield "ring10x6", lambda: ring_of_cliques(10, 6)[0]
    yield "lfr30-mix0.3", lambda: lfr_graph(30, mixing=0.3, seed=1)[0]
    yield "lfr60-mix0.1", lambda: lfr_graph(60, mixing=0.1, seed=2)[0]
    yield "lfr100-mix0.3", lambda: lfr_graph(100, mixing=0.3, seed=3)[0]
    yield "lfr150-mix0.1", lambda: lfr_graph(150, mixing=0.1, seed=4)[0]


class TestOneHotRestartFilter:
    @pytest.mark.parametrize(
        "make_graph",
        [pytest.param(make, id=name) for name, make in _probe_graphs()],
    )
    def test_probe_grid(self, make_graph):
        """Communities 2-4 × sweep caps 40/100/400 × seeds 0-2."""
        graph = make_graph()
        for k in (2, 3, 4):
            model = build_community_qubo(graph, k).model
            for max_sweeps in (40, 100, 400):
                for seed in (0, 1, 2):
                    _assert_matches_frozen(
                        model, 8, max_sweeps, seed, k=k
                    )

    def test_serve_shape_filters_every_start(self, lfr_dense):
        starts = ensure_rng(0).random((7, lfr_dense.n_variables)) < 0.5
        per_node = starts.reshape(7, 200, 4).sum(axis=2)
        assert np.all(np.abs(per_node - 1).sum(axis=1) > 100)
        got = GreedySolver(seed=0).solve(lfr_dense)
        _, _, sweeps = local_search(
            lfr_dense, greedy_construct(lfr_dense), 100
        )
        assert got.metadata == {"restarts": 1}
        assert got.iterations == sweeps
        assert got.status is SolverStatus.HEURISTIC

    def test_a_kept_restart_still_wins(self):
        graph, _ = ring_of_cliques(4, 5)
        model = build_community_qubo(graph, 3).model
        _, construct_energy, _ = local_search(
            model, greedy_construct(model), 100
        )
        outcomes = _assert_matches_frozen(model, seed=1, k=3)
        assert any(energy < best for energy, best, _ in outcomes)
        got = GreedySolver(seed=1).solve(model)
        assert got.energy < construct_energy
