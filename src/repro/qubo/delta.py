"""Incremental flip-delta state for single-flip local search.

Single-flip metaheuristics (simulated annealing, tabu search, 1-opt
descent) spend their whole budget asking one question — *what does
flipping bit ``i`` cost?* — and answering it from scratch is a full
mat-vec: ``model.flip_deltas(x)`` is O(nnz) per call, so a sweep over
``n`` variables costs O(n · nnz).  This module maintains the answer
*incrementally* instead.

:class:`FlipDeltaState` materialises the local fields
``h = 2 S x + c`` (factor terms included) **once** per trajectory and
then, on each accepted flip of bit ``i`` with sign ``s = 1 - 2 x_i``,
applies the exact rank-one update

    h_j  +=  2 s S_ij            for j in row i's nonzeros

— a CSR row slice on :class:`repro.qubo.SparseQuboModel`, one dense
row on :class:`repro.qubo.QuboModel`.  The state also keeps the flip
signs ``s = 1 - 2 x`` (exactly ±1), so the flip delta of any bit is the
O(1) read ``delta_j = s_j h_j``.

Low-rank "squared linear form" factors (the sparse community QUBO's
modularity null model and penalty terms) fold into the same maintained
fields: flipping bit ``i`` reads column ``i`` of ``F`` (CSC slice) to
find the factor rows touching the bit and propagates

    h_j  +=  2 s · sum_{t : f_ti != 0} alpha_t f_ti f_tj

row by row into ``h`` — only those rows are visited, no projection of
the full state is ever recomputed.  (The sum double-counts the zero
effective self-coupling at ``j = i``; a single ``2 s d_i`` correction
with the cached factor diagonal cancels it.)  A flip therefore writes
every entry of each touched factor row: on the sparse community QUBO
with ``n`` nodes and ``k`` communities, flipping ``(node, c)`` writes
the null-model and balance rows of ``c`` (``n`` entries each) and the
node's assignment row (``k``) — ``2n + k`` factor entries next to
``deg(node)`` coupling entries.  Factor rows whose columns form an
arithmetic progression (all of them on that QUBO) are updated through a
strided view of ``h``, any other row through its index array; both
perform the same per-element adds.

:class:`BatchFlipDeltaState` is the same engine over a ``(batch, n)``
population, one independent trajectory per row — the shape the QHD
refinement pass (:func:`repro.solvers.greedy.local_search_batch`)
descends on.  Its :meth:`~BatchFlipDeltaState.descend` keeps only the
still-improving trajectories in the working set, compacted to a prefix
of the rows, so late sweeps touch the few rows still descending.
:class:`~repro.solvers.greedy.GreedySolver`'s random restarts descend
on a private variant whose fields are materialised row by row
(:func:`repro.solvers.greedy.local_search_rows`), so the batch matches
one single-trajectory search per row bit for bit.

The fused argmins (:meth:`FlipDeltaState.best_flip` /
:meth:`BatchFlipDeltaState.best_flips`) evaluate the best single flip
directly off the maintained fields into a state-owned scratch buffer,
so the tabu/greedy loops allocate no O(n) ``deltas()`` copy per
iteration.

Solvers reach this engine through
:func:`repro.solvers.base.flip_state`; see ``docs/architecture.md`` for
the cost model.

Examples
--------
>>> import numpy as np
>>> from repro.qubo import QuboModel
>>> from repro.qubo.delta import FlipDeltaState
>>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
>>> state = FlipDeltaState(model, np.zeros(2))
>>> state.deltas()
array([-1., -1.])
>>> state.flip(0)  # accept: x becomes (1, 0)
-1.0
>>> state.energy == model.evaluate(state.x)
True
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import ArrayLike
from scipy import sparse

from repro.analysis.markers import hot_path
from repro.exceptions import QuboError
from repro.qubo.model import BaseQubo


def _factor_terms_of(model: BaseQubo) -> tuple | None:
    """The model's canonicalised factor internals, or ``None``."""
    getter = getattr(model, "factor_terms", None)
    return None if getter is None else getter()


def _coupling_slots(model: BaseQubo) -> tuple:
    """``(dense_rows, indptr, indices, data)`` row access for ``model``.

    Dense models fill the first slot (row gathers), sparse models the
    CSR triple; the unused slots are ``None``.  Shared by both state
    classes so their row-update wiring cannot diverge.
    """
    coupling = model.coupling
    if sparse.issparse(coupling):
        csr = coupling.tocsr()
        return None, csr.indptr, csr.indices, csr.data
    return np.asarray(coupling, dtype=np.float64), None, None, None


def _factor_slots(model: BaseQubo) -> tuple | None:
    """Factor arrays for the flip update, or ``None`` without factors.

    Returns ``(alpha, row_indices, row_data, col_indptr, col_indices,
    diagonal, row_layout, col_weights)`` — the CSR rows for
    propagation, the CSC columns for touched-row lookup, the cached
    diagonal for the self-coupling correction, the model's cached
    :meth:`~repro.qubo.SparseQuboModel.factor_row_layout`, and
    ``alpha_t f_ti`` per CSC entry.  The weights are formed here, once
    per bind: at construction and at :meth:`FlipDeltaState.repatch`.
    """
    factors = _factor_terms_of(model)
    if factors is None:
        return None
    alpha, f_csr, f_csc, diag = factors
    return (
        alpha,
        f_csr.indices,
        f_csr.data,
        f_csc.indptr,
        f_csc.indices,
        diag,
        getattr(model, "factor_row_layout")(),
        alpha[f_csc.indices] * f_csc.data,
    )


def _bind_model_slots(state: Any, model: BaseQubo) -> None:
    """Wire the coupling-row and factor arrays a state's flips read.

    Shared by :class:`FlipDeltaState` and :class:`BatchFlipDeltaState`
    so the two constructors cannot diverge.
    """
    (
        state._dense_rows,
        state._row_indptr,
        state._row_indices,
        state._row_data,
    ) = _coupling_slots(model)
    slots = _factor_slots(model)
    if slots is None:
        state._f_alpha = None
    else:
        (
            state._f_alpha,
            state._f_row_indices,
            state._f_row_data,
            state._f_col_indptr,
            state._f_col_indices,
            state._f_diag,
            state._f_layout,
            state._f_weights,
        ) = slots


@hot_path
def _flip_factor_rows(
    state: Any, fields: np.ndarray, index: int, two_s: float
) -> None:
    """Propagate the flip of bit ``index`` through the factor rows.

    The one factor kernel of both state classes (``fields`` is the
    flipped trajectory's field vector; ``two_s`` is ``2 (1 - 2 x_i)``).
    Each factor row ``t`` touching the bit adds ``two_s alpha_t f_ti
    f_t`` to ``fields``, row by row in CSC order.  A row whose columns
    form a progression is updated through a strided view, any other
    row through its index array — the same per-element adds either
    way.  The row sums also write ``two_s d_i`` onto the bit's own
    field; the canonical form has zero effective self-coupling, so the
    cached diagonal cancels it.
    """
    ca = state._f_col_indptr[index]
    cb = state._f_col_indptr[index + 1]
    if ca == cb:
        return
    plans = state._f_layout[state._f_col_indices[ca:cb]].tolist()
    weights = (two_s * state._f_weights[ca:cb]).tolist()
    data = state._f_row_data
    for (ra, rb, start, stop, step), w in zip(plans, weights):
        if step:
            view = fields[start:stop:step]
            view += w * data[ra:rb]
        else:
            fields[state._f_row_indices[ra:rb]] += w * data[ra:rb]
    fields[index] -= two_s * state._f_diag[index]


def _check_binary(values: np.ndarray, name: str) -> None:
    """Reject assignments with any entry other than 0 or 1."""
    if not np.all((values == 0.0) | (values == 1.0)):
        raise QuboError(f"{name} must be binary (every entry 0 or 1)")


class FlipDeltaState:
    """Incrementally maintained flip deltas for one search trajectory.

    Parameters
    ----------
    model:
        Dense or sparse :class:`repro.qubo.model.BaseQubo`.
    x:
        Binary starting assignment, length ``n_variables``; copied.
        Any entry other than 0 or 1 raises :class:`QuboError`.

    Notes
    -----
    Construction performs the single full materialisation of the
    trajectory (one ``local_fields`` mat-vec plus one ``evaluate``);
    afterwards every accepted flip costs the coupling row's nonzeros
    plus the full length of every factor row touching the bit.  The
    maintained fields drift from a fresh recomputation only at
    floating-point rounding level; :meth:`refresh` resynchronises them
    exactly when a caller wants to pay the mat-vec.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> state = FlipDeltaState(model, [0, 1])
    >>> state.delta(0) == float(model.flip_delta([0, 1], 0))
    True
    >>> state.flip(0)
    1.0
    >>> np.allclose(state.deltas(), model.flip_deltas(state.x))
    True
    """

    def __init__(self, model: BaseQubo, x: ArrayLike) -> None:
        if not isinstance(model, BaseQubo):
            raise QuboError(
                f"model must be a BaseQubo, got {type(model).__name__}"
            )
        vec = np.array(x, dtype=np.float64)
        if vec.shape != (model.n_variables,):
            raise QuboError(
                f"x must have shape ({model.n_variables},), got {vec.shape}"
            )
        _check_binary(vec, "x")
        self._model = model
        self._x = vec
        # Flip signs 1 - 2x, exactly +-1 for binary x; flip negates one.
        self._sign = 1.0 - 2.0 * vec
        self._scratch = np.empty_like(vec)
        self._mask_scratch = np.empty(vec.shape, dtype=bool)
        _bind_model_slots(self, model)
        self.refresh()
        self._n_flips = 0

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def model(self) -> BaseQubo:
        """The model this state tracks."""
        return self._model

    @property
    def n_variables(self) -> int:
        """Number of binary variables."""
        return self._x.shape[0]

    @property
    def x(self) -> np.ndarray:
        """Current assignment (read-only float64 view in {0, 1})."""
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def energy(self) -> float:
        """Running energy of the current assignment.

        Maintained as ``E(x0) + sum(accepted deltas)`` — the same
        accumulation the pre-delta-state sweep loops used; re-evaluate
        through the model when exactness at the last ulp matters.
        """
        return self._energy

    @property
    def n_flips(self) -> int:
        """Accepted flips applied since construction."""
        return self._n_flips

    @hot_path
    def delta(self, index: int) -> float:
        """Energy change of flipping bit ``index`` — an O(1) read."""
        i = int(index)
        return float(self._sign[i] * self._fields[i])

    def deltas(self) -> np.ndarray:
        """Energy change of flipping each bit (fresh array, O(n))."""
        return self._sign * self._fields

    @hot_path
    def best_flip(
        self, where: np.ndarray | None = None
    ) -> tuple[int, float]:
        """The (index, delta) of the best single flip — fused argmin.

        Computes the argmin of the flip deltas directly off the
        maintained fields into a state-owned scratch buffer: no fresh
        O(n) array per call, unlike ``np.argmin(state.deltas())``.
        Ties break to the lowest index, exactly like the copying path.

        Parameters
        ----------
        where:
            Optional boolean mask; only ``True`` positions compete
            (the tabu "allowed moves" restriction).  Must contain at
            least one ``True``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.qubo import QuboModel
        >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]),
        ...                   [-1.0, -3.0])
        >>> state = FlipDeltaState(model, np.zeros(2))
        >>> state.best_flip()
        (1, -3.0)
        """
        scratch = self._scratch
        np.multiply(self._sign, self._fields, out=scratch)
        if where is not None:
            np.logical_not(where, out=self._mask_scratch)
            if self._mask_scratch.all():
                raise QuboError(
                    "best_flip requires at least one allowed position"
                )
            scratch[self._mask_scratch] = np.inf
        index = int(np.argmin(scratch))
        return index, float(scratch[index])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @hot_path
    def flip(self, index: int) -> float:
        """Accept the flip of bit ``index``; returns its energy delta.

        Updates the assignment, its sign, the running energy and the
        fields of the flipped bit's coupling-row neighbours plus every
        entry of the factor rows touching it.
        """
        i = int(index)
        fields = self._fields
        s = float(self._sign[i])
        delta = float(s * fields[i])

        if self._dense_rows is not None:
            fields += (2.0 * s) * self._dense_rows[i]
        else:
            a, b = self._row_indptr[i], self._row_indptr[i + 1]
            fields[self._row_indices[a:b]] += (2.0 * s) * self._row_data[a:b]

        if self._f_alpha is not None:
            _flip_factor_rows(self, fields, i, 2.0 * s)

        self._x[i] = 1.0 - self._x[i]
        self._sign[i] = -s
        self._energy += delta
        self._n_flips += 1
        return delta

    def refresh(self) -> None:
        """Resynchronise fields and energy from the model.

        One full mat-vec — the same cost as a fresh
        ``model.flip_deltas(x)`` — discarding any accumulated
        floating-point drift.
        """
        self._fields = np.asarray(
            self._model.local_fields(self._x), dtype=np.float64
        ).copy()
        self._energy = float(self._model.evaluate(self._x))

    def repatch(self, model: BaseQubo) -> None:
        """Rebind the state to another model and :meth:`refresh`.

        The streaming path rebuilds the community QUBO on every event
        batch (:meth:`repro.qubo.CommunityQuboPatcher.update`) and
        keeps the tracked assignment; this is the matching state-side
        operation.  The coupling and factor slots the flip updates read
        are rewired to ``model``, and the fields and energy are
        re-materialised from it at the current assignment.
        """
        if not isinstance(model, BaseQubo):
            raise QuboError(
                f"model must be a BaseQubo, got {type(model).__name__}"
            )
        if model.n_variables != self.n_variables:
            raise QuboError(
                f"patched model must keep {self.n_variables} variables, "
                f"got {model.n_variables}"
            )
        self._model = model
        _bind_model_slots(self, model)
        self.refresh()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlipDeltaState(n_variables={self.n_variables}, "
            f"n_flips={self._n_flips}, energy={self._energy:g})"
        )


class BatchFlipDeltaState:
    """Independent :class:`FlipDeltaState` trajectories over a batch.

    Maintains fields of shape ``(batch, n)`` for a population of
    assignments, one trajectory per row — the state behind the
    vectorised 1-opt descent that polishes QHD measurement samples
    (:meth:`descend`).  Like the single state it keeps the flip signs
    ``1 - 2x`` (exactly ±1), so :meth:`best_flips` is one multiply and
    an argmin.  Dense models update all flipped rows at once: the
    coupling rows are gathered with ``np.take`` into a preallocated
    buffer, scaled by the exact ``±2`` and added into the fields;
    sparse models update each flipped row through the same
    coupling-row and factor-row kernel as the single-trajectory state.

    Parameters
    ----------
    model:
        Dense or sparse :class:`repro.qubo.model.BaseQubo`.
    xs:
        Binary assignments, shape ``(batch, n_variables)``; copied.
        Any entry other than 0 or 1 raises :class:`QuboError`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.qubo import QuboModel
    >>> from repro.qubo.delta import BatchFlipDeltaState
    >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]), [-1.0, -1.0])
    >>> state = BatchFlipDeltaState(model, np.zeros((2, 2)))
    >>> state.flip(np.array([0, 1]), np.array([0, 1]))  # one bit per row
    array([-1., -1.])
    >>> np.allclose(state.energies, model.evaluate_batch(state.x))
    True
    """

    def __init__(self, model: BaseQubo, xs: np.ndarray) -> None:
        if not isinstance(model, BaseQubo):
            raise QuboError(
                f"model must be a BaseQubo, got {type(model).__name__}"
            )
        batch = np.array(xs, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != model.n_variables:
            raise QuboError(
                f"xs must have shape (batch, {model.n_variables}), "
                f"got {batch.shape}"
            )
        _check_binary(batch, "xs")
        self._model = model
        self._x = batch
        self._sign = 1.0 - 2.0 * batch
        self.refresh()
        self._n_flips = 0
        self._scratch = np.empty_like(batch)
        self._row_ids = np.arange(batch.shape[0])
        self._row_marks = np.empty(batch.shape[0], dtype=np.intp)
        self._descent_flips = np.zeros(batch.shape[0], dtype=np.intp)
        _bind_model_slots(self, model)

    @property
    def x(self) -> np.ndarray:
        """Current assignments (read-only view, shape ``(batch, n)``)."""
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def energies(self) -> np.ndarray:
        """Running energies per trajectory (read-only view)."""
        view = self._energies.view()
        view.flags.writeable = False
        return view

    @property
    def n_flips(self) -> int:
        """Accepted flip rounds applied since construction."""
        return self._n_flips

    @property
    def descent_flips(self) -> np.ndarray:
        """Flips each trajectory made in the last :meth:`descend`.

        A read-only ``(batch,)`` integer view in row order; zeros
        before the first descent.  Summed over the rows it is the
        sweep total of one single-trajectory descent per row.
        """
        view = self._descent_flips.view()
        view.flags.writeable = False
        return view

    def deltas(self) -> np.ndarray:
        """Flip deltas for every (trajectory, bit), shape ``(batch, n)``."""
        return self._sign * self._fields

    def best_flips(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-trajectory (indices, deltas) of the best single flips.

        The batched fused argmin: the deltas are evaluated into a
        state-owned ``(batch, n)`` scratch buffer, so no fresh
        ``deltas()`` copy is allocated per sweep.  Ties break to the
        lowest index per row, exactly like ``np.argmin(state.deltas(),
        axis=1)``.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.qubo import QuboModel
        >>> from repro.qubo.delta import BatchFlipDeltaState
        >>> model = QuboModel(np.array([[0.0, 2.0], [0.0, 0.0]]),
        ...                   [-1.0, -3.0])
        >>> state = BatchFlipDeltaState(model, np.zeros((2, 2)))
        >>> cols, deltas = state.best_flips()
        >>> cols.tolist(), deltas.tolist()
        ([1, 1], [-3.0, -3.0])
        """
        return self._best_flips(self._x.shape[0])

    def flip(self, rows: ArrayLike, cols: ArrayLike) -> np.ndarray:
        """Accept one flip per listed trajectory; returns their deltas.

        ``rows`` must be distinct trajectory indices (each row flips at
        most one bit per call) — a repeated row raises
        :class:`QuboError`; ``cols`` gives the bit flipped in each.
        """
        row_idx = np.asarray(rows, dtype=np.intp)
        col_idx = np.asarray(cols, dtype=np.intp)
        count = row_idx.shape[0]
        marks = self._row_marks
        ids = self._row_ids[:count]
        # Mark each row with its position: a repeated row keeps one
        # position only, so reading the marks back cannot match.
        if count > marks.shape[0]:
            raise QuboError("rows must not repeat a trajectory")
        marks[row_idx] = ids
        if not np.array_equal(marks[row_idx], ids):
            raise QuboError("rows must not repeat a trajectory")
        return self._flip(row_idx, col_idx, row_idx)

    def descend(self, max_sweeps: int) -> int:
        """Steepest 1-opt descent of every trajectory; returns the sweeps.

        Each sweep flips the best bit of every trajectory whose best
        flip still improves (``delta < -1e-12``), until none does or
        ``max_sweeps`` sweeps have run.  A trajectory that stops
        improving retires for good: no other trajectory's flip touches
        its row, so it could never improve again.  The live
        trajectories are kept compacted to a prefix of the state's
        rows, so each sweep's argmin, row gather and field add run on
        that prefix alone; the rows are back in their original order
        when this returns.  Flips, fields and energies are exactly
        those of calling :meth:`best_flips` and :meth:`flip` on the
        improving rows sweep by sweep.  :attr:`descent_flips` records
        each trajectory's own flip count.
        """
        live = self._x.shape[0]
        order = np.arange(live)
        flips = self._descent_flips
        sweeps = 0
        while sweeps < max_sweeps and live:
            cols, deltas = self._best_flips(live)
            improving = deltas < -1e-12
            if not improving.all():
                # A live trajectory has flipped once in every sweep.
                flips[order[:live][~improving]] = sweeps
                live, cols = self._retire(improving, cols, order)
                if not live:
                    break
            self._flip(self._row_ids[:live], cols, slice(0, live))
            sweeps += 1
        flips[order[:live]] = sweeps
        if not np.array_equal(order, self._row_ids):
            restore = np.argsort(order)
            for arr in (self._x, self._sign, self._fields, self._energies):
                arr[:] = arr[restore]
        return sweeps

    @hot_path
    def _best_flips(self, live: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`best_flips` of the first ``live`` rows."""
        scratch = self._scratch[:live]
        np.multiply(self._sign[:live], self._fields[:live], out=scratch)
        cols = np.argmin(scratch, axis=1)
        return cols, scratch[self._row_ids[:live], cols]

    def _retire(
        self, improving: np.ndarray, cols: np.ndarray, order: np.ndarray
    ) -> tuple[int, np.ndarray]:
        """Shrink the live prefix to the ``improving`` rows.

        Improving rows sitting past the new prefix swap places with the
        retiring rows inside it; ``order`` tracks each row's original
        index.  Returns the new prefix length and its columns.
        """
        live = int(np.count_nonzero(improving))
        holes = np.flatnonzero(~improving[:live])
        if holes.size:
            movers = live + np.flatnonzero(improving[live:])
            src = np.concatenate([movers, holes])
            dst = np.concatenate([holes, movers])
            for arr in (
                self._x, self._sign, self._fields, self._energies, order
            ):
                arr[dst] = arr[src]
            cols[holes] = cols[movers]
        return live, cols[:live]

    @hot_path
    def _flip(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        target: np.ndarray | slice,
    ) -> np.ndarray:
        """Flip bit ``cols[j]`` of distinct trajectory ``rows[j]``.

        ``target`` selects the same rows for the whole-row field and
        energy adds: ``rows`` itself, or the slice of a live prefix.
        """
        signs = self._sign[rows, cols]
        deltas = signs * self._fields[rows, cols]

        if self._dense_rows is not None:
            # The argmin scratch is free again: best-flip results are
            # copies, so it takes the gathered coupling rows.
            gathered = self._scratch[: cols.shape[0]]
            np.take(self._dense_rows, cols, axis=0, out=gathered, mode="wrap")
            gathered *= (2.0 * signs)[:, None]
            self._fields[target] += gathered
        else:
            # Only sparse models carry factor terms.  Each trajectory's
            # coupling and factor rows are updated back to back.
            indptr = self._row_indptr
            indices = self._row_indices
            data = self._row_data
            factors = self._f_alpha is not None
            for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
                fields = self._fields[r]
                a, b = indptr[c], indptr[c + 1]
                fields[indices[a:b]] += (2.0 * s) * data[a:b]
                if factors:
                    _flip_factor_rows(self, fields, c, 2.0 * s)

        self._x[rows, cols] = 1.0 - self._x[rows, cols]
        self._sign[rows, cols] = -signs
        self._energies[target] += deltas
        self._n_flips += 1
        return deltas

    def refresh(self) -> None:
        """Resynchronise fields and energies from the model.

        One full batched mat-vec plus one batched evaluation — the same
        cost as a fresh materialisation — discarding any accumulated
        floating-point drift across the whole population.
        """
        self._fields = np.asarray(
            self._model.local_fields_batch(self._x), dtype=np.float64
        ).copy()
        self._energies = np.asarray(
            self._model.evaluate_batch(self._x), dtype=np.float64
        ).copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchFlipDeltaState(batch={self._x.shape[0]}, "
            f"n_variables={self._x.shape[1]}, n_flips={self._n_flips})"
        )


class _RowwiseBatchFlipDeltaState(BatchFlipDeltaState):
    """A batch whose fields are materialised one trajectory at a time.

    Each row's fields come from ``model.local_fields(row)``, the mat-vec
    a :class:`FlipDeltaState` starts from, so :meth:`descend` retraces
    one :func:`~repro.solvers.greedy.local_search` per row bit for bit.
    ``local_fields_batch`` can differ from that mat-vec in the last
    bits, and random 1-opt restarts often end exactly tied with the
    incumbent, so the batched product would change which restart
    :class:`~repro.solvers.greedy.GreedySolver` keeps.
    """

    def refresh(self) -> None:
        """Fields row by row; running energies from those fields.

        In canonical form ``h = 2 S x + c`` with a zero-diagonal ``S``,
        so ``E(x) = x·(h + c) / 2 + offset``: no batched product, whose
        BLAS packing buffers cost each calling thread about a megabyte
        of resident memory.  Like every running energy these may differ
        from ``model.evaluate`` in the last bits.
        """
        model = self._model
        fields = np.empty_like(self._x)
        for row, x in zip(fields, self._x):
            row[:] = model.local_fields(x)
        self._fields = fields
        shifted = fields + model.effective_linear
        self._energies = (
            0.5 * np.einsum("bi,bi->b", self._x, shifted) + model.offset
        )
