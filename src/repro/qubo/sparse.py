"""Sparse QUBO models (CSR couplings plus optional low-rank factors).

The paper's Figure 3 regime — and its closing discussion of
"high-performance sparsity computation" — concerns QUBOs whose coupling
matrices are overwhelmingly zero.  :class:`SparseQuboModel` stores the
symmetric coupling as ``scipy.sparse.csr_matrix`` and implements the same
:class:`repro.qubo.model.BaseQubo` interface as the dense
:class:`repro.qubo.QuboModel`, so the QHD solver and the flip-based
metaheuristics run on it unchanged (every hot operation is a sparse
mat-vec).

Structured instances like the community-detection QUBO of Algorithm 1 are
"sparse plus low rank": the adjacency couplings are sparse, but the
modularity null model ``d d^T / (2m)^2`` and the Eq. 3/4 penalties are
sums of *squared linear forms* ``alpha_t (f_t^T x + beta_t)^2`` whose
dense expansion would fill the whole matrix.  The optional ``factors``
argument stores those forms explicitly, keeping every operation
O(nnz(S) + nnz(F)) — this is what lets the detector pipeline build
million-variable community QUBOs without ever allocating an O((n k)^2)
array.

Exact branch & bound densifies first (its column updates are dense by
nature); :meth:`to_dense` makes the conversion explicit.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np
from numpy.typing import ArrayLike
from scipy import sparse

from repro.exceptions import QuboError
from repro.qubo.model import BaseQubo, QuboModel


def _row_progressions(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``(ra, rb, start, stop, step)`` per CSR row; ``step`` 0 = no slice.

    A row qualifies when its stored column indices, in storage order,
    increase by one constant step; a single entry is the step-1 slice
    ``i:i+1``.  Vectorised over all rows at once.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    n_rows = indptr.shape[0] - 1
    ra, rb = indptr[:-1], indptr[1:]
    counts = rb - ra
    filled = counts > 0
    start = np.zeros(n_rows, dtype=np.int64)
    start[filled] = cols[ra[filled]]
    step = filled.astype(np.int64)
    multi = counts > 1
    step[multi] = cols[ra[multi] + 1] - cols[ra[multi]]
    # Every consecutive pair inside a row must repeat the row's step.
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    same_row = row_of[:-1] == row_of[1:]
    broken = row_of[:-1][same_row & (np.diff(cols) != step[row_of[:-1]])]
    step[broken] = 0
    step[step < 0] = 0
    stop = np.where(step > 0, start + (counts - 1) * step + 1, start)
    return np.stack([ra, rb, start, stop, step], axis=1)


class SparseQuboModel(BaseQubo):
    """Minimisation QUBO with a sparse symmetric coupling matrix.

    Parameters
    ----------
    quadratic:
        Square sparse (or dense) matrix; symmetrised internally, diagonal
        folded into the linear term — same canonicalisation as
        :class:`QuboModel`.
    linear:
        Length-``n`` linear coefficients; defaults to zeros.
    offset:
        Constant energy offset.
    factors:
        Optional ``(coefficients, matrix, constants)`` triple adding
        ``sum_t coefficients[t] * (matrix[t] @ x + constants[t])^2`` to
        the energy.  ``matrix`` is ``(T, n)`` (sparse or dense);
        ``coefficients`` and ``constants`` are length ``T``.  The terms
        are canonicalised exactly like a dense expansion would be: the
        implied diagonal and linear parts are folded into
        :attr:`effective_linear` / :attr:`offset`, and only the pure
        off-diagonal quadratic part remains factorised.

    Examples
    --------
    >>> import numpy as np
    >>> from scipy import sparse
    >>> q = sparse.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
    >>> model = SparseQuboModel(q, [-1.0, -1.0])
    >>> model.evaluate([1, 0])
    -1.0
    """

    def __init__(
        self,
        quadratic: Any,
        linear: np.ndarray | Iterable[float] | None = None,
        offset: float = 0.0,
        factors: tuple | None = None,
    ) -> None:
        matrix = sparse.csr_matrix(quadratic, dtype=np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise QuboError(
                f"quadratic must be square, got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        if linear is None:
            b = np.zeros(n, dtype=np.float64)
        else:
            b = np.asarray(linear, dtype=np.float64)
            if b.shape != (n,):
                raise QuboError(
                    f"linear must have shape ({n},), got {b.shape}"
                )
        if not np.all(np.isfinite(b)):
            raise QuboError("linear must contain only finite values")
        if not np.all(np.isfinite(matrix.data)):
            raise QuboError("quadratic must contain only finite values")
        if not np.isfinite(offset):
            raise QuboError(f"offset must be finite, got {offset}")

        coupling = (matrix + matrix.T) * 0.5
        diag = coupling.diagonal().copy()
        coupling = coupling - sparse.diags(diag)
        coupling.eliminate_zeros()

        if factors is not None:
            coefficients, factor_matrix, constants = factors
            alpha = np.asarray(coefficients, dtype=np.float64)
            beta = np.asarray(constants, dtype=np.float64)
            f_mat = sparse.csr_matrix(factor_matrix, dtype=np.float64)
            if f_mat.shape[1] != n:
                raise QuboError(
                    f"factor matrix must have {n} columns, got shape "
                    f"{f_mat.shape}"
                )
            if alpha.shape != (f_mat.shape[0],) or beta.shape != alpha.shape:
                raise QuboError(
                    "factor coefficients/constants must match the factor "
                    f"matrix row count {f_mat.shape[0]}"
                )
            if not (
                np.all(np.isfinite(alpha))
                and np.all(np.isfinite(beta))
                and np.all(np.isfinite(f_mat.data))
            ):
                raise QuboError("factors must contain only finite values")
            factors = (alpha, f_mat, beta)
        self._assign(coupling.tocsr(), b + diag, float(offset), factors)

    @classmethod
    def _canonical(
        cls,
        coupling: sparse.csr_matrix,
        effective_linear: np.ndarray,
        offset: float,
        factors: tuple[np.ndarray, sparse.csr_matrix, np.ndarray] | None,
    ) -> "SparseQuboModel":
        """A model around arrays that are already in canonical form.

        The sparse counterpart of :meth:`QuboModel._canonical`: nothing
        is validated or re-symmetrised.  ``coupling`` must be the
        symmetric zero-diagonal CSR with sorted rows and no stored
        zeros, and ``effective_linear`` must carry its folded diagonal.
        ``factors`` is ``None`` or float64 ``(alpha, matrix, beta)``
        with ``matrix`` a CSR; its fold into ``effective_linear`` and
        ``offset`` is the constructor's.
        """
        model: "SparseQuboModel" = cls.__new__(cls)
        model._assign(coupling, effective_linear, offset, factors)
        return model

    def _assign(
        self,
        coupling: sparse.csr_matrix,
        effective_linear: np.ndarray,
        offset: float,
        factors: tuple[np.ndarray, sparse.csr_matrix, np.ndarray] | None,
    ) -> None:
        """Store canonical arrays, folding ``factors`` in on the way."""
        self._coupling = coupling
        self._factor_matrix = None
        self._factor_matrix_t = None
        self._factor_matrix_csc = None
        self._factor_row_layout: np.ndarray | None = None
        self._factor_coefficients = None
        self._factor_diagonal = None
        if factors is not None:
            alpha, f_mat, beta = factors
            # Canonicalise alpha_t (f_t.x + beta_t)^2 the way a dense
            # expansion would: diagonal alpha f_i^2 and linear
            # 2 alpha beta f_i fold into the effective linear, beta^2
            # into the offset; the residual factorised quadratic is
            #     Phi(x) = sum_t alpha_t [ (f_t.x)^2 - sum_i f_ti^2 x_i^2 ]
            # which is exactly x^T (sum_t alpha_t (f f^T - diag(f^2))) x.
            squared = f_mat.multiply(f_mat)
            factor_diag = np.asarray(squared.T @ alpha).ravel()
            effective_linear = (
                effective_linear
                + factor_diag
                + np.asarray(f_mat.T @ (2.0 * alpha * beta)).ravel()
            )
            offset += float(np.dot(alpha, beta * beta))
            self._factor_matrix = f_mat
            self._factor_matrix_t = f_mat.T.tocsr()
            self._factor_coefficients = alpha
            self._factor_diagonal = factor_diag
        self._effective_linear = effective_linear
        self._offset = float(offset)

    # ------------------------------------------------------------------
    # Accessors (mirroring QuboModel)
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of binary variables."""
        return self._coupling.shape[0]

    @property
    def coupling(self) -> sparse.csr_matrix:
        """Explicit symmetric zero-diagonal sparse coupling matrix.

        Factor terms are *not* folded in (that would densify); use
        :meth:`to_dense` for the full coupling.
        """
        return self._coupling

    @property
    def effective_linear(self) -> np.ndarray:
        """Linear coefficients with the diagonal folded in (read-only)."""
        view = self._effective_linear.view()
        view.flags.writeable = False
        return view

    @property
    def offset(self) -> float:
        """Constant energy offset."""
        return self._offset

    @property
    def nnz(self) -> int:
        """Stored nonzero couplings (symmetric counting, factors excluded)."""
        return int(self._coupling.nnz)

    @property
    def n_factors(self) -> int:
        """Number of stored squared-linear-form factor terms."""
        if self._factor_matrix is None:
            return 0
        return int(self._factor_matrix.shape[0])

    # ------------------------------------------------------------------
    # Factor-term helpers
    # ------------------------------------------------------------------
    def factor_terms(
        self,
    ) -> tuple[np.ndarray, sparse.csr_matrix, sparse.csc_matrix, np.ndarray] | None:
        """Canonicalised factor internals for incremental flip engines.

        Returns ``None`` when the model has no factors, else the tuple
        ``(coefficients, matrix_csr, matrix_csc, diagonal)`` where
        ``coefficients`` is ``alpha`` (length ``T``), ``matrix_csr`` /
        ``matrix_csc`` are the same ``(T, n)`` factor matrix ``F`` in row
        and column layout (the CSC copy is built lazily and cached, so
        repeated state materialisations — e.g. one per local-search
        restart — share it), and ``diagonal`` is
        ``d_i = sum_t alpha_t f_ti^2``, the diagonal correction already
        folded into :attr:`effective_linear`.

        :class:`repro.qubo.delta.FlipDeltaState` uses the CSC columns to
        find the factor rows touching a flipped bit and the CSR rows to
        propagate the rank-``|T_i|`` field change directly into its
        maintained fields — never reprojecting the full state.
        """
        if self._factor_matrix is None:
            return None
        if self._factor_matrix_csc is None:
            self._factor_matrix_csc = self._factor_matrix.tocsc()
        return (
            self._factor_coefficients,
            self._factor_matrix,
            self._factor_matrix_csc,
            self._factor_diagonal,
        )

    def factor_row_layout(self) -> np.ndarray | None:
        """Per-factor-row slice plan for incremental flip engines.

        Returns ``None`` when the model has no factors, else an int64
        array of shape ``(T, 5)`` whose row ``t`` is ``(ra, rb, start,
        stop, step)``: ``ra:rb`` is the row's span of the CSR
        ``indices``/``data``, and when those column indices form an
        increasing arithmetic progression, ``start:stop:step`` is the
        same set of columns as a slice.  ``step`` is 0 for every other
        row (including empty ones), which must then be addressed
        through its index array.  Every row
        :func:`repro.qubo.builders.build_community_qubo` emits is a
        progression: null-model and balance rows step by ``k``,
        assignment rows by 1.

        The layout depends on the sparsity structure only; it is built
        lazily, once per model.
        """
        if self._factor_matrix is None:
            return None
        if self._factor_row_layout is None:
            self._factor_row_layout = _row_progressions(
                self._factor_matrix.indptr, self._factor_matrix.indices
            )
        return self._factor_row_layout

    def _factor_quadratic(self, vec: np.ndarray) -> float:
        """Factor contribution to ``x^T C x`` for one assignment."""
        if self._factor_matrix is None:
            return 0.0
        projections = self._factor_matrix @ vec
        return float(
            np.dot(self._factor_coefficients, projections * projections)
            - np.dot(self._factor_diagonal, vec * vec)
        )

    def _factor_quadratic_batch(self, batch: np.ndarray) -> np.ndarray:
        """Factor contribution to ``x^T C x`` for a batch (rows)."""
        if self._factor_matrix is None:
            return np.zeros(len(batch), dtype=np.float64)
        projections = batch @ self._factor_matrix_t  # (batch, T)
        return (
            (projections * projections) @ self._factor_coefficients
            - (batch * batch) @ self._factor_diagonal
        )

    def _factor_matvec(self, vec: np.ndarray) -> np.ndarray:
        """Factor contribution to ``C x`` (for local fields)."""
        if self._factor_matrix is None:
            return np.zeros_like(vec)
        weighted = self._factor_coefficients * (self._factor_matrix @ vec)
        return np.asarray(
            self._factor_matrix_t @ weighted
        ).ravel() - self._factor_diagonal * vec

    def _factor_matvec_batch(self, batch: np.ndarray) -> np.ndarray:
        """Batched :meth:`_factor_matvec` over rows."""
        if self._factor_matrix is None:
            return np.zeros_like(batch)
        weighted = (
            batch @ self._factor_matrix_t
        ) * self._factor_coefficients  # (batch, T)
        return weighted @ self._factor_matrix - batch * self._factor_diagonal

    # ------------------------------------------------------------------
    # Energies (same contracts as QuboModel)
    # ------------------------------------------------------------------
    def evaluate(self, x: ArrayLike) -> float:
        """Energy of one assignment."""
        vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (self.n_variables,):
            raise QuboError(
                f"x must have shape ({self.n_variables},), got {vec.shape}"
            )
        return float(
            vec @ (self._coupling @ vec)
            + self._factor_quadratic(vec)
            + self._effective_linear @ vec
            + self._offset
        )

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Energies of a batch of assignments, shape ``(batch, n)``."""
        batch = np.asarray(xs, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.n_variables:
            raise QuboError(
                f"xs must have shape (batch, {self.n_variables}), "
                f"got {batch.shape}"
            )
        sx = self._coupling.dot(batch.T).T  # (batch, n)
        quad = np.einsum("bi,bi->b", batch, sx)
        quad += self._factor_quadratic_batch(batch)
        return quad + batch @ self._effective_linear + self._offset

    def local_fields(self, x: ArrayLike) -> np.ndarray:
        """Effective field ``h = 2 S x + c`` (see QuboModel)."""
        vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (self.n_variables,):
            raise QuboError(
                f"x must have shape ({self.n_variables},), got {vec.shape}"
            )
        product = self._coupling.dot(vec) + self._factor_matvec(vec)
        return 2.0 * product + self._effective_linear

    def local_fields_batch(self, xs: np.ndarray) -> np.ndarray:
        """Batched :meth:`local_fields`."""
        batch = np.asarray(xs, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.n_variables:
            raise QuboError(
                f"xs must have shape (batch, {self.n_variables}), "
                f"got {batch.shape}"
            )
        product = self._coupling.dot(batch.T).T + self._factor_matvec_batch(
            batch
        )
        return 2.0 * product + self._effective_linear

    def flip_delta(self, x: ArrayLike, index: int) -> float:
        """Energy change of flipping bit ``index`` (sparse row access)."""
        vec = np.asarray(x, dtype=np.float64)
        row = self._coupling.getrow(index)
        field = 2.0 * float(row.dot(vec)[0]) + float(
            self._effective_linear[index]
        )
        if self._factor_matrix is not None:
            column = self._factor_matrix.getcol(index)
            projections = self._factor_matrix @ vec
            factor_field = float(
                column.T.dot(self._factor_coefficients * projections)[0]
            ) - float(self._factor_diagonal[index]) * float(vec[index])
            field += 2.0 * factor_field
        return (1.0 - 2.0 * vec[index]) * field

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> QuboModel:
        """Materialise as a dense :class:`QuboModel` (exact energies)."""
        dense = self._coupling.toarray()
        if self._factor_matrix is not None:
            dense += (
                self._factor_matrix.T
                @ sparse.diags(self._factor_coefficients)
                @ self._factor_matrix
            ).toarray()
            np.fill_diagonal(
                dense, dense.diagonal() - self._factor_diagonal
            )
        return QuboModel(
            dense,
            self._effective_linear,
            self._offset,
        )

    @classmethod
    def from_dense(cls, model: QuboModel) -> "SparseQuboModel":
        """Build from a dense model (drops explicit zeros)."""
        return cls(
            sparse.csr_matrix(np.asarray(model.coupling)),
            np.asarray(model.effective_linear),
            model.offset,
        )

    def density(self) -> float:
        """Fraction of explicitly stored nonzero off-diagonal couplings."""
        n = self.n_variables
        if n < 2:
            return 0.0
        return self.nnz / (n * (n - 1))

    def coupling_row_abs_sums(self) -> np.ndarray:
        """Row sums of the full ``|C|``, factor terms bounded per row.

        For the factor part the triangle inequality gives
        ``sum_j |C^F_ij| <= sum_t |alpha_t| |f_ti| (sum_j |f_tj| - |f_ti|)``,
        which is exact when each factor's couplings do not cancel against
        the explicit ones — good enough for the QHD energy-scale heuristic
        without densifying.
        """
        totals = np.asarray(np.abs(self._coupling).sum(axis=1)).ravel()
        if self._factor_matrix is not None:
            abs_f = self._factor_matrix.copy()
            abs_f.data = np.abs(abs_f.data)
            abs_alpha = np.abs(self._factor_coefficients)
            row_totals = np.asarray(abs_f.sum(axis=1)).ravel()  # (T,)
            # per variable i: sum_t |alpha_t| |f_ti| (s_t - |f_ti|)
            weighted = abs_f.multiply(
                (abs_alpha * row_totals)[:, None]
            ).sum(axis=0)
            squared = abs_f.multiply(abs_f).multiply(
                abs_alpha[:, None]
            ).sum(axis=0)
            totals += np.asarray(weighted).ravel() - np.asarray(
                squared
            ).ravel()
        return totals

    def __repr__(self) -> str:
        return (
            f"SparseQuboModel(n_variables={self.n_variables}, "
            f"nnz={self.nnz}, n_factors={self.n_factors}, "
            f"offset={self._offset:g})"
        )
