"""QUBO model containers: the shared backend interface and the dense model.

A Quadratic Unconstrained Binary Optimization problem in minimisation form:

    minimise  E(x) = x^T Q x + b^T x + offset,    x in {0, 1}^n.

The diagonal of ``Q`` is allowed (``x_i^2 == x_i`` makes it effectively
linear), matching the construction in the paper's Algorithm 1 which writes
both quadratic couplings and linear terms.

Two storage backends implement one interface, :class:`BaseQubo`:

* :class:`QuboModel` — dense ``n x n`` symmetric coupling; right for small
  or dense instances (direct Table I solves, branch & bound).
* :class:`repro.qubo.sparse.SparseQuboModel` — CSR coupling plus optional
  low-rank "squared linear form" factors; right for the large structured
  instances of the paper's sparse regime (Fig. 3 and the multilevel base
  solves), where the dense matrix would be O((nk)^2).

All solvers in :mod:`repro.solvers` and :mod:`repro.qhd` consume
:class:`BaseQubo`; every hot operation (``evaluate``, ``local_fields``,
``flip_deltas`` and their batched forms) is a mat-vec against whichever
storage the instance carries.  Single-flip sweep loops do not call these
per iteration: they materialise a
:class:`repro.qubo.delta.FlipDeltaState` once per trajectory and pay
only O(row nnz) per accepted flip afterwards.

Storage is canonicalised at construction into a single symmetric
zero-diagonal coupling matrix plus an effective linear vector, so energies
and fields are directly comparable across backends.  The dense
community-QUBO builder writes that canonical form directly and also
records the coupling's Kronecker block structure
(:meth:`QuboModel.kronecker_terms`), which the QHD evolution engine
uses for its mean-field fields.  Both community builders record the
Eq. 3 one-hot groups (:meth:`BaseQubo.one_hot_blocks`), which
:class:`repro.solvers.GreedySolver` uses to skip hopeless restarts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import QuboError
from repro.utils.validation import check_square_matrix

#: ``(n, k, M, a)`` of a coupling ``M ⊗ I_k + a · I_n ⊗ (J_k - I_k)``;
#: see :meth:`QuboModel.kronecker_terms`.
KroneckerTerms = tuple[int, int, np.ndarray, float]

#: Rows of ``|S|`` formed at once by :meth:`BaseQubo.coupling_row_abs_sums`.
_ABS_SUM_BLOCK = 64


class BaseQubo(ABC):
    """Shared interface of the dense and sparse QUBO backends.

    Canonical form across backends: a symmetric zero-diagonal coupling
    ``S``, an effective linear vector ``c`` (original linear plus the
    folded ``Q`` diagonal) and a constant ``offset``, with

        E(x) = x^T S x + c^T x + offset.

    Both backends agree on every method below to floating-point accuracy
    for binary *and* relaxed ``x`` — property-tested in
    ``tests/qubo/test_equivalence.py`` — so solvers can consume either
    interchangeably.
    """

    #: Set only by the community-QUBO builders; see :meth:`one_hot_blocks`.
    _one_hot_blocks: tuple[int, int] | None = None

    @property
    @abstractmethod
    def n_variables(self) -> int:
        """Number of binary variables."""

    @property
    @abstractmethod
    def effective_linear(self) -> np.ndarray:
        """Linear coefficients with the quadratic diagonal folded in."""

    @property
    @abstractmethod
    def offset(self) -> float:
        """Constant energy offset."""

    @abstractmethod
    def evaluate(self, x: ArrayLike) -> float:
        """Energy of one assignment (binary or relaxed in [0, 1])."""

    @abstractmethod
    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Energies of a batch of assignments, shape ``(batch, n)``."""

    @abstractmethod
    def local_fields(self, x: ArrayLike) -> np.ndarray:
        """Effective field ``h = 2 S x + c`` seen by each variable."""

    @abstractmethod
    def local_fields_batch(self, xs: np.ndarray) -> np.ndarray:
        """Batched :meth:`local_fields`, shape ``(batch, n)`` in and out."""

    @abstractmethod
    def flip_delta(self, x: ArrayLike, index: int) -> float:
        """Energy change of flipping bit ``index`` only."""

    @abstractmethod
    def to_dense(self) -> "QuboModel":
        """Materialise as a dense :class:`QuboModel` (exact energies)."""

    def flip_deltas(self, x: ArrayLike) -> np.ndarray:
        """Energy change of flipping each bit of binary assignment ``x``.

        ``delta[i] = E(x with bit i flipped) - E(x)``; derived from
        :meth:`local_fields` in one mat-vec.  Sweep loops should prefer
        the incremental :class:`repro.qubo.delta.FlipDeltaState`, which
        materialises this array once and maintains it in O(row nnz) per
        accepted flip.
        """
        vec = np.asarray(x, dtype=np.float64)
        return (1.0 - 2.0 * vec) * self.local_fields(vec)

    def one_hot_blocks(self) -> tuple[int, int] | None:
        """``(n_nodes, k)`` of the model's Eq. 3 groups, or ``None``.

        When set, the energy carries ``λ_A (Σ_c x[i·k + c] − 1)²`` with
        ``λ_A > 0`` for every node ``i`` over variables ``i·k + c``, so
        a low-energy assignment picks exactly one ``c`` per node.  Only
        :func:`repro.qubo.build_community_qubo`'s dense and sparse
        assemblies set it (the stream's per-batch model is that build);
        a model built through a constructor, ``to_dense()`` or
        ``from_dense()`` returns ``None``, like
        :meth:`QuboModel.kronecker_terms`.
        :class:`repro.solvers.GreedySolver` uses it to skip random
        restarts that cannot reach a one-hot assignment.

        Examples
        --------
        >>> QuboModel([[0.0, 1.0], [1.0, 0.0]]).one_hot_blocks() is None
        True
        """
        return self._one_hot_blocks

    def coupling_row_abs_sums(self) -> np.ndarray:
        """Row sums of ``|S|`` (an upper bound per variable's coupling pull).

        Used by the QHD solver to normalise the energy landscape; sparse
        backends override this to include their factor terms without
        densifying.  ``|S|`` is formed and summed a block of rows at a
        time, never as a whole matrix; each row's reduction is the one
        ``np.abs(S).sum(axis=1)`` performs, so the sums are identical.
        """
        coupling = self.coupling
        n = coupling.shape[0]
        sums = np.empty(n, dtype=np.float64)
        for start in range(0, n, _ABS_SUM_BLOCK):
            stop = start + _ABS_SUM_BLOCK
            np.abs(coupling[start:stop]).sum(axis=1, out=sums[start:stop])
        return sums


class QuboModel(BaseQubo):
    """Minimisation QUBO ``x^T Q x + b^T x + offset`` over binary ``x``.

    Parameters
    ----------
    quadratic:
        Square ``n x n`` coefficient matrix.  It need not be symmetric;
        energies depend only on ``Q + Q^T`` off the diagonal.  The diagonal
        acts linearly and is folded into the linear term internally.
    linear:
        Length-``n`` linear coefficients; defaults to zeros.
    offset:
        Constant added to every energy (kept so that objective values remain
        comparable to the original constrained formulation).

    Examples
    --------
    >>> q = QuboModel([[0.0, -2.0], [0.0, 0.0]], [1.0, 1.0])
    >>> q.evaluate([1, 1])
    0.0
    >>> q.evaluate([0, 0])
    0.0
    >>> q.brute_force_minimum()[1]
    0.0
    """

    def __init__(
        self,
        quadratic: np.ndarray | Iterable[Iterable[float]],
        linear: np.ndarray | Iterable[float] | None = None,
        offset: float = 0.0,
    ) -> None:
        q = check_square_matrix(quadratic, "quadratic")
        n = q.shape[0]
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
        if not np.isfinite(offset):
            raise QuboError(f"offset must be finite, got {offset}")

        # Canonical form: symmetric coupling with zero diagonal, plus the
        # diagonal folded into an effective linear vector.
        coupling = 0.5 * (q + q.T)
        diag = np.diag(coupling).copy()
        np.fill_diagonal(coupling, 0.0)
        self._coupling = coupling
        self._effective_linear = b + diag
        self._offset = float(offset)
        self._kronecker: KroneckerTerms | None = None

    @classmethod
    def _canonical(
        cls,
        coupling: np.ndarray,
        effective_linear: np.ndarray,
        offset: float,
        kronecker: KroneckerTerms | None = None,
    ) -> "QuboModel":
        """A model around arrays that are already in canonical form.

        Nothing is copied, validated or re-symmetrised: ``coupling``
        must be symmetric with a zero diagonal and ``effective_linear``
        must carry the folded diagonal.  ``kronecker`` records the
        coupling's block structure (see :meth:`kronecker_terms`); only
        a builder that wrote exactly that structure may pass it.
        """
        model: "QuboModel" = cls.__new__(cls)
        model._coupling = coupling
        model._effective_linear = effective_linear
        model._offset = float(offset)
        model._kronecker = kronecker
        return model

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of binary variables."""
        return self._coupling.shape[0]

    @property
    def coupling(self) -> np.ndarray:
        """Symmetric zero-diagonal coupling matrix ``S`` (read-only)."""
        view = self._coupling.view()
        view.flags.writeable = False
        return view

    @property
    def effective_linear(self) -> np.ndarray:
        """Linear coefficients with the ``Q`` diagonal folded in."""
        view = self._effective_linear.view()
        view.flags.writeable = False
        return view

    @property
    def offset(self) -> float:
        """Constant energy offset."""
        return self._offset

    def kronecker_terms(self) -> KroneckerTerms | None:
        """The coupling's Kronecker form ``(n, k, M, a)``, or ``None``.

        When set, the coupling is exactly

            S = M ⊗ I_k + a · I_n ⊗ (J_k - I_k)

        over variables ``i * k + c``: the symmetric zero-diagonal
        ``(n, n)`` block ``M`` couples ``(i, c)`` to ``(j, c)`` in
        every one of the ``k`` groups, and the constant ``a`` couples
        ``(i, c)`` to ``(i, c')`` for ``c != c'``.  ``M`` (read-only)
        and ``a`` are the coupling's own entries, bit for bit.  Only
        :func:`repro.qubo.build_community_qubo`'s dense assembly (which
        also builds the stream's per-batch dense model) sets it; a
        model built through the constructor returns ``None``.  The
        energies and fields of this class still read the dense
        coupling; :class:`repro.qhd.engine.EvolutionEngine` uses the
        terms for its mean-field fields.

        Examples
        --------
        >>> QuboModel([[0.0, 1.0], [1.0, 0.0]]).kronecker_terms() is None
        True
        """
        return self._kronecker

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def evaluate(self, x: ArrayLike) -> float:
        """Energy of one assignment (binary or relaxed in [0, 1])."""
        vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (self.n_variables,):
            raise QuboError(
                f"x must have shape ({self.n_variables},), got {vec.shape}"
            )
        return float(
            vec @ self._coupling @ vec
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
        quad = np.einsum("bi,bi->b", batch @ self._coupling, batch)
        lin = batch @ self._effective_linear
        return quad + lin + self._offset

    def local_fields(self, x: ArrayLike) -> np.ndarray:
        """Effective field ``h_i = 2 (S x)_i + c_i`` seen by each variable.

        ``E(x with x_i = 1) - E(x with x_i = 0) == h_i`` when the other
        coordinates are held fixed; both the QHD mean-field potential and
        flip deltas derive from this quantity.
        """
        vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (self.n_variables,):
            raise QuboError(
                f"x must have shape ({self.n_variables},), got {vec.shape}"
            )
        return 2.0 * (self._coupling @ vec) + self._effective_linear

    def local_fields_batch(self, xs: np.ndarray) -> np.ndarray:
        """Batched :meth:`local_fields`, shape ``(batch, n)`` in and out."""
        batch = np.asarray(xs, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.n_variables:
            raise QuboError(
                f"xs must have shape (batch, {self.n_variables}), "
                f"got {batch.shape}"
            )
        return 2.0 * (batch @ self._coupling) + self._effective_linear

    def flip_delta(self, x: ArrayLike, index: int) -> float:
        """Energy change of flipping bit ``index`` only (O(n))."""
        vec = np.asarray(x, dtype=np.float64)
        field = (
            2.0 * float(self._coupling[index] @ vec)
            + float(self._effective_linear[index])
        )
        return (1.0 - 2.0 * vec[index]) * field

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def to_dense(self) -> "QuboModel":
        """This model is already dense; returns itself."""
        return self

    # ------------------------------------------------------------------
    # Exact reference
    # ------------------------------------------------------------------
    def brute_force_minimum(
        self, max_variables: int = 24
    ) -> tuple[np.ndarray, float]:
        """Exhaustive minimum for small models; the test-suite oracle.

        Raises
        ------
        QuboError
            When ``n_variables`` exceeds ``max_variables`` (2^n blow-up).
        """
        n = self.n_variables
        if n > max_variables:
            raise QuboError(
                f"brute force limited to {max_variables} variables, "
                f"model has {n}"
            )
        if n == 0:
            return np.zeros(0, dtype=np.int8), self._offset
        # Enumerate in blocks to bound memory at ~2^20 rows.
        best_energy = np.inf
        best_x = np.zeros(n, dtype=np.int8)
        block_bits = min(n, 20)
        n_blocks = 1 << (n - block_bits)
        base_codes = np.arange(1 << block_bits, dtype=np.uint64)
        bit_cols = np.arange(n, dtype=np.uint64)
        for block in range(n_blocks):
            codes = base_codes + (np.uint64(block) << np.uint64(block_bits))
            bits = (codes[:, None] >> bit_cols[None, :]) & np.uint64(1)
            xs = bits.astype(np.float64)
            energies = self.evaluate_batch(xs)
            idx = int(np.argmin(energies))
            if energies[idx] < best_energy:
                best_energy = float(energies[idx])
                best_x = xs[idx].astype(np.int8)
        return best_x, best_energy

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"QuboModel(n_variables={self.n_variables}, "
            f"offset={self._offset:g})"
        )
