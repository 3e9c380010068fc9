"""Linear-algebra helpers shared by the ADMM solvers."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M') / 2`` of a square matrix."""
    return 0.5 * (matrix + matrix.T)


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the positive-semidefinite cone.

    Uses the eigenvalue clipping characterization: if ``M = V diag(w) V'``
    then the nearest PSD matrix in Frobenius norm is
    ``V diag(max(w, 0)) V'``.
    """
    sym = symmetrize(np.asarray(matrix, dtype=float))
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    if eigenvalues[0] >= 0.0:
        return sym
    clipped = np.clip(eigenvalues, 0.0, None)
    return (eigenvectors * clipped) @ eigenvectors.T


def is_psd(matrix: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether a symmetric matrix is PSD up to tolerance ``tol``."""
    sym = symmetrize(np.asarray(matrix, dtype=float))
    smallest = np.linalg.eigvalsh(sym)[0]
    return bool(smallest >= -tol * max(1.0, abs(smallest)))


def vec_symmetric(matrix: np.ndarray) -> np.ndarray:
    """Flatten a symmetric matrix to a full ``n*n`` vector (row-major)."""
    return np.asarray(matrix, dtype=float).reshape(-1)


def mat_symmetric(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec_symmetric`: reshape and symmetrize."""
    return symmetrize(np.asarray(vector, dtype=float).reshape(dim, dim))


#: problems over at most this many variables are held as dense numpy
#: arrays and their KKT matrix factored by LAPACK; larger ones stay CSC
#: with SuperLU. Below it scipy.sparse's fixed per-call cost dominates
#: the solve; set from the measured crossover (DESIGN §3, "Small
#: windows").
DENSE_MAX_VARIABLES = 128


def is_dense_size(num_variables: int) -> bool:
    """Whether a problem over ``num_variables`` variables takes the dense
    form (at most :data:`DENSE_MAX_VARIABLES`)."""
    return num_variables <= DENSE_MAX_VARIABLES


class KKTFactorization:
    """Cached factorization of the ADMM normal-equation matrix.

    ADMM iterations repeatedly solve ``(P + sigma*I + rho*A'A) x = rhs``
    with fixed ``P``, ``A`` and penalty parameters; factor once and reuse.
    Sparse ``P`` and ``A`` are factored by SuperLU, dense ones (both the
    same form) by LAPACK's Cholesky; :attr:`form` names which. Either
    falls back to a pseudo-inverse when its factorization fails: SuperLU
    on a numerically singular system, Cholesky on one that is not
    positive definite (a nonzero ``potrf`` info). SuperLU and LAPACK load
    with the first factorization of their form (DESIGN §11), and
    :meth:`solve` imports nothing.

    ``P + sigma*I`` and ``A'A`` are computed once: :meth:`refactor` for a
    new ``rho`` adds them up as the constructor does, so the matrix it
    factors is the one a new instance would factor, bit for bit.
    """

    def __init__(
        self,
        quadratic,
        constraints,
        sigma: float,
        rho: float,
    ) -> None:
        n = quadratic.shape[0]
        self.form = "sparse" if sp.issparse(quadratic) else "dense"
        if self.form == "sparse":
            self._regularized = sp.csc_matrix(quadratic) + sigma * sp.identity(
                n, format="csc"
            )
        else:
            self._regularized = quadratic + sigma * np.eye(n)
        self._gram = constraints.T @ constraints
        self.refactor(rho)

    def refactor(self, rho: float) -> None:
        """Factor ``P + sigma*I + rho*A'A`` for a new ``rho``."""
        self._lu = self._cholesky = self._dense_inverse = None
        system = self._regularized + rho * self._gram
        if self.form == "sparse":
            import scipy.sparse.linalg as spla

            try:
                self._lu = spla.splu(sp.csc_matrix(system))
                return
            except RuntimeError:
                system = system.toarray()
        else:
            from scipy.linalg.lapack import dpotrf, dpotrs

            cholesky, info = dpotrf(system)
            if info == 0:
                self._cholesky = cholesky
                self._dpotrs = dpotrs
                return
        self._dense_inverse = np.linalg.pinv(system)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the cached system for a right-hand side."""
        if self._lu is not None:
            return self._lu.solve(rhs)
        if self._cholesky is not None:
            return self._dpotrs(self._cholesky, rhs)[0]
        return self._dense_inverse @ rhs


def as_csc(matrix, shape: tuple[int, int] | None = None) -> sp.csc_matrix:
    """Coerce dense/sparse input to CSC, validating the shape if given."""
    result = sp.csc_matrix(matrix)
    if shape is not None and result.shape != shape:
        raise ValueError(f"expected shape {shape}, got {result.shape}")
    return result


def as_dense(matrix, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce dense/sparse input to a 2-D float array, validating the
    shape if given (a float array passes through uncopied)."""
    result = np.atleast_2d(
        np.asarray(
            matrix.toarray() if sp.issparse(matrix) else matrix, dtype=float
        )
    )
    if shape is not None and result.shape != shape:
        raise ValueError(f"expected shape {shape}, got {result.shape}")
    return result
