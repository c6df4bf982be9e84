"""Linear operators and subspaces on the space of ``N x N`` matrices.

Matrices are vectorized row-major (``vec(X)[i*N + j] = X[i, j]``), so an
operator on matrix space is an ``N^2 x N^2`` array acting on ``vec``
coordinates, and a subspace is an orthonormal (Frobenius) column frame in
those coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OperatorOnMatrices",
    "SubspaceBasis",
    "identity_operator",
    "orthonormal_columns",
    "subspace_from_matrices",
    "unvec",
    "vec",
]


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of an ``N x N`` matrix."""
    return np.asarray(x, dtype=float).reshape(-1)


def unvec(v: np.ndarray, N: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=float).reshape(N, N)


@dataclass(frozen=True, eq=False)
class OperatorOnMatrices:
    """A linear map on ``N x N`` matrix space, stored as its ``N^2 x N^2``
    representation in ``vec`` coordinates."""

    matrix: np.ndarray
    N: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        full = self.N * self.N
        if m.shape != (full, full):
            raise ValueError(
                f"representation must be {full}x{full} for N={self.N}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(x), self.N)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        return unvec(self.matrix.T @ vec(y), self.N)

    @property
    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.matrix))

    def compose(self, other: "OperatorOnMatrices") -> "OperatorOnMatrices":
        if other.N != self.N:
            raise ValueError("operators act on different matrix spaces")
        return OperatorOnMatrices(self.matrix @ other.matrix, self.N)

    def subtract_from_identity(self) -> "OperatorOnMatrices":
        """The residual map ``X -> X - self(X)``."""
        eye = np.eye(self.N * self.N)
        return OperatorOnMatrices(eye - self.matrix, self.N)


def identity_operator(N: int) -> OperatorOnMatrices:
    return OperatorOnMatrices(np.eye(N * N), N)


def orthonormal_columns(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis for the column span of ``a`` (possibly rank
    deficient), via pivoted Gram-Schmidt on the QR factors."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    keep = diag > tol * (diag.max() if diag.size else 1.0)
    return q[:, keep]


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal (Frobenius inner product) basis of a subspace of
    ``N x N`` matrix space, columns in ``vec`` coordinates."""

    columns: np.ndarray
    N: int

    def __post_init__(self) -> None:
        c = np.asarray(self.columns, dtype=float)
        full = self.N * self.N
        if c.ndim != 2 or c.shape[0] != full:
            raise ValueError(f"columns must be ({full}, m), got {c.shape}")
        if c.shape[1] > 0:
            gram = c.T @ c
            if not np.allclose(gram, np.eye(c.shape[1]), atol=1e-10):
                raise ValueError("columns are not orthonormal")
        object.__setattr__(self, "columns", c)
        object.__setattr__(
            self,
            "_matrices",
            tuple(c[:, k].reshape(self.N, self.N) for k in range(c.shape[1])),
        )

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def member(self, coeffs: np.ndarray) -> np.ndarray:
        """The matrix with the given coefficients in this basis."""
        return unvec(self.columns @ np.asarray(coeffs, dtype=float), self.N)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Frobenius-orthogonal projection coefficients of ``x``."""
        return self.columns.T @ vec(x)

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.member(self.coefficients(x))

    def basis_matrices(self) -> tuple[np.ndarray, ...]:
        """The basis columns as matrices (precomputed at construction)."""
        return self._matrices


def subspace_from_matrices(mats, N: int, tol: float = 1e-12) -> SubspaceBasis:
    """Orthonormalize a list of ``N x N`` matrices into a subspace basis."""
    if not mats:
        return SubspaceBasis(np.zeros((N * N, 0)), N)
    a = np.column_stack([vec(m) for m in mats])
    return SubspaceBasis(orthonormal_columns(a, tol), N)
