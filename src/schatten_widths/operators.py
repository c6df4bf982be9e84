"""Subspaces of the space of ``N x N`` matrices.

Matrices are vectorized row-major (``vec(X)[i*N + j] = X[i, j]``), and a
subspace is an orthonormal (Frobenius) column frame in those coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import as_real

__all__ = [
    "SubspaceBasis",
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


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``a``, which may be rank
    deficient.

    Full-rank input gets the ``Q`` factor of its QR decomposition.  When a
    diagonal entry of ``R`` falls below ``1e-12`` of the largest, a column
    depends on the ones before it, and an unpivoted ``Q`` would lose any
    independent column after it; the basis is then the left singular
    vectors whose singular values are at least ``1e-12`` of the largest.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if diag.min() > 1e-12 * diag.max():
        return q
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > 1e-12 * s[0]]


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """An orthonormal (Frobenius inner product) basis of a subspace of
    ``N x N`` matrix space, columns in ``vec`` coordinates; complex columns
    raise ``ValueError``."""

    columns: np.ndarray
    N: int

    def __post_init__(self) -> None:
        c = np.asarray(as_real(self.columns), dtype=float)
        full = self.N * self.N
        if c.ndim != 2 or c.shape[0] != full:
            raise ValueError(f"columns must be ({full}, m), got {c.shape}")
        if c.shape[1] > 0:
            gram = c.T @ c
            if not np.allclose(gram, np.eye(c.shape[1]), atol=1e-10):
                raise ValueError("columns are not orthonormal")
        object.__setattr__(self, "columns", c)

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def member(self, coeffs: np.ndarray) -> np.ndarray:
        """The matrix with the given coefficients in this basis."""
        return unvec(self.columns @ np.asarray(coeffs, dtype=float), self.N)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Frobenius-orthogonal projection coefficients of ``x``."""
        return self.columns.T @ vec(x)

    @cached_property
    def complement(self) -> np.ndarray:
        """Orthonormal frame of the Frobenius orthogonal complement, shape
        ``(N^2, N^2 - dim)``; computed once per basis."""
        if self.dim == 0:
            return np.eye(self.N * self.N)
        return np.linalg.svd(self.columns, full_matrices=True)[0][:, self.dim:]

    def basis_matrices(self) -> np.ndarray:
        """The basis columns as a stack of matrices, shape ``(dim, N, N)``."""
        return self.columns.T.reshape(self.dim, self.N, self.N)


def subspace_from_matrices(mats, N: int) -> SubspaceBasis:
    """Orthonormalize a list of ``N x N`` matrices into a subspace basis."""
    if not mats:
        return SubspaceBasis(np.zeros((N * N, 0)), N)
    a = np.column_stack([vec(m) for m in mats])
    return SubspaceBasis(orthonormal_columns(a), N)
