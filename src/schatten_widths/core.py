"""Core matrix machinery: singular values, Schatten norms, hulls.

Everything here works on dense real square matrices (``numpy`` arrays of
shape ``(N, N)``); ``singular_values`` and ``schatten_norm`` also take a
stack of shape ``(..., N, N)`` and return one value per matrix, so a
sampled ratio over thousands of matrices is one LAPACK call.  Singular
values come from LAPACK (``np.linalg.svd``), with a closed form for a
single 2x2 input.  A one-sided Jacobi iteration would
resolve tiny singular values to high relative accuracy, but every rank
decision and quasi-norm here drops values below ``RANK_CUTOFF * sigma_1``,
so that accuracy would go unused; LAPACK is about 15x faster at N = 3 and
scales its input, so entries near the overflow or underflow threshold
give correct norms.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exponents import (
    INF,
    Exponent,
    ExponentLike,
    as_exponent,
    format_exponent,
    inv,
    is_infinite,
    npower,
)

__all__ = [
    "EmbeddingSpec",
    "HullDecomposition",
    "HullTerm",
    "LittlewoodReport",
    "as_square_matrix",
    "embedding_norm",
    "hull_decompose",
    "littlewood_check",
    "norm_from_singular_values",
    "pi2_embedding",
    "schatten_norm",
    "singular_values",
    "svd",
]

#: Relative threshold below which a singular value is treated as zero for
#: rank decisions (hull terms, rank counts).  Norms keep all values.
RANK_CUTOFF = 1e-12


# ---------------------------------------------------------------------------
# embedding spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSpec:
    """An identity embedding between Schatten classes on N x N matrices.

    Attributes
    ----------
    p, q:
        Source and target exponents in (0, inf].
    N:
        Matrix side length, N >= 1.
    n:
        Optional s-number index with ``1 <= n <= N**2``.
    """

    p: Exponent
    q: Exponent
    N: int
    n: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_exponent(self.p))
        object.__setattr__(self, "q", as_exponent(self.q))
        N = as_matrix_side(self.N)
        object.__setattr__(self, "N", N)
        if self.n is not None:
            n = as_int(self.n)
            if n is None:
                raise ValueError(f"index n must be an integer, got {self.n!r}")
            if not 1 <= n <= N**2:
                raise ValueError(f"index n must satisfy 1 <= n <= N^2 = {N ** 2}, got {n}")
            object.__setattr__(self, "n", n)

    @property
    def dimension(self) -> int:
        """Dimension N^2 of the matrix space."""
        return self.N**2

    def require_index(self) -> int:
        """Return ``n``, raising if the spec carries no index."""
        if self.n is None:
            raise ValueError("this operation requires the index n to be set")
        return self.n

    def describe(self) -> str:
        """Short human-readable form, e.g. ``S_1 -> S_inf, N=8, n=3``."""
        base = f"S_{format_exponent(self.p)} -> S_{format_exponent(self.q)}, N={self.N}"
        if self.n is not None:
            base += f", n={self.n}"
        return base


def as_int(value: object) -> Optional[int]:
    """``value`` as a Python ``int`` if it is an integer (numpy integer types
    included), else None.  ``bool`` and integral floats are not integers."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def as_matrix_side(N: object) -> int:
    """``N`` as a positive Python ``int`` (see :func:`as_int`)."""
    N_int = as_int(N)
    if N_int is None or N_int < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return N_int


def _as_square_stack(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a float array of shape ``(..., N, N)``."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise ValueError("matrix must have at least one row")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_square_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a float square matrix."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return _as_square_stack(arr)


# ---------------------------------------------------------------------------
# singular value decomposition
# ---------------------------------------------------------------------------


def _svd_2x2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Closed-form SVD of a 2x2 matrix via the rotation/reflection split.

    Returns ``None`` if the half-sums overflow or the residual off-diagonal
    check fails; the caller then falls back to LAPACK, which scales.
    """
    x0, x1, x2, x3 = float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1])
    half_trace = (x0 + x3) / 2.0
    half_skew = (x2 - x1) / 2.0
    half_diff = (x0 - x3) / 2.0
    half_sym = (x2 + x1) / 2.0
    rot_part = math.hypot(half_trace, half_skew)
    ref_part = math.hypot(half_diff, half_sym)
    top = rot_part + ref_part
    if not math.isfinite(top):
        return None
    angle_rot = math.atan2(half_skew, half_trace)
    angle_ref = math.atan2(half_sym, half_diff)
    phi = (angle_rot + angle_ref) / 2.0
    theta = (angle_ref - angle_rot) / 2.0
    cu, su = math.cos(phi), math.sin(phi)
    cv, sv = math.cos(theta), math.sin(theta)
    u = np.array([[cu, -su], [su, cu]])
    v = np.array([[cv, -sv], [sv, cv]])
    d = u.T @ a @ v
    for k in (0, 1):
        if d[k, k] < 0:
            u[:, k] = -u[:, k]
            d[k, :] = -d[k, :]
    if d[0, 0] < d[1, 1]:
        u = u[:, ::-1].copy()
        v = v[:, ::-1].copy()
        d = d[::-1][:, ::-1].copy()
    if abs(d[0, 1]) > 1e-10 * (top + 1e-300) or abs(d[1, 0]) > 1e-10 * (top + 1e-300):
        return None
    return u, np.array([d[0, 0], d[1, 1]]), v


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = U @ diag(s) @ V.T``: closed form for 2x2 input,
    LAPACK otherwise.

    Returns
    -------
    (U, s, V):
        Orthogonal ``U``, ``V`` and non-increasing singular values ``s``.
    """
    a = as_square_matrix(a)
    if a.shape[0] == 2:
        closed = _svd_2x2(a)
        if closed is not None:
            return closed
    u, sigma, vt = np.linalg.svd(a)
    return u, sigma, vt.T


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of ``a`` in non-increasing order (LAPACK); for a
    stack of shape ``(..., N, N)``, shape ``(..., N)``."""
    return np.linalg.svd(_as_square_stack(a), compute_uv=False)


# ---------------------------------------------------------------------------
# Schatten norms and embedding constants
# ---------------------------------------------------------------------------


def norm_from_singular_values(sigma: np.ndarray, p: ExponentLike) -> np.ndarray:
    """Schatten (quasi-)norm from singular values sorted non-increasingly
    along the last axis: shape ``(..., N)`` gives shape ``(...)``.

    Values below ``RANK_CUTOFF * sigma_1`` count as exact zeros: they are
    numerical noise, and for ``p < 1`` the quasi-norm would amplify them
    (``1e-16`` contributes ``1e-8`` at ``p = 1/2``).  The power sum runs
    over ``sigma / sigma_1``, so it neither overflows nor underflows.
    """
    pe = as_exponent(p)
    top = sigma[..., 0]
    if is_infinite(pe):
        return top
    pf = float(pe)
    ratios = sigma / np.where(top > 0.0, top, 1.0)[..., None]
    ratios[ratios <= RANK_CUTOFF] = 0.0
    return top * np.sum(ratios**pf, axis=-1) ** (1.0 / pf)


def schatten_norm(a: np.ndarray, p: ExponentLike) -> float | np.ndarray:
    """Schatten (quasi-)norm ``(sum_j sigma_j^p)^(1/p)``; ``p=inf`` is spectral.

    A single matrix gives a float; a stack of shape ``(..., N, N)`` gives an
    array of shape ``(...)``, one norm per matrix, from one LAPACK call.
    Singular values below ``RANK_CUTOFF * sigma_1`` are treated as exact
    zeros (see :func:`norm_from_singular_values`).
    """
    a = np.asarray(a)
    if a.shape == (2, 2):
        # rotation/reflection split: the singular values are sums and
        # differences of two Euclidean lengths, no factorization needed
        x0, x1, x2, x3 = float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1])
        nu = math.hypot(x0 + x3, x2 - x1)
        nv = math.hypot(x0 - x3, x2 + x1)
        s1 = 0.5 * (nu + nv)
        if not math.isfinite(s1):
            # every entry feeds both lengths, so this catches NaN and inf
            # entries as well as finite entries whose split lengths overflow
            if not all(map(math.isfinite, (x0, x1, x2, x3))):
                raise ValueError("matrix entries must be finite")
            scale = max(abs(x0), abs(x1), abs(x2), abs(x3))
            return scale * schatten_norm(a / scale, p)
        s2 = 0.5 * abs(nu - nv)
        if s1 <= 0.0:
            return 0.0
        if type(p) is float and p > 0.0:
            pf = p
        elif type(p) is int and p > 0:
            pf = float(p)
        else:
            pe = as_exponent(p)
            pf = math.inf if is_infinite(pe) else float(pe)
        if pf == math.inf or s2 <= RANK_CUTOFF * s1:
            return s1
        return s1 * (1.0 + (s2 / s1) ** pf) ** (1.0 / pf)
    norms = norm_from_singular_values(singular_values(a), p)
    return norms if norms.ndim else float(norms)


def embedding_norm(p: ExponentLike, q: ExponentLike, N: int) -> float:
    """Operator norm of the identity ``S_p^N -> S_q^N``: ``max(1, N^(1/q-1/p))``.

    Valid for all exponents in (0, inf].
    """
    pe, qe = as_exponent(p), as_exponent(q)
    N = as_matrix_side(N)
    return max(1.0, npower(N, inv(qe) - inv(pe)))


def pi2_embedding(p: ExponentLike, q: ExponentLike, N: int) -> float:
    """2-summing norm of the identity ``S_p^N -> S_q^N`` (Banach range only).

    ``N * max(1, N^(1/q-1/2)) / max(1, N^(1/p-1/2))`` for ``1 <= p, q <= inf``.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if pe < 1 or qe < 1:
        raise ValueError(
            f"2-summing norm needs Banach exponents p,q >= 1, got p={pe}, q={qe}"
        )
    N = as_matrix_side(N)
    half = Fraction(1, 2)
    numer = max(1.0, npower(N, inv(qe) - half))
    denom = max(1.0, npower(N, inv(pe) - half))
    return N * numer / denom


# ---------------------------------------------------------------------------
# rank-one hull decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullTerm:
    """One rank-one summand ``weight * summand`` of a hull decomposition."""

    weight: float
    summand: np.ndarray
    index: int


@dataclass(frozen=True)
class HullDecomposition:
    """Decomposition ``A = sum_i weight_i * summand_i`` into rank-one pieces.

    Each ``summand_i`` is an outer product of left/right singular vectors, so
    it has every Schatten (quasi-)norm equal to 1; the weights are the
    nonzero singular values in non-increasing order.
    """

    terms: tuple[HullTerm, ...]
    N: int

    @property
    def weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.terms])

    def reconstruct(self) -> np.ndarray:
        """Sum the weighted rank-one terms back into a matrix."""
        out = np.zeros((self.N, self.N))
        for term in self.terms:
            out += term.weight * term.summand
        return out


def hull_decompose(a: np.ndarray) -> HullDecomposition:
    """Write ``a`` as a positive combination of norm-one rank-one matrices.

    Singular values below ``1e-12 * sigma_1`` are treated as zero and
    dropped from the expansion.
    """
    u, sigma, v = svd(a)
    n = sigma.size
    terms: list[HullTerm] = []
    if sigma[0] > 0:
        cutoff = RANK_CUTOFF * sigma[0]
        for i in range(n):
            if sigma[i] <= cutoff:
                break
            terms.append(
                HullTerm(weight=float(sigma[i]), summand=np.outer(u[:, i], v[:, i]), index=i)
            )
    return HullDecomposition(terms=tuple(terms), N=n)


# ---------------------------------------------------------------------------
# interpolation (Littlewood) check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LittlewoodReport:
    """Result of a multiplicative interpolation check between two norms."""

    ok: bool
    interpolated_norm: float
    endpoint_q_norm: float
    endpoint_p_norm: float
    p_theta: float


def littlewood_check(
    a: np.ndarray, p: ExponentLike, q: ExponentLike, theta: float
) -> LittlewoodReport:
    """Check ``||a||_{p_theta} <= ||a||_q^(1-theta) * ||a||_p^theta``.

    The intermediate exponent is ``1/p_theta = (1-theta)/q + theta/p``.
    The comparison allows a 1e-12 relative slack for floating point.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if not (isinstance(theta, (int, float)) and 0.0 <= float(theta) <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    th = Fraction(float(theta))
    inv_theta = (1 - th) * inv(qe) + th * inv(pe)
    p_theta: Exponent = INF if inv_theta == 0 else 1 / inv_theta
    n_theta = schatten_norm(a, p_theta)
    n_q = schatten_norm(a, qe)
    n_p = schatten_norm(a, pe)
    bound = n_q ** (1.0 - float(th)) * n_p ** float(th)
    ok = n_theta <= bound * (1.0 + 1e-12)
    return LittlewoodReport(
        ok=bool(ok),
        interpolated_norm=n_theta,
        endpoint_q_norm=n_q,
        endpoint_p_norm=n_p,
        p_theta=float("inf") if is_infinite(p_theta) else float(p_theta),
    )
