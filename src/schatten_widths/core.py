"""Core matrix machinery: singular values, Schatten norms and their
gradients, hulls.

Everything here works on dense real square matrices (``numpy`` arrays of
shape ``(N, N)``); ``singular_values`` and ``schatten_norm`` also take a
stack of shape ``(..., N, N)`` and return one value per matrix, so a
sampled ratio over thousands of matrices is one LAPACK call.  Every
factorization is LAPACK's ``dgesdd``, called through the gufunc that
``np.linalg.svd`` ends in (``_lapack_svd``), so the values are
``np.linalg.svd``'s bit for bit: the searches at N >= 3 factor one 3x3 to
8x8 matrix per point, where the public wrapper costs more than LAPACK.
The input must be real, square and finite, and is checked before LAPACK
runs.  A single matrix's norm is summed over Python floats
(``norm_from_floats``), with its exponent
resolved to a float once per call: the searches take norms of one small
matrix at a time, where numpy's per-call overhead costs more than the
arithmetic.  Stacks keep the vectorized ``norm_from_singular_values``.
Where a small exponent overflows the power sum's root although the norm
is representable, the root is taken in log space.

``norm_and_gradient`` is the one source of norm gradients, and so of the
dual-norm achievers that the searches and the codimension-one distance
use.  A gradient is ``U diag(w) V^T`` at every N (Lewis 1995, *J. Convex
Anal.* 2): a point is its singular values, as Python floats, and a frame
(``_spectrum_and_frame``); the weights ``w`` come from the singular values
by one formula (``_gradient_weights``), and one combiner
(``_frame_gradient``) applies them in the frame.  The ascent scores its
points the same way and combines two exponents' weights into one step
with the same combiner, and only at the points it steps from.  At
N >= 3 the frame is ``(U, V^T)`` from the one LAPACK call.  At N = 2 the
values and the frame come from the rotation/reflection split
:func:`split_2x2`, which the N = 2 distance solvers and the net oracle
share, several times faster than LAPACK, where a closed-form full 2x2
SVD is not: the frame is the split's floats, from which the combiner
forms the derivatives of the two singular values, and only where the
split's directions are ill-conditioned does the frame come from LAPACK.
A one-sided Jacobi iteration would resolve tiny singular values to high
relative accuracy, but every rank decision and quasi-norm here drops
values below ``RANK_CUTOFF * sigma_1``, so that accuracy would go unused;
LAPACK is about 15x faster at N = 3 and scales its input, so entries
near the overflow or underflow threshold give correct norms.

The checks of the paper's two singular-value facts factor each matrix
once.  :func:`littlewood_check` takes its three norms from one spectrum
(the 2x2 split, or one values-only ``dgesdd``), with the interpolated
exponent from integer arithmetic, and decides a matrix whose largest
entry lies outside ``[2^-257, 2^256)`` at an exact power-of-two scale.
:func:`hull_decompose` forms its rank-one summands from one full SVD, as
one broadcast product, and refuses a matrix whose spectral norm
overflows.  Both give the same bits as one norm call per exponent and
one ``np.outer`` per term.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exponents import (
    Exponent,
    ExponentLike,
    as_exponent,
    exponent_float,
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
    "last_snumber",
    "littlewood_check",
    "norm_and_gradient",
    "norm_from_singular_values",
    "pi2_embedding",
    "schatten_norm",
    "singular_values",
    "split_2x2",
    "svd",
]

#: Relative threshold below which a singular value is treated as zero, for
#: rank decisions (hull terms, rank counts) and in Schatten norms.
RANK_CUTOFF = 1e-12
#: Relative threshold below which a singular value gets no weight in a
#: norm gradient: for ``p < 1``, ``sigma^{p-1}`` blows up at the spectrum's
#: edge.
_SPECTRAL_CUTOFF = 1e-8
# the log of the largest float: math.exp raises above it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# A matrix whose largest entry (for a gradient, whose top singular value)
# lies outside [2^-257, 2^256) is worked on at the power-of-two scale that
# brings it into [1/2, 1): there sums of squares and powers of its entries
# and singular values stay far from overflow and underflow, and the
# scaling itself is exact.
_SAFE_EXPONENT = 256


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


def as_real(a: np.ndarray) -> np.ndarray:
    """``a`` as an array, raising ``ValueError`` on a complex one: a cast to
    float would drop its imaginary parts."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        raise ValueError(f"matrix entries must be real, got dtype {arr.dtype}")
    return arr


def _as_square_stack(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a float array of shape ``(..., N, N)``:
    real, square, non-empty and finite."""
    arr = np.asarray(as_real(a), dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1:
        raise ValueError("matrix must have at least one row")
    # a sum of squares is finite only if every entry is, and one BLAS call
    # costs a third of np.isfinite on a small matrix; only where it
    # overflows are the entries looked at one by one
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_square_matrix(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a float square matrix."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return _as_square_stack(arr)


def _safe_shift(exponent: int) -> int:
    """The power of two to scale by so that an entry ``x`` with
    ``frexp(x)[1] == exponent`` lands in [1/2, 1), or 0 if ``x`` lies in
    ``[2^-257, 2^256)``."""
    return -exponent if abs(exponent) > _SAFE_EXPONENT else 0


def _ldexp(x: float, exponent: int) -> float:
    """``x * 2**exponent``, or inf where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# singular value decomposition
# ---------------------------------------------------------------------------


def split_2x2(x00, x01, x10, x11):
    """Rotation/reflection split of the 2x2 matrix ``[[x00, x01], [x10, x11]]``.

    Returns ``((u1, u2), (v1, v2))`` with the halved convention
    ``u = ((x00 + x11) / 2, (x10 - x01) / 2)`` and
    ``v = ((x00 - x11) / 2, (x10 + x01) / 2)``: the matrix is a rotation
    ``[[u1, -u2], [u2, u1]]`` plus a reflection ``[[v1, v2], [v2, -v1]]``,
    and its singular values are ``|u| + |v|`` and ``||u| - |v||``.  The
    arithmetic is elementwise, so the entries may be floats or arrays of
    one shape (a net of matrices, or a frame's columns).

    The split floats are also a 2x2 matrix's frame for its norm gradients
    (:func:`_spectrum_and_frame`): the derivatives of ``|u|`` and ``|v|``
    are the unit vectors ``u / |u|`` and ``v / |v|`` in these
    coordinates, so those of the two singular values are explicit.
    """
    return ((x00 + x11) / 2.0, (x10 - x01) / 2.0), ((x00 - x11) / 2.0, (x10 + x01) / 2.0)


try:
    # the LAPACK (dgesdd) gufuncs that np.linalg.svd ends in; numpy < 2
    # names them by shape, and there the public function serves
    from numpy.linalg._umath_linalg import svd as _gesdd_values, svd_f as _gesdd_full
except ImportError:
    _lapack_svd = np.linalg.svd
else:

    def _raise_nonconvergence(err, flag):
        raise np.linalg.LinAlgError("SVD did not converge")

    def _lapack_svd(a: np.ndarray, compute_uv: bool = True):
        """``np.linalg.svd(a, compute_uv=compute_uv)`` of a float array that
        :func:`_as_square_stack` has validated, without the wrapper.

        The gufunc runs under the error state ``np.linalg.svd`` sets, so
        the output is the same bit for bit, and a failed convergence
        raises ``LinAlgError`` as there.  On a 3x3 matrix the wrapper
        costs more than LAPACK itself.
        """
        with np.errstate(call=_raise_nonconvergence, invalid="call",
                         over="ignore", divide="ignore", under="ignore"):
            if compute_uv:
                return _gesdd_full(a, signature="d->ddd")
            return _gesdd_values(a, signature="d->d")


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``a = U @ diag(s) @ V.T`` of a square matrix.

    One call of LAPACK's ``dgesdd`` through ``_lapack_svd``: the gufunc
    ``numpy.linalg._umath_linalg.svd_f`` that ``np.linalg.svd`` ends in,
    without the public wrapper, which on a 3x3 matrix costs more than
    LAPACK.  The checks of :func:`as_square_matrix` run first (real, 2-D,
    square, non-empty, finite: on a non-finite matrix LAPACK may not
    return).  The result is ``np.linalg.svd``'s bit for bit.

    Returns
    -------
    (U, s, V):
        Orthogonal ``U``, ``V`` and non-increasing singular values ``s``.
    """
    u, sigma, vt = _lapack_svd(as_square_matrix(a))
    return u, sigma, vt.T


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of ``a`` in non-increasing order; for a stack of
    shape ``(..., N, N)``, shape ``(..., N)``.

    One values-only ``dgesdd`` call, for one matrix or a whole stack,
    through the gufunc ``numpy.linalg._umath_linalg.svd`` with the checks
    and for the reason of :func:`svd`; equal to
    ``np.linalg.svd(a, compute_uv=False)`` bit for bit.
    """
    return _lapack_svd(_as_square_stack(a), compute_uv=False)


# ---------------------------------------------------------------------------
# Schatten norms and embedding constants
# ---------------------------------------------------------------------------


def norm_from_floats(sigma: Sequence[float], pf: float) -> float:
    """Schatten (quasi-)norm of one matrix from its singular values, given
    as Python floats in non-increasing order, for a float exponent ``pf``.

    The same rule as :func:`norm_from_singular_values`, on Python floats:
    for a single small matrix numpy's per-call overhead costs more than
    the arithmetic.  An infinite top singular value (LAPACK's answer for
    a matrix whose spectral norm overflows) gives ``inf``, and so does a
    norm beyond the float range (a small exponent's, of an O(1) matrix).
    """
    top = sigma[0]
    if pf == math.inf or top <= 0.0 or top == math.inf:
        return top
    total = 0.0
    for s in sigma:
        ratio = s / top
        if ratio > RANK_CUTOFF:
            total += ratio**pf
    try:
        return top * total ** (1.0 / pf)
    except OverflowError:
        # a small exponent can overflow the root of a representable norm
        # (the top singular value is then tiny): take it in log space, and
        # where the norm itself leaves the float range, give inf
        log_norm = math.log(top) + math.log(total) / pf
        return math.exp(log_norm) if log_norm < _LOG_FLOAT_MAX else math.inf


def spectrum_2x2(entries: Sequence[float]):
    """Singular values of the 2x2 matrix with row-major ``entries`` (Python
    floats), with no factorization.

    They are the sum and difference of the split lengths (see
    :func:`split_2x2`).  Returns ``((s1, s2), (u1, u2, v1, v2, nu, nv))``,
    the singular values with the split and its lengths, or None when the
    lengths are not finite: every entry feeds both lengths, so that catches
    NaN and inf entries as well as finite entries whose split lengths
    overflow.
    """
    (u1, u2), (v1, v2) = split_2x2(*entries)
    nu, nv = math.hypot(u1, u2), math.hypot(v1, v2)
    s1 = nu + nv
    if not math.isfinite(s1):
        return None
    return (s1, abs(nu - nv)), (u1, u2, v1, v2, nu, nv)


def norm_from_singular_values(sigma: np.ndarray, p: ExponentLike) -> np.ndarray:
    """Schatten (quasi-)norm from singular values sorted non-increasingly
    along the last axis: shape ``(..., N)`` gives shape ``(...)``.

    Values below ``RANK_CUTOFF * sigma_1`` count as exact zeros: they are
    numerical noise, and for ``p < 1`` the quasi-norm would amplify them
    (``1e-16`` contributes ``1e-8`` at ``p = 1/2``).  The power sum runs
    over ``sigma / sigma_1``, so it neither overflows nor underflows.  An
    infinite ``sigma_1`` (the spectral norm overflowed) gives ``inf``.
    """
    pe = as_exponent(p)
    top = sigma[..., 0]
    if is_infinite(pe):
        return top
    overflow = top == math.inf
    if np.any(overflow):
        finite = norm_from_singular_values(np.where(overflow[..., None], 0.0, sigma), pe)
        return np.where(overflow, math.inf, finite)
    pf = float(pe)
    ratios = sigma / np.where(top > 0.0, top, 1.0)[..., None]
    ratios[ratios <= RANK_CUTOFF] = 0.0
    total = np.sum(ratios**pf, axis=-1)
    with np.errstate(over="ignore"):
        root = total ** (1.0 / pf)
    if np.all(np.isfinite(root)):
        return top * root
    # as in norm_from_floats, a root that overflows is taken in log space,
    # and a norm beyond the float range is inf
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(top) + np.log(total) / pf
        return np.where(np.isfinite(root), top * root, np.exp(logs))


def schatten_norm(a: np.ndarray, p: ExponentLike) -> float | np.ndarray:
    """Schatten (quasi-)norm ``(sum_j sigma_j^p)^(1/p)``; ``p=inf`` is spectral.

    A single matrix gives a float; a stack of shape ``(..., N, N)`` gives an
    array of shape ``(...)``, one norm per matrix, from one LAPACK call.
    Singular values below ``RANK_CUTOFF * sigma_1`` are treated as exact
    zeros (see :func:`norm_from_singular_values`).  A single matrix's norm
    is summed in Python floats (:func:`norm_from_floats`); a 2x2 one needs
    no factorization at all.
    """
    a = as_real(a)
    if a.shape == (2, 2):
        pf = exponent_float(p)
        entries = a.ravel().tolist()
        closed = spectrum_2x2(entries)
        if closed is None:
            if not all(map(math.isfinite, entries)):
                raise ValueError("matrix entries must be finite")
            scale = max(map(abs, entries))
            return scale * schatten_norm(a / scale, pf)
        return norm_from_floats(closed[0], pf)
    if a.ndim == 2:
        return norm_from_floats(singular_values(a).tolist(), exponent_float(p))
    return norm_from_singular_values(singular_values(a), p)


def norm_and_gradient(x: np.ndarray, p) -> tuple[float, Optional[np.ndarray]]:
    """``||x||_p`` and the gradient of ``X -> ||X||_p`` at ``x``, from one
    factorization; ``(0.0, None)`` at the zero matrix.

    For finite ``p`` the gradient is
    ``U diag(sigma_i^{p-1}) V^T / ||x||_p^{p-1}``; for ``p = inf`` the top
    singular pair ``u1 v1^T`` (a supergradient when the top singular value
    is degenerate).  Singular values below a relative spectral cutoff are
    dropped from the gradient, which for ``p < 1`` avoids the blowup of
    ``sigma^{p-1}`` at the spectrum's edge.  The value is the one
    :func:`schatten_norm` computes, from the same singular values.
    A 2x2 input needs no factorization unless its spectrum is nearly
    degenerate (:func:`_spectrum_and_frame`).  The gradient is None where
    a weight leaves the float range, and where the top singular value
    overflows.

    The gradient is 0-homogeneous, so a matrix whose top singular value
    lies outside ``[2^-257, 2^256)`` takes its frame and weights from its
    exact power-of-two rescale into ``[1/2, 1)``: at a subnormal scale its
    own singular values and split lengths have lost bits.  Its value is
    still its own.

    By duality the gradient of the dual norm ``||.||_{p*}`` at ``z`` is the
    point of the ``S_p`` unit sphere that attains ``<z, X> = ||z||_{p*}``
    (for ``p <= 1``, take ``p* = inf``): the searches' dual-norm achievers
    are these gradients.
    """
    x = np.asarray(as_real(x), dtype=float)
    sigma, frame = _spectrum_and_frame(x)
    pf = exponent_float(p)
    value, ratios, scale = _norm_and_weight_scale(sigma, pf)
    if not ratios:
        return value, None
    shift = _safe_shift(math.frexp(sigma[0])[1])
    if shift:
        sigma, frame = _spectrum_and_frame(np.ldexp(x, shift), validated=True)
        _, ratios, scale = _norm_and_weight_scale(sigma, pf)
    weights = _gradient_weights(ratios, pf, scale)
    return value, None if weights is None else _frame_gradient(frame, weights)


def _spectrum_and_frame(x: np.ndarray, validated: bool = False):
    """``(sigma, frame)`` of one float matrix ``x``: its singular values,
    Python floats in non-increasing order, and the frame that
    :func:`_frame_gradient` applies weights in.

    A 2x2 matrix takes the split (:func:`spectrum_2x2`), and its frame is
    the split's floats ``(u1, u2, v1, v2, |u|, |v|)``: no factorization.
    Where one split length is below ``1e-9 sigma_1`` but not zero, the two
    singular values nearly agree and the split's directions are
    ill-conditioned, so the frame is LAPACK's, the values still the
    split's.  Every other matrix, and a 2x2 one whose split lengths are not
    finite, takes one LAPACK call, with the frame ``(U, V^T)``; it is
    validated first (:func:`as_square_matrix`) unless ``validated``.
    """
    if x.shape == (2, 2):
        closed = spectrum_2x2(x.ravel().tolist())
        if closed is not None:
            sigma, split = closed
            if not 0.0 < min(split[4], split[5]) < 1e-9 * sigma[0]:
                return sigma, split
            # finite split lengths: every entry is finite
            u, _, vt = _lapack_svd(x)
            return sigma, (u, vt)
    u, s, vt = _lapack_svd(x if validated else as_square_matrix(x))
    return s.tolist(), (u, vt)


def _norm_and_weight_scale(sigma: list[float], pf: float) -> tuple[float, list[float], float]:
    """``(value, ratios, scale)`` of one exponent ``pf`` from a matrix's
    singular values ``sigma``, Python floats in non-increasing order: its
    norm, the ratios ``sigma_i / sigma_1``, and the factor that
    :func:`_gradient_weights` scales its weights by.

    A zero spectrum, or one whose top value overflowed, has no gradient
    and gives no ratios.  The value is :func:`norm_from_floats` of
    ``sigma`` bit for bit.
    """
    top = sigma[0]
    if top <= 0.0:
        return 0.0, [], 0.0
    if top == math.inf:
        return math.inf, [], 0.0  # the spectral norm overflowed
    ratios = [t / top for t in sigma]
    # the same power sum as norm_from_floats(sigma, pf), so the same value
    # bit for bit, and its root is the ratio norm the weights need
    norm_ratio = norm_from_floats(ratios, pf)
    if norm_ratio == math.inf:
        # a small exponent can overflow the ratio norm although the norm,
        # scaled by a tiny top singular value, is representable: take the
        # weights' scale, the ratio norm to the power 1 - p, in log space
        value = norm_from_floats(sigma, pf)
        log_scale = (1.0 - pf) * (math.log(value) - math.log(top))
        return value, ratios, math.exp(log_scale) if log_scale < _LOG_FLOAT_MAX else math.inf
    scale = 1.0 if pf == math.inf else norm_ratio ** (1.0 - pf)
    return top * norm_ratio, ratios, scale


def _gradient_weights(ratios: list[float], pf: float, scale: float) -> Optional[list[float]]:
    """The weights ``w`` of the norm gradient ``U diag(w) V^T`` at a matrix
    with the SVD ``U diag(sigma) V^T``, from the ratios and scale of
    :func:`_norm_and_weight_scale`: ``w_i = (sigma_i / ||X||_p)^(p-1)``,
    zero below the spectral cutoff, and ``(1, 0, ..., 0)`` at
    ``p = inf``.  None where there are no ratios or a weight overflows.

    The one weight formula of every norm gradient, at every N:
    :func:`norm_and_gradient` applies these weights in a point's frame
    (:func:`_frame_gradient`), and the ascent combines two sets of them
    before it does.
    """
    if not ratios:
        return None
    if pf == math.inf:
        return [1.0] + [0.0] * (len(ratios) - 1)
    weights = [r ** (pf - 1.0) * scale if r > _SPECTRAL_CUTOFF else 0.0 for r in ratios]
    if max(weights) == math.inf:
        return None  # the gradient is not representable
    return weights


def _frame_gradient(frame, weights: Sequence[float]) -> np.ndarray:
    """``U diag(weights) V^T`` in a ``frame`` of :func:`_spectrum_and_frame`.

    With the singular vectors ``(U, V^T)`` it is one product.  With the
    2x2 split's floats it is ``w_1 d(sigma_1) + w_2 d(sigma_2)``: the
    singular values are the sum and difference of the split lengths, which
    makes their matrix derivatives explicit.  Its four entries are summed
    in Python floats and form one array.
    """
    if len(frame) == 2:
        u, vt = frame
        return (u * np.array(weights)) @ vt
    u1, u2, v1, v2, nu, nv = frame
    w1, w2 = weights
    # d|u| and d|v| in the split's coordinates: half the unit directions
    eu = 0.5 / nu if nu > 0.0 else 0.0
    ev = 0.5 / nv if nv > 0.0 else 0.0
    uh1, uh2 = u1 * eu, u2 * eu
    vh1, vh2 = v1 * ev, v2 * ev
    # d(sigma_1) = d|u| + d|v|, row-major
    a00, a01, a10, a11 = uh1 + vh1, vh2 - uh2, uh2 + vh2, uh1 - vh1
    if w2 == 0.0:
        return np.array(((w1 * a00, w1 * a01), (w1 * a10, w1 * a11)))
    # d(sigma_2) = +-(d|u| - d|v|), with the sign of |u| - |v|
    if nu < nv:
        w2 = -w2
    return np.array(((w1 * a00 + w2 * a11, w1 * a01 - w2 * a10),
                     (w1 * a10 - w2 * a01, w1 * a11 + w2 * a00)))


def embedding_norm(p: ExponentLike, q: ExponentLike, N: int) -> float:
    """Operator norm of the identity ``S_p^N -> S_q^N``: ``max(1, N^(1/q-1/p))``.

    Valid for all exponents in (0, inf].
    """
    pe, qe = as_exponent(p), as_exponent(q)
    N = as_matrix_side(N)
    return max(1.0, npower(N, inv(qe) - inv(pe)))


def last_snumber(kind: str, p: ExponentLike, q: ExponentLike, N: int) -> float:
    """The last, ``N^2``-th, ``kind`` number of the identity ``S_p^N -> S_q^N``.

    Gelfand numbers: ``c_{N^2} = min(1, N^(1/q-1/p))``, the least ratio
    ``||X||_q / ||X||_p`` of one matrix, at a flat spectrum for ``p <= q``
    and at rank one otherwise.  Kolmogorov and approximation numbers:
    ``min(1, N^(1/q~-1/p~))`` with ``p~ = max(p, 1)`` and ``q~ = max(q, 1)``.
    For ``q >= 1``, duality gives ``d_{N^2} = c_{N^2}(S_{q*} -> S_{p~*})``,
    which is that value, and ``a_{N^2} >= d_{N^2}``.  Two approximants of
    rank ``N^2 - 1`` attain it: ``id`` minus the Frobenius projection onto
    span(I) leaves ``X -> (tr X / N) I``, of norm ``N^(1/q-1/p~)`` (Hoelder,
    and ``||X||_1 <= ||X||_p`` for ``p < 1``), and ``id`` minus a rank-one
    projection onto span(E_11) leaves ``X -> X_11 E_11``, of norm 1.  For
    ``q < 1`` the quasi-norm exponents collapse onto 1 (hyperplane
    distances below 1 coincide with the nuclear-norm case).

    For ``p <= q`` the same value is the ``n``-th number at every
    ``n > N^2 - rho(N)``, with ``rho`` the Hurwitz-Radon number: a
    ``rho(N)``-dimensional space of multiples of orthogonal matrices, and
    ``id`` minus the Frobenius projection onto it, attain it there (the
    ``hurwitz-radon-tail`` anchor of ``estimators._closed_form``).
    """
    pe, qe = as_exponent(p), as_exponent(q)
    N = as_matrix_side(N)
    if kind != "gelfand":
        pe, qe = max(pe, 1), max(qe, 1)
    return min(1.0, npower(N, inv(qe) - inv(pe)))


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
    dropped from the expansion.  One full SVD (:func:`svd`) gives the
    weights, as one ``tolist()`` of its singular values, and the kept
    summands, as one broadcast product of the kept singular-vector
    columns: each summand is ``np.outer(u[:, i], v[:, i])`` bit for bit,
    a C-ordered slice of that product.

    Raises
    ------
    ValueError
        If the spectral norm ``sigma_1`` overflows the float range.  LAPACK
        then returns ``inf`` for it, and the lower singular values are
        overflow debris, so no decomposition would be right.
    """
    u, sigma, v = svd(a)
    weights = sigma.tolist()
    top = weights[0]
    if top == math.inf:
        raise ValueError(
            "the matrix's spectral norm overflows the float range; scale it down first"
        )
    rank = 0
    if top > 0.0:
        cutoff = RANK_CUTOFF * top
        while rank < len(weights) and weights[rank] > cutoff:
            rank += 1
    summands = np.multiply(u.T[:rank, :, None], v.T[:rank, None, :], order="C")
    terms = tuple(
        HullTerm(weight=weights[i], summand=summands[i], index=i) for i in range(rank)
    )
    return HullDecomposition(terms=terms, N=len(weights))


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

    The intermediate exponent is ``1/p_theta = (1-theta)/q + theta/p``,
    rounded once to a float from integer arithmetic.  ``theta`` is a real
    number in [0, 1], numpy scalars included; ``bool`` is not a number
    here.  ``a`` is one real, square, finite matrix.  The comparison
    allows a 1e-12 relative slack for floating point.

    The three norms come from one spectrum: the 2x2 split
    (:func:`spectrum_2x2`), or one values-only ``dgesdd``
    (:func:`singular_values`), each summed by :func:`norm_from_floats`, so
    they equal three :func:`schatten_norm` calls bit for bit.  A matrix
    whose largest entry lies outside ``[2^-257, 2^256)`` is checked at
    the power-of-two scale that brings that entry into [1/2, 1): there
    neither the spectrum nor the norms over- or underflow, so ``ok``
    decides the inequality and not rounding at the float range's edge.
    Its norms are reported scaled back, as ``inf`` or 0 where they leave
    the float range.  Other matrices are not scaled.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
            or not 0.0 <= float(theta) <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    th = float(theta)
    p_theta = _interpolated_exponent(pe, qe, th)
    x = as_square_matrix(a)
    shift = _safe_shift(math.frexp(float(np.abs(x).max()))[1])
    if shift:
        x = np.ldexp(x, shift)
    if x.shape == (2, 2):
        # entries below 2^256 have finite split lengths
        sigma = spectrum_2x2(x.ravel().tolist())[0]
    else:
        sigma = singular_values(x).tolist()
    n_theta = norm_from_floats(sigma, p_theta)
    n_q = norm_from_floats(sigma, float(qe))
    n_p = norm_from_floats(sigma, float(pe))
    ok = n_theta <= n_q ** (1.0 - th) * n_p**th * (1.0 + 1e-12)
    if shift:
        n_theta, n_q, n_p = (_ldexp(n, -shift) for n in (n_theta, n_q, n_p))
    return LittlewoodReport(
        ok=ok,
        interpolated_norm=n_theta,
        endpoint_q_norm=n_q,
        endpoint_p_norm=n_p,
        p_theta=p_theta,
    )


def _interpolated_exponent(pe: Exponent, qe: Exponent, theta: float) -> float:
    """``p_theta`` with ``1/p_theta = (1-theta)/q + theta/p``, as the float
    nearest the exact rational, and ``inf`` beyond the float range.

    With ``theta = t/d`` (:meth:`float.as_integer_ratio`) and
    ``1/q = a/b``, ``1/p = c/e``, the exact value is one ratio of
    integers, and Python's integer division rounds it correctly, so the
    result is ``float`` of the ``Fraction`` arithmetic bit for bit, at a
    fraction of its cost.
    """
    t, d = theta.as_integer_ratio()
    a, b = (0, 1) if is_infinite(qe) else (qe.denominator, qe.numerator)
    c, e = (0, 1) if is_infinite(pe) else (pe.denominator, pe.numerator)
    numerator = (d - t) * a * e + t * c * b
    if numerator == 0:
        return math.inf
    try:
        return d * b * e / numerator
    except OverflowError:
        # a tiny theta with one infinite exponent
        return math.inf
