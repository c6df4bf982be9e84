"""Distance from a matrix to a subspace, measured in a Schatten norm.

``distance_schatten(x, basis, q)`` returns ``min_w ||x - basis(w)||_q``
together with the minimizing residual, which is what gradient-based outer
searches need (the envelope theorem makes the residual's norm gradient the
derivative of the distance in ``x``).  For ``q >= 1`` it also returns a
lower bound: by Hahn–Banach, ``dist_q(x, F) = max |<x, Z>| / ||Z||_{q*}``
over the annihilator ``Z in F-perp``, so every such ``Z`` bounds the
distance from below.

Solvers, in the order of dispatch:

============================  =========================  =================
case                          solver                     ``lower``
============================  =========================  =================
``dim 0`` or the whole space  no solve                   ``value``
``q == 2``                    Frobenius projection       ``value``
codimension 1, any ``q``      duality, closed form       ``value``
``N = 2``                     bracketed line search      free bound
``N >= 3``, ``q`` 1 or inf    Douglas–Rachford           dual bound
``N >= 3``, other ``q``       IRLS                       free bound
``q < 1``, ``N = 2`` or IRLS  as above, a heuristic      None
============================  =========================  =================

* codimension 1: the distance is ``|<Z, x>| / ||Z||_{q*}`` for the unit
  normal ``Z``, and the residual follows the dual norm's gradient at
  ``Z`` from :func:`core.norm_and_gradient`.
* ``N = 2``: one bracketed line search on the 2x2 split coordinates
  (:func:`_distance_2x2`).  ``||R||_q >= min(1, 2^(1/q - 1/2)) ||R||_F``
  confines the minimizer to a disk around the Frobenius coefficients,
  searched by a grid of 8 cells, the points where the objective can kink
  and a golden-section polish to 1e-8 of the disk's radius (at most 60
  steps), nested for two coefficients.
* ``N >= 3``, ``q = 1`` or ``inf`` (the norms that are not smooth):
  over-relaxed Douglas–Rachford splitting on ``min ||R||_q`` over the
  affine set ``R in x + F`` (:func:`_spectral_homotopy`), the relaxed step
  of :func:`recovery.nuclear_decoder` (Eckstein–Bertsekas 1992).  With
  ``x_perp = x - P_F x``, ``gamma = ||x_perp||_F / sqrt(N)`` and
  ``lambda = 1.8``, each step costs one SVD:
  ``R = x_perp + P_F v``, ``W = 2R - v``, ``Z`` the projection of
  ``W / gamma``'s singular values onto the dual unit ball (clipped at 1
  for ``q = 1``, projected onto the l1 ball for ``q = inf``), and
  ``v += lambda (W - gamma Z - R)``.  Every 5 steps it scores the primal
  value ``||R||_q`` and the dual bound ``|<x_perp, Z'>| / ||Z'||_{q*}``
  with ``Z' = P_{F-perp} Z``, and it stops once the best of each agree
  to 1e-9 relative, or after 5,000 steps.  It starts at the Frobenius
  projection, which is also its first primal candidate.
* ``N >= 3``, other ``q``: iteratively reweighted least squares on the
  matrix, with spectral weights ``(residual residual^T + ridge)^{(q-2)/2}``
  and a damped, monotone line search, from the Frobenius projection.
  Convex for ``q > 1``, so the local solution is global.  Each iteration
  builds its normal equations with one matmul over the stack of basis
  matrices.  IRLS stops after 80 iterations, or after two steps in a row
  that gain less than 1e-9 relative.
* ``0 < q < 1``: the same IRLS iteration, from zero, run as a damped
  local heuristic (at ``N = 2``, the line search); the problem is
  nonconvex, so the value is an upper bound on the true distance and
  ``converged`` only reflects stabilization.

The free bound (:func:`_with_free_bound`) costs one norm gradient and no
solve: the ``q``-norm gradient at the returned residual, projected onto
``F-perp``, is the dual candidate ``Z``.  For ``1 < q < inf`` it is
tight where the solve is, since the gradient at the minimizer lies in
``F-perp``.  At a kink of the ``q = 1`` or ``inf`` norm (``N = 2``) the
gradient is one subgradient of many, and the bound can be loose.

Every iterative solver, the ``N = 2`` one included, runs on the input
scaled to unit magnitude by a power of two and is scaled back exactly,
``lower`` with it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    as_square_matrix,
    norm_and_gradient,
    norm_from_floats,
    schatten_norm,
    split_2x2,
    svd,
)
from .exponents import INF, as_exponent, dual_exponent, is_infinite
from .operators import SubspaceBasis

__all__ = ["DistanceResult", "distance_schatten"]

_IRLS_RIDGE = 1e-10
_SOLVE_TOL = 1e-9
_SOLVE_MAX_ITER = 80


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a subspace-distance computation.

    ``value`` is the ``q``-norm of ``residual = x - basis(coefficients)``,
    a feasible residual, so it bounds the distance from above.  ``lower``
    bounds it from below for ``q >= 1``: it equals ``value`` on the exact
    paths (the zero subspace, the whole space, ``q = 2`` and codimension
    1), is the best Douglas–Rachford dual bound at ``N >= 3`` with ``q``
    1 or inf, and the free gradient bound on the other solvers; it is
    None for ``q < 1``, and never above ``value``.

    ``iterations`` counts Douglas–Rachford steps, IRLS iterations or, at
    ``N = 2``, objective evaluations; the closed forms report 0.
    ``converged`` says that the solver met its stopping rule within its
    budget; for Douglas–Rachford that rule is the gap itself,
    ``value - lower <= 1e-9 value``.
    """

    value: float
    residual: np.ndarray
    coefficients: np.ndarray
    converged: bool
    iterations: int
    lower: float | None = None


def _closed_form_frobenius(x: np.ndarray, basis: SubspaceBasis) -> DistanceResult:
    w = basis.coefficients(x)
    residual = x - basis.member(w)
    # hypot scales internally, so 1e-200 or 1e200 entries neither
    # underflow to 0 nor overflow to inf
    value = math.hypot(*residual.ravel().tolist())
    return DistanceResult(
        value=value,
        residual=residual,
        coefficients=w,
        converged=True,
        iterations=0,
        lower=value,
    )


def _codim_one_distance(x: np.ndarray, basis: SubspaceBasis, q) -> DistanceResult:
    """Exact distance to a codimension-1 subspace, any exponent.

    The subspace is the trace-orthogonal complement of a single unit matrix
    ``Z``, so for ``q >= 1`` the distance is ``|<Z, x>| / ||Z||_{q*}`` with
    ``q*`` the dual exponent, achieved by the residual
    ``<Z, x> / ||Z||_{q*}`` times the gradient of ``||.||_{q*}`` at ``Z``,
    the point of the ``S_q`` unit sphere that attains the dual norm.  For
    ``q <= 1`` the quasi-ball has the same rank-one extreme points as the
    nuclear ball, so the nuclear formula ``|<Z, x>| / sigma_1(Z)`` remains
    exact with a rank-one residual: ``q* = inf``.
    """
    z = basis.complement[:, 0].reshape(basis.N, basis.N)
    pairing = float(z.reshape(-1) @ x.reshape(-1))
    dual_norm, achiever = norm_and_gradient(z, INF if q <= 1 else dual_exponent(q))
    residual = (pairing / dual_norm) * achiever
    coefficients = basis.coefficients(x - residual)
    value = abs(pairing) / dual_norm
    return DistanceResult(
        value=value,
        residual=residual,
        coefficients=coefficients,
        converged=True,
        iterations=0,
        lower=value,
    )


# ---------------------------------------------------------------------------
# N = 2: a bracketed line search on the split lengths |u|, |v| of the
# residual (core.split_2x2), whose singular values are |u| + |v| and
# ||u| - |v||.  Along a line through coefficient space the squared lengths
# are quadratics, so the points where the objective can kink have closed forms.
# ---------------------------------------------------------------------------

_GRID = 8
_GOLDEN_TOL = 1e-8
_GOLDEN_STEPS = 60
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _splits(a: np.ndarray) -> list[list[float]]:
    """``(u1, u2, v1, v2)`` of each column of a ``(4, k)`` array of vecs."""
    return np.reshape(split_2x2(*a), (4, -1)).T.tolist()


def _kinks(p: list[float], d: list[float]) -> list[float]:
    """Branch vertices and crossings ``t`` of the split line ``p - t d``.

    A vertex minimizes one split length; at a crossing the two lengths
    agree and the residual is rank one.  Equal squared lengths give
    ``a t^2 - 2 h t + k = 0``.  Its near root ``k / s`` never divides by
    ``a``, so a leading coefficient that is rounding noise (``|d_u| =
    |d_v|``, as for a rank-one direction) leaves the linear equation's root.
    """
    uu = d[0] * d[0] + d[1] * d[1]
    vv = d[2] * d[2] + d[3] * d[3]
    pu = p[0] * d[0] + p[1] * d[1]
    pv = p[2] * d[2] + p[3] * d[3]
    out = [pu / uu] if uu else []
    if vv:
        out.append(pv / vv)
    a, h = uu - vv, pu - pv
    k = p[0] * p[0] + p[1] * p[1] - p[2] * p[2] - p[3] * p[3]
    disc = h * h - a * k
    if disc >= 0.0:
        s = h + math.copysign(math.sqrt(disc), h)
        if s:
            out.append(k / s)
            if a:
                out.append(s / a)
    return out


def _golden(f, a: float, b: float, tol: float):
    """Golden-section search of ``f`` on ``[a, b]``: ``((value, t), closed)``,
    ``closed`` saying that the bracket shrank to ``tol`` within
    ``_GOLDEN_STEPS``."""
    x1, x2 = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_STEPS):
        if b - a <= tol:
            break
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    return min((f1, x1), (f2, x2)), b - a <= tol


def _line_min(f, lo: float, hi: float, points, tol: float):
    """Minimize ``f`` on ``[lo, hi]``: score a grid of ``_GRID`` cells and
    the ``points`` inside, then polish by :func:`_golden` within one cell
    of the best score and of each score that beats both neighbours by more
    than rounding (a second well, which only a quasi-norm has).  Returns
    ``((value, t), closed)``, ``closed`` if every polish closed.
    """
    h = (hi - lo) / _GRID
    ts = sorted({lo + h * j for j in range(_GRID + 1)}.union(t for t in points if lo <= t <= hi))
    fs = [f(t) for t in ts]
    best, closed = min(zip(fs, ts)), True
    wells = [t for i, t in enumerate(ts)
             if all(fs[i] < (1.0 - 1e-12) * fs[j] for j in (i - 1, i + 1) if 0 <= j < len(ts))]
    for t in {best[1], *wells}:
        found, ok = _golden(f, max(t - h, lo), min(t + h, hi), tol)
        best, closed = min(best, found), closed and ok
    return best, closed


def _distance_2x2(x: np.ndarray, basis: SubspaceBasis, qf: float) -> DistanceResult:
    """Distance at ``N = 2`` and ``dim`` 1 or 2, by a bracketed line search.

    The objective is the reported one, ``norm_from_floats`` of the singular
    values ``a + b, |a - b|`` from the residual's split lengths, over the
    offset ``s = w - c`` from the Frobenius coefficients ``c``.  As
    ``||R||_F^2 = ||x - basis(c)||_F^2 + |s|^2``, the bound ``||R||_q >=
    c_q ||R||_F`` keeps every point that beats ``V = min(value(0),
    value(c))`` in ``|s| <= rho``, ``rho^2 = (V / c_q)^2 - ||x -
    basis(c)||_F^2``.  Two coefficients search ``s_1`` on ``[-rho, rho]``
    (adding the branch vertices, where a split length vanishes) and ``s_2``
    on the disk's chord.  For ``q < 1`` the ``q = 1`` solution is one more
    candidate, and the value stays a heuristic upper bound.  ``iterations``
    counts objective evaluations, the ``q = 1`` solve's included;
    ``converged`` says that every polish closed.
    """
    extra, evals, closed = [], 0, True
    if qf < 1.0:
        first = _distance_2x2(x, basis, 1.0)
        extra, evals, closed = [first.coefficients], first.iterations, first.converged
    c = basis.coefficients(x)
    cols = _splits(basis.columns)
    pc = _splits((x - basis.member(c)).reshape(4, 1))[0]

    def value(p, d, t):
        nonlocal evals
        evals += 1
        a = math.hypot(p[0] - t * d[0], p[1] - t * d[1])
        b = math.hypot(p[2] - t * d[2], p[3] - t * d[3])
        return norm_from_floats((a + b, abs(a - b)), qf)

    v_best = min(value(_splits(x.reshape(4, 1))[0], cols[0], 0.0), value(pc, cols[0], 0.0))
    c_q = 1.0 if qf <= 2.0 else 2.0 ** (1.0 / qf - 0.5)
    rho = math.sqrt(max((v_best / c_q) ** 2 - 2.0 * sum(t * t for t in pc), 0.0))
    tol = _GOLDEN_TOL * rho
    starts = [[-c[k], 0.0, *(w[k] - c[k] for w in extra)] for k in range(len(cols))]
    # one coefficient is the inner search alone, on the line through c
    d1, d2 = cols if len(cols) == 2 else ([0.0] * 4, cols[0])
    best = (math.inf, [0.0, 0.0])

    def inner(s1):
        nonlocal best, closed
        p = [pc[i] - s1 * d1[i] for i in range(4)]
        half = math.sqrt(max(rho * rho - s1 * s1, 0.0))
        (v, s2), ok = _line_min(
            lambda t: value(p, d2, t), -half, half, starts[-1] + _kinks(p, d2), tol)
        closed = closed and ok
        if v < best[0]:
            best = (v, [s1, s2])
        return v

    if len(cols) == 1:
        inner(0.0)
    else:
        vertices = []
        for i in (0, 2):  # where the u (i = 0) or v (i = 2) part vanishes
            det = d1[i] * d2[i + 1] - d2[i] * d1[i + 1]
            if det:
                vertices.append((pc[i] * d2[i + 1] - d2[i] * pc[i + 1]) / det)
        _, ok = _line_min(inner, -rho, rho, starts[0] + vertices, tol)
        closed = closed and ok
    offset = best[1][-len(cols):]

    w = c + np.array(offset)
    residual = x - basis.member(w)
    return DistanceResult(
        value=schatten_norm(residual, qf),
        residual=residual,
        coefficients=w,
        converged=closed,
        iterations=evals,
    )


def _spectral_weight(residual: np.ndarray, q: float) -> np.ndarray:
    """Symmetric PSD weight ``(R R^T + ridge I)^{(q-2)/2}``."""
    gram = residual @ residual.T
    scale = float(np.trace(gram))
    ridge = _IRLS_RIDGE * (scale if scale > 0 else 1.0)
    vals, vecs = np.linalg.eigh(gram + ridge * np.eye(gram.shape[0]))
    vals = np.maximum(vals, ridge * 1e-3)
    return (vecs * vals ** ((q - 2.0) / 2.0)) @ vecs.T


def _irls(
    x: np.ndarray,
    basis: SubspaceBasis,
    q: float,
    w0: np.ndarray | None,
) -> DistanceResult:
    """Minimize ``||x - basis(w)||_q`` by reweighted least squares."""
    cols = basis.basis_matrices()
    w = np.zeros(basis.dim) if w0 is None else np.array(w0, dtype=float)

    def objective(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
        residual = x - basis.member(coeffs)
        return schatten_norm(residual, q), residual

    best_val, residual = objective(w)
    converged = False
    iterations = 0
    stall = 0
    for iterations in range(1, _SOLVE_MAX_ITER + 1):
        # normal equations <W C_k, C_l> w_l = <W C_k, x>, all k at once
        wcols = (_spectral_weight(residual, q) @ cols).reshape(basis.dim, -1)
        gram = wcols @ basis.columns
        rhs = wcols @ x.reshape(-1)
        try:
            w_star = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            w_star = np.linalg.lstsq(gram, rhs, rcond=None)[0]

        # damped line search toward the reweighted solution
        step = 1.0
        accepted = False
        while step > 1e-6:
            trial = w + step * (w_star - w)
            trial_val, trial_res = objective(trial)
            if trial_val <= best_val * (1 + 1e-14):
                improvement = best_val - trial_val
                w, residual = trial, trial_res
                prev = best_val
                best_val = trial_val
                accepted = True
                if improvement <= _SOLVE_TOL * max(prev, 1e-30):
                    stall += 1
                else:
                    stall = 0
                break
            step *= 0.5
        if not accepted:
            stall += 1
        if stall >= 2:
            converged = True
            break
    return DistanceResult(
        value=best_val,
        residual=residual,
        coefficients=w,
        converged=converged,
        iterations=iterations,
    )


def _dual_bound(x_perp: np.ndarray, basis: SubspaceBasis, z: np.ndarray, q) -> float:
    """Hahn–Banach lower bound on the distance, ``q >= 1``, from any ``z``.

    ``z`` and ``x_perp``, the part of ``x`` orthogonal to the subspace,
    are vecs.  Every ``Z'`` in the annihilator pairs with ``x`` as with
    ``x_perp`` and gives ``dist_q(x, F) >= |<x_perp, Z'>| / ||Z'||_{q*}``;
    this takes ``Z'`` the part of ``z`` orthogonal to the subspace (0 if
    that part is 0).
    """
    cols = basis.columns
    zp = z - cols @ (cols.T @ z)
    dual = schatten_norm(zp.reshape(basis.N, basis.N), dual_exponent(q))
    return abs(float(x_perp @ zp)) / dual if dual > 0.0 else 0.0


def _with_free_bound(res: DistanceResult, x: np.ndarray, basis: SubspaceBasis, q) -> DistanceResult:
    """``res`` with ``lower`` the :func:`_dual_bound` of the ``q``-norm
    gradient at its residual, ``q >= 1``: one gradient, no solve.  The
    bound is capped at ``value``, which it can pass only by rounding."""
    _, gradient = norm_and_gradient(res.residual, q)
    if gradient is None:  # a zero residual: the distance is 0
        return replace(res, lower=0.0)
    x_perp = x.reshape(-1) - basis.columns @ basis.coefficients(x)
    return replace(res, lower=min(_dual_bound(x_perp, basis, gradient.reshape(-1), q), res.value))


def _dual_ball_projection(s: list[float], q) -> list[float]:
    """Project non-increasing singular values onto the unit ball of the
    dual norm: clip at 1 for ``q = 1`` (the spectral ball), and for
    ``q = inf`` project onto the l1 ball (the nuclear ball) by the sorted
    shift of Duchi et al. (ICML 2008).  Python floats: for three or four
    values numpy's per-call overhead costs more than the arithmetic."""
    if not is_infinite(q):
        return [min(t, 1.0) for t in s]
    if sum(s) <= 1.0:
        return s
    # theta = (s_1 + ... + s_k - 1) / k for the largest k with s_k > theta;
    # the k that pass form a prefix
    partial, theta = 0.0, 0.0
    for k, t in enumerate(s, 1):
        partial += t
        if t <= (partial - 1.0) / k:
            break
        theta = (partial - 1.0) / k
    return [max(t - theta, 0.0) for t in s]


# Douglas–Rachford relaxation, as in recovery.nuclear_decoder; the gap is
# scored every few steps, since each score costs two more factorizations.
_RELAXATION = 1.8
_DR_GAP = 1e-9
_DR_CHECK_EVERY = 5
_DR_MAX_STEPS = 5000


# the name predates the solver: bench/test_bench.py spies on it by name
def _spectral_homotopy(x: np.ndarray, basis: SubspaceBasis, q) -> DistanceResult:
    """Distance for ``q`` = 1 or inf, ``N >= 3``, by over-relaxed
    Douglas–Rachford splitting on ``min ||R||_q`` over ``R in x + F``.

    With ``x_perp = x - P_F x`` and ``gamma = ||x_perp||_F / sqrt(N)``,
    each step is ``R = x_perp + P_F v``, ``W = 2R - v``, ``Z`` the
    projection of ``W / gamma`` onto the dual unit ball (one SVD) and
    ``v += lambda (W - gamma Z - R)``: ``W - gamma Z`` is the prox of
    ``gamma ||.||_q`` at ``W`` (Moreau).  Every ``_DR_CHECK_EVERY`` steps
    the residual's norm scores the primal side and :func:`_dual_bound` of
    ``Z`` the dual side; the best of each is kept, and the solve stops
    once they agree to ``_DR_GAP`` relative (``converged``) or after
    ``_DR_MAX_STEPS`` steps.  ``lower`` is the best dual bound and
    ``iterations`` the number of steps.  It starts at the Frobenius
    projection, its first primal candidate.  When ``x`` lies in the
    subspace to working precision (``||x_perp||_F <= 1e-12 ||x||_F``) no
    step runs: that candidate is returned with ``lower`` 0, and
    ``converged`` only if it is exactly 0.
    """
    n, cols = basis.N, basis.columns
    c = basis.coefficients(x)
    x_perp = x.reshape(-1) - cols @ c
    size = float(np.linalg.norm(x_perp))
    solvable = size > 1e-12 * float(np.linalg.norm(x))
    gamma, projector, v = size / math.sqrt(n), cols @ cols.T, x_perp.copy()
    best_value, best_coefficients, lower = schatten_norm(x - basis.member(c), q), c, 0.0
    steps = 0
    while solvable and steps < _DR_MAX_STEPS and best_value - lower > _DR_GAP * best_value:
        steps += 1
        r = x_perp + projector @ v
        u, s, w = svd((2.0 * r - v).reshape(n, n))
        z = ((u * _dual_ball_projection([t / gamma for t in s.tolist()], q)) @ w.T).reshape(-1)
        v += _RELAXATION * (r - v - gamma * z)  # W - gamma Z - R, W - R = R - v
        if steps % _DR_CHECK_EVERY == 0:
            coefficients = c - cols.T @ v
            value = schatten_norm(x - basis.member(coefficients), q)
            if value < best_value:
                best_value, best_coefficients = value, coefficients
            lower = max(lower, _dual_bound(x_perp, basis, z, q))
    return DistanceResult(
        value=best_value,
        residual=x - basis.member(best_coefficients),
        coefficients=best_coefficients,
        converged=best_value - lower <= _DR_GAP * best_value,
        iterations=steps,
        lower=min(lower, best_value),
    )


def distance_schatten(
    x: np.ndarray,
    basis: SubspaceBasis,
    q,
) -> DistanceResult:
    """Distance from ``x`` to the subspace in the Schatten-``q`` norm.

    ``x`` must be a finite matrix of the basis's side; anything else
    raises ``ValueError``.
    """
    q = as_exponent(q)
    x = as_square_matrix(x)
    if x.shape != (basis.N, basis.N):
        raise ValueError(f"x must be {basis.N}x{basis.N}, got {x.shape}")
    if basis.dim in (0, basis.N * basis.N):
        # no solve: the zero subspace leaves x, the whole space nothing
        residual = x.copy() if basis.dim == 0 else np.zeros_like(x)
        value = schatten_norm(residual, q)
        return DistanceResult(
            value=value,
            residual=residual,
            coefficients=basis.coefficients(x),
            converged=True,
            iterations=0,
            lower=value,
        )
    if q == 2:
        return _closed_form_frobenius(x, basis)
    if basis.dim == basis.N * basis.N - 1:
        return _codim_one_distance(x, basis, q)
    # The solvers below carry absolute floors and powers of the residual's
    # singular values or Gram matrix, so they run on x / 2**e, whose
    # largest entry lies in [0.5, 1): scaling by a power of two is exact,
    # and the distance, residual and coefficients are homogeneous in x.
    e = math.frexp(float(np.max(np.abs(x))))[1]
    if e:
        res = distance_schatten(np.ldexp(x, -e), basis, q)
        return replace(res, value=math.ldexp(res.value, e), residual=np.ldexp(res.residual, e),
                       coefficients=np.ldexp(res.coefficients, e),
                       lower=None if res.lower is None else math.ldexp(res.lower, e))
    qf = float(q)
    if basis.N == 2:
        res = _distance_2x2(x, basis, qf)
    elif qf in (1.0, math.inf):
        return _spectral_homotopy(x, basis, q)
    else:
        # the Frobenius projection is a sound start in the convex case
        res = _irls(x, basis, qf, basis.coefficients(x) if qf >= 1 else None)
    return res if qf < 1 else _with_free_bound(res, x, basis, q)
