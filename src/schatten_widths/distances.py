"""Distance from a matrix to a subspace, measured in a Schatten norm.

``distance_schatten(x, basis, q)`` returns ``min_w ||x - basis(w)||_q``
together with the minimizing residual, which is what gradient-based outer
searches need (the envelope theorem makes the residual's norm gradient the
derivative of the distance in ``x``).

Solvers by exponent:

* ``q == 2``: Frobenius projection, closed form.
* a subspace of codimension 1, any ``q``: exact by duality.  The distance
  is ``|<Z, x>| / ||Z||_{q*}`` for the unit normal ``Z``, and the residual
  follows the dual norm's gradient at ``Z`` from
  :func:`core.norm_and_gradient`.
* ``1 <= q < inf``: iteratively reweighted least squares on the matrix,
  with spectral weights ``(residual residual^T + ridge)^{(q-2)/2}`` and a
  damped, monotone line search.  Convex, so the local solution is global.
  Each iteration builds its normal equations with one matmul over the
  stack of basis matrices.
* ``q == inf``: a homotopy that follows the IRLS solution through
  increasing finite exponents and reports the true spectral norm at the
  final coefficients (a slight overestimate of the exact distance).
* ``0 < q < 1``: the same IRLS iteration run as a damped local heuristic;
  the problem is nonconvex, so the value is an upper bound on the true
  distance and ``converged`` only reflects stabilization.

Solves take no start from the caller: IRLS and the homotopy start at the
Frobenius projection, or at zero for ``q < 1``.

At ``N = 2`` closed-form solvers on the 2x2 split coordinates replace the
iterations.  The budgets are fixed: IRLS stops after 80 iterations, or
after two steps in a row that gain less than 1e-9 relative; the homotopy
runs IRLS at q = 4, 32 and 128; the 2x2 descents take at most 80 steps
(30 after 25 Weiszfeld steps at ``q = inf``, 60 per start for
quasi-norms).  Inputs of extreme magnitude are solved at unit scale and
scaled back exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import as_square_matrix, norm_and_gradient, schatten_norm, split_2x2
from .exponents import INF, as_exponent, dual_exponent, is_infinite
from .operators import SubspaceBasis

__all__ = ["DistanceResult", "distance_schatten"]

_IRLS_RIDGE = 1e-10
_SOLVE_TOL = 1e-9
_SOLVE_MAX_ITER = 80
_HOMOTOPY_EXPONENTS = (4.0, 32.0, 128.0)


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a subspace-distance computation."""

    value: float
    residual: np.ndarray
    coefficients: np.ndarray
    converged: bool
    iterations: int


def _closed_form_frobenius(x: np.ndarray, basis: SubspaceBasis) -> DistanceResult:
    w = basis.coefficients(x)
    residual = x - basis.member(w)
    return DistanceResult(
        # hypot scales internally, so 1e-200 or 1e200 entries neither
        # underflow to 0 nor overflow to inf
        value=math.hypot(*residual.ravel().tolist()),
        residual=residual,
        coefficients=w,
        converged=True,
        iterations=0,
    )


# ---------------------------------------------------------------------------
# closed-form 2x2 fast path
#
# For 2x2 matrices the singular values are the sum and difference of the
# lengths of the rotation and reflection parts u, v (core.split_2x2):
#   sigma_1 = |u| + |v|,  sigma_2 = ||u| - |v||
# Both parts are linear in the entries, so for the residual x - basis(w)
# they are affine in the subspace coefficients w, and every Schatten
# distance becomes a small convex (for q >= 1) problem over Gram
# matrices, solved here without any SVDs.
# ---------------------------------------------------------------------------


class _SplitPair:
    """Scalar Gram data for ``w -> (|u0 - Au w|, |v0 - Av w|)``, ``dim <= 2``.

    Everything is unrolled to plain floats: these solvers serve the direct
    ``N = 2`` distance calls, where numpy's per-call overhead on 2-vectors
    would dominate the arithmetic.
    """

    __slots__ = ("m", "cu", "cv", "bu1", "bu2", "bv1", "bv2",
                 "au11", "au12", "au22", "av11", "av12", "av22", "scale")

    def __init__(self, x: np.ndarray, basis: SubspaceBasis) -> None:
        (u01, u02), (v01, v02) = split_2x2(
            float(x[0, 0]), float(x[0, 1]), float(x[1, 0]), float(x[1, 1]))
        cols = basis.columns
        self.m = basis.dim
        a_u, a_v = split_2x2(*cols[:, 0].tolist())
        self.au11 = a_u[0] * a_u[0] + a_u[1] * a_u[1]
        self.av11 = a_v[0] * a_v[0] + a_v[1] * a_v[1]
        # residual is x - member(w): linear terms enter negated
        self.bu1 = -(a_u[0] * u01 + a_u[1] * u02)
        self.bv1 = -(a_v[0] * v01 + a_v[1] * v02)
        if self.m == 2:
            b_u, b_v = split_2x2(*cols[:, 1].tolist())
            self.au22 = b_u[0] * b_u[0] + b_u[1] * b_u[1]
            self.av22 = b_v[0] * b_v[0] + b_v[1] * b_v[1]
            self.au12 = a_u[0] * b_u[0] + a_u[1] * b_u[1]
            self.av12 = a_v[0] * b_v[0] + a_v[1] * b_v[1]
            self.bu2 = -(b_u[0] * u01 + b_u[1] * u02)
            self.bv2 = -(b_v[0] * v01 + b_v[1] * v02)
        else:
            self.au22 = self.au12 = self.av22 = self.av12 = 0.0
            self.bu2 = self.bv2 = 0.0
        self.cu = u01 * u01 + u02 * u02
        self.cv = v01 * v01 + v02 * v02
        self.scale = math.sqrt(self.cu + self.cv) + 1e-300

    def norms(self, w1: float, w2: float) -> tuple[float, float]:
        pu = self.cu + w1 * (2.0 * self.bu1 + self.au11 * w1 + 2.0 * self.au12 * w2) \
            + w2 * (2.0 * self.bu2 + self.au22 * w2)
        pv = self.cv + w1 * (2.0 * self.bv1 + self.av11 * w1 + 2.0 * self.av12 * w2) \
            + w2 * (2.0 * self.bv2 + self.av22 * w2)
        return math.sqrt(pu if pu > 0.0 else 0.0), math.sqrt(pv if pv > 0.0 else 0.0)

    def value(self, qf: float, w1: float, w2: float) -> float:
        f1, f2 = self.norms(w1, w2)
        if qf == math.inf:
            return f1 + f2
        s1 = f1 + f2
        s2 = abs(f1 - f2)
        if s1 <= 0.0:
            return 0.0
        return (s1**qf + s2**qf) ** (1.0 / qf)

    def value_grad(self, qf: float, w1: float, w2: float):
        """``(value, g1, g2)`` of the Schatten-q residual norm at ``w``."""
        tu1 = self.bu1 + self.au11 * w1 + self.au12 * w2
        tu2 = self.bu2 + self.au12 * w1 + self.au22 * w2
        tv1 = self.bv1 + self.av11 * w1 + self.av12 * w2
        tv2 = self.bv2 + self.av12 * w1 + self.av22 * w2
        pu = self.cu + w1 * (self.bu1 + tu1) + w2 * (self.bu2 + tu2)
        pv = self.cv + w1 * (self.bv1 + tv1) + w2 * (self.bv2 + tv2)
        f1 = math.sqrt(pu if pu > 0.0 else 0.0)
        f2 = math.sqrt(pv if pv > 0.0 else 0.0)
        eps = 1e-13 * self.scale
        iu = 1.0 / (f1 if f1 > eps else eps)
        iv = 1.0 / (f2 if f2 > eps else eps)
        s1 = f1 + f2
        if s1 <= eps:
            return 0.0, 0.0, 0.0
        if qf == math.inf:
            return s1, tu1 * iu + tv1 * iv, tu2 * iu + tv2 * iv
        s2 = abs(f1 - f2)
        sgn = 1.0 if f1 >= f2 else -1.0
        val = (s1**qf + s2**qf) ** (1.0 / qf)
        d1 = (s1 / val) ** (qf - 1.0)
        d2 = (s2 / val) ** (qf - 1.0) if s2 > eps else 0.0
        cu_ = (d1 + sgn * d2) * iu
        cv_ = (d1 - sgn * d2) * iv
        return val, cu_ * tu1 + cv_ * tv1, cu_ * tu2 + cv_ * tv2

    def solve_weighted(self, wu: float, wv: float) -> tuple[float, float]:
        """Minimize ``wu*phi_u + wv*phi_v`` (weighted least squares)."""
        a11 = wu * self.au11 + wv * self.av11
        r1 = -(wu * self.bu1 + wv * self.bv1)
        if self.m == 1:
            return (r1 / a11 if a11 > 0.0 else 0.0), 0.0
        a12 = wu * self.au12 + wv * self.av12
        a22 = wu * self.au22 + wv * self.av22
        r2 = -(wu * self.bu2 + wv * self.bv2)
        ridge = 1e-13 * (a11 + a22) + 1e-300
        a11 += ridge
        a22 += ridge
        det = a11 * a22 - a12 * a12
        if det <= 0.0:
            return 0.0, 0.0
        return (r1 * a22 - r2 * a12) / det, (r2 * a11 - r1 * a12) / det

    def frobenius_start(self) -> tuple[float, float]:
        return self.solve_weighted(1.0, 1.0)


def _descent_scalar(
    sp: _SplitPair,
    qf: float,
    w1: float,
    w2: float,
    max_iter: int,
) -> tuple[float, float, float]:
    """Damped gradient descent; returns ``(value, w1, w2)``.

    Convex for ``q >= 1``; for ``q < 1`` it is a local heuristic and callers
    combine several starts.
    """
    value, g1, g2 = sp.value_grad(qf, w1, w2)
    step = 0.5
    stall = 0
    for _ in range(max_iter):
        gn = math.hypot(g1, g2)
        if gn < 1e-14 * max(1.0, value / sp.scale):
            break
        d1, d2 = g1 / gn, g2 / gn
        improved = False
        while step > 1e-7:
            h = step * sp.scale
            t1, t2 = w1 - h * d1, w2 - h * d2
            tval, tg1, tg2 = sp.value_grad(qf, t1, t2)
            if tval < value:
                gain = value - tval
                w1, w2, value, g1, g2 = t1, t2, tval, tg1, tg2
                step = step * 1.5 if step < 1.5 else 2.0
                improved = True
                stall = stall + 1 if gain <= _SOLVE_TOL * max(value, 1e-30) else 0
                break
            step *= 0.5
        if not improved or stall >= 2:
            break
    return value, w1, w2


def _weber_scalar(
    sp: _SplitPair,
    w1: float,
    w2: float,
    max_iter: int,
) -> tuple[float, float]:
    """Minimize ``|ru| + |rv|`` (the spectral norm) by damped Weiszfeld."""
    eps = 1e-13 * sp.scale
    f1, f2 = sp.norms(w1, w2)
    best = f1 + f2
    for _ in range(max_iter):
        s1, s2 = sp.solve_weighted(1.0 / max(f1, eps), 1.0 / max(f2, eps))
        step = 1.0
        improved = False
        while step > 1e-4:
            t1 = w1 + step * (s1 - w1)
            t2 = w2 + step * (s2 - w2)
            g1, g2 = sp.norms(t1, t2)
            val = g1 + g2
            if val <= best:
                gain = best - val
                w1, w2, f1, f2, best = t1, t2, g1, g2, val
                improved = True
                if gain <= _SOLVE_TOL * max(best, 1e-30):
                    return w1, w2
                break
            step *= 0.5
        if not improved:
            break
    return w1, w2


def _branch_crossings(sp: _SplitPair) -> list[float]:
    """The 1-dof points ``t`` where ``|ru(t)| = |rv(t)|``.

    There the residual's second singular value vanishes, so it is rank
    one.  Equal squared lengths make a quadratic in ``t``.
    """
    a = sp.au11 - sp.av11
    b = 2.0 * (sp.bu1 - sp.bv1)
    c = sp.cu - sp.cv
    if abs(a) > 1e-300:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return []
        root = math.sqrt(disc)
        return [(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)]
    if abs(b) > 1e-300:
        return [-c / b]
    return []


def _nuclear_exact_m1(sp: _SplitPair, t0: float) -> tuple[float, float]:
    """Exact 1-dof nuclear distance: ``2 max(|ru(t)|, |rv(t)|)``.

    A max of two convex sqrt-quadratics attains its minimum at a branch
    vertex or a branch crossing.
    """
    candidates = [0.0, t0]
    if sp.au11 > 0.0:
        candidates.append(-sp.bu1 / sp.au11)
    if sp.av11 > 0.0:
        candidates.append(-sp.bv1 / sp.av11)
    candidates += _branch_crossings(sp)
    best_t, best_val = 0.0, math.inf
    for cand in candidates:
        f1, f2 = sp.norms(cand, 0.0)
        val = f1 if f1 >= f2 else f2
        if val < best_val:
            best_t, best_val = cand, val
    return best_t, 0.0


def _minimax_bisect_m2(sp: _SplitPair) -> tuple[float, float]:
    """Minimize ``max(|ru|, |rv|)`` exactly via its quadratic weight dual.

    ``max(|ru|,|rv|)^2 = max(phi_u, phi_v)`` is a max of convex quadratics,
    so Sion gives ``max_t min_w [(1-t) phi_u + t phi_v]`` with closed-form
    inner minimizers.  The envelope derivative at the inner minimizer is
    ``phi_v - phi_u``, which decreases in ``t``, so the optimal weight comes
    from bisection on the sign of ``phi_u - phi_v`` (increasing in ``t``).
    """

    def probe(t: float) -> tuple[float, float, float, float]:
        w1, w2 = sp.solve_weighted(1.0 - t, t)
        f1, f2 = sp.norms(w1, w2)
        return w1, w2, (f1 if f1 >= f2 else f2), f1 * f1 - f2 * f2

    best = probe(0.0)
    for t_end in (1.0, 0.5):
        cand = probe(t_end)
        if cand[2] < best[2]:
            best = cand
    lo, hi = 0.0, 1.0
    gap = probe(0.5)[3]
    tol_gap = 1e-13 * sp.scale * sp.scale
    for _ in range(40):
        if abs(gap) <= tol_gap or hi - lo < 1e-7:
            break
        if gap > 0.0:
            hi = 0.5 * (lo + hi)
        else:
            lo = 0.5 * (lo + hi)
        cand = probe(0.5 * (lo + hi))
        gap = cand[3]
        if cand[2] < best[2]:
            best = cand
    return best[0], best[1]


def _grid_min_m1(sp: _SplitPair, qf: float) -> tuple[float, float]:
    """Global 1-dof minimization by bracketed grid plus golden polish.

    Used for quasi-norm exponents, where descent alone can stall on the
    nonsmooth rank-one manifold.  Candidates include the branch crossings
    (where the residual is exactly rank one, the typical quasi-norm
    minimizer), and the bracket comes from ``value >= sqrt(phi_u + phi_v)``,
    so any minimizer lies where the combined quadratic stays below the best
    known squared value.
    """
    t_frob = -(sp.bu1 + sp.bv1) / (sp.au11 + sp.av11)
    cands = [0.0, t_frob, *_branch_crossings(sp)]
    best_t, v0 = 0.0, math.inf
    for t in cands:
        val = sp.value(qf, t, 0.0)
        if val < v0:
            best_t, v0 = t, val
    a = sp.au11 + sp.av11
    b = sp.bu1 + sp.bv1
    c = sp.cu + sp.cv
    disc = b * b - a * (c - 1.05 * v0 * v0)
    if disc > 0.0 and a > 0.0:
        root = math.sqrt(disc)
        lo, hi = (-b - root) / a, (-b + root) / a
        steps = 24
        h = (hi - lo) / steps
        for k in range(steps + 1):
            t = lo + k * h
            val = sp.value(qf, t, 0.0)
            if val < v0:
                best_t, v0 = t, val
        lo, hi = best_t - h, best_t + h
    else:
        lo, hi = best_t - 0.5 * sp.scale, best_t + 0.5 * sp.scale
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = sp.value(qf, x1, 0.0)
    f2 = sp.value(qf, x2, 0.0)
    for _ in range(40):
        if hi - lo < 1e-11 * max(1.0, sp.scale):
            break
        if f1 > f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = sp.value(qf, x2, 0.0)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = sp.value(qf, x1, 0.0)
    t_best = x1 if f1 <= f2 else x2
    if sp.value(qf, t_best, 0.0) > v0:
        t_best = best_t
    return t_best, 0.0


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
    return DistanceResult(
        value=abs(pairing) / dual_norm,
        residual=residual,
        coefficients=coefficients,
        converged=True,
        iterations=0,
    )


def _distance_2x2(
    sp: _SplitPair,
    x: np.ndarray,
    basis: SubspaceBasis,
    qf: float,
) -> DistanceResult:
    s1, s2 = sp.frobenius_start()

    if qf == 1.0:
        if sp.m == 1:
            w1, w2 = _nuclear_exact_m1(sp, s1)
        else:
            w1, w2 = _minimax_bisect_m2(sp)
    elif qf == math.inf:
        w1, w2 = _weber_scalar(sp, s1, s2, 25)
        _, w1, w2 = _descent_scalar(sp, qf, w1, w2, 30)
    elif qf > 1.0:
        _, w1, w2 = _descent_scalar(sp, qf, s1, s2, _SOLVE_MAX_ITER)
    elif sp.m == 1:
        w1, w2 = _grid_min_m1(sp, qf)
    else:
        # quasi-norm, 2 dof: several local starts plus the rank-one
        # (minimax) candidate, keep the best
        m1, m2 = _minimax_bisect_m2(sp)
        starts = [(0.0, 0.0), (s1, s2), (m1, m2)]
        best_val, w1, w2 = math.inf, 0.0, 0.0
        for c1, c2 in starts:
            val, r1, r2 = _descent_scalar(sp, qf, c1, c2, 60)
            if val < best_val:
                best_val, w1, w2 = val, r1, r2

    if sp.m == 1:
        w = np.array([w1])
    else:
        w = np.array([w1, w2])
    residual = x - basis.member(w)
    return DistanceResult(
        value=schatten_norm(residual, qf),
        residual=residual,
        coefficients=w,
        converged=True,
        iterations=0,
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


def _spectral_homotopy(
    x: np.ndarray,
    basis: SubspaceBasis,
    w0: np.ndarray,
) -> DistanceResult:
    w = w0
    total = 0
    converged = True
    for q_eff in _HOMOTOPY_EXPONENTS:
        stage = _irls(x, basis, q_eff, w)
        w = stage.coefficients
        total += stage.iterations
        converged = converged and stage.converged
    residual = x - basis.member(w)
    return DistanceResult(
        value=schatten_norm(residual, math.inf),
        residual=residual,
        coefficients=w,
        converged=converged,
        iterations=total,
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
    if basis.dim == 0:
        return DistanceResult(
            value=schatten_norm(x, q),
            residual=x.copy(),
            coefficients=np.zeros(0),
            converged=True,
            iterations=0,
        )
    if q == 2:
        return _closed_form_frobenius(x, basis)
    if basis.dim == basis.N * basis.N - 1:
        return _codim_one_distance(x, basis, q)
    qf = float(q)
    if basis.N == 2:
        sp = _SplitPair(x, basis)
        # The 2x2 solvers raise split lengths to the power q (not at
        # q = inf) and stop on absolute floors that bite below 2**-20;
        # they run unscaled while neither matters.
        e_max = 1000.0 / qf if 2.0 < qf < math.inf else 500.0
        if -min(20.0, e_max) <= math.log2(sp.scale) <= e_max:
            return _distance_2x2(sp, x, basis, qf)
    # The solvers below carry absolute floors and powers of the residual's
    # singular values or Gram matrix, so they run on x / 2**e, whose
    # largest entry lies in [0.5, 1): scaling by a power of two is exact,
    # and the distance, residual and coefficients are homogeneous in x.
    # At N = 2 only inputs outside the range above pay for this.
    e = math.frexp(float(np.max(np.abs(x))))[1]
    if e:
        res = distance_schatten(np.ldexp(x, -e), basis, q)
        return replace(res, value=math.ldexp(res.value, e), residual=np.ldexp(res.residual, e),
                       coefficients=np.ldexp(res.coefficients, e))
    if basis.N == 2:
        return _distance_2x2(sp, x, basis, qf)
    if is_infinite(q):
        return _spectral_homotopy(x, basis, basis.coefficients(x))
    # the Frobenius projection is a sound start in the convex case
    return _irls(x, basis, qf, basis.coefficients(x) if qf >= 1 else None)
