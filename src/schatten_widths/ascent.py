"""Projected supergradient ascent for ratios ``objective(X) / ||X||_p``.

The outer problems solved here maximize a 1-homogeneous objective (an
image norm, or a distance to a subspace) over the Schatten-``p`` unit
sphere.  Iterates stay on the sphere; steps follow the gradient of
``log objective - log ||X||_p``, whose stationary points are the ratio's
critical points, with multiplicative backtracking on the step size.

For ``p >= 1`` the sphere-constrained problem is well behaved; for
quasi-norms ``p < 1`` the same iteration runs with a spectral cutoff in
the norm gradient (tiny singular values contribute no descent direction),
which keeps the search stable near the low-rank matrices where those
ratios peak.  Results are certified lower bounds on the supremum in every
case: each reported value is the ratio at an explicit matrix.

Objectives built on a norm take its value and gradient together from
:func:`norm_and_gradient`: one factorization (or one 2x2 split) per
point.  A trial point then costs that plus one values-only SVD for its
``p``-norm, and each iteration one more for the ``p``-gradient at the
iterate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import norm_2x2, norm_from_floats, schatten_norm, svd
from .exponents import exponent_float
from .operators import orthonormal_columns

__all__ = [
    "AscentResult",
    "default_starts",
    "norm_and_gradient",
    "norm_gradient",
    "sup_ratio_ascent",
]

_SPECTRAL_CUTOFF = 1e-8
_STEP_FLOOR = 1e-12
# a start ends after this many accepted steps in a row that each gain
# less than this relative amount
_STALL_LIMIT = 6
_STALL_GAIN = 1e-11


@dataclass(frozen=True)
class AscentResult:
    """Best ratio found by ascent, with the matrix that attains it."""

    value: float
    maximizer: np.ndarray
    converged: bool
    iterations: int
    evaluations: int
    start_index: int


def norm_and_gradient(x: np.ndarray, p) -> tuple[float, Optional[np.ndarray]]:
    """``||x||_p`` and the gradient of ``X -> ||X||_p`` at ``x``, from one
    factorization; ``(0.0, None)`` at the zero matrix.

    For finite ``p`` the gradient is
    ``U diag(sigma_i^{p-1}) V^T / ||x||_p^{p-1}``; for ``p = inf`` the top
    singular pair ``u1 v1^T`` (a supergradient when the top singular value
    is degenerate).  Singular values below a relative spectral cutoff are
    dropped from the gradient, which for ``p < 1`` avoids the blowup of
    ``sigma^{p-1}`` at the spectrum's edge.  The value is the one
    :func:`core.schatten_norm` computes, from the same singular values.
    A 2x2 input needs no factorization unless its spectrum is nearly
    degenerate or a power leaves the float range.
    """
    pf = exponent_float(p)
    x = np.asarray(x, dtype=float)
    if x.shape == (2, 2):
        closed = norm_2x2(x.ravel().tolist(), pf)
        # non-finite entries, or split lengths that overflow, take the
        # factorization path, which validates and scales
        if closed is not None:
            value, split = closed
            if value <= 0.0:
                return 0.0, None
            grad = _gradient_2x2(*split, value, pf)
            if grad is None:
                grad = _norm_and_gradient_svd(x, pf)[1]
            return value, grad
    return _norm_and_gradient_svd(x, pf)


def norm_gradient(x: np.ndarray, p) -> np.ndarray:
    """Gradient of ``X -> ||X||_p`` at a nonzero ``x`` (see
    :func:`norm_and_gradient`)."""
    grad = norm_and_gradient(x, p)[1]
    if grad is None:
        raise ValueError("norm gradient undefined at the zero matrix")
    return grad


def _norm_and_gradient_svd(x: np.ndarray, pf: float) -> tuple[float, Optional[np.ndarray]]:
    """:func:`norm_and_gradient` from one full SVD; the weights are Python
    floats, applied with one array and one matmul."""
    u, s, v = svd(x)
    sigma = s.tolist()
    top = sigma[0]
    if top <= 0.0:
        return 0.0, None
    ratios = [t / top for t in sigma]
    # the same power sum as norm_from_floats(sigma, pf), so the same value
    # bit for bit, and its root is the ratio norm the weights need
    norm_ratio = norm_from_floats(ratios, pf)
    value = top * norm_ratio
    if pf == math.inf:
        return value, np.outer(u[:, 0], v[:, 0])
    scale = norm_ratio ** (1.0 - pf)
    weights = [r ** (pf - 1.0) * scale if r > _SPECTRAL_CUTOFF else 0.0 for r in ratios]
    return value, (u * np.array(weights)) @ v.T


def _gradient_2x2(u1, u2, v1, v2, nu, nv, value, pf) -> Optional[np.ndarray]:
    """Split-coordinate norm gradient of a nonzero 2x2 matrix with split
    ``(u1, u2), (v1, v2)`` (:func:`core.split_2x2`) of lengths ``nu, nv``
    and norm ``value``; no factorization.

    The singular values are the sum and difference of the split lengths,
    which makes their matrix derivatives explicit.  Returns None near
    split degeneracies, and where the powers leave the float range; the
    factorization path handles both.
    """
    s1 = nu + nv
    if min(nu, nv) < 1e-9 * s1 and min(nu, nv) > 0.0:
        return None  # nearly equal singular values: let the SVD pick a pair
    eu = 1.0 / nu if nu > 0.0 else 0.0
    ev = 1.0 / nv if nv > 0.0 else 0.0
    uh1, uh2 = u1 * eu, u2 * eu
    vh1, vh2 = v1 * ev, v2 * ev
    # d(sigma_1) and d(sigma_2) as matrices, row-major entries
    m1 = 0.5 * np.array([[uh1 + vh1, vh2 - uh2], [uh2 + vh2, uh1 - vh1]])
    if pf == math.inf:
        return m1
    s2 = abs(nu - nv)
    try:
        if s2 <= _SPECTRAL_CUTOFF * s1:
            c1, c2 = s1 ** (pf - 1.0) / value ** (pf - 1.0), 0.0
        else:
            norm = (s1**pf + s2**pf) ** (1.0 / pf)
            c1, c2 = (s1 / norm) ** (pf - 1.0), (s2 / norm) ** (pf - 1.0)
    except (OverflowError, ZeroDivisionError):
        return None  # a power left the float range: the SVD path scales
    if not 0.0 < c1 < math.inf:
        return None  # the power sum overflowed, or a power underflowed to 0
    if c2 == 0.0:
        return c1 * m1
    sgn = 1.0 if nu >= nv else -1.0
    m2 = (0.5 * sgn) * np.array([[uh1 - vh1, -vh2 - uh2], [uh2 - vh2, uh1 + vh1]])
    return c1 * m1 + c2 * m2


def default_starts(
    N: int,
    rng: np.random.Generator,
    *,
    n_gaussian: int = 3,
    n_rank_one: int = 2,
    extra: Sequence[np.ndarray] = (),
) -> list[np.ndarray]:
    """Standard start battery: a matrix unit, the identity, a Haar-like
    orthogonal matrix, random rank-ones, and Gaussians, plus caller extras.

    The matrix unit and the identity are exact maximizers of the two
    embedding-norm regimes, so norm ascents converge at the gate.
    """
    starts: list[np.ndarray] = []
    unit = np.zeros((N, N))
    unit[0, 0] = 1.0
    starts.append(unit)
    starts.append(np.eye(N))
    if N > 1:
        g = rng.standard_normal((N, N))
        q = orthonormal_columns(g)
        if q.shape[1] == N:
            starts.append(q)
    for _ in range(n_rank_one):
        u = rng.standard_normal(N)
        v = rng.standard_normal(N)
        starts.append(np.outer(u, v))
    for _ in range(n_gaussian):
        starts.append(rng.standard_normal((N, N)))
    starts.extend(np.asarray(e, dtype=float) for e in extra)
    return starts


def sup_ratio_ascent(
    objective: Callable[[np.ndarray], tuple[float, Optional[np.ndarray]]],
    p,
    N: int,
    starts: Sequence[np.ndarray],
    *,
    max_iter: int = 300,
) -> AscentResult:
    """Maximize ``objective(X) / ||X||_p`` from each start.

    ``objective(X)`` must return ``(value, gradient)`` for nonzero ``X``;
    a ``None`` gradient ends that start's ascent at its current value
    (used by objectives that are flat or nonsmooth at the iterate).
    """
    pf = exponent_float(p)
    best_value = -math.inf
    best_x: Optional[np.ndarray] = None
    best_index = -1
    total_iterations = 0
    evaluations = 0
    any_converged = False

    for index, start in enumerate(starts):
        x = np.asarray(start, dtype=float)
        scale = schatten_norm(x, pf)
        if not scale > 0:
            continue
        x = x / scale
        value, grad = objective(x)
        evaluations += 1
        step = 0.5
        stalled = 0
        converged = False
        window: list[float] = []
        for _ in range(max_iter):
            total_iterations += 1
            if grad is None or value <= 0:
                converged = True
                break
            # plateau cut: negligible total progress over a trailing window
            window.append(value)
            if len(window) > 15:
                window.pop(0)
                if value - window[0] <= 1e-9 * max(value, 1e-30):
                    converged = True
                    break
            direction = grad / value - norm_gradient(x, pf)
            dir_scale = float(np.linalg.norm(direction, "fro"))
            if dir_scale < 1e-13:
                converged = True
                break
            direction = direction / dir_scale
            accepted = False
            while step >= _STEP_FLOOR:
                trial = x + step * direction
                trial_norm = schatten_norm(trial, pf)
                if trial_norm > 0:
                    trial = trial / trial_norm
                    trial_value, trial_grad = objective(trial)
                    evaluations += 1
                    if trial_value > value * (1 + 1e-14):
                        improvement = (trial_value - value) / max(trial_value, 1e-30)
                        x, value, grad = trial, trial_value, trial_grad
                        step = min(step * 1.3, 1.0)
                        accepted = True
                        stalled = stalled + 1 if improvement < _STALL_GAIN else 0
                        break
                step *= 0.5
            if not accepted:
                converged = True
                break
            if stalled >= _STALL_LIMIT:
                converged = True
                break
        if value > best_value:
            best_value = value
            best_x = x
            best_index = index
            any_converged = converged
        elif value == best_value and converged:
            any_converged = True

    if best_x is None:
        raise ValueError("no valid (nonzero) start supplied to ascent")
    return AscentResult(
        value=best_value,
        maximizer=best_x,
        converged=any_converged,
        iterations=total_iterations,
        evaluations=evaluations,
        start_index=best_index,
    )
