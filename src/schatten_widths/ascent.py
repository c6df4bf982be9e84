"""Projected supergradient ascent for ratios ``objective(X) / ||X||_p``.

The outer problems solved here maximize a 1-homogeneous objective (such
as an image norm) over the Schatten-``p`` unit sphere.  Iterates stay on
the sphere; steps follow the gradient of ``log objective - log
||X||_p``, whose stationary points are the ratio's critical points,
with multiplicative backtracking on the step size.

For ``p >= 1`` the sphere-constrained problem is well behaved; for
quasi-norms ``p < 1`` the same iteration runs with a spectral cutoff in
the norm gradient (tiny singular values contribute no descent direction),
which keeps the search stable near the low-rank matrices where those
ratios peak.  Results are certified lower bounds on the supremum in every
case: each reported value is the ratio at an explicit matrix.

Norms and their gradients come from the norm layer,
:func:`core.norms_and_deferred_gradients`, and the ascent factors each
point it scores, a start or a trial, exactly once: one full SVD, or one
2x2 split at N = 2.  That factorization gives the point's ``p``-norm, so
its normalized copy on the sphere, and its ``p``-gradient, deferred.
When the objective is the norm ``||X||_q``, given by its exponent, the
same factorization gives the value ``||t||_q / ||t||_p`` and its
gradient; a callable objective is evaluated at the normalized point.
Most trial points of the backtracking are rejected, so a trial costs a
value only: the gradients are formed only where the ascent builds a step
direction, at a start or an accepted point, from the factorization made
when that point was scored.  Over a subspace, each step is projected
onto it, which takes no factorization.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import as_real, norms_and_deferred_gradients
from .exponents import ExponentLike, exponent_float
from .operators import SubspaceBasis, orthonormal_columns

__all__ = [
    "AscentResult",
    "default_starts",
    "sup_ratio_ascent",
]

_STEP_FLOOR = 1e-12
# a start's largest entry is scaled up to at least 2^(this - 1): every
# entry within 2^-53 of it, and every half-sum of the 2x2 split, is then
# a normal float
_LEAST_START_EXPONENT = sys.float_info.min_exp + sys.float_info.mant_dig
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


def default_starts(
    N: int,
    rng: np.random.Generator,
    *,
    n_gaussian: int = 3,
    n_rank_one: int = 2,
    extra: Sequence[np.ndarray] = (),
) -> list[np.ndarray]:
    """Standard start battery: a matrix unit, the identity, a Haar-like
    orthogonal matrix, random rank-ones, and Gaussians, plus caller extras
    (real; a complex one raises ``ValueError``).

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
    starts.extend(np.asarray(as_real(e), dtype=float) for e in extra)
    return starts


def sup_ratio_ascent(
    objective: Union[ExponentLike,
                     Callable[[np.ndarray], tuple[float, Callable[[], Optional[np.ndarray]]]]],
    p,
    starts: Sequence[np.ndarray],
    *,
    max_iter: int = 300,
    subspace: Optional[SubspaceBasis] = None,
) -> AscentResult:
    """Maximize ``objective(X) / ||X||_p`` from each start.

    The objective is an exponent ``q``, for the norm ``||X||_q``, or a
    callable.  ``objective(X)`` must return ``(value, gradient)`` for
    nonzero ``X`` on the ``p``-sphere, where ``gradient`` is a
    zero-argument callable that returns the objective's gradient at ``X``,
    or ``None``.  The ascent calls it at most once per start or accepted
    trial point, just before it builds a step from there, and never at a
    rejected trial.  A ``None`` gradient ends that start's ascent at its
    current value (used by objectives that are flat or nonsmooth at the
    iterate), and so does a ``p``-norm gradient that leaves the float
    range.  A ``subspace`` restricts the supremum to its members: each
    step direction is projected onto it, so the starts must lie in it.
    Each start is first scaled by the power of two that brings its
    largest entry into ``[2^-969, 1)``, which changes no ratio: below that
    range a 2x2 split's lengths can be subnormal, and round, which puts
    the normalized start off the sphere; above it a small-exponent norm
    can overflow.  A start inside the range is not scaled.  A complex
    start raises ``ValueError``.
    """
    pf = exponent_float(p)
    norm_objective = not callable(objective)
    exponents = (pf, exponent_float(objective)) if norm_objective else (pf,)

    def scored(t: np.ndarray):
        """``(x, value, gradient, p_gradient)`` at ``t``, from one
        factorization, or None where ``||t||_p`` is not positive."""
        norms = norms_and_deferred_gradients(t, exponents)
        scale, p_gradient = norms[0]
        if not scale > 0:
            return None
        x = t / scale
        if norm_objective:
            q_norm, q_gradient = norms[1]
            return x, q_norm / scale, q_gradient, p_gradient
        return (x, *objective(x), p_gradient)

    best_value = -math.inf
    best_x: Optional[np.ndarray] = None
    best_index = -1
    total_iterations = 0
    evaluations = 0
    any_converged = False

    for index, start in enumerate(starts):
        t = np.asarray(as_real(start), dtype=float)
        exponent = math.frexp(float(np.abs(t).max()))[1]
        point = scored(np.ldexp(t, min(max(exponent, _LEAST_START_EXPONENT), 0) - exponent))
        if point is None:
            continue
        x, value, gradient, p_gradient = point
        evaluations += 1
        step = 0.5
        stalled = 0
        converged = False
        window: list[float] = []
        for _ in range(max_iter):
            total_iterations += 1
            if value <= 0:
                converged = True
                break
            # plateau cut: negligible total progress over a trailing window
            window.append(value)
            if len(window) > 15:
                window.pop(0)
                if value - window[0] <= 1e-9 * max(value, 1e-30):
                    converged = True
                    break
            grad = gradient()
            p_grad = None if grad is None else p_gradient()
            if p_grad is None:
                converged = True
                break
            direction = grad / value - p_grad
            if subspace is not None:
                direction = subspace.member(subspace.coefficients(direction))
            dir_scale = float(np.linalg.norm(direction, "fro"))
            if dir_scale < 1e-13:
                converged = True
                break
            direction = direction / dir_scale
            accepted = False
            while step >= _STEP_FLOOR:
                trial = scored(x + step * direction)
                if trial is not None:
                    evaluations += 1
                    if trial[1] > value * (1 + 1e-14):
                        improvement = (trial[1] - value) / max(trial[1], 1e-30)
                        x, value, gradient, p_gradient = trial
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
