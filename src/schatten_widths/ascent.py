"""Projected supergradient ascent for norm ratios ``||X||_q / ||X||_p``.

The problems solved here maximize the norm ``||X||_q`` over the
Schatten-``p`` unit sphere of the whole space or of a subspace.  Iterates
stay on the sphere; steps follow the gradient of ``log ||X||_q - log
||X||_p``, whose stationary points are the ratio's critical points, with
multiplicative backtracking on the step size.

For ``p >= 1`` the sphere-constrained problem is well behaved; for
quasi-norms ``p < 1`` the same iteration runs with a spectral cutoff in
the norm gradient (tiny singular values contribute no descent direction),
which keeps the search stable near the low-rank matrices where those
ratios peak.  Results are certified lower bounds on the supremum in every
case: each reported value is the ratio at an explicit matrix.

One loop runs every ascent, on one of two representations of a point;
the plateau window, the backtracking, the stall rule and the counts are
the same for both.

- **On the spectrum**, over the whole space.  Both norms are functions
  of the singular values, and the gradient of such a function at ``U
  diag(c) V^T`` is ``U diag(w) V^T``, with the weights ``w`` of ``c`` (Lewis
  1995, *J. Convex Anal.* 2).  So every step keeps the start's singular
  vectors: each start is factored once, through the validated
  :func:`core.svd`, and the ascent moves its signed singular-value
  coordinates ``c``, Python floats.  A trial is ``c + step * e``; its
  ratio comes from the sorted ``|c|`` (:func:`core._norm_and_weight_scale`),
  and its step from both norms' weights (:func:`core._gradient_weights`)
  as ``d = w_q / value - w_p``, with the sign of each ``c_i`` mapped back
  onto its coordinate.  No trial is factored, and the maximizer ``U
  diag(c) V^T`` is formed once, for the winning start.
- **As a matrix**, over a subspace.  Each point it scores, a start or a
  trial, is one spectrum and frame (:func:`core._spectrum_and_frame`): its
  singular values, Python floats, with the frame ``(U, V^T)`` of one full
  SVD, or at N = 2 the floats of the 2x2 split, which takes no
  factorization (the frame is LAPACK's only where the split's directions
  are ill-conditioned).  The singular values give the point's two norms,
  so its ratio and its normalized copy on the sphere, and the weights of
  both gradients.  The step is ``U diag(d) V^T``, formed in the point's
  frame by the combiner of every norm gradient
  (:func:`core._frame_gradient`).  Each step is projected onto the
  subspace, which takes no factorization.

Every matrix the ascent factors is validated (:func:`core.svd`,
:func:`core.as_square_matrix`, or the finite lengths of the 2x2 split:
real, square, finite) except the trials over a subspace at N >= 3.  Such
a trial is ``x + step * D`` with ``||x||_p = 1``, so every entry of ``x``
is at most 1, a unit direction ``D`` built from the norms' bounded
weights and ``step <= 1``: it is finite, with entries of at most 2, and
goes to LAPACK as it is (``core._lapack_svd``, whose non-convergence
still raises).  Most trial points of the backtracking are rejected, so a
trial costs its value only: its weights, and from them its step, are
formed only where the ascent accepts it and builds a step from there,
and a trial is normalized only then.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import as_int, as_real
from .exponents import ExponentLike, exponent_float
from .operators import SubspaceBasis, orthonormal_columns, vec

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
# a start may lie this far from the subspace, relative in the Frobenius norm
_MEMBER_TOL = 1e-10


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
    objective: ExponentLike,
    p,
    starts: Sequence[np.ndarray],
    *,
    max_iter: int = 300,
    subspace: Optional[SubspaceBasis] = None,
) -> AscentResult:
    """Maximize ``||X||_q / ||X||_p`` from each start, with the exponent
    ``q`` given as ``objective``.

    A gradient that leaves the float range ends that start's ascent at its
    current value.  A ``subspace`` restricts the supremum to its members:
    each step direction is projected onto it, and a start farther than
    ``1e-10`` of its Frobenius norm from it raises ``ValueError``.
    The starts must be ``N x N`` matrices with one ``N``, the subspace's
    where one is given; else ``ValueError`` names the first that is not.
    Each start is first scaled by the power of two that brings its
    largest entry into ``[2^-969, 1)``, which changes no ratio: below that
    range its singular values, from the 2x2 split or from LAPACK, can be
    subnormal, and round, which puts the normalized start off the sphere
    and its weights off, and the reciprocal split lengths of a 2x2 frame
    can overflow; above it a small-exponent norm can overflow.  A start
    inside the range is not scaled.  A complex start raises
    ``ValueError``, and so does a ``max_iter`` that is not a non-negative
    integer (numpy integers count; ``bool`` does not).
    """
    iteration_limit = as_int(max_iter)
    if iteration_limit is None or iteration_limit < 0:
        raise ValueError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    pf = exponent_float(p)
    qf = exponent_float(objective)
    points = _square_starts(starts, subspace)
    # over the whole space a point is its signed singular values in the
    # frame of its start (module docstring)
    on_spectrum = subspace is None

    def scored(t, start: bool = False):
        """``(value, scale, parts)`` of the point ``t``, from its spectrum
        or one factorization: ``scale = ||t||_p``, the ratio ``value`` at
        ``t / scale``, and the ``parts`` its step is built from; None where
        ``scale`` is not positive.  Only the matrix trials at N >= 3 skip
        the validation of ``t``."""
        if on_spectrum:
            return _norm_point(sorted(map(abs, t), reverse=True), pf, qf, t)
        # a trial is finite (module docstring): LAPACK takes it as is
        sigma, frame = core._spectrum_and_frame(t, validated=not start)
        return _norm_point(sigma, pf, qf, frame)

    if on_spectrum:
        def step_direction(value, parts):
            return _coordinate_direction(value, parts, pf, qf)

        def moved(x, direction, step):
            return [c + step * e for c, e in zip(x, direction)]

        def normalized(t, scale):
            return [c / scale for c in t]
    else:
        def step_direction(value, parts):
            return _step_direction(value, parts, pf, qf, subspace)

        def moved(x, direction, step):
            return x + step * direction

        def normalized(t, scale):
            return t / scale

    best_value = -math.inf
    best_x = best_frame = None
    best_index = -1
    total_iterations = 0
    evaluations = 0
    any_converged = False

    for index, t in enumerate(points):
        exponent = math.frexp(float(np.abs(t).max()))[1]
        if subspace is not None:
            _require_member(subspace, np.ldexp(t, -exponent), index)
        t = np.ldexp(t, min(max(exponent, _LEAST_START_EXPONENT), 0) - exponent)
        frame = None
        if on_spectrum:
            u, s, v = core.svd(t)
            frame, t = (u, v), s.tolist()
        point = scored(t, start=True)
        if point is None:
            continue
        value, scale, parts = point
        x = normalized(t, scale)
        evaluations += 1
        step = 0.5
        stalled = 0
        converged = False
        window: list[float] = []
        for _ in range(iteration_limit):
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
            direction = step_direction(value, parts)
            if direction is None:
                converged = True
                break
            accepted = False
            while step >= _STEP_FLOOR:
                t = moved(x, direction, step)
                trial = scored(t)
                if trial is not None:
                    evaluations += 1
                    trial_value = trial[0]
                    if trial_value > value * (1 + 1e-14):
                        improvement = (trial_value - value) / max(trial_value, 1e-30)
                        value, scale, parts = trial
                        x = normalized(t, scale)
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
            best_x, best_frame = x, frame
            best_index = index
            any_converged = converged
        elif value == best_value and converged:
            any_converged = True

    if best_x is None:
        raise ValueError("no valid (nonzero) start supplied to ascent")
    if best_frame is not None:
        u, v = best_frame
        best_x = (u * best_x) @ v.T
    return AscentResult(
        value=best_value,
        maximizer=best_x,
        converged=any_converged,
        iterations=total_iterations,
        evaluations=evaluations,
        start_index=best_index,
    )


def _square_starts(starts: Sequence[np.ndarray], subspace: Optional[SubspaceBasis]
                   ) -> list[np.ndarray]:
    """The starts as real float arrays, each ``N x N`` with one ``N``
    shared by all of them, the subspace's where one is given: the ascent's
    supremum is over one matrix space.  Raise ``ValueError``, naming the
    start's index, at the first that is not, and at a complex start."""
    shape = None if subspace is None else (subspace.N, subspace.N)
    out = []
    for index, start in enumerate(starts):
        t = np.asarray(as_real(start), dtype=float)
        if shape is None and t.ndim == 2 and t.shape[0] == t.shape[1] > 0:
            shape = t.shape
        if t.shape != shape:
            expected = ("square" if shape is None
                        else f"{shape}, as the subspace's members" if subspace is not None
                        else f"{shape}, as start 0")
            raise ValueError(f"start {index} has the shape {t.shape}, not {expected}")
        out.append(t)
    return out


def _norm_point(sigma: list[float], pf: float, qf: float, at):
    """``(value, scale, (at, weights))`` of a matrix with the
    singular values ``sigma``, Python floats in non-increasing order, for
    the norm objective ``||.||_q``: the ratio ``value`` of its two norms,
    its ``p``-norm ``scale``, and each norm's weight ratios and scale
    (:func:`core._norm_and_weight_scale`), beside ``at``, the point's
    signed singular values or its frame; None where ``scale`` is not
    positive.  No weight is formed here: most trials are rejected."""
    scale, p_ratios, p_factor = core._norm_and_weight_scale(sigma, pf)
    if not scale > 0:
        return None
    q_norm, q_ratios, q_factor = core._norm_and_weight_scale(sigma, qf)
    return q_norm / scale, scale, (at, (p_ratios, p_factor, q_ratios, q_factor))


def _weight_difference(value: float, weights, pf: float, qf: float) -> Optional[list[float]]:
    """The spectral step ``d = w_q / value - w_p`` at a point with the
    ratio ``value`` and the ``weights`` of :func:`_norm_point`, in the
    order of its sorted singular values: the gradient of ``log ||.||_q -
    log ||.||_p`` is ``U diag(d) V^T``.  None where a weight overflows."""
    p_ratios, p_factor, q_ratios, q_factor = weights
    q_weights = core._gradient_weights(q_ratios, qf, q_factor)
    p_weights = None if q_weights is None else core._gradient_weights(p_ratios, pf, p_factor)
    if p_weights is None:
        return None
    return [w / value - w_p for w, w_p in zip(q_weights, p_weights)]


def _coordinate_direction(value: float, parts, pf: float, qf: float) -> Optional[list[float]]:
    """The unit ascent direction ``e`` of a norm objective at the point
    with the signed singular values ``c`` (``parts = (c, weights)``, from
    the scorer) in its start's frame: ``d`` of :func:`_weight_difference`
    on the sorted ``|c|``, mapped back onto each coordinate with the sign
    of ``c_i``, over ``|d|``.  None where a weight overflows or ``|d|`` is
    below ``1e-13``."""
    c, weights = parts
    d = _weight_difference(value, weights, pf, qf)
    if d is None:
        return None
    length = math.hypot(*d)
    if length < 1e-13:
        return None
    e = [0.0] * len(c)
    for k, i in enumerate(sorted(range(len(c)), key=lambda i: -abs(c[i]))):
        e[i] = d[k] / length if c[i] >= 0.0 else -d[k] / length
    return e


def _step_direction(value: float, parts, pf: float, qf: float,
                    subspace: Optional[SubspaceBasis]) -> Optional[np.ndarray]:
    """The ascent direction at a matrix point with the ratio ``value``
    and the step ``parts`` of the scorer: the gradient of ``log ||.||_q -
    log ||.||_p``, projected onto ``subspace`` if one is given, scaled to
    unit Frobenius length.  None where a gradient is None or its length is
    below ``1e-13``.

    Both norm gradients share the point's frame, so the direction is
    ``U diag(d) V^T`` (:func:`_weight_difference`), formed in the frame of
    ``parts`` by one call of :func:`core._frame_gradient`.
    """
    frame, weights = parts
    d = _weight_difference(value, weights, pf, qf)
    if d is None:
        return None
    direction = core._frame_gradient(frame, d)
    if subspace is not None:
        direction = subspace.member(subspace.coefficients(direction))
    length = float(np.linalg.norm(direction, "fro"))
    if length < 1e-13:
        return None
    return direction / length


def _require_member(subspace: SubspaceBasis, t: np.ndarray, index: int) -> None:
    """Raise ``ValueError`` where the start ``t`` lies farther than
    ``_MEMBER_TOL`` of its Frobenius norm from ``subspace``: an ascent
    from there would report ratios at matrices outside the subspace.

    The distance is read on the complement's frame, which is orthonormal
    to rounding, so a member of a basis whose columns are orthonormal only
    to the ``1e-10`` that :class:`SubspaceBasis` allows still passes."""
    distance = np.linalg.norm(subspace.complement.T @ vec(t))
    size = np.linalg.norm(t)
    if distance > _MEMBER_TOL * size:
        raise ValueError(f"start {index} lies off the subspace: its distance to it is "
                         f"{distance / size:.3g} of its Frobenius norm")
