"""Low-rank matrix recovery from Gaussian measurements vs. the envelope.

The width theory predicts the optimal worst-case error of recovering a
matrix from ``m`` linear samples: for quasi-norm balls it decays like
``min(1, N/m)^(1/p - 1/q)``.  This module realizes the standard scheme —
an i.i.d. Gaussian information map with a nuclear-norm-minimizing
decoder — measures its error on a structured test battery, and compares
against :func:`schatten_widths.envelope.recovery_envelope`.

The decoder is over-relaxed Douglas–Rachford splitting: each step is one
projection onto the measurement constraint and one nuclear-norm prox,
and the update is scaled by the fixed relaxation 1.8 in place of 1.
Scaling the update leaves the fixed points where they were (it vanishes
exactly where the plain update does), so the decode converges to the
same minimizer, in about 40% fewer steps on the recovery sweeps.  The
projection uses the pseudo-inverse of the map's Gram matrix, factored
once per map, so dependent measurement rows are decoded too.  The prox
thresholds singular values read from a symmetric eigendecomposition of
the N x N Gram matrix ``W^T W``, not from an SVD of ``W``.  A test
battery decodes in lockstep: its live instances advance together, so a
step is one matrix product for all their projections and one stacked
eigendecomposition for all their proxes, while each instance keeps its
own step size, stopping test and result.

Honesty notes, reflected in the result objects: the decoder is one fixed
scheme, so its error only heuristically upper-bounds the optimal error;
it solves the exactly constrained nuclear-norm problem by an iteration
stopped at a residual and fixed-point tolerance, and every decode that
hits the iteration cap first is counted as non-converged; the battery
maximum is a lower estimate of the scheme's true worst case; and each
instance falls back to the zero decode when that is better, standing in
for the optimal decoder the theory quantifies over.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import _ldexp, _safe_shift, as_int, as_matrix_side, as_real, schatten_norm
from .envelope import recovery_envelope
from .exponents import Exponent, as_exponent

__all__ = [
    "DecoderResult",
    "EnvelopeRatio",
    "InfoMap",
    "RecoveryResult",
    "apply_info_map",
    "build_info_map",
    "compare_to_envelope",
    "nuclear_decoder",
    "worst_case_error",
]


@dataclass(frozen=True, eq=False)
class InfoMap:
    """A linear information map ``X -> (<A_1, X>, ..., <A_m, X>)`` with real,
    finite measurement matrices ``A_i``."""

    matrices: np.ndarray  # (m, N, N)
    seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(as_real(self.matrices), dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected (m, N, N) measurement stack, got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("an information map needs at least one measurement")
        if not np.all(np.isfinite(arr)):
            raise ValueError("measurement matrices must be finite")
        object.__setattr__(self, "matrices", arr)

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    @property
    def N(self) -> int:
        return self.matrices.shape[1]

    @property
    def as_rows(self) -> np.ndarray:
        """The map as an (m, N^2) matrix acting on row-major vectorizations."""
        return self.matrices.reshape(self.m, -1)

    @cached_property
    def _projector(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Rows, Gram pseudo-inverse and row scale the decode projects
        with, factored once per map: ``(2^shift G, pinv(4^shift G G^T),
        shift)``.

        ``shift`` is 0 unless the map's largest entry lies outside
        ``[2^-257, 2^256)``; then the rows are scaled by the power of two
        that brings that entry into [1/2, 1) before the Gram matrix is
        formed, so that it neither overflows nor underflows.  The
        pseudo-inverse is from ``eigh``; eigenvalues below ``N^2 eps``
        times the largest are rounding noise of the Gram's length-``N^2``
        inner products and are dropped, so dependent or near-dependent
        rows (``m > N^2`` among them) give a projection onto the
        least-squares solutions instead of a singular or ill-conditioned
        inverse.
        """
        G = self.as_rows
        shift = _safe_shift(math.frexp(float(np.abs(G).max()))[1])
        if shift:
            G = np.ldexp(G, shift)
        w, vecs = np.linalg.eigh(G @ G.T)
        keep = w > w[-1] * G.shape[1] * np.finfo(float).eps
        return G, (vecs[:, keep] / w[keep]) @ vecs[:, keep].T, shift


def build_info_map(N: int, m: int, seed: int = 0) -> InfoMap:
    """Gaussian information map with entry variance ``1/m``."""
    N, m_int = as_matrix_side(N), as_int(m)
    if m_int is None or m_int < 1:
        raise ValueError(f"measurement count m must be >= 1, got {m!r}")
    m = m_int
    rng = np.random.default_rng(seed)
    # scaled in place: the Gram factorization's LAPACK workspace would
    # otherwise raise the decode's memory high-water mark
    matrices = rng.standard_normal((m, N, N))
    matrices /= math.sqrt(m)
    return InfoMap(matrices, seed)


def apply_info_map(info: InfoMap, X: np.ndarray) -> np.ndarray:
    """Evaluate ``y_i = trace(A_i^T X)``; linear in ``X``, which must be
    real and finite."""
    X = np.asarray(as_real(X), dtype=float)
    if X.shape != (info.N, info.N):
        raise ValueError(
            f"matrix shape {X.shape} does not match the map's ({info.N}, {info.N})"
        )
    if not np.isfinite(X).all():
        raise ValueError("matrix entries must be finite")
    return info.as_rows @ X.ravel()


# ---------------------------------------------------------------------------
# nuclear-norm decoder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoderResult:
    """Output of the nuclear-norm decoder with its diagnostics."""

    matrix: np.ndarray
    converged: bool
    iterations: int
    residual: float


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


# Douglas–Rachford relaxation: 1.5 and 1.9 took more steps than 1.8 at
# nearly every point of acceptance check 9's sweep.
_RELAXATION = 1.8
_MAX_STEPS = 6000
# Maps and measurements whose largest entry lies outside [2^-257, 2^256)
# are decoded at the power-of-two scale that brings it into [1/2, 1)
# (core._safe_shift): there the squares summed in the decode's norms and
# Gram matrices stay far from overflow and underflow, with room for the
# iterates to outgrow the measurements.


def _svt_stack(W: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Singular-value soft-thresholding of each matrix of the stack ``W``
    at its own threshold ``gamma[b]``: the nuclear-norm prox.

    One stacked ``eigh`` of the Gram matrices ``W^T W = Q diag(s^2) Q^T``
    serves the whole stack.  The columns of ``W Q`` are ``U diag(s)``, so
    their norms are the singular values ``s``, and the thresholded matrix
    is ``(W Q) diag(max(1 - gamma/s, 0)) Q^T``.  Squaring ``W`` blurs
    only the eigenvectors of nearly equal singular values, whose
    thresholding factors nearly agree, so the result is an SVD's up to
    rounding.
    """
    _, Q = np.linalg.eigh(np.matmul(W.transpose(0, 2, 1), W))
    WQ = np.matmul(W, Q)
    s = np.sqrt(np.einsum("bij,bij->bj", WQ, WQ))
    shrink = np.divide(np.maximum(s - gamma[:, None], 0.0), s,
                       out=np.zeros_like(s), where=s > 0.0)
    return np.matmul(WQ * shrink[:, None, :], Q.transpose(0, 2, 1))


def _decode_stack(info: InfoMap, Y: np.ndarray, tol: float, steps: int) -> list[DecoderResult]:
    """Decode each row of the finite ``(B, m)`` measurement stack ``Y``.

    The live decodes advance in lockstep through the iteration of
    :func:`nuclear_decoder`: each step projects the whole stack with one
    matrix product and thresholds it with one :func:`_svt_stack`.  Each
    decode keeps its own ``gamma``, tests its own stopping rule every 10
    steps, and leaves the stack when it stops.  Its residual is
    ``||info(z) - y||`` from the product :func:`apply_info_map` takes.

    The decode projects with the map's rows scaled by ``2^a``
    (``InfoMap._projector``; ``a = 0`` unless the map's largest entry lies
    outside ``[2^-257, 2^256)``), and each row ``y`` runs as ``2^(a+s) y``
    with ``tol`` scaled with it: the factor ``2^a`` keeps ``y`` the
    measurement of the same matrix, and ``2^s`` (0 unless the largest entry
    of ``2^a y`` lies outside ``[2^-257, 2^256)``) brings that entry into
    [1/2, 1) and scales the decoded matrix by ``2^s``.  Both are undone
    exactly on the matrix and the residual.  A map and measurements in
    range run as given.
    """
    N = info.N
    G, pinv, map_shift = info._projector
    Y = np.array(Y, dtype=float)
    results: list[Optional[DecoderResult]] = [None] * len(Y)
    shifts, tols = [], []
    for i, y in enumerate(Y):
        shift = _safe_shift(math.frexp(float(np.abs(y).max()))[1] + map_shift)
        if map_shift + shift:
            Y[i] = np.ldexp(y, map_shift + shift)
        shifts.append(shift)
        tols.append(_ldexp(tol, map_shift + shift))
        ynorm = float(np.linalg.norm(Y[i]))
        if ynorm <= tols[i]:
            results[i] = DecoderResult(
                np.zeros((N, N)), True, 0, _ldexp(ynorm, -map_shift - shift))
    live = [i for i, r in enumerate(results) if r is None]
    if not live:
        return results

    pinv_t = pinv.T
    Y = Y[live]

    def project(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return V - ((V @ G.T - Y) @ pinv_t) @ G

    V = np.zeros((len(live), N * N))
    gamma = 0.5 * np.linalg.norm(project(V, Y), axis=1)
    for iterations in range(1, steps + 1):
        X = project(V, Y)
        Z = _svt_stack((2.0 * X - V).reshape(-1, N, N), gamma).reshape(-1, N * N)
        V += _RELAXATION * (Z - X)
        if iterations % 10 and iterations < steps:
            continue
        stay = []
        for row, i in enumerate(live):
            z = Z[row].copy()  # the buffer returned, so the residual is its own
            residual = float(np.linalg.norm(G @ z - Y[row]))
            gap = float(np.linalg.norm(z - X[row]))
            converged = (residual <= tols[i]
                         and gap <= 1e-8 * max(1.0, float(np.linalg.norm(X[row]))))
            if converged or iterations == steps:
                if shifts[i]:
                    z = np.ldexp(z, -shifts[i])
                results[i] = DecoderResult(z.reshape(N, N), converged, iterations,
                                           _ldexp(residual, -map_shift - shifts[i]))
            else:
                stay.append(row)
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[row] for row in stay]
            V, Y, gamma = V[stay], Y[stay], gamma[stay]
    return results


def nuclear_decoder(
    info: InfoMap,
    y: np.ndarray,
    tol: float = 1e-6,
    *,
    max_iter: int = _MAX_STEPS,
) -> DecoderResult:
    """Approximate ``argmin ||Z||_nuclear  s.t.  info(Z) = y``.

    Over-relaxed Douglas–Rachford splitting on the exact constraint: with
    ``P`` the orthogonal projection onto ``{Z : info(Z) = y}`` (through
    the pseudo-inverse of the m x m Gram matrix ``G G^T``), each step is
    ``x = P(v)``, ``z = SVT_gamma(2x - v)``, ``v += lambda (z - x)`` with
    the fixed relaxation ``lambda = 1.8``.  The update vanishes exactly
    where ``z = x``, so every ``lambda`` has the plain (``lambda = 1``)
    iteration's fixed points and the same minimizer ``P(v*)``; for
    ``lambda`` in (0, 2) the relaxed iteration still converges
    (Eckstein–Bertsekas 1992), and 1.8 takes about 40% fewer steps on
    the recovery sweeps than 1.  Rows that are linearly dependent, or
    more than ``N^2``, are handled by the pseudo-inverse: ``P`` projects
    onto the least-squares solutions.  The singular-value thresholding
    ``SVT_gamma`` comes from one symmetric eigendecomposition of the
    N x N Gram matrix ``W^T W`` (:func:`_svt_stack`), not an SVD.  The step
    is ``gamma = ||P(0)||_F / 2``, half the norm of the least-norm
    feasible point, so the iterates scale with ``y``.  Every 10 steps it
    stops once ``||info(z) - y|| <= tol`` and the fixed-point gap
    ``||z - x||`` is within ``1e-8 max(1, ||x||)``; ``converged`` reports
    both tests.  A map or a ``y`` whose largest entry is below ``2^-257``
    or at least ``2^256`` is decoded at a power-of-two scale and scaled
    back exactly (:func:`_decode_stack`), so tiny measurements do not read
    as zero, huge ones do not overflow, and a map scaled by ``2^k``, with
    ``y`` and ``tol``, decodes to the same matrix.  Deterministic; never
    raises on non-convergence — the flag, the step count and the residual
    of the returned ``z`` say so.  Complex or non-finite measurements, a ``tol``
    that is not positive and finite, and a ``max_iter`` that is not a
    positive integer raise ``ValueError``.
    """
    y = np.asarray(as_real(y), dtype=float).ravel()
    if y.shape != (info.m,):
        raise ValueError(f"expected {info.m} measurements, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    _require_tol(tol)
    if (steps := as_int(max_iter)) is None or steps < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    return _decode_stack(info, y[None], tol, steps)[0]


# ---------------------------------------------------------------------------
# worst-case error over a structured battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryResult:
    """Measured worst-case recovery error of the Gaussian/nuclear scheme.

    ``worst_error`` is the battery maximum — a lower estimate of the
    scheme's true supremum over the whole ball, recorded as such.
    """

    N: int
    p: Exponent
    q: Exponent
    m: int
    worst_error: float
    errors: tuple[float, ...]
    labels: tuple[str, ...]
    diagnostics: dict


def _test_battery(
    N: int, p: Exponent, rng: np.random.Generator, budget: int
) -> list[tuple[str, np.ndarray]]:
    """Unit-p-norm test matrices: rank-one extremes are mandatory, then a
    flat rank ladder and Gaussian mixtures probe every spectral shape."""
    def unit(label: str, X: np.ndarray) -> tuple[str, np.ndarray]:
        return label, X / schatten_norm(X, p)

    battery = []
    corner = np.zeros((N, N))
    corner[0, 0] = 1.0
    battery.append(("rank-one-corner", corner))
    u = rng.standard_normal(N)
    v = rng.standard_normal(N)
    battery.append(unit("rank-one-random", np.outer(u, v)))
    battery.append(unit("identity-flat", np.eye(N)))
    k = 2
    while k < N and len(battery) < budget:
        qu, _ = np.linalg.qr(rng.standard_normal((N, k)))
        qv, _ = np.linalg.qr(rng.standard_normal((N, k)))
        battery.append(unit(f"flat-rank-{k}", qu @ qv.T))
        k *= 2
    while len(battery) < budget:
        battery.append(
            unit(f"gaussian-{len(battery)}", rng.standard_normal((N, N)))
        )
    return battery[:budget]


def worst_case_error(
    N: int,
    p,
    q,
    m: int,
    *,
    test_budget: int = 12,
    seed: int = 0,
    tol: float = 1e-6,
) -> RecoveryResult:
    """Battery maximum of ``||X - decode(measure(X))||_q`` over ``B_p``.

    The scheme is the seeded Gaussian map with the nuclear decoder, run
    on the whole battery in lockstep (:func:`_decode_stack`): each
    instance gets the decode :func:`nuclear_decoder` gives it alone, up to
    rounding.  Each instance keeps the better of the decode and the zero
    matrix (the optimal scheme the envelope quantifies over is at least
    that good).
    ``m = 0`` means no information: the decode is 0 for every instance.
    """
    recovery_envelope(p, q, N, m)  # validates the regime, N and m
    pe, qe = as_exponent(p), as_exponent(q)
    N, m = as_matrix_side(N), as_int(m)
    if (budget := as_int(test_budget)) is None or budget < 3:
        raise ValueError("test_budget must be an integer that covers the mandatory "
                         f"instances (>= 3), got {test_budget!r}")
    _require_tol(tol)
    rng = np.random.default_rng(seed)
    battery = _test_battery(N, pe, rng, budget)
    info = build_info_map(N, m, seed) if m >= 1 else None

    decodes = ([None] * len(battery) if info is None else _decode_stack(
        info, np.array([apply_info_map(info, X) for _, X in battery]), tol, _MAX_STEPS))
    errors = []
    labels = []
    fallbacks = 0
    non_converged = 0
    max_residual = 0.0
    total_iterations = 0
    for (label, X), result in zip(battery, decodes):
        if result is None:
            decoded = np.zeros((N, N))
        else:
            decoded = result.matrix
            max_residual = max(max_residual, result.residual)
            total_iterations += result.iterations
            if not result.converged:
                non_converged += 1
        err = schatten_norm(X - decoded, qe)
        zero_err = schatten_norm(X, qe)
        if err > zero_err:
            err = zero_err
            fallbacks += 1
        errors.append(err)
        labels.append(label)
    return RecoveryResult(
        N=N,
        p=pe,
        q=qe,
        m=m,
        worst_error=max(errors),
        errors=tuple(errors),
        labels=tuple(labels),
        diagnostics={
            "seed": seed,
            "tol": tol,
            "fallbacks_to_zero": fallbacks,
            "non_converged": non_converged,
            "max_residual": max_residual,
            "total_iterations": total_iterations,
        },
    )


@dataclass(frozen=True)
class EnvelopeRatio:
    """One row of the recovery-vs-envelope comparison ledger."""

    N: int
    p: Exponent
    q: Exponent
    m: int
    worst_error: float
    envelope: float
    ratio: float
    log_ratio: float


def compare_to_envelope(result: RecoveryResult) -> EnvelopeRatio:
    """Ratio of the measured worst error to the predicted optimal error."""
    env = recovery_envelope(result.p, result.q, result.N, result.m).value_upper
    ratio = result.worst_error / env
    return EnvelopeRatio(
        N=result.N,
        p=result.p,
        q=result.q,
        m=result.m,
        worst_error=result.worst_error,
        envelope=env,
        ratio=ratio,
        log_ratio=math.log(ratio) if ratio > 0 else -math.inf,
    )
