"""Low-rank matrix recovery from Gaussian measurements vs. the envelope.

The width theory predicts the optimal worst-case error of recovering a
matrix from ``m`` linear samples: for quasi-norm balls it decays like
``min(1, N/m)^(1/p - 1/q)``.  This module realizes the standard scheme —
an i.i.d. Gaussian information map with a nuclear-norm-minimizing
decoder — measures its error on a structured test battery, and compares
against :func:`schatten_widths.envelope.recovery_envelope`.

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

import numpy as np

from .core import as_int, as_matrix_side, schatten_norm
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
    """A linear information map ``X -> (<A_1, X>, ..., <A_m, X>)``."""

    matrices: np.ndarray  # (m, N, N)
    seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrices, dtype=float)
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


def build_info_map(N: int, m: int, seed: int = 0) -> InfoMap:
    """Gaussian information map with entry variance ``1/m``."""
    N, m_int = as_matrix_side(N), as_int(m)
    if m_int is None or m_int < 1:
        raise ValueError(f"measurement count m must be >= 1, got {m!r}")
    m = m_int
    rng = np.random.default_rng(seed)
    return InfoMap(rng.standard_normal((m, N, N)) / math.sqrt(m), seed)


def apply_info_map(info: InfoMap, X: np.ndarray) -> np.ndarray:
    """Evaluate ``y_i = trace(A_i^T X)``; linear in ``X``."""
    X = np.asarray(X, dtype=float)
    if X.shape != (info.N, info.N):
        raise ValueError(
            f"matrix shape {X.shape} does not match the map's ({info.N}, {info.N})"
        )
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


def _svt(W: np.ndarray, threshold: float) -> np.ndarray:
    """Singular-value soft-thresholding, the nuclear-norm prox."""
    u, s, vt = np.linalg.svd(W, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    keep = s > 0.0
    if not np.any(keep):
        return np.zeros_like(W)
    return (u[:, keep] * s[keep]) @ vt[keep]


def nuclear_decoder(
    info: InfoMap,
    y: np.ndarray,
    tol: float = 1e-6,
    *,
    max_iter: int = 6000,
) -> DecoderResult:
    """Approximate ``argmin ||Z||_nuclear  s.t.  info(Z) = y``.

    Douglas–Rachford splitting on the exact constraint: with ``P`` the
    orthogonal projection onto ``{Z : info(Z) = y}`` (through the m x m
    Gram matrix ``G G^T``), each step is ``x = P(v)``,
    ``z = SVT_gamma(2x - v)``, ``v += z - x``.  The step is
    ``gamma = ||P(0)||_F / 2``, half the norm of the least-norm feasible
    point, so the iterates scale with ``y``.  Every 10 steps it stops
    once ``||info(z) - y|| <= tol`` and the fixed-point gap ``||z - x||``
    is within ``1e-8 max(1, ||x||)``; ``converged`` reports both tests.
    Deterministic; never raises on non-convergence — the flag, the step
    count and the residual of the returned ``z`` say so.
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.shape != (info.m,):
        raise ValueError(f"expected {info.m} measurements, got shape {y.shape}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    N = info.N
    G = info.as_rows
    ynorm = float(np.linalg.norm(y))
    if ynorm <= tol:
        return DecoderResult(np.zeros((N, N)), True, 0, ynorm)

    gram_inv = np.linalg.inv(G @ G.T)

    def project(v: np.ndarray) -> np.ndarray:
        return v - (G.T @ (gram_inv @ (G @ v - y)))

    v = np.zeros(N * N)
    gamma = 0.5 * float(np.linalg.norm(project(v)))
    for iterations in range(1, max_iter + 1):
        x = project(v)
        z = _svt((2.0 * x - v).reshape(N, N), gamma).ravel()
        v += z - x
        if iterations % 10 and iterations < max_iter:
            continue
        residual = float(np.linalg.norm(G @ z - y))
        gap = float(np.linalg.norm(z - x))
        converged = residual <= tol and gap <= 1e-8 * max(1.0, float(np.linalg.norm(x)))
        if converged:
            break
    return DecoderResult(z.reshape(N, N), converged, iterations, residual)


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

    The scheme is the seeded Gaussian map with the nuclear decoder; each
    instance keeps the better of the decode and the zero matrix (the
    optimal scheme the envelope quantifies over is at least that good).
    ``m = 0`` means no information: the decode is 0 for every instance.
    """
    recovery_envelope(p, q, N, m)  # validates the regime, N and m
    pe, qe = as_exponent(p), as_exponent(q)
    N, m = as_matrix_side(N), as_int(m)
    if test_budget < 3:
        raise ValueError("test_budget must cover the mandatory instances (>= 3)")
    rng = np.random.default_rng(seed)
    battery = _test_battery(N, pe, rng, test_budget)
    info = build_info_map(N, m, seed) if m >= 1 else None

    errors = []
    labels = []
    fallbacks = 0
    non_converged = 0
    max_residual = 0.0
    total_iterations = 0
    for label, X in battery:
        if info is None:
            decoded = np.zeros((N, N))
        else:
            result = nuclear_decoder(info, apply_info_map(info, X), tol)
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
