"""Certified one-sided bounds on s-numbers with checkable witnesses.

Each constructor returns a :class:`Certificate`: a numeric bound on an
s-number of the embedding ``S_p^N -> S_q^N`` together with the method, the
witness data needed to re-check it, and the list of s-number kinds the
bound is valid for.  ``verify_certificate`` re-derives the bound — by
formula for the closed-form methods, by sampling the proof inequality for
the witness-based ones.

Soundness conventions:

* every *upper* certificate here bounds the approximation number, hence
  also the Gelfand and Kolmogorov numbers (``c_n, d_n <= a_n``);
* *lower* certificates are tagged with the kinds they bound from below
  (a Gelfand lower bound is also an approximation lower bound, and so on);
* ``exact_constant`` distinguishes bounds that hold with constant 1 from
  asymptotic-constant bounds, which must not enter strict sandwich checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmbeddingSpec, as_int, embedding_norm, pi2_embedding, schatten_norm
from .exponents import Fraction, inv, npower

__all__ = [
    "Certificate",
    "VerificationReport",
    "lower_certificates",
    "lower_gks_kolmogorov",
    "lower_multiplicativity",
    "lower_two_summing",
    "upper_certificates",
    "upper_column_zero",
    "upper_factor_through_S2",
    "upper_trivial",
    "verify_certificate",
]


@dataclass(frozen=True)
class Certificate:
    """A one-sided certified bound on an s-number.

    Attributes
    ----------
    snumber_kind:
        Primary kind the method natively bounds.
    direction:
        ``"upper"`` or ``"lower"``.
    value:
        The certified bound.
    method:
        One of ``"column-zero"``, ``"factor-through-hilbert"``,
        ``"trivial-norm"``, ``"two-summing"``, ``"gks-kolmogorov"``,
        ``"multiplicativity"``.
    spec:
        The embedding (and index) the bound refers to.
    witness:
        Method-specific data sufficient to re-check the bound.
    exact_constant:
        True when the bound holds with constant exactly 1.
    applies_to:
        All s-number kinds the bound is valid for.
    """

    snumber_kind: str
    direction: str
    value: float
    method: str
    spec: EmbeddingSpec
    witness: dict
    exact_constant: bool
    applies_to: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-checking a certificate."""

    method: str
    samples: int
    max_ratio: float
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def upper_column_zero(spec: EmbeddingSpec) -> Certificate:
    """Approximation-number upper bound by keeping whole columns.

    Requires ``q <= p``.  With ``k = floor((n-1)/N)`` the operator that
    keeps the first ``k`` columns has rank ``k*N < n``, and the residual
    (a matrix supported on ``N - k = ceil((N^2-n+1)/N)`` columns) satisfies
    the rank-based norm comparison, giving

    ``a_n <= ceil((N^2 - n + 1) / N) ^ (1/q - 1/p)``.
    """
    p, q, N = spec.p, spec.q, spec.N
    n = spec.require_index()
    if not q <= p:
        raise ValueError(
            f"column-zero upper bound needs q <= p, got p={p}, q={q}"
        )
    k = (n - 1) // N
    residual_columns = N - k
    value = float(residual_columns) ** float(inv(q) - inv(p))
    return Certificate(
        snumber_kind="approximation",
        direction="upper",
        value=value,
        method="column-zero",
        spec=spec,
        witness={
            "kept_columns": k,
            "projection_rank": k * N,
            "residual_columns": residual_columns,
        },
        exact_constant=True,
        applies_to=("approximation", "gelfand", "kolmogorov"),
    )


def upper_factor_through_S2(spec: EmbeddingSpec) -> Certificate:
    """Approximation-number upper bound by factoring through the Frobenius class.

    Requires ``2 <= p`` and ``2 <= q``.  Splitting the embedding as
    ``S_p -> S_2 -> S_q`` and approximating the middle leg gives

    ``a_n <~ N^(1/2-1/p) * max(N^(1/q-1/2), sqrt((N^2-n+1)/N^2))``,

    an asymptotic-constant bound (``exact_constant=False``).
    """
    p, q, N = spec.p, spec.q, spec.N
    n = spec.require_index()
    if p < 2 or q < 2:
        raise ValueError(
            f"factor-through-Hilbert upper bound needs p, q >= 2, got p={p}, q={q}"
        )
    r = N * N - n + 1
    value = npower(N, Fraction(1, 2) - inv(p)) * max(
        npower(N, inv(q) - Fraction(1, 2)), math.sqrt(r / (N * N))
    )
    return Certificate(
        snumber_kind="approximation",
        direction="upper",
        value=value,
        method="factor-through-hilbert",
        spec=spec,
        witness={"inner_exponent": 2, "residual_dimension": r},
        exact_constant=False,
        applies_to=("approximation", "gelfand", "kolmogorov"),
    )


def upper_trivial(spec: EmbeddingSpec) -> Certificate:
    """The operator norm as an upper bound, valid for every kind and index."""
    value = embedding_norm(spec.p, spec.q, spec.N)
    return Certificate(
        snumber_kind="approximation",
        direction="upper",
        value=value,
        method="trivial-norm",
        spec=spec,
        witness={},
        exact_constant=True,
        applies_to=("approximation", "gelfand", "kolmogorov"),
    )


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------


def lower_two_summing(spec: EmbeddingSpec) -> Certificate:
    """Gelfand-number lower bound from the 2-summing norm of the inverse.

    Requires Banach exponents.  Restricting an embedding of an
    ``N^2``-dimensional space to any subspace of codimension ``n-1`` leaves
    dimension ``N^2-n+1``, and the 2-summing norm of the inverse embedding
    controls how small the restriction norm can get:

    ``c_n >= sqrt(N^2 - n + 1) / pi2(S_q^N -> S_p^N)``.
    """
    p, q, N = spec.p, spec.q, spec.N
    n = spec.require_index()
    if p < 1 or q < 1:
        raise ValueError(
            f"two-summing lower bound needs Banach exponents, got p={p}, q={q}"
        )
    r = N * N - n + 1
    pi2_inverse = pi2_embedding(q, p, N)
    value = math.sqrt(r) / pi2_inverse
    return Certificate(
        snumber_kind="gelfand",
        direction="lower",
        value=value,
        method="two-summing",
        spec=spec,
        witness={"pi2_inverse": pi2_inverse, "residual_dimension": r},
        exact_constant=True,
        applies_to=("gelfand", "approximation"),
    )


def lower_gks_kolmogorov(spec: EmbeddingSpec) -> Certificate:
    """Kolmogorov-number lower bound for ``1 <= p <= 2 <= q <= inf``:

    ``d_n >= (N^2 - sqrt((n-1) N^2)) / (sqrt((n-1) N^2) N^(-1/2+1/p) + N^2)``.
    """
    p, q, N = spec.p, spec.q, spec.N
    n = spec.require_index()
    if not (1 <= p <= 2):
        raise ValueError(f"this lower bound needs 1 <= p <= 2, got p={p}")
    if not q >= 2:
        raise ValueError(f"this lower bound needs q >= 2, got q={q}")
    full = N * N
    root = math.sqrt((n - 1) * full)
    value = (full - root) / (root * npower(N, inv(p) - Fraction(1, 2)) + full)
    return Certificate(
        snumber_kind="kolmogorov",
        direction="lower",
        value=value,
        method="gks-kolmogorov",
        spec=spec,
        witness={"gaussian_term": root},
        exact_constant=True,
        applies_to=("kolmogorov", "approximation"),
    )


def lower_multiplicativity(spec: EmbeddingSpec) -> Certificate:
    """Lower bound from s-number multiplicativity, for ``p <= q``.

    Composing ``S_p -> S_q -> S_p`` gives the identity, whose ``N^2``-th
    s-number is 1; the column-zero upper bound on the return leg at index
    ``N^2 - n + 1`` then forces

    ``s_n >= ceil(n / N) ^ -(1/p - 1/q)``

    for every multiplicative s-number scale (all three kinds here).
    """
    p, q, N = spec.p, spec.q, spec.N
    n = spec.require_index()
    if not p <= q:
        raise ValueError(f"multiplicativity lower bound needs p <= q, got p={p}, q={q}")
    return_index = N * N - n + 1
    return_cert = upper_column_zero(EmbeddingSpec(q, p, N, return_index))
    value = 1.0 / return_cert.value
    return Certificate(
        snumber_kind="approximation",
        direction="lower",
        value=value,
        method="multiplicativity",
        spec=spec,
        witness={
            "return_index": return_index,
            "return_upper_value": return_cert.value,
            "ceil_blocks": -(-n // N),
        },
        exact_constant=True,
        applies_to=("approximation", "gelfand", "kolmogorov"),
    )


# ---------------------------------------------------------------------------
# collections
# ---------------------------------------------------------------------------


def upper_certificates(spec: EmbeddingSpec, kind: str = "approximation") -> list[Certificate]:
    """All applicable upper certificates for ``kind`` at this spec."""
    certs = [upper_trivial(spec)]
    if spec.q <= spec.p:
        certs.append(upper_column_zero(spec))
    if spec.p >= 2 and spec.q >= 2:
        certs.append(upper_factor_through_S2(spec))
    return [c for c in certs if kind in c.applies_to]


def lower_certificates(spec: EmbeddingSpec, kind: str = "approximation") -> list[Certificate]:
    """All applicable lower certificates for ``kind`` at this spec."""
    certs = []
    if spec.p >= 1 and spec.q >= 1:
        certs.append(lower_two_summing(spec))
    if 1 <= spec.p <= 2 and spec.q >= 2:
        certs.append(lower_gks_kolmogorov(spec))
    if spec.p <= spec.q:
        certs.append(lower_multiplicativity(spec))
    return [c for c in certs if kind in c.applies_to]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _verify_column_zero(cert: Certificate, samples: int, seed: int) -> VerificationReport:
    spec = cert.spec
    N, n = spec.N, spec.require_index()
    k = cert.witness["kept_columns"]
    if k != (n - 1) // N or cert.witness["projection_rank"] != k * N:
        return VerificationReport(cert.method, 0, math.inf, False, "witness inconsistent")
    if k * N >= n:
        return VerificationReport(cert.method, 0, math.inf, False, "witness rank too large")
    return _verify_sampled(cert, samples, seed, k)


def _verify_sampled(
    cert: Certificate, samples: int, seed: int, kept_columns: int
) -> VerificationReport:
    """Worst ratio ``||A, kept columns zeroed||_q / (value * ||A||_p)`` over
    ``samples`` seeded Gaussian matrices ``A``, drawn and normed as one stack."""
    spec = cert.spec
    a = np.random.default_rng(seed).standard_normal((samples, spec.N, spec.N))
    residual = a.copy()
    residual[:, :, :kept_columns] = 0.0
    ratios = schatten_norm(residual, spec.q) / (cert.value * schatten_norm(a, spec.p))
    worst = float(ratios.max())
    passed = worst <= 1.0 + 1e-9
    return VerificationReport(
        cert.method, samples, worst, passed, f"max sampled ratio {worst:.6g}"
    )


_FORMULA_BUILDERS = {
    "two-summing": lower_two_summing,
    "gks-kolmogorov": lower_gks_kolmogorov,
    "multiplicativity": lower_multiplicativity,
    "factor-through-hilbert": upper_factor_through_S2,
}


def verify_certificate(
    cert: Certificate, samples: int = 200, seed: int = 0
) -> VerificationReport:
    """Re-check a certificate.

    Witness-based methods (``column-zero``, ``trivial-norm``) draw
    ``samples`` seeded Gaussian matrices and test the proof inequality;
    closed-form methods are recomputed from the spec and compared at 1e-12
    relative tolerance.  A tampered ``value`` fails in both cases.
    ``samples`` must be a positive integer: a check that draws nothing
    verifies nothing.
    """
    count = as_int(samples)
    if count is None or count < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if cert.method == "column-zero":
        return _verify_column_zero(cert, count, seed)
    if cert.method == "trivial-norm":
        return _verify_sampled(cert, count, seed, 0)
    builder = _FORMULA_BUILDERS.get(cert.method)
    if builder is None:
        raise ValueError(f"unknown certificate method {cert.method!r}")
    fresh = builder(cert.spec)
    ratio = fresh.value / cert.value if cert.value != 0 else math.inf
    passed = abs(ratio - 1.0) <= 1e-12
    return VerificationReport(
        cert.method,
        0,
        ratio,
        passed,
        f"recomputed/claimed = {ratio:.15g}",
    )
