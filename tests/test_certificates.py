"""Certified bounds: builders, applicability rules, and re-verification."""
import dataclasses
import math

import numpy as np
import pytest

from schatten_widths.certificates import (
    lower_certificates,
    lower_gks_kolmogorov,
    lower_multiplicativity,
    lower_two_summing,
    upper_certificates,
    upper_column_zero,
    upper_factor_through_S2,
    upper_trivial,
    verify_certificate,
)
from schatten_widths.core import EmbeddingSpec, embedding_norm, schatten_norm


# ---------------------------------------------------------------------------
# builder pins
# ---------------------------------------------------------------------------


def test_column_zero_pinned_example():
    cert = upper_column_zero(EmbeddingSpec("inf", "1", 4, n=9))
    assert cert.value == pytest.approx(2.0)
    assert cert.direction == "upper"
    assert cert.method == "column-zero"
    assert cert.exact_constant
    assert cert.witness == {"kept_columns": 2, "projection_rank": 8, "residual_columns": 2}


@pytest.mark.parametrize(
    "p,q,N,n,expected",
    [
        ("inf", "1", 4, 1, 4.0),  # no columns kept: full norm
        ("inf", "1", 4, 16, 1.0),  # index N^2: one residual column, norm 1
        ("1", "1/2", 3, 4, 2.0),  # ceil((9-4+1)/3)^(2-1)
    ],
)
def test_column_zero_formula(p, q, N, n, expected):
    cert = upper_column_zero(EmbeddingSpec(p, q, N, n=n))
    assert cert.value == pytest.approx(expected)
    assert cert.witness["projection_rank"] < n


def test_two_summing_pinned_example():
    cert = lower_two_summing(EmbeddingSpec("1", "inf", 2, n=1))
    # sqrt(N^2) / pi2(S_inf -> S_1) = 2 / 2^(3/2)
    assert cert.value == pytest.approx(2.0**-0.5)
    assert cert.direction == "lower"
    assert cert.exact_constant
    assert cert.witness["residual_dimension"] == 4


def test_gks_pins():
    cert = lower_gks_kolmogorov(EmbeddingSpec("1", "inf", 3, n=1))
    assert cert.value == pytest.approx(1.0)  # n=1: the norm itself, here 1
    cert = lower_gks_kolmogorov(EmbeddingSpec("2", "2", 2, n=2))
    root = math.sqrt(4.0)
    assert cert.value == pytest.approx((4.0 - root) / (root + 4.0))


def test_multiplicativity_pins():
    cert = lower_multiplicativity(EmbeddingSpec("1", "inf", 4, n=16))
    assert cert.value == pytest.approx(0.25)  # N^(1/q - 1/p) at the last index
    assert cert.witness["ceil_blocks"] == 4
    cert = lower_multiplicativity(EmbeddingSpec("1/2", "1", 2, n=3))
    assert cert.value == pytest.approx(0.5)  # ceil(3/2)^-(2-1)
    assert cert.exact_constant


def test_trivial_upper_is_the_embedding_norm():
    spec = EmbeddingSpec("inf", "1/2", 3, n=5)
    assert upper_trivial(spec).value == pytest.approx(embedding_norm("inf", "1/2", 3))


def test_factor_through_hilbert_is_asymptotic_only():
    cert = upper_factor_through_S2(EmbeddingSpec("2", "4", 4, n=10))
    assert not cert.exact_constant
    assert cert.value == pytest.approx(max(4.0 ** (1.0 / 4.0 - 0.5), math.sqrt(7.0 / 16.0)))


# ---------------------------------------------------------------------------
# applicability
# ---------------------------------------------------------------------------


def test_builders_reject_out_of_domain():
    with pytest.raises(ValueError):
        upper_column_zero(EmbeddingSpec("1", "2", 3, n=2))  # needs q <= p
    with pytest.raises(ValueError):
        upper_factor_through_S2(EmbeddingSpec("1", "4", 3, n=2))  # needs p >= 2
    with pytest.raises(ValueError):
        lower_two_summing(EmbeddingSpec("1/2", "1", 3, n=2))  # Banach only
    with pytest.raises(ValueError):
        lower_gks_kolmogorov(EmbeddingSpec("4", "inf", 3, n=2))  # needs p <= 2
    with pytest.raises(ValueError):
        lower_multiplicativity(EmbeddingSpec("2", "1", 3, n=2))  # needs p <= q


def test_collections_respect_applicability_and_kind():
    spec = EmbeddingSpec("inf", "1", 3, n=4)  # q <= p: column-zero applies
    methods = {c.method for c in upper_certificates(spec)}
    assert methods == {"trivial-norm", "column-zero"}

    spec = EmbeddingSpec("2", "4", 3, n=4)  # p,q >= 2: hilbert factorization
    methods = {c.method for c in upper_certificates(spec)}
    assert methods == {"trivial-norm", "factor-through-hilbert"}

    spec = EmbeddingSpec("4/3", "4", 3, n=4)  # Banach, p <= 2 <= q: all lowers
    methods = {c.method for c in lower_certificates(spec)}
    assert methods == {"two-summing", "gks-kolmogorov", "multiplicativity"}

    # the GKS bound is native to Kolmogorov numbers, not Gelfand ones
    gelfand = {c.method for c in lower_certificates(spec, kind="gelfand")}
    assert gelfand == {"two-summing", "multiplicativity"}
    # the two-summing bound is native to Gelfand numbers, not Kolmogorov ones
    kolm = {c.method for c in lower_certificates(spec, kind="kolmogorov")}
    assert kolm == {"gks-kolmogorov", "multiplicativity"}

    spec = EmbeddingSpec("1/2", "1", 3, n=4)  # quasi-norm: only multiplicativity
    assert [c.method for c in lower_certificates(spec)] == ["multiplicativity"]


def test_every_certificate_respects_the_trivial_ordering():
    # any exact-constant lower bound is at most any exact-constant upper bound
    for p in ("1", "4/3", "2", "4", "inf"):
        for q in ("1", "4/3", "2", "4", "inf"):
            for n in (1, 3, 7, 9):
                spec = EmbeddingSpec(p, q, 3, n=n)
                lows = [c.value for c in lower_certificates(spec) if c.exact_constant]
                ups = [c.value for c in upper_certificates(spec) if c.exact_constant]
                if lows and ups:
                    assert max(lows) <= min(ups) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_passes_on_fresh_certificates():
    specs = [
        EmbeddingSpec("inf", "1", 4, n=9),
        EmbeddingSpec("2", "1/2", 3, n=5),
        EmbeddingSpec("4/3", "4", 3, n=4),
        EmbeddingSpec("1/2", "2", 2, n=2),
    ]
    for spec in specs:
        for cert in upper_certificates(spec) + lower_certificates(spec):
            report = verify_certificate(cert, samples=50, seed=3)
            assert report.passed, (cert.method, report.detail)
            assert report.method == cert.method


def test_verify_detects_tampered_formula_value():
    cert = lower_two_summing(EmbeddingSpec("1", "inf", 2, n=1))
    bad = dataclasses.replace(cert, value=cert.value * 0.9)
    assert not verify_certificate(bad).passed
    cert = lower_multiplicativity(EmbeddingSpec("1", "2", 3, n=5))
    bad = dataclasses.replace(cert, value=cert.value * 1.1)
    assert not verify_certificate(bad).passed


def test_verify_detects_tampered_sampling_value():
    # p = q makes the sampled ratio exactly 1, so any deflation must fail
    cert = upper_column_zero(EmbeddingSpec("2", "2", 4, n=1))
    assert verify_certificate(cert, samples=20, seed=1).passed
    bad = dataclasses.replace(cert, value=cert.value * 0.99)
    assert not verify_certificate(bad, samples=20, seed=1).passed


def test_verify_detects_tampered_witness():
    cert = upper_column_zero(EmbeddingSpec("inf", "1", 4, n=9))
    bad_witness = dict(cert.witness, kept_columns=3)
    bad = dataclasses.replace(cert, witness=bad_witness)
    report = verify_certificate(bad)
    assert not report.passed
    assert "witness" in report.detail


def test_verify_rejects_unknown_method():
    cert = upper_trivial(EmbeddingSpec("1", "2", 2, n=1))
    bad = dataclasses.replace(cert, method="telepathy")
    with pytest.raises(ValueError):
        verify_certificate(bad)


def test_verify_matches_batched_recheck_with_the_same_seed():
    """The batched verifier and a per-matrix recheck see the same stream."""
    spec = EmbeddingSpec("inf", "1", 4, n=9)
    cert = upper_column_zero(spec)
    samples, seed = 100, 42
    report = verify_certificate(cert, samples=samples, seed=seed)

    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((samples, 4, 4))
    k = cert.witness["kept_columns"]
    residual = batch.copy()
    residual[:, :, :k] = 0.0
    ratios = [
        schatten_norm(residual[i], spec.q) / (cert.value * schatten_norm(batch[i], spec.p))
        for i in range(samples)
    ]
    assert report.max_ratio == pytest.approx(max(ratios), abs=1e-9)
    assert report.passed


@pytest.mark.parametrize("samples", [0, -3, True, 2.0])
@pytest.mark.parametrize("method", ["column-zero", "trivial-norm", "multiplicativity"])
def test_verify_rejects_a_sample_count_below_one(method, samples):
    spec = EmbeddingSpec("1", "1", 2, n=3)
    cert = next(c for c in upper_certificates(spec) + lower_certificates(spec)
                if c.method == method)
    with pytest.raises(ValueError, match="samples"):
        verify_certificate(cert, samples=samples)
    assert verify_certificate(cert, samples=np.int64(1)).passed
