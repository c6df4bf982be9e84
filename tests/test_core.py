"""Core primitives: SVD, Schatten norms, embedding norms, hulls, interpolation."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths.acceptance import EXPONENT_GRID
from schatten_widths.core import (
    EmbeddingSpec,
    embedding_norm,
    hull_decompose,
    littlewood_check,
    pi2_embedding,
    schatten_norm,
    singular_values,
    svd,
)
from schatten_widths.exponents import as_exponent

EXPONENTS = ("1/2", "3/4", "1", "4/3", "2", "4", "inf")


def _reference_norm(a: np.ndarray, p) -> float:
    """Schatten norm straight from LAPACK singular values."""
    sig = np.linalg.svd(a, compute_uv=False)
    pe = as_exponent(p)
    if pe == math.inf:
        return float(sig[0])
    pf = float(pe)
    return float((sig**pf).sum() ** (1.0 / pf))


# ---------------------------------------------------------------------------
# svd and singular values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_jacobi_svd_reconstructs_and_is_orthogonal(N):
    rng = np.random.default_rng(7 * N)
    for _ in range(20):
        a = rng.standard_normal((N, N))
        u, sigma, v = svd(a)
        assert np.allclose(u @ np.diag(sigma) @ v.T, a, atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(N), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(N), atol=1e-10)
        assert np.all(np.diff(sigma) <= 1e-12)
        assert np.all(sigma >= 0)


def test_jacobi_svd_handles_rank_deficiency():
    rng = np.random.default_rng(11)
    a = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    _, sigma, _ = svd(a)
    assert sigma[0] > 0
    assert np.all(sigma[1:] <= 1e-10 * sigma[0])


def test_singular_values_match_lapack():
    rng = np.random.default_rng(3)
    for N in (2, 3, 4):
        a = rng.standard_normal((N, N))
        assert np.allclose(singular_values(a), np.linalg.svd(a, compute_uv=False), atol=1e-10)


# ---------------------------------------------------------------------------
# schatten_norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("N", [2, 3, 4])
def test_schatten_norm_matches_reference(p, N):
    rng = np.random.default_rng(19 + N)
    for _ in range(25):
        a = rng.standard_normal((N, N))
        assert schatten_norm(a, p) == pytest.approx(_reference_norm(a, p), rel=1e-10)


@pytest.mark.parametrize("p", EXPONENTS)
def test_schatten_norm_homogeneous_and_zero(p):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    assert schatten_norm(3.5 * a, p) == pytest.approx(3.5 * schatten_norm(a, p), rel=1e-12)
    assert schatten_norm(np.zeros((3, 3)), p) == 0.0


def test_schatten_norm_2x2_fast_path_agrees_with_lapack():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.standard_normal((2, 2))
        for p in EXPONENTS:
            assert schatten_norm(a, p) == pytest.approx(_reference_norm(a, p), rel=1e-11)


def test_schatten_norm_orthogonal_invariance():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4))
    q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    for p in ("1/2", "1", "3", "inf"):
        assert schatten_norm(q1 @ a @ q2, p) == pytest.approx(schatten_norm(a, p), rel=1e-10)


@pytest.mark.parametrize(
    "a, p, expected",
    [
        # the entries' squares overflow; the norm itself is representable
        (np.full((3, 3), 1e200), "2", 3e200),
        (1e308 * np.eye(3), "2", math.sqrt(3.0) * 1e308),
        # subnormal entries, whose squares underflow to zero
        (1e-310 * np.eye(3), "1/2", 9e-310),
        (1e308 * np.eye(2), "2", math.sqrt(2.0) * 1e308),
    ],
)
def test_schatten_norm_at_extreme_scales(a, p, expected):
    assert schatten_norm(a, p) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_schatten_norm_rejects_non_finite_entries(N, bad):
    a = np.eye(N)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        schatten_norm(a, "1")


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(2, 6),
    p=st.sampled_from(EXPONENT_GRID),
    k=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_schatten_norm_scale_and_orthogonal_invariance(N, p, k, seed):
    # N = 2 takes the closed-form branch, N >= 3 the LAPACK one
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N))
    q1, _ = np.linalg.qr(rng.standard_normal((N, N)))
    q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
    base = schatten_norm(a, p)
    scale = 10.0**k
    expected = pytest.approx(scale * base, rel=1e-10, abs=0.0)
    assert schatten_norm(scale * a, p) == expected
    assert schatten_norm(scale * (q1 @ a @ q2), p) == expected


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(1, 9),
    K=st.integers(1, 5),
    p=st.sampled_from(EXPONENT_GRID),
    rank=st.integers(0, 9),
    k=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_schatten_norm_of_a_stack_matches_each_matrix(N, K, p, rank, k, seed):
    # a 2x2 stack goes to LAPACK while a single 2x2 matrix takes the closed
    # form, and numpy sums in another order at N >= 8: agreement is to the
    # last digits, not bitwise
    rng = np.random.default_rng(seed)
    r = min(rank, N)
    stack = rng.standard_normal((K, N, r)) @ rng.standard_normal((K, r, N)) * 10.0**k
    norms = schatten_norm(stack, p)
    assert norms.shape == (K,)
    for i in range(K):
        assert norms[i] == pytest.approx(schatten_norm(stack[i], p), rel=1e-14, abs=0.0)


def test_stacks_keep_their_leading_shape():
    rng = np.random.default_rng(47)
    stack = rng.standard_normal((2, 3, 4, 4))
    assert singular_values(stack).shape == (2, 3, 4)
    assert np.array_equal(singular_values(stack)[1, 2], singular_values(stack[1, 2]))
    assert schatten_norm(stack, "inf").shape == (2, 3)
    assert isinstance(schatten_norm(stack[0, 0], "inf"), float)
    with pytest.raises(ValueError, match="square"):
        svd(stack[0])
    with pytest.raises(ValueError, match="finite"):
        schatten_norm(np.full((2, 3, 3), np.nan), "1")


@pytest.mark.parametrize(
    "a, expected",
    [([[3, 0], [0, 4]], 5.0), ([[3, 0, 0], [0, 4, 0], [0, 0, 0]], 5.0)],
)
def test_schatten_norm_accepts_array_likes(a, expected):
    assert schatten_norm(a, 2) == expected
    assert schatten_norm(a, "inf") == 4.0


def test_svd_2x2_whose_half_sums_overflow():
    # (a00 + a11) / 2 overflows in the closed form; LAPACK scales
    a = 1e308 * np.eye(2)
    u, sigma, v = svd(a)
    assert np.array_equal(sigma, [1e308, 1e308])
    assert np.allclose(u @ np.diag(sigma / 1e308) @ v.T, np.eye(2), atol=1e-15)
    assert np.array_equal(hull_decompose(a).weights, [1e308, 1e308])


# ---------------------------------------------------------------------------
# embedding norm and 2-summing norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,q,N,expected",
    [
        ("1", "inf", 4, 1.0),  # decreasing exponent: norm 1 at rank-one
        ("inf", "1", 4, 4.0),  # increasing: N^(1/q-1/p) = 4
        ("1/2", "2", 2, 1.0),
        ("2", "1/2", 2, 2.0 ** (2.0 - 0.5)),
        ("4/3", "4", 3, 1.0),
        ("4", "4/3", 3, 3.0 ** (3.0 / 4.0 - 1.0 / 4.0)),
        ("2", "2", 7, 1.0),
    ],
)
def test_embedding_norm_closed_form(p, q, N, expected):
    assert embedding_norm(p, q, N) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("q", EXPONENTS)
def test_embedding_norm_dominates_sampled_ratios(p, q):
    N = 3
    bound = embedding_norm(p, q, N)
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.standard_normal((N, N))
        ratio = schatten_norm(a, q) / schatten_norm(a, p)
        assert ratio <= bound * (1 + 1e-10)


@pytest.mark.parametrize(
    "p,q,N,expected",
    [
        ("1", "inf", 4, 2.0),  # sqrt(N)
        ("2", "2", 5, 5.0),  # identity on a Hilbert space of dimension N^2
        ("inf", "2", 3, 3.0),
        ("inf", "1", 2, 2.0**1.5),
    ],
)
def test_pi2_embedding_pinned_values(p, q, N, expected):
    assert pi2_embedding(p, q, N) == pytest.approx(expected, rel=1e-12)


def test_pi2_dominates_operator_norm():
    for p, q in (("1", "2"), ("2", "inf"), ("inf", "4/3")):
        for N in (2, 3):
            assert pi2_embedding(p, q, N) >= embedding_norm(p, q, N) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# multiplicative interpolation
# ---------------------------------------------------------------------------


def test_littlewood_endpoints_are_equalities():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((3, 3))
    r0 = littlewood_check(a, "4", "1", 0.0)
    assert r0.ok and r0.interpolated_norm == pytest.approx(r0.endpoint_q_norm, rel=1e-12)
    r1 = littlewood_check(a, "4", "1", 1.0)
    assert r1.ok and r1.interpolated_norm == pytest.approx(r1.endpoint_p_norm, rel=1e-12)


def test_littlewood_holds_on_random_matrices():
    rng = np.random.default_rng(53)
    for _ in range(300):
        N = int(rng.integers(2, 5))
        a = rng.standard_normal((N, N))
        ps, qs = rng.choice(EXPONENTS, size=2)
        assert littlewood_check(a, str(ps), str(qs), float(rng.uniform())).ok


def test_littlewood_rejects_bad_theta():
    with pytest.raises(ValueError):
        littlewood_check(np.eye(2), "1", "2", 1.5)


# ---------------------------------------------------------------------------
# hull decomposition
# ---------------------------------------------------------------------------


def test_hull_decompose_reconstructs_with_unit_summands():
    rng = np.random.default_rng(59)
    for _ in range(50):
        N = int(rng.integers(2, 6))
        a = rng.standard_normal((N, N))
        decomp = hull_decompose(a)
        assert np.allclose(decomp.reconstruct(), a, atol=1e-10 * np.linalg.norm(a))
        weights = decomp.weights
        assert np.all(weights > 0)
        assert np.all(np.diff(weights) <= 1e-12 * weights[0])
        for term in decomp.terms:
            assert np.linalg.norm(term.summand) == pytest.approx(1.0, abs=1e-12)
        # weights are exactly the singular values, so their sum is the trace norm
        assert weights.sum() == pytest.approx(schatten_norm(a, 1), rel=1e-10)


def test_hull_decompose_drops_zero_directions():
    rng = np.random.default_rng(61)
    a = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    decomp = hull_decompose(a)
    assert len(decomp.terms) == 1
    assert hull_decompose(np.zeros((3, 3))).terms == ()


def test_hull_decompose_of_entries_whose_squares_overflow():
    decomp = hull_decompose(np.full((3, 3), 1e200))
    assert len(decomp.terms) == 1
    assert decomp.terms[0].weight == pytest.approx(3e200, rel=1e-12)


# ---------------------------------------------------------------------------
# EmbeddingSpec
# ---------------------------------------------------------------------------


def test_embedding_spec_validates_and_describes():
    spec = EmbeddingSpec("4/3", "inf", 3, n=2)
    assert spec.dimension == 9
    assert spec.require_index() == 2
    assert spec.p == Fraction(4, 3)
    assert "S_4/3 -> S_inf" in spec.describe()
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", 0)
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", 2, n=5)
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", 2, n=0)
    with pytest.raises(ValueError):
        EmbeddingSpec("0", "2", 2)
    assert EmbeddingSpec("1", "2", 2).n is None
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", 2).require_index()


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integers_are_accepted_as_sizes_and_indices(integer):
    spec = EmbeddingSpec("1", "2", integer(3), n=integer(4))
    assert spec == EmbeddingSpec("1", "2", 3, n=4)
    assert type(spec.N) is int and type(spec.n) is int
    assert embedding_norm("1", "2", integer(4)) == embedding_norm("1", "2", 4)
    assert pi2_embedding("1", "2", integer(4)) == pi2_embedding("1", "2", 4)


@pytest.mark.parametrize("bad", [True, 3.0, 2.5, "3"])
def test_sizes_reject_bools_and_non_integers(bad):
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", bad)
    with pytest.raises(ValueError):
        EmbeddingSpec("1", "2", 3, n=bad)
    with pytest.raises(ValueError):
        embedding_norm("1", "2", bad)
    with pytest.raises(ValueError):
        pi2_embedding("1", "2", bad)
