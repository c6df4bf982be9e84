"""Core primitives: SVD, Schatten norms, embedding norms, hulls, interpolation."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths import core
from schatten_widths.acceptance import _RANDOM_EXPONENTS, EXPONENT_GRID
from schatten_widths.core import (
    RANK_CUTOFF,
    EmbeddingSpec,
    LittlewoodReport,
    embedding_norm,
    hull_decompose,
    littlewood_check,
    norm_and_gradient,
    norms_and_deferred_gradients,
    pi2_embedding,
    schatten_norm,
    singular_values,
    svd,
)
from schatten_widths.exponents import as_exponent, inv

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
def test_svd_reconstructs_and_is_orthogonal(N):
    rng = np.random.default_rng(7 * N)
    for _ in range(20):
        a = rng.standard_normal((N, N))
        u, sigma, v = svd(a)
        assert np.allclose(u @ np.diag(sigma) @ v.T, a, atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(N), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(N), atol=1e-10)
        assert np.all(np.diff(sigma) <= 1e-12)
        assert np.all(sigma >= 0)


def test_svd_handles_rank_deficiency():
    rng = np.random.default_rng(11)
    a = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    _, sigma, _ = svd(a)
    assert sigma[0] > 0
    assert np.all(sigma[1:] <= 1e-10 * sigma[0])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_svd_is_one_lapack_call(N, count_calls):
    calls = count_calls(core, "_lapack_svd")
    for a in (np.random.default_rng(N).standard_normal((N, N)), np.eye(N), np.zeros((N, N))):
        calls.clear()
        svd(a)
        assert len(calls) == 1


def test_singular_values_match_lapack():
    rng = np.random.default_rng(3)
    for N in (2, 3, 4):
        a = rng.standard_normal((N, N))
        assert np.allclose(singular_values(a), np.linalg.svd(a, compute_uv=False), atol=1e-10)


def _kernel_inputs(N: int, rng) -> list:
    """Gaussian, rank-deficient, widely scaled, subnormal and integer
    matrices of side N; 1e300 overflows the sum of squares that screens
    for non-finite entries."""
    a = rng.standard_normal((N, N))
    low = np.outer(rng.standard_normal(N), rng.standard_normal(N))
    return [a, low, 1e-150 * a, 1e150 * a, 1e300 * a, 1e-310 * a,
            rng.integers(-9, 10, (N, N)), np.zeros((N, N), dtype=np.int32)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8, 32])
def test_kernel_is_numpy_svd_bit_for_bit(N):
    # the same gufunc on the same array: U, s, V and the values alone
    rng = np.random.default_rng(100 + N)
    for a in _kernel_inputs(N, rng):
        u, sigma, v = svd(a)
        ref_u, ref_sigma, ref_vt = np.linalg.svd(a)
        assert u.dtype == sigma.dtype == v.dtype == np.float64
        assert np.array_equal(u, ref_u)
        assert np.array_equal(sigma, ref_sigma)
        assert np.array_equal(v.T, ref_vt)
        assert np.array_equal(singular_values(a), np.linalg.svd(a, compute_uv=False))
    stack = np.stack([rng.standard_normal((N, N)) for _ in range(5)])
    assert np.array_equal(singular_values(stack), np.linalg.svd(stack, compute_uv=False))


@pytest.mark.parametrize("N", [1, 2, 3, 8])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_entries_before_lapack(N, bad, count_calls):
    # LAPACK need not return on an infinite entry, so the check comes first
    calls = count_calls(core, "_lapack_svd")
    a = np.eye(N)
    a[-1, 0] = bad
    for call in (svd, singular_values, lambda m: schatten_norm(m, "1"),
                 lambda m: norm_and_gradient(m, "1"), lambda m: singular_values(m[None])):
        with pytest.raises(ValueError, match="finite"):
            call(a)
    assert calls == []


def test_kernel_rejects_stacks_and_non_square_input(count_calls):
    calls = count_calls(core, "_lapack_svd")
    for bad in (np.ones((2, 3, 3)), np.ones((3, 4)), np.ones(3), np.ones((0, 0))):
        with pytest.raises(ValueError):
            svd(bad)
    assert calls == []


@pytest.mark.parametrize("N", [2, 3])
def test_complex_input_is_rejected_on_every_path(N):
    # a cast to float dropped the imaginary part: the 1-norm of
    # (1 + 1j) I_3 read 3.0 instead of 3 sqrt(2)
    a = np.eye(N) * (1 + 1j)
    calls = (
        svd,
        singular_values,
        lambda m: schatten_norm(m, "1"),
        lambda m: schatten_norm(m.tolist(), "inf"),
        lambda m: schatten_norm(m[None], "2"),
        lambda m: singular_values(m[None]),
        lambda m: norm_and_gradient(m, "1/2"),
        lambda m: norms_and_deferred_gradients(m, ["1", "2"]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="real"):
            call(a)


@pytest.mark.skipif(not hasattr(core, "_gesdd_full"), reason="numpy < 2 runs np.linalg.svd")
def test_lapack_nonconvergence_raises_linalgerror_without_a_warning(monkeypatch):
    # the gufunc reports a failed convergence by the invalid flag, which the
    # entry's error state turns into LinAlgError, as np.linalg.svd does
    def failing(a, signature):
        return np.sqrt(-np.ones(a.shape[-1]))

    monkeypatch.setattr(core, "_gesdd_full", failing)
    monkeypatch.setattr(core, "_gesdd_values", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (svd, singular_values, lambda m: schatten_norm(m, "1")):
            with pytest.raises(np.linalg.LinAlgError, match="converge"):
                call(np.eye(3))


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


#: ||1e-300 * diag(1, 1)||_{1/2000} = 2^2000 * 1e-300: representable,
#: though the power sum's root 2^2000 is not
TWO_TO_THE_2000_TIMES_1E_300 = 2.0**1000 * (2.0**1000 * 1e-300)


@pytest.mark.parametrize(
    "a, p, expected",
    [
        # the entries' squares overflow; the norm itself is representable
        (np.full((3, 3), 1e200), "2", 3e200),
        (1e308 * np.eye(3), "2", math.sqrt(3.0) * 1e308),
        # subnormal entries, whose squares underflow to zero
        (1e-310 * np.eye(3), "1/2", 9e-310),
        (1e308 * np.eye(2), "2", math.sqrt(2.0) * 1e308),
        # a small exponent: the power sum's root overflows, the norm does not
        (1e-300 * np.eye(2), "1/2000", TWO_TO_THE_2000_TIMES_1E_300),
        (1e-300 * np.diag([1.0, 1.0, 0.0]), "1/2000", TWO_TO_THE_2000_TIMES_1E_300),
    ],
)
def test_schatten_norm_at_extreme_scales(a, p, expected):
    assert schatten_norm(a, p) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_schatten_norm_of_a_stack_whose_root_overflows():
    # one matrix takes the log-space root, the other the direct one
    stack = np.stack([1e-300 * np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 0.0, 0.0])])
    norms = schatten_norm(stack, "1/2000")
    assert norms[0] == pytest.approx(TWO_TO_THE_2000_TIMES_1E_300, rel=1e-12, abs=0.0)
    assert norms[1] == 1.0


# a small exponent's norm of an O(1) matrix beyond the float range:
# ||I_2||_{1/2000} = 2^2000 and ||I_3||_{1/1060} = 3^1060
@pytest.mark.parametrize("a, p", [(np.eye(2), "1/2000"), (np.eye(3), "1/1060")])
def test_schatten_norm_beyond_the_float_range_reads_inf(a, p):
    assert schatten_norm(a, p) == math.inf
    assert schatten_norm(a[None], p)[0] == math.inf


def test_norms_and_gradients_beyond_the_float_range_read_inf():
    ((value, gradient),) = norms_and_deferred_gradients(np.eye(3), ["1/1060"])
    assert value == math.inf
    assert gradient() is None  # the gradient's weights are not representable


def _overflowing(N):
    """Matrices whose spectral norm overflows, though every entry is finite."""
    if N < 4:
        return [np.full((N, N), 1e308)]
    skew = np.full((N, N), 5e307)
    skew[0, 1] = -5e307 / 3
    return [np.full((N, N), 1e308), skew]


@pytest.mark.parametrize("p", ["1/2", "1", "2", "inf"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_a_norm_that_overflows_reads_inf_on_every_path(N, p):
    # LAPACK returns an infinite top singular value here, and its ratio to
    # itself would read nan; the 2x2 split and its scaled fallback read inf
    for big in _overflowing(N):
        assert schatten_norm(big, p) == math.inf
        assert norm_and_gradient(big, p) == (math.inf, None)
        norms = schatten_norm(np.stack([big, np.eye(N), big]), p)
        assert norms[0] == norms[2] == math.inf
        # the finite member of the stack reads as it does alone
        assert norms[1] == schatten_norm(np.eye(N)[None], p)[0]


@pytest.mark.parametrize("N", [2, 3])
def test_schatten_norm_takes_numpy_scalar_exponents(N):
    # the same input contract as EmbeddingSpec, on both the closed-form
    # (N = 2) and the LAPACK (N = 3) path
    a = np.random.default_rng(53).standard_normal((N, N))
    assert schatten_norm(a, np.int64(2)) == schatten_norm(a, 2)
    assert schatten_norm(a, np.float32(0.5)) == schatten_norm(a, "1/2")
    assert schatten_norm(a, np.float64(np.inf)) == schatten_norm(a, "inf")
    assert schatten_norm(a[None], np.int64(4))[0] == pytest.approx(
        schatten_norm(a, 4), rel=4e-15)
    with pytest.raises(ValueError, match="number"):
        schatten_norm(a, np.True_)


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


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(1, 32),
    K=st.integers(1, 5),
    p=st.sampled_from(EXPONENT_GRID + ("1/3",)),
    rank=st.integers(0, 32),
    k=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_schatten_norm_of_a_stack_matches_each_matrix(N, K, p, rank, k, seed):
    # a stack is summed by numpy, a single matrix in Python floats (a 2x2
    # one from the closed form, not LAPACK): agreement is to the last
    # digits, not bitwise
    rng = np.random.default_rng(seed)
    r = min(rank, N)
    stack = rng.standard_normal((K, N, r)) @ rng.standard_normal((K, r, N)) * 10.0**k
    norms = schatten_norm(stack, p)
    assert norms.shape == (K,)
    for i in range(K):
        rel = 4e-15
        if N == 2:
            # the closed form's sigma_2 is a difference of split lengths,
            # accurate to ulps of sigma_1; a quasi-norm magnifies that
            # absolute error by (sigma_1 / sigma_2)^(1 - p)
            s1, s2 = singular_values(stack[i])
            if s2 > 1e-12 * s1:
                rel *= max(1.0, (s1 / s2) ** (1.0 - float(as_exponent(p))))
        assert norms[i] == pytest.approx(schatten_norm(stack[i], p), rel=rel, abs=0.0)


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
    # (a00 + a11) / 2 would overflow in the 2x2 split; LAPACK scales
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


def _styled_matrix(N: int, style: int, seed: int) -> np.ndarray:
    """Acceptance check 8's four matrix styles at a given N, from ``seed``;
    a rank-deficient matrix may be the zero matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((N, N))
    if style == 1:  # rank deficient
        r = int(rng.integers(0, N))
        a = rng.standard_normal((N, r)) @ rng.standard_normal((r, N))
    elif style == 2:  # scaled over 16 decades
        a = a * 10.0 ** int(rng.integers(-8, 9))
    elif style == 3:  # near-flat spectrum
        q_m, _ = np.linalg.qr(a)
        a = q_m + 1e-3 * rng.standard_normal((N, N))
    return a


def _reference_littlewood(a, p, q, theta) -> LittlewoodReport:
    """The check as three schatten_norm calls with a Fraction p_theta."""
    pe, qe = as_exponent(p), as_exponent(q)
    th = Fraction(theta)
    inv_theta = (1 - th) * inv(qe) + th * inv(pe)
    try:
        p_theta = math.inf if inv_theta == 0 else float(1 / inv_theta)
    except OverflowError:  # a tiny theta with one infinite exponent
        p_theta = math.inf
    n_theta, n_q, n_p = (schatten_norm(a, e) for e in (p_theta, qe, pe))
    ok = n_theta <= n_q ** (1.0 - float(th)) * n_p ** float(th) * (1.0 + 1e-12)
    return LittlewoodReport(ok, n_theta, n_q, n_p, p_theta)


def _report_bits(report: LittlewoodReport) -> tuple:
    return (report.ok, report.interpolated_norm.hex(), report.endpoint_q_norm.hex(),
            report.endpoint_p_norm.hex(), report.p_theta.hex())


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(1, 6),
    style=st.integers(0, 3),
    p=st.sampled_from(_RANDOM_EXPONENTS),
    q=st.sampled_from(_RANDOM_EXPONENTS),
    theta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_littlewood_check_matches_three_norm_calls_bit_for_bit(N, style, p, q, theta, seed):
    # one spectrum and an integer-arithmetic p_theta give the same report
    # as three factorizations and Fraction arithmetic
    a = _styled_matrix(N, style, seed)
    report = littlewood_check(a, p, q, theta)
    assert type(report.ok) is bool
    assert _report_bits(report) == _report_bits(_reference_littlewood(a, p, q, theta))


@pytest.mark.parametrize("N", [1, 3, 4, 5])
def test_littlewood_check_factors_once(count_calls, N):
    calls = count_calls(core, "_lapack_svd")
    littlewood_check(np.random.default_rng(N).standard_normal((N, N)), "1/2", "4", 0.3)
    assert len(calls) == 1


def test_littlewood_check_splits_once_at_n2(count_calls):
    splits = count_calls(core, "spectrum_2x2")
    factorizations = count_calls(core, "_lapack_svd")
    littlewood_check(np.random.default_rng(2).standard_normal((2, 2)), "1/2", "4", 0.3)
    assert (len(splits), len(factorizations)) == (1, 0)


@pytest.mark.parametrize("scale", [1e-318, 1e-321])
def test_littlewood_holds_on_subnormal_matrices(scale):
    # at a subnormal scale the norms round to few bits; the check is
    # decided on the matrix scaled by a power of two
    rng = np.random.default_rng(3)
    for _ in range(3000):
        N = int(rng.integers(2, 6))
        a = scale * rng.standard_normal((N, N))
        ps, qs = rng.choice(_RANDOM_EXPONENTS, size=2)
        assert littlewood_check(a, str(ps), str(qs), float(rng.uniform())).ok


@pytest.mark.parametrize("N", [2, 3])
def test_littlewood_reports_norms_scaled_back(N):
    # diag(3, 4) at 2^-1070 is subnormal, but exact: its norms are exact
    # multiples of a power of two
    base = np.zeros((N, N))
    base[0, 0], base[1, 1] = 3.0, 4.0
    report = littlewood_check(np.ldexp(base, -1070), "1", "inf", 0.5)
    assert report.ok
    assert report.endpoint_p_norm == math.ldexp(7.0, -1070)
    assert report.endpoint_q_norm == math.ldexp(4.0, -1070)
    assert report.interpolated_norm == math.ldexp(5.0, -1070)  # p_theta = 2
    # diag(1, 1) at 2^1023: the trace norm overflows, the others do not
    big = littlewood_check(np.ldexp(np.minimum(base, 1.0), 1023), "1", "inf", 0.5)
    assert big.ok
    assert big.endpoint_q_norm == math.ldexp(1.0, 1023)
    assert big.endpoint_p_norm == math.inf
    assert big.interpolated_norm == math.ldexp(math.sqrt(2.0), 1023)


def test_littlewood_decides_where_the_spectral_norm_overflows():
    a = 1e308 * np.ones((3, 3))
    report = littlewood_check(a, "1/2", "2", 0.5)
    assert report.ok
    assert report.interpolated_norm == report.endpoint_q_norm == math.inf


@pytest.mark.parametrize(
    "theta", [np.float32(0.5), np.float64(0.5), Fraction(1, 2), np.int64(1), 1]
)
def test_littlewood_accepts_real_numpy_scalars(theta):
    a = np.random.default_rng(5).standard_normal((3, 3))
    assert littlewood_check(a, "1", "4", theta) == littlewood_check(a, "1", "4", float(theta))


@pytest.mark.parametrize("theta", [True, False, np.True_, "0.5", math.nan, -1e-300])
def test_littlewood_rejects_non_numbers_and_bool_theta(theta):
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        littlewood_check(np.eye(2), "1", "2", theta)


def test_littlewood_rejects_a_stack():
    with pytest.raises(ValueError, match="expected a square matrix"):
        littlewood_check(np.ones((2, 3, 3)), "1", "2", 0.5)


def test_littlewood_with_tiny_theta_and_an_infinite_exponent():
    # 1/p_theta = 2 theta: p_theta lies beyond the float range
    report = littlewood_check(np.diag([3.0, 1.0, 1.0]), "1/2", "inf", 5e-324)
    assert report.p_theta == math.inf
    assert report.ok and report.interpolated_norm == report.endpoint_q_norm == 3.0


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


@pytest.mark.parametrize("N", [2, 3])
def test_hull_decompose_rejects_an_overflowing_spectral_norm(N):
    # sigma_1 = N * 1e308 is inf, and the lower singular values debris
    with pytest.raises(ValueError, match="overflow"):
        hull_decompose(1e308 * np.ones((N, N)))


def _reference_hull(a) -> list:
    """The decomposition as one np.outer per kept term."""
    u, sigma, v = svd(a)
    terms = []
    if sigma[0] > 0:
        for i in range(sigma.size):
            if sigma[i] <= RANK_CUTOFF * sigma[0]:
                break
            terms.append((float(sigma[i]).hex(), i, np.outer(u[:, i], v[:, i])))
    return terms


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(N=st.integers(1, 6), style=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_hull_decompose_matches_outer_per_term_bit_for_bit(N, style, seed):
    a = _styled_matrix(N, style, seed)
    decomp = hull_decompose(a)
    expected = _reference_hull(a)
    assert decomp.N == N and len(decomp.terms) == len(expected)
    for term, (weight, index, summand) in zip(decomp.terms, expected):
        assert type(term.weight) is float and term.weight.hex() == weight
        assert term.index == index
        assert term.summand.flags.c_contiguous
        assert term.summand.shape == summand.shape
        assert term.summand.tobytes() == summand.tobytes()


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_hull_decompose_factors_once(count_calls, N):
    calls = count_calls(core, "_lapack_svd")
    hull_decompose(np.random.default_rng(N).standard_normal((N, N)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# EmbeddingSpec
# ---------------------------------------------------------------------------


def test_embedding_spec_validates_and_describes():
    spec = EmbeddingSpec("4/3", "inf", 3, n=2)
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
