"""Projected ascent on norm ratios and the norm gradient it rides on."""
import numpy as np
import pytest

from schatten_widths.ascent import default_starts, norm_gradient, sup_ratio_ascent
from schatten_widths.core import embedding_norm, schatten_norm


def _finite_difference_gradient(x, p, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = h
            g[i, j] = (schatten_norm(x + e, p) - schatten_norm(x - e, p)) / (2 * h)
    return g


@pytest.mark.parametrize("p", ["3/2", "2", "4"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_norm_gradient_matches_finite_differences(p, N):
    rng = np.random.default_rng(31 + N)
    for _ in range(5):
        x = rng.standard_normal((N, N))
        assert np.allclose(norm_gradient(x, p), _finite_difference_gradient(x, p), atol=1e-5)


@pytest.mark.parametrize("N", [2, 3])
def test_norm_gradient_at_nonsmooth_exponents_with_distinct_spectrum(N):
    # p = 1 and p = inf are differentiable wherever singular values are
    # simple and positive; enforce that with a constructed spectrum
    rng = np.random.default_rng(37)
    q1, _ = np.linalg.qr(rng.standard_normal((N, N)))
    q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
    x = q1 @ np.diag(np.linspace(1.0, 3.0, N)) @ q2.T
    for p in ("1", "inf"):
        assert np.allclose(norm_gradient(x, p), _finite_difference_gradient(x, p), atol=1e-5)


def test_norm_gradient_is_a_unit_dual_certificate():
    # <grad, x> equals the norm (Euler identity for 1-homogeneous functions)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 3))
    for p in ("1", "3/2", "2", "4", "inf"):
        g = norm_gradient(x, p)
        assert np.tensordot(g, x) == pytest.approx(schatten_norm(x, p), rel=1e-8)


def test_norm_gradient_rejects_zero_matrix():
    with pytest.raises(ValueError):
        norm_gradient(np.zeros((2, 2)), "2")


@pytest.mark.parametrize(
    "x, p, expected",
    [
        # ||X||_{1/2} of 1e308*I overflows; its gradient, 3*I, does not
        (1e308 * np.eye(3), "1/2", 3.0 * np.eye(3)),
        # the 2x2 split lengths overflow
        (1e308 * np.eye(2), "2", np.eye(2) / np.sqrt(2.0)),
        # sigma^p overflows, sigma^p underflows, the power sum's root overflows
        (1e200 * np.array([[1.0, 2.0], [3.0, 4.0]]), "2", None),
        (1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]]), "4", None),
        (1e308 * np.diag([1.0, 0.5]), "1/2", None),
    ],
)
def test_norm_gradient_at_extreme_scales(x, p, expected):
    # the gradient is 0-homogeneous, so a scaled matrix has the gradient
    # of its unscaled direction
    if expected is None:
        expected = norm_gradient(x / np.abs(x).max(), p)
    assert np.allclose(norm_gradient(x, p), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_gradient_rejects_non_finite_entries(N, bad):
    x = np.eye(N)
    x[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        norm_gradient(x, "2")


def test_default_starts_deterministic_and_complete():
    a = default_starts(3, np.random.default_rng(5))
    b = default_starts(3, np.random.default_rng(5))
    assert len(a) == len(b) == 8  # unit, identity, orthogonal, 2 rank-one, 3 gaussian
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert a[0][0, 0] == 1.0 and np.count_nonzero(a[0]) == 1  # matrix unit first
    assert np.array_equal(a[1], np.eye(3))
    extra = np.full((3, 3), 2.0)
    with_extra = default_starts(3, np.random.default_rng(5), extra=[extra])
    assert np.array_equal(with_extra[-1], extra)


@pytest.mark.parametrize("p,q", [("1", "inf"), ("inf", "1"), ("2", "4"), ("1/2", "2")])
def test_ascent_recovers_the_embedding_norm(p, q):
    N = 3

    def objective(x):
        return schatten_norm(x, q), norm_gradient(x, q)

    starts = default_starts(N, np.random.default_rng(0))
    res = sup_ratio_ascent(objective, p, N, starts)
    assert res.value == pytest.approx(embedding_norm(p, q, N), rel=1e-6)
    # the reported value is attained by the reported maximizer
    attained = schatten_norm(res.maximizer, q) / schatten_norm(res.maximizer, p)
    assert res.value == pytest.approx(attained, rel=1e-10)
    assert schatten_norm(res.maximizer, p) == pytest.approx(1.0, rel=1e-10)
    assert res.evaluations > 0
    assert 0 <= res.start_index < len(starts)


def test_ascent_result_is_a_certified_lower_bound():
    # whatever the search returns, the ratio at the maximizer never
    # exceeds the true supremum
    N = 2
    rng = np.random.default_rng(3)

    def objective(x):
        return schatten_norm(x, "1"), norm_gradient(x, "1")

    res = sup_ratio_ascent(objective, "2", N, default_starts(N, rng))
    assert res.value <= embedding_norm("2", "1", N) * (1 + 1e-12)


def test_ascent_handles_none_gradient_and_rejects_empty_starts():
    def flat(x):
        return 1.0, None

    res = sup_ratio_ascent(flat, "2", 2, [np.eye(2)])
    assert res.value == pytest.approx(1.0)
    assert res.converged
    with pytest.raises(ValueError):
        sup_ratio_ascent(flat, "2", 2, [np.zeros((2, 2))])
