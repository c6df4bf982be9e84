"""Projected ascent on norm ratios and the norm gradients it rides on
(``core.norms_and_deferred_gradients``)."""
import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from schatten_widths import ascent, core
from schatten_widths.acceptance import _RANDOM_EXPONENTS, EXPONENT_GRID
from schatten_widths.ascent import default_starts, sup_ratio_ascent
from schatten_widths.core import (
    embedding_norm,
    norm_and_deferred_gradient,
    norm_and_gradient,
    norms_and_deferred_gradients,
    schatten_norm,
)
from schatten_widths.exponents import exponent_float
from schatten_widths.operators import SubspaceBasis, orthonormal_columns, subspace_from_matrices


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
        grad = norm_and_gradient(x, p)[1]
        assert np.allclose(grad, _finite_difference_gradient(x, p), atol=1e-5)


@pytest.mark.parametrize("N", [2, 3])
def test_norm_gradient_at_nonsmooth_exponents_with_distinct_spectrum(N):
    # p = 1 and p = inf are differentiable wherever singular values are
    # simple and positive; enforce that with a constructed spectrum
    rng = np.random.default_rng(37)
    q1, _ = np.linalg.qr(rng.standard_normal((N, N)))
    q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
    x = q1 @ np.diag(np.linspace(1.0, 3.0, N)) @ q2.T
    for p in ("1", "inf"):
        grad = norm_and_gradient(x, p)[1]
        assert np.allclose(grad, _finite_difference_gradient(x, p), atol=1e-5)


def test_norm_gradient_is_a_unit_dual_certificate():
    # <grad, x> equals the norm (Euler identity for 1-homogeneous functions)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 3))
    for p in ("1", "3/2", "2", "4", "inf"):
        g = norm_and_gradient(x, p)[1]
        assert np.tensordot(g, x) == pytest.approx(schatten_norm(x, p), rel=1e-8)


def test_norm_gradient_rejects_zero_matrix():
    for N in (2, 3):
        assert norm_and_gradient(np.zeros((N, N)), "2") == (0.0, None)


#: Relative (to the largest entry) agreement of the gradient with the
#: reference formula; its worst case over the draws below is about 1e-14.
GRADIENT_ATOL = 1e-12


def _reference_gradient(x, p):
    # U diag(w) V^T from one LAPACK SVD, the weights summed in numpy:
    # w_i = (sigma_i / ||x||_p)^(p-1), zero below the spectral cutoff 1e-8
    # of the norm gradient; the top singular pair at p = inf
    u, s, vt = np.linalg.svd(x)
    if p == "inf":
        return np.outer(u[:, 0], vt[0])
    pf = float(Fraction(p))
    ratios = s / s[0]
    kept = ratios > 1e-8
    norm_ratio = np.sum(ratios[ratios > 1e-12] ** pf) ** (1.0 / pf)
    weights = np.zeros_like(ratios)
    weights[kept] = (ratios[kept] / norm_ratio) ** (pf - 1.0)
    return (u * weights) @ vt


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(2, 32),
    p=st.sampled_from(EXPONENT_GRID + ("1/3",)),
    rank=st.integers(1, 32),
    k=st.sampled_from([-100, 0, 100]),
    seed=st.integers(0, 2**32 - 1),
)
def test_norm_and_gradient_agree_with_the_separate_calls(N, p, rank, k, seed):
    # at N = 2 both values come from one closed form; at N >= 3 the value
    # comes from a full SVD, whose singular values differ from the
    # values-only ones of schatten_norm in the last bits
    rng = np.random.default_rng(seed)
    r = min(rank, N)
    x = rng.standard_normal((N, r)) @ rng.standard_normal((r, N)) * 10.0**k
    value, grad = norm_and_gradient(x, p)
    if N == 2:
        assert value == schatten_norm(x, p)
    else:
        assert value == pytest.approx(schatten_norm(x, p), rel=4e-15, abs=0.0)
        # the stacked path sums the same values-only spectrum with numpy
        # (at N = 2 it takes LAPACK, not the closed form: see test_core)
        stacked = float(schatten_norm(x[None], p)[0])
        assert value == pytest.approx(stacked, rel=4e-15, abs=0.0)
    reference = _reference_gradient(x, p)
    assert np.allclose(grad, reference, rtol=0.0, atol=GRADIENT_ATOL * np.abs(reference).max())


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
        # sigma^p is subnormal, so it has lost bits, but not zero
        (1e-81 * np.array([[1.0, 2.0], [3.0, 4.0]]), "4", None),
    ],
)
def test_norm_gradient_at_extreme_scales(x, p, expected):
    # the gradient is 0-homogeneous, so a scaled matrix has the gradient
    # of its unscaled direction
    if expected is None:
        expected = norm_and_gradient(x / np.abs(x).max(), p)[1]
    assert np.allclose(norm_and_gradient(x, p)[1], expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x", [1e-300 * np.eye(2), 1e-300 * np.diag([1.0, 1.0, 0.0])])
def test_norm_gradient_is_none_where_its_weights_overflow(x):
    # ||X||_{1/2000} = 1e-300 * 2^2000 is representable; the gradient's top
    # weight, (sigma_1 / ||X||)^(p-1) = 2^1999, is not
    value, grad = norm_and_gradient(x, "1/2000")
    assert value == schatten_norm(x, "1/2000") == pytest.approx(1.1481306952741e302, rel=1e-12)
    assert grad is None


def test_ascent_ends_a_start_at_a_none_p_gradient():
    # the start's unit-norm scaling is 2^-1060 * I, whose 1/1060-norm
    # gradient has top weight 2^1059
    x = 2.0**-1070 * np.eye(2)
    assert norm_and_gradient(x / schatten_norm(x, "1/1060"), "1/1060")[1] is None
    res = sup_ratio_ascent(lambda y: norm_and_deferred_gradient(y, "1"), "1/1060", [x])
    assert res.converged and res.iterations == 1 and res.evaluations == 1
    assert res.value == schatten_norm(res.maximizer, "1")


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_gradient_rejects_non_finite_entries(N, bad):
    x = np.eye(N)
    x[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        norm_and_gradient(x, "2")


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


def test_complex_starts_raise_instead_of_dropping_their_imaginary_part():
    with pytest.raises(ValueError, match="real"):
        sup_ratio_ascent("2", "1", [np.eye(3) * (1 + 1j)])
    with pytest.raises(ValueError, match="real"):
        default_starts(3, np.random.default_rng(5), extra=[np.eye(3) * 1j])


@pytest.mark.parametrize("p,q", [("1", "inf"), ("inf", "1"), ("2", "4"), ("1/2", "2")])
def test_ascent_recovers_the_embedding_norm(p, q):
    N = 3

    def objective(x):
        return schatten_norm(x, q), lambda: norm_and_gradient(x, q)[1]

    starts = default_starts(N, np.random.default_rng(0))
    res = sup_ratio_ascent(objective, p, starts)
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
        return schatten_norm(x, "1"), lambda: norm_and_gradient(x, "1")[1]

    res = sup_ratio_ascent(objective, "2", default_starts(N, rng))
    assert res.value <= embedding_norm("2", "1", N) * (1 + 1e-12)


def test_ascent_handles_none_gradient_and_rejects_empty_starts():
    def flat(x):
        return 1.0, lambda: None

    res = sup_ratio_ascent(flat, "2", [np.eye(2)])
    assert res.value == pytest.approx(1.0)
    assert res.converged
    with pytest.raises(ValueError):
        sup_ratio_ascent(flat, "2", [np.zeros((2, 2))])


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_subspace_ascent_stays_in_the_subspace(t):
    # members a*I + b*(J + t*K) of this plane, with the rotation J and the
    # reflection K = diag(1, -1), have the split lengths |(a, b)| and |b t|;
    # their S_2/S_1 ratio peaks at a = 0, at sqrt((1 + t^2) / 2).  At t = 0
    # every member is a scaled rotation, with ratio 2^(-1/2).  Over the
    # whole space the sup is 1, at rank one
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    plane = subspace_from_matrices([np.eye(2), rotation + t * np.diag([1.0, -1.0])], 2)
    rng = np.random.default_rng(7)
    starts = [plane.member(z) for z in ([1.0, 0.0], *rng.standard_normal((3, 2)))]

    def objective(x):
        return norm_and_deferred_gradient(x, "2")

    res = sup_ratio_ascent(objective, "1", starts, subspace=plane)
    assert res.value == pytest.approx(((1.0 + t * t) / 2.0) ** 0.5, rel=1e-12, abs=0.0)
    assert res.converged
    x = res.maximizer
    assert np.abs(x - plane.member(plane.coefficients(x))).max() <= 1e-12
    whole = sup_ratio_ascent(objective, "1", default_starts(2, rng))
    assert whole.value == pytest.approx(1.0, rel=1e-12)


def test_subspace_ascent_factors_each_point_once_per_use(monkeypatch):
    # the same LAPACK budget as the whole-space norm ascent: the
    # projection onto the subspace takes no factorization.  The norm
    # objective, given by its exponent, reads both norms from one SVD of a
    # point; a callable objective takes one more at the normalized point
    from schatten_widths import core

    calls = []
    lapack_svd = core._lapack_svd

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return lapack_svd(*args, **kwargs)

    rng = np.random.default_rng(11)
    frame = SubspaceBasis(orthonormal_columns(rng.standard_normal((9, 5))), 3)
    starts = [frame.member(z) for z in rng.standard_normal((4, 5))]
    monkeypatch.setattr(core, "_lapack_svd", counting_svd)
    for objective, per_point in (("2", 1), (lambda x: norm_and_deferred_gradient(x, "2"), 2)):
        calls.clear()
        res = sup_ratio_ascent(objective, "1/2", starts, subspace=frame)
        assert res.evaluations > 0
        assert len(calls) == per_point * res.evaluations


#: The pairs of the scaled-start test: at N = 3, 1/2 -> inf stalls short
#: of its sup, at a value that follows the start's last bits.
SCALED_START_PAIRS = [("inf", "1/2"), ("2", "1/2"), ("1", "2")]


@pytest.mark.parametrize("p, q", SCALED_START_PAIRS)
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("scale", [1e-322, 1e-300, 1e300])
def test_ascent_from_a_scaled_start_finds_the_unscaled_value(p, q, N, scale):
    # the ratio is scale-invariant.  At N = 2 a subnormal start's split
    # lengths used to round, by 2% at 1e-322, and its normalized copy sat
    # off the sphere, above the supremum (4.079 against 4 at inf -> 1/2)
    a = np.array([[-1.0, -0.2, 0.3], [-0.2, 1.0, 0.5], [0.7, -0.1, 0.4]])[:N, :N]
    unscaled = sup_ratio_ascent(q, p, [a])
    res = sup_ratio_ascent(q, p, [scale * a])
    assert res.value == pytest.approx(unscaled.value, rel=1e-12, abs=0.0)
    assert res.value <= embedding_norm(p, q, N) * (1 + 1e-12)
    assert schatten_norm(res.maximizer, p) == pytest.approx(1.0, rel=1e-12, abs=0.0)


#: Relative agreement of a ratio read from one spectrum with the q-norm of
#: the normalized point; its worst case over 30,000 draws like those below
#: was 1.2e-14.
RATIO_RTOL = 1e-13


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(2, 4),
    p=st.sampled_from(EXPONENT_GRID + ("1/50", "50")),
    q=st.sampled_from(EXPONENT_GRID + ("1/50", "50")),
    k=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_factorization_gives_the_ratio_and_both_gradients(N, p, q, k, seed):
    # the ascent's scoring: ||t||_q / ||t||_p and both gradients from one
    # factorization of t, against the normalized point t / ||t||_p.  The
    # spectrum is kept distinct and within a factor 12: near a repeated or
    # tiny singular value the gradient itself is ill-conditioned, and two
    # roundings of one matrix give gradients 1e-11 apart
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((N, N)))[0] for _ in range(2))
    sigma = rng.uniform(1.0, 1.5, N) * 2.0 ** -np.arange(N)
    t = (q1 * sigma) @ q2.T * 10.0**k
    (p_norm, p_gradient), (q_norm, q_gradient) = norms_and_deferred_gradients(t, (p, q))
    assume(math.isfinite(p_norm) and math.isfinite(q_norm))  # else no normalized point
    x = t / p_norm
    assert q_norm / p_norm == pytest.approx(schatten_norm(x, q), rel=RATIO_RTOL, abs=0.0)
    for exponent, gradient in ((p, p_gradient), (q, q_gradient)):
        reference = norm_and_gradient(x, exponent)[1]
        assert np.allclose(gradient(), reference, rtol=0.0,
                           atol=GRADIENT_ATOL * np.abs(reference).max())


#: Agreement of the ascent's spectral step with the matrix-domain one,
#: relative to the size of the two gradient terms: where the terms nearly
#: cancel the matrix-domain difference loses digits that the spectral one
#: keeps.  The worst case over 20,000 draws like those below was 6.3e-16.
STEP_RTOL = 1e-13


def _spectrum(kind, N, rng):
    if kind == "rank-deficient":
        r = int(rng.integers(1, N))
        return np.r_[rng.uniform(0.1, 1.0, r), np.zeros(N - r)]
    if kind == "near-flat":
        return 1.0 + 10.0 ** rng.uniform(-6.0, -1.0) * rng.uniform(size=N)
    if kind == "signed":
        # unsorted, with both signs: the coordinates of a trial that has
        # crossed zero
        return rng.standard_normal(N)
    return rng.standard_normal(N) ** 2


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(2, 6),
    p=st.sampled_from(_RANDOM_EXPONENTS),
    q=st.sampled_from(_RANDOM_EXPONENTS),
    kind=st.sampled_from(["generic", "rank-deficient", "near-flat", "signed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_step_matches_the_matrix_domain_direction(N, p, q, kind, seed):
    # the norm ascent's step over the whole space moves the signed
    # coordinates c of X = Q1 diag(c) Q2^T along e, with d = w_q / value -
    # w_p on the sorted |c| and each sign of c mapped back; over a subspace
    # it is U diag(d) V^T from the point's SVD.  Both are unit directions;
    # the matrix-domain step is grad_q / value - grad_p, two gradients of
    # the norm layer at X = U diag(|c|) V^T, with U and V the columns of Q1
    # and Q2 sorted by |c| and V carrying the signs of c
    assume(p != q)
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((N, N)))[0] for _ in range(2))
    c = _spectrum(kind, N, rng)
    order = np.argsort(-np.abs(c), kind="stable")
    u, v = q1[:, order], q2[:, order] * np.where(c[order] >= 0.0, 1.0, -1.0)
    sigma = np.abs(c[order]).tolist()
    pf, qf = exponent_float(p), exponent_float(q)
    value, _, _, parts = ascent._norm_point(sigma, pf, qf, c.tolist())
    p_grad, q_grad = (core._deferred_svd(u, sigma, v, f)[1]() for f in (pf, qf))
    expected = q_grad / value - p_grad
    terms = np.linalg.norm(q_grad) / value + np.linalg.norm(p_grad)
    e = ascent._coordinate_direction(value, parts, pf, qf)
    if e is None:
        # a stationary point, such as every rank-one matrix
        assert np.linalg.norm(expected) <= STEP_RTOL * terms
        return
    matrix_parts = ascent._norm_point(sigma, pf, qf, (u, v.T))[3]
    length = np.linalg.norm(expected)
    for step in ((q1 * e) @ q2.T, ascent._step_direction(value, matrix_parts, pf, qf, None)):
        assert np.linalg.norm(step) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert np.linalg.norm(step * length - expected) <= STEP_RTOL * terms


def _rounding_gain(x, *exponents):
    """How much rounding the entries of ``x`` can move its norms, relative
    to a well-conditioned spectrum: ``(sigma_1 / sigma_r)^(1 - e)`` for the
    least exponent ``e`` below 1, with ``sigma_r`` the least singular value
    the norms count.  A rounding of ``eps * sigma_1`` moves ``sigma_r^e``
    by ``e * sigma_r^(e - 1) * eps * sigma_1``; at ``e >= 1`` the gain is 1."""
    s = core.singular_values(x)
    s = s[s > core.RANK_CUTOFF * s[0]]
    least = min(1.0, *map(exponent_float, exponents))
    return (s[0] / s[-1]) ** (1.0 - least)


#: Agreement of the maximizer's norms with the reported value, times
#: _rounding_gain.  Over 1,500 draws like those below the worst case was
#: 1.6e-15.  Without the gain 109 of them exceeded 1e-13, up to 4.6e-12,
#: all at quasi-norm spectra with a singular value left below the
#: gradient cutoff, which the rounding of the entries alone moves that far.
MAXIMIZER_RTOL = 1e-13


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    N=st.integers(2, 6),
    p=st.sampled_from(_RANDOM_EXPONENTS),
    q=st.sampled_from(_RANDOM_EXPONENTS),
    kind=st.sampled_from(["generic", "rank-deficient", "near-flat"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_ascent_attains_a_certified_value(N, p, q, kind, seed):
    # the whole-space norm ascent reports the ratio of its coordinates,
    # and forms the maximizer U diag(c) V^T once: the matrix lies on the
    # p-sphere, attains the value, and the value stays below the supremum
    # however many trials crossed zero on the way
    assume(p != q)
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((N, N)))[0] for _ in range(2))
    start = (q1 * _spectrum(kind, N, rng)) @ q2.T
    res = sup_ratio_ascent(q, p, [start])
    x = res.maximizer
    rtol = MAXIMIZER_RTOL * _rounding_gain(x, p, q)
    assert schatten_norm(x, p) == pytest.approx(1.0, rel=rtol, abs=0.0)
    assert schatten_norm(x, q) / schatten_norm(x, p) == pytest.approx(
        res.value, rel=rtol, abs=0.0)
    assert res.value <= embedding_norm(p, q, N) * (1 + 1e-12)


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("p, q", [("1/2", "inf"), ("inf", "1/2"), ("1", "2"), ("4", "4/3")])
def test_every_trial_point_is_finite_and_bounded_by_two(monkeypatch, N, p, q):
    # a trial x + step * D has ||x||_p = 1, so entries of at most 1, a
    # unit D and step <= 1: a norm objective's trial over a subspace goes
    # to LAPACK unvalidated.  Both the norm objective and a callable one,
    # over the whole space (where the norm ascent factors its starts only)
    # and a subspace.  The bound 2 holds up to the rounding of x and D
    points = []
    lapack_svd = core._lapack_svd

    def recording_svd(a, *args, **kwargs):
        points.append(np.array(a))
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(core, "_lapack_svd", recording_svd)
    rng = np.random.default_rng(N)
    whole_starts = default_starts(N, rng)
    frame = SubspaceBasis(orthonormal_columns(rng.standard_normal((N * N, N + 1))), N)
    plane_starts = [frame.member(z) for z in rng.standard_normal((3, N + 1))]
    for objective in (q, lambda x: norm_and_deferred_gradient(x, q)):
        for starts, subspace in ((whole_starts, None), (plane_starts, frame)):
            points.clear()
            res = sup_ratio_ascent(objective, p, starts, subspace=subspace)
            assert res.evaluations > len(starts)
            assert points
            for a in points:
                assert np.isfinite(a).all()
                assert np.abs(a).max() <= 2.0 * (1.0 + 1e-14)


@pytest.mark.parametrize("N", [3, 4])
def test_a_nan_callable_gradient_raises_before_lapack(monkeypatch, N):
    # only a norm objective's trials skip validation: a callable's
    # gradient is only as finite as the callable makes it
    seen = []
    lapack_svd = core._lapack_svd

    def recording_svd(a, *args, **kwargs):
        seen.append(bool(np.isfinite(a).all()))
        return lapack_svd(a, *args, **kwargs)

    def objective(x):
        return schatten_norm(x, 2), lambda: np.full_like(x, math.nan)

    monkeypatch.setattr(core, "_lapack_svd", recording_svd)
    with pytest.raises(ValueError, match="finite"):
        sup_ratio_ascent(objective, "1", [np.eye(N)])
    assert seen and all(seen)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("p, q", [("1/2", "2"), ("2", "1"), ("inf", "4/3"), ("1", "inf")])
def test_norm_ascent_takes_one_lapack_call_per_evaluation(count_calls, N, p, q):
    # over a subspace a norm ascent moves matrices: a start through the
    # validated core.svd, a trial through core._lapack_svd itself, each
    # one call, looked up on core
    calls = count_calls(core, "_lapack_svd")
    rng = np.random.default_rng(2)
    frame = SubspaceBasis(orthonormal_columns(rng.standard_normal((N * N, 2 * N))), N)
    starts = [frame.member(z) for z in rng.standard_normal((4, 2 * N))]
    res = sup_ratio_ascent(q, p, starts, max_iter=80, subspace=frame)
    assert res.evaluations > len(starts)
    assert len(calls) == res.evaluations


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("p, q", [("1/2", "2"), ("2", "1"), ("inf", "4/3"), ("1", "inf")])
def test_whole_space_norm_ascent_factors_only_its_starts(count_calls, N, p, q):
    # over the whole space a norm ascent moves singular values: one LAPACK
    # call per start, through core.svd, none per trial, and no 2x2 split
    calls = count_calls(core, "_lapack_svd")
    svds = count_calls(core, "svd")
    splits = count_calls(core, "spectrum_2x2")
    starts = default_starts(N, np.random.default_rng(2))
    res = sup_ratio_ascent(q, p, starts, max_iter=80)
    assert res.evaluations > len(starts)
    assert len(calls) == len(svds) == len(starts)
    assert not splits


def test_starts_of_different_sizes_raise():
    # the supremum is over one matrix space: starts of two sizes used to
    # give the sup over both (3 at E_11 -> I_3 for S_inf -> S_1), and a
    # 2x2 start over a 3x3 subspace a bare matmul error
    with pytest.raises(ValueError, match="start 1 has the shape"):
        sup_ratio_ascent("1", "inf", [np.eye(2), np.eye(3)])
    plane = SubspaceBasis(orthonormal_columns(np.random.default_rng(0).standard_normal((9, 2))), 3)
    member = plane.member([1.0, 0.5])
    for starts, index in (([np.eye(2)], 0), ([member, np.eye(2)], 1)):
        with pytest.raises(ValueError, match=f"start {index} has the shape"):
            sup_ratio_ascent("inf", "1", starts, subspace=plane)
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((0, 0))):
        with pytest.raises(ValueError, match="start 0 has the shape"):
            sup_ratio_ascent("2", "1", [bad])
    assert sup_ratio_ascent("1", "inf", [np.eye(3), np.eye(3)]).value == pytest.approx(3.0)


def test_a_start_off_the_subspace_raises():
    # E_11 lies 0.99 away from this plane; an ascent from it used to
    # report 1.0 at E_11, while the sup over the plane is 0.7033
    rng = np.random.default_rng(0)
    plane = SubspaceBasis(orthonormal_columns(rng.standard_normal((9, 2))), 3)
    unit = np.zeros((3, 3))
    unit[0, 0] = 1.0
    with pytest.raises(ValueError, match="off the subspace"):
        sup_ratio_ascent("inf", "1", [unit], subspace=plane)
    members = [plane.member(z) for z in rng.standard_normal((8, 2))]
    res = sup_ratio_ascent("inf", "1", members, subspace=plane)
    assert res.value == pytest.approx(0.7033126291992975, rel=1e-12)
    # within the tolerance a start passes, at any scale
    nudge = 1e-12 * np.linalg.norm(members[0]) * plane.complement[:, 0].reshape(3, 3)
    for scale in (1e-300, 1.0, 1e300):
        sup_ratio_ascent("inf", "1", [scale * (members[0] + nudge)], subspace=plane)
        with pytest.raises(ValueError, match="off the subspace"):
            sup_ratio_ascent("inf", "1", [scale * (members[0] + 1e3 * nudge)],
                             subspace=plane)
    # SubspaceBasis takes columns orthonormal to 1e-10, where the
    # projection C C^T misses its own members by as much; they pass
    skewed = SubspaceBasis(plane.columns + 3e-11 * rng.standard_normal((9, 2)), 3)
    sup_ratio_ascent("inf", "1", [skewed.member(z) for z in rng.standard_normal((8, 2))],
                     subspace=skewed)


@pytest.mark.parametrize("bad", [-3, -1, True, False, 2.5, 3.0, "3", None])
def test_max_iter_must_be_a_non_negative_integer(bad):
    with pytest.raises(ValueError, match="max_iter"):
        sup_ratio_ascent("2", "1", [np.eye(3)], max_iter=bad)


@pytest.mark.parametrize("good", [0, 5, np.int64(5), np.uint8(5)])
def test_max_iter_takes_python_and_numpy_integers(good):
    res = sup_ratio_ascent("2", "1", [np.eye(3)], max_iter=good)
    assert res.iterations <= int(good)
