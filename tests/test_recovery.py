"""Gaussian measurements, nuclear-norm decoding, and envelope comparison."""
import math
import warnings

import numpy as np
import pytest

from schatten_widths.core import schatten_norm
from schatten_widths.exponents import as_exponent
from schatten_widths.recovery import (
    InfoMap,
    _decode_stack,
    _svt_stack,
    _test_battery,
    apply_info_map,
    build_info_map,
    compare_to_envelope,
    nuclear_decoder,
    worst_case_error,
)


# ---------------------------------------------------------------------------
# information maps
# ---------------------------------------------------------------------------


def test_info_map_shape_and_validation():
    info = build_info_map(4, 6, seed=1)
    assert info.m == 6
    assert info.N == 4
    assert info.as_rows.shape == (6, 16)
    with pytest.raises(ValueError):
        build_info_map(0, 3)
    with pytest.raises(ValueError):
        build_info_map(3, 0)
    with pytest.raises(ValueError):
        InfoMap(np.zeros((2, 3, 4)), seed=0)
    with pytest.raises(ValueError):
        InfoMap(np.full((1, 2, 2), np.nan), seed=0)
    with pytest.raises(ValueError, match="real"):
        InfoMap(np.ones((1, 2, 2)) * 1j, seed=0)


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integers_are_accepted(integer):
    info = build_info_map(integer(3), integer(5), seed=1)
    assert np.array_equal(info.matrices, build_info_map(3, 5, seed=1).matrices)
    res = worst_case_error(4, "1", "2", integer(0))
    assert res.m == 0 and type(res.m) is int
    with pytest.raises(ValueError):
        build_info_map(3, 5.0)
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "2", False)


def test_apply_info_map_is_linear_and_matches_traces():
    rng = np.random.default_rng(2)
    info = build_info_map(3, 5, seed=3)
    x = rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))
    yx = apply_info_map(info, x)
    assert yx.shape == (5,)
    expected = [float(np.tensordot(info.matrices[i], x)) for i in range(5)]
    assert np.allclose(yx, expected, atol=1e-12)
    assert np.allclose(
        apply_info_map(info, 2.0 * x - y),
        2.0 * yx - apply_info_map(info, y),
        atol=1e-10,
    )
    with pytest.raises(ValueError):
        apply_info_map(info, np.eye(2))
    with pytest.raises(ValueError, match="real"):
        apply_info_map(info, x * (1 + 1j))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_info_map_rejects_non_finite_matrices(bad):
    x = np.eye(3)
    x[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        apply_info_map(build_info_map(3, 5, seed=3), x)


def test_same_seed_gives_the_same_map():
    a = build_info_map(3, 4, seed=9)
    b = build_info_map(3, 4, seed=9)
    assert np.array_equal(a.matrices, b.matrices)


# ---------------------------------------------------------------------------
# nuclear decoder
# ---------------------------------------------------------------------------


def test_decoder_returns_zero_for_zero_measurements():
    info = build_info_map(3, 4, seed=0)
    res = nuclear_decoder(info, np.zeros(4))
    assert np.array_equal(res.matrix, np.zeros((3, 3)))
    assert res.converged


def test_decoder_is_exact_in_the_injective_regime():
    N = 3
    rng = np.random.default_rng(5)
    info = build_info_map(N, N * N, seed=5)
    x = rng.standard_normal((N, N))
    res = nuclear_decoder(info, apply_info_map(info, x))
    assert np.allclose(res.matrix, x, atol=1e-8)
    assert res.converged


def test_decoder_recovers_a_rank_one_matrix_from_few_measurements():
    N = 8
    rng = np.random.default_rng(7)
    u = rng.standard_normal(N)
    v = rng.standard_normal(N)
    x = np.outer(u, v)
    x = x / schatten_norm(x, 1)
    info = build_info_map(N, 48, seed=11)
    res = nuclear_decoder(info, apply_info_map(info, x))
    assert schatten_norm(x - res.matrix, 2) <= 0.05
    # feasibility within tolerance, and no nuclear-norm excess
    assert res.residual <= 1e-6 + 1e-12
    assert schatten_norm(res.matrix, 1) <= schatten_norm(x, 1) + 1e-6


def test_decoder_validates_measurement_length():
    info = build_info_map(3, 4, seed=0)
    with pytest.raises(ValueError):
        nuclear_decoder(info, np.zeros(5))
    with pytest.raises(ValueError):
        nuclear_decoder(info, np.ones(4), max_iter=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decoder_rejects_non_finite_measurements(bad):
    y = np.ones(4)
    y[2] = bad
    with pytest.raises(ValueError, match="finite"):
        nuclear_decoder(build_info_map(3, 4, seed=0), y)


def test_decoder_rejects_complex_measurements():
    info = build_info_map(3, 4, seed=0)
    with pytest.raises(ValueError, match="real"):
        nuclear_decoder(info, np.ones(4) * (1 + 1j))


def _canonical_measurements() -> tuple[InfoMap, np.ndarray]:
    """A rank-one instance's measurements, scaled so the largest lies in
    [1/2, 1), where an out-of-range decode runs."""
    rng = np.random.default_rng(7)
    info = build_info_map(8, 24, seed=3)
    y = apply_info_map(info, np.outer(rng.standard_normal(8), rng.standard_normal(8)))
    return info, np.ldexp(y, -np.frexp(np.abs(y).max())[1])


@pytest.mark.parametrize("k", [500, -500])
def test_decoder_scales_extreme_measurements_exactly(k):
    info, y = _canonical_measurements()
    base = nuclear_decoder(info, y, 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nuclear_decoder(info, np.ldexp(y, k), math.ldexp(1e-6, k))
    assert res.converged and res.iterations == base.iterations
    assert np.array_equal(res.matrix, np.ldexp(base.matrix, k))
    assert res.residual == math.ldexp(base.residual, k)


def test_decoder_does_not_read_tiny_measurements_as_zero():
    # ||y|| about 4.5e-201: its sum of squares underflows to 0, which once
    # passed the test ||y|| <= tol and returned 0 with residual 0.0
    info, y = _canonical_measurements()
    y = y * (4.5e-201 / np.linalg.norm(y))
    res = nuclear_decoder(info, y, 1e-206)
    assert res.converged and res.iterations > 0
    assert 0.0 < res.residual <= 1e-206
    scale = 660
    true_residual = np.linalg.norm(
        apply_info_map(info, np.ldexp(res.matrix, scale)) - np.ldexp(y, scale))
    assert math.ldexp(true_residual, -scale) == pytest.approx(res.residual, rel=1e-6)
    # subnormal measurements: the default tol, scaled alike, overflows; y
    # is within it, and the zero matrix is the decode
    zero = nuclear_decoder(info, y * 1e-119)
    assert zero.converged and zero.iterations == 0 and not zero.matrix.any()
    assert zero.residual == pytest.approx(4.5e-320, rel=1e-3)


def test_decoder_does_not_overflow_at_huge_measurements():
    info, y = _canonical_measurements()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nuclear_decoder(info, 1e200 * y, 1e194)
    assert res.converged and 0.0 < res.residual <= 1e194
    assert np.isfinite(res.matrix).all()


@pytest.mark.parametrize("k", [-600, -530, 500, 520])
def test_decoder_does_not_depend_on_the_map_scale(k):
    # the map 2^k A measures X as 2^k y, and the residual tolerance is in
    # the units of the measurements: the decode is the same matrix, bit for
    # bit.  At these scales the Gram matrix of 2^k A underflows or
    # overflows, so the decode factors and projects with rescaled rows
    info = build_info_map(4, 6, 3)
    y = apply_info_map(info, np.eye(4))
    base = nuclear_decoder(info, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nuclear_decoder(
            InfoMap(np.ldexp(info.matrices, k), 3), np.ldexp(y, k), math.ldexp(1e-6, k))
    assert base.converged and base.iterations > 0
    assert res.converged and res.iterations == base.iterations
    assert np.array_equal(res.matrix, base.matrix)
    assert res.residual == math.ldexp(base.residual, k)


@pytest.mark.parametrize("max_iter", [2.5, 10.0, True, "10"])
def test_decoder_takes_an_integer_step_cap(max_iter):
    info = build_info_map(3, 4, seed=0)
    with pytest.raises(ValueError, match="max_iter must be a positive integer"):
        nuclear_decoder(info, np.ones(4), max_iter=max_iter)
    res = nuclear_decoder(info, np.ones(4), max_iter=np.int64(10))
    assert res.iterations == 10


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_decoder_requires_a_positive_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        nuclear_decoder(build_info_map(3, 4, seed=0), np.ones(4), tol)


def test_decoder_flags_tell_the_truth_at_the_iteration_cap():
    N = 8
    rng = np.random.default_rng(7)
    x = np.outer(rng.standard_normal(N), rng.standard_normal(N))
    info = build_info_map(N, 24, seed=11)
    y = apply_info_map(info, x)
    res = nuclear_decoder(info, y, max_iter=10)
    assert not res.converged
    assert res.iterations == 10
    assert res.residual == float(np.linalg.norm(apply_info_map(info, res.matrix) - y))


def _rank_deficient_map(case: str) -> InfoMap:
    rng = np.random.default_rng(13)
    rows = build_info_map(4, 8, seed=3).matrices
    if case == "duplicate-row":
        return InfoMap(np.concatenate([rows, rows[:1]]), seed=3)
    if case == "near-duplicate-row":
        nudge = 1e-12 * rng.standard_normal((1, 4, 4))
        return InfoMap(np.concatenate([rows, rows[:1] + nudge]), seed=3)
    return build_info_map(4, 20, seed=3)  # m = 20 > N^2 = 16


@pytest.mark.parametrize("case", ["duplicate-row", "near-duplicate-row", "more-rows-than-entries"])
def test_decoder_handles_rank_deficient_information_maps(case):
    # dependent rows make the Gram matrix singular or ill-conditioned; the
    # projection goes through its pseudo-inverse, and x stays feasible
    info = _rank_deficient_map(case)
    rng = np.random.default_rng(7)
    x = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    y = apply_info_map(info, x)
    res = nuclear_decoder(info, y)
    assert res.converged
    assert res.iterations <= 200
    assert res.residual <= 1e-6
    assert schatten_norm(res.matrix, 1) <= schatten_norm(x, 1) + 1e-6
    if info.m > 16:  # injective: the decode is x itself
        assert np.allclose(res.matrix, x, atol=1e-7)


def test_decoder_solves_an_exactly_singular_gram_matrix():
    # two copies of the E_11 measurement: G G^T has no inverse at all
    units = np.zeros((3, 2, 2))
    units[0, 0, 0] = units[1, 0, 0] = units[2, 1, 1] = 1.0
    res = nuclear_decoder(InfoMap(units, seed=0), np.array([1.0, 1.0, 1.0]))
    assert res.converged
    assert np.allclose(np.diag(res.matrix), [1.0, 1.0], atol=1e-6)
    # the nuclear norm is at least the trace, 2, which the identity attains
    assert schatten_norm(res.matrix, 1) == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("m", [8, 24, 64])
def test_every_battery_decode_is_feasible_without_nuclear_excess(m):
    # x itself is feasible, so the minimizer's nuclear norm is at most x's
    N, tol = 8, 1e-6
    info = build_info_map(N, m, seed=3)
    battery = _test_battery(N, as_exponent("1"), np.random.default_rng(3), 12)
    for label, x in battery:
        y = apply_info_map(info, x)
        res = nuclear_decoder(info, y, tol)
        assert res.converged, label
        assert res.residual <= tol, label
        assert res.residual == float(np.linalg.norm(apply_info_map(info, res.matrix) - y))
        assert schatten_norm(res.matrix, 1) <= schatten_norm(x, 1) + 1e-6, label


def _svt_reference(w: np.ndarray, gamma: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(w)
    return (u * np.maximum(s - gamma, 0.0)) @ vt


def _with_spectrum(s, rng: np.random.Generator) -> np.ndarray:
    N = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((N, N)))
    v, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return (u * np.asarray(s, dtype=float)) @ v.T


@pytest.mark.parametrize("N", [3, 8, 32])
def test_gram_prox_matches_an_svd_reference(N):
    rng = np.random.default_rng(N)
    ladder = np.linspace(3.0, 0.5, N)
    cases = [
        (_with_spectrum(np.r_[ladder[: N // 2], np.zeros(N - N // 2)], rng), 0.8),  # rank-deficient
        (_with_spectrum(np.r_[np.full(N - 1, 2.0), 1.0], rng), 0.5),  # repeated
        (_with_spectrum(np.r_[np.full(N // 2, 2.0), np.full(N - N // 2, 1.0)], rng), 1.5),
        (np.zeros((N, N)), 0.3),  # W = 0
        (rng.standard_normal((N, N)), 0.0),  # gamma = 0
        (_with_spectrum(ladder, rng), 3.5),  # gamma > sigma_1
        (rng.standard_normal((N, N)), 1.0),
    ]
    W = np.array([w for w, _ in cases])
    gamma = np.array([g for _, g in cases])
    Z = _svt_stack(W, gamma)  # the whole stack at once, one threshold each
    for (w, g), z in zip(cases, Z):
        assert np.abs(z - _svt_reference(w, g)).max() <= 1e-13 * max(np.linalg.norm(w, 2), 1.0)
    assert np.array_equal(Z[3], np.zeros((N, N)))
    assert np.array_equal(Z[5], np.zeros((N, N)))


# ---------------------------------------------------------------------------
# worst-case error over the battery
# ---------------------------------------------------------------------------


def test_worst_case_error_validates_its_regime():
    with pytest.raises(ValueError):
        worst_case_error(4, "2", "2", 4)  # p must be <= 1
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "3", 4)  # q must be <= 2
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "1/2", 4)  # q must exceed p
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "2", 17)  # m > N^2
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "2", -1)
    with pytest.raises(ValueError):
        worst_case_error(4, "1", "2", 4, test_budget=2)
    for N in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            worst_case_error(N, "1", "2", 0)


@pytest.mark.parametrize("budget", [3.5, 4.0, True])
def test_worst_case_error_takes_an_integer_test_budget(budget):
    with pytest.raises(ValueError, match="test_budget must be an integer"):
        worst_case_error(4, "1", "2", 4, test_budget=budget)
    res = worst_case_error(4, "1", "2", 0, test_budget=np.int64(4))
    assert len(res.errors) == 4


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_worst_case_error_requires_a_positive_finite_tolerance(tol):
    # m = 0 runs no decode and is refused all the same
    for m in (0, 4):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            worst_case_error(4, "1", "2", m, tol=tol)


def test_no_information_means_error_one():
    res = worst_case_error(4, "1", "2", 0, seed=0)
    assert res.worst_error == pytest.approx(1.0, abs=1e-12)
    assert res.labels[0] == "rank-one-corner"
    assert set(res.labels) >= {"rank-one-corner", "rank-one-random", "identity-flat"}
    assert sorted(res.diagnostics) == [
        "fallbacks_to_zero",
        "max_residual",
        "non_converged",
        "seed",
        "tol",
        "total_iterations",
    ]


def test_few_measurements_never_beat_the_trivial_scheme():
    # with m <= N the envelope is 1 and the zero fallback caps the error
    for m in (0, 2, 4):
        res = worst_case_error(4, "1", "2", m, seed=1)
        assert res.worst_error <= 1.0 + 1e-12


def test_full_measurements_recover_everything():
    res = worst_case_error(3, "1", "2", 9, seed=2)
    assert res.worst_error <= 1e-8


def test_error_decays_with_more_measurements():
    results = [worst_case_error(8, "1", "2", m, seed=3) for m in (8, 24, 64)]
    assert all(r.diagnostics["non_converged"] == 0 for r in results)
    values = [r.worst_error for r in results]
    assert values[2] < values[0]
    assert values[2] < 0.6  # clearly into the decay regime


# N = 8, (p, q) = (1, 2), seed 11, 12 instances: per m, the zero-fallback
# count and the worst error
_SWEEP = {
    4: (7, 1.0),
    8: (6, 1.0),
    16: (3, 0.739314597324248),
    24: (1, 0.6201128705770652),
    32: (0, 0.47128565771105607),
    48: (0, 0.3252040764303361),
}


def test_decoder_sweep_is_pinned_and_converges_in_few_steps():
    total_iterations = 0
    for m, (fallbacks, worst) in _SWEEP.items():
        res = worst_case_error(8, 1, 2, m, test_budget=12, seed=11)
        assert res.diagnostics["fallbacks_to_zero"] == fallbacks, m
        assert res.diagnostics["non_converged"] == 0, m
        assert res.worst_error == pytest.approx(worst, rel=1e-6), m
        total_iterations += res.diagnostics["total_iterations"]
    # plain Douglas-Rachford takes 11,590 steps here, the relaxed 7,430
    assert total_iterations <= 9000


@pytest.mark.parametrize("N,m,budget", [(8, m, 12) for m in _SWEEP] + [(32, 128, 3)])
def test_lockstep_battery_decodes_each_instance_as_alone(N, m, budget):
    # the battery advances in lockstep; each instance stops where the
    # one-instance decoder stops it, and differs from it only by rounding
    q = as_exponent(2)
    battery = _test_battery(N, as_exponent(1), np.random.default_rng(11), budget)
    info = build_info_map(N, m, 11)
    ys = [apply_info_map(info, x) for _, x in battery]
    stacked = _decode_stack(info, np.array(ys), 1e-6, 6000)
    alone = [nuclear_decoder(info, y) for y in ys]
    assert [(r.iterations, r.converged) for r in stacked] == \
        [(r.iterations, r.converged) for r in alone]
    res = worst_case_error(N, 1, 2, m, test_budget=budget, seed=11)
    assert res.diagnostics["total_iterations"] == sum(r.iterations for r in alone)
    assert res.diagnostics["non_converged"] == sum(not r.converged for r in alone)
    fallbacks = 0
    for (_, x), r, err in zip(battery, alone, res.errors):
        zero_err = schatten_norm(x, q)
        alone_err = schatten_norm(x - r.matrix, q)
        fallbacks += alone_err > zero_err
        assert err == pytest.approx(min(alone_err, zero_err), rel=1e-12, abs=1e-12 * zero_err)
    assert res.diagnostics["fallbacks_to_zero"] == fallbacks


def test_compare_to_envelope_fields_are_consistent():
    res = worst_case_error(8, "1", "2", 32, seed=4)
    row = compare_to_envelope(res)
    assert row.m == 32
    assert row.envelope == pytest.approx(0.5)  # min(1, 8/32)^(1 - 1/2)
    assert row.ratio == pytest.approx(row.worst_error / row.envelope, rel=1e-12)
    assert row.log_ratio == pytest.approx(math.log(row.ratio), rel=1e-12)
    assert row.worst_error == res.worst_error
