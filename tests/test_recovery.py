"""Gaussian measurements, nuclear-norm decoding, and envelope comparison."""
import math

import numpy as np
import pytest

from schatten_widths.core import schatten_norm
from schatten_widths.exponents import as_exponent
from schatten_widths.recovery import (
    InfoMap,
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


def test_compare_to_envelope_fields_are_consistent():
    res = worst_case_error(8, "1", "2", 32, seed=4)
    row = compare_to_envelope(res)
    assert row.m == 32
    assert row.envelope == pytest.approx(0.5)  # min(1, 8/32)^(1 - 1/2)
    assert row.ratio == pytest.approx(row.worst_error / row.envelope, rel=1e-12)
    assert row.log_ratio == pytest.approx(math.log(row.ratio), rel=1e-12)
    assert row.worst_error == res.worst_error
