"""Numerical s-number estimators: pins, reductions, determinism."""
import numpy as np
import pytest

from schatten_widths import estimators
from schatten_widths.ascent import sup_ratio_ascent
from schatten_widths.core import EmbeddingSpec, embedding_norm, schatten_norm
from schatten_widths.estimators import (
    estimate_approx,
    estimate_gelfand,
    estimate_kolmogorov,
    operator_norm_estimate,
)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", ["1/2", "1", "2", "inf"])
@pytest.mark.parametrize("q", ["1", "2", "inf"])
def test_norm_estimate_matches_the_closed_form(p, q):
    spec = EmbeddingSpec(p, q, 3)
    est = operator_norm_estimate(spec)
    assert est.value == pytest.approx(embedding_norm(p, q, 3), rel=1e-8)
    assert est.snumber_kind == "operator-norm"
    assert est.method == "pg-search"


# ---------------------------------------------------------------------------
# pinned width values
# ---------------------------------------------------------------------------


def test_kolmogorov_pinned_value_trace_to_frobenius():
    # third width of S_1 -> S_2 at N = 2 equals 1/sqrt(2)
    est = estimate_kolmogorov(EmbeddingSpec("1", "2", 2, n=3), seed=0)
    assert est.value == pytest.approx(2.0**-0.5, rel=1e-6)
    assert est.method == "pg-search"
    assert est.converged
    assert "winner" in est.detail


def test_approx_pinned_value_frobenius_to_operator():
    # last approximation number of S_2 -> S_inf at N = 2 equals 1/sqrt(2)
    est = estimate_approx(EmbeddingSpec("2", "inf", 2, n=4), seed=0)
    assert est.value == pytest.approx(2.0**-0.5, rel=1e-6)


def test_identity_widths_are_one_for_small_indices():
    # on the diagonal p = q every width with n <= N is exactly 1
    est = estimate_kolmogorov(EmbeddingSpec("1", "1", 2, n=2), seed=1)
    assert est.value == pytest.approx(1.0, rel=2e-2)


# Each search's value and detail at seed 0.  The seeded random draws
# (frames, approximants, ascent starts) come in a fixed order, so a change
# of that order or of a search budget moves these values.  At N = 3 the
# counts also follow the last bits of the LAPACK singular values: a full
# SVD and a values-only SVD of one 3x3 matrix differ there for most
# matrices, and the norm objective takes its value from the full one.  The
# three Kolmogorov finalists all reach 1/2 + 6e-13 and differ by under
# 2e-14 relative, so its winner label follows the last bits too.
SEARCH_PINS = [
    (estimate_kolmogorov, EmbeddingSpec("1", "inf", 2, n=3), 0.5000000000005868,
     {"candidates": 8, "search_rounds": 16, "winner": "split-reflection", "quasi_inner": False},
     True),
    (estimate_approx, EmbeddingSpec("1", "inf", 2, n=3), 0.9949521602699152,
     {"candidates": 9, "winner": "random-proj-0"}, True),
    (estimate_gelfand, EmbeddingSpec("1/2", "2", 2, n=3), 0.35777282832218754,
     {"experimental": True, "search_rounds": 20}, True),
    (operator_norm_estimate, EmbeddingSpec("1/2", "2", 3), 1.0000000000000002,
     {"iterations": 89, "evaluations": 156, "start_index": 3}, True),
]


@pytest.mark.parametrize("estimator, spec, value, detail, converged", SEARCH_PINS,
                         ids=["kolmogorov", "approx", "gelfand-direct", "norm"])
def test_search_results_are_pinned(estimator, spec, value, detail, converged):
    est = estimator(spec)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert list(est.detail.items()) == list(detail.items())
    assert est.converged is converged


def test_norm_ascent_factors_each_point_once_per_use(monkeypatch):
    # the norm objective takes its value and gradient from one SVD; the
    # ascent adds one SVD per start and per trial point (its p-norm) and
    # one per step (its p-gradient)
    calls = []
    lapack_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(None)
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    est = operator_norm_estimate(EmbeddingSpec("1/2", "2", 3))
    budget = 2 * est.detail["evaluations"] + est.detail["iterations"] + est.restarts
    assert 0 < len(calls) <= budget


def test_ascent_forms_gradients_only_at_starts_and_accepted_points(monkeypatch):
    # a trial point costs a value: the ascent forms an objective's gradient
    # only at a start or an accepted trial, and only when it builds a step
    # from there, so a point after which a cut ends the start forms none.
    # A trial is accepted when its value beats the current one by 1e-14
    runs = []

    def recording_ascent(objective, p, starts, **kwargs):
        points = []  # [x, value, gradient formed], one per evaluation

        def recording(x):
            value, gradient = objective(x)
            point = [x, value, False]
            points.append(point)

            def formed():
                point[2] = True
                return gradient()

            return value, formed

        result = sup_ratio_ascent(recording, p, starts, **kwargs)
        runs.append((p, starts, points))
        return result

    monkeypatch.setattr(estimators, "sup_ratio_ascent", recording_ascent)
    estimate_kolmogorov(EmbeddingSpec("1", "2", 2, n=3))
    assert runs
    formed = candidates = 0
    for p, starts, points in runs:
        heads = [s / schatten_norm(s, p) for s in map(np.asarray, starts)]
        is_head, candidate, current, k = [], [], 0.0, 0
        for x, value, _ in points:
            head = k < len(heads) and np.array_equal(x, heads[k])
            accepted = not head and value > current * (1 + 1e-14)
            if head:
                k += 1
            if head or accepted:
                current = value
            is_head.append(head)
            candidate.append(head or accepted)
        assert k == len(heads)
        for i, point in enumerate(points):
            if point[2]:
                assert candidate[i]
            if candidate[i] and i + 1 < len(points) and not is_head[i + 1]:
                assert point[2]
        formed += sum(point[2] for point in points)
        candidates += sum(candidate)
    assert formed < candidates


def test_kolmogorov_at_the_last_index_is_exact():
    # n = N^2 leaves a hyperplane w^perp, where the S_2 -> S_1 ratio is
    # ||w||_2 / ||w||_inf >= 1, with equality at rank one; m = 8 exceeds
    # the N^2 - N + 1 = 7 identity and off-diagonal directions
    est = estimate_kolmogorov(EmbeddingSpec("2", "1", 3, n=9), seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# exact reductions
# ---------------------------------------------------------------------------


def test_hilbert_case_is_exact():
    for estimator, kind in ((estimate_approx, "approximation"),
                            (estimate_gelfand, "gelfand"),
                            (estimate_kolmogorov, "kolmogorov")):
        est = estimator(EmbeddingSpec("2", "2", 3, n=4), seed=0)
        assert est.value == 1.0
        assert est.snumber_kind == kind
        assert est.method == "hilbert-exact"
        assert est.converged


def test_gelfand_quasi_diagonal_is_exactly_one():
    est = estimate_gelfand(EmbeddingSpec("1/2", "1/2", 2, n=2), seed=0)
    assert est.value == 1.0
    assert est.method == "identity-exact"
    assert est.converged


def test_gelfand_banach_goes_through_the_dual():
    est = estimate_gelfand(EmbeddingSpec("1", "inf", 2, n=2), seed=0)
    assert est.method == "dual-reduction"
    assert est.detail["dual"] == ("1", "inf")  # self-dual pair, swapped
    est = estimate_gelfand(EmbeddingSpec("4/3", "4", 2, n=2), seed=0)
    assert est.detail["dual"] == ("4/3", "4")


def test_approx_index_one_is_the_norm():
    est = estimate_approx(EmbeddingSpec("1", "inf", 2, n=1), seed=0)
    assert est.detail["reduction"] == "index-1-is-norm"
    assert est.value == pytest.approx(1.0, rel=1e-8)


def test_approx_frobenius_reductions_are_labelled():
    est = estimate_approx(EmbeddingSpec("2", "inf", 2, n=3), seed=0)
    assert est.detail["reduction"] == "hilbert-domain"
    est = estimate_approx(EmbeddingSpec("1", "2", 2, n=3), seed=0)
    assert est.detail["reduction"] == "hilbert-codomain"


# ---------------------------------------------------------------------------
# contract details
# ---------------------------------------------------------------------------


def test_estimators_require_an_index():
    with pytest.raises(ValueError):
        estimate_kolmogorov(EmbeddingSpec("1", "2", 2), seed=0)
    with pytest.raises(ValueError):
        estimate_approx(EmbeddingSpec("1", "2", 2), seed=0)
    with pytest.raises(ValueError):
        estimate_gelfand(EmbeddingSpec("1", "2", 2), seed=0)


def test_quasi_codomain_off_diagonal_is_rejected():
    with pytest.raises(NotImplementedError):
        estimate_kolmogorov(EmbeddingSpec("1", "1/2", 2, n=2), seed=0)
    with pytest.raises(NotImplementedError):
        estimate_approx(EmbeddingSpec("2", "3/4", 2, n=2), seed=0)
    with pytest.raises(NotImplementedError):
        estimate_gelfand(EmbeddingSpec("1/2", "1/4", 2, n=2), seed=0)


@pytest.mark.parametrize("restarts", [0, -3, True, 2.0])
@pytest.mark.parametrize("estimator", [estimate_approx, estimate_gelfand,
                                       estimate_kolmogorov, operator_norm_estimate])
def test_restarts_must_be_a_positive_integer(estimator, restarts):
    # also where an exact value needs no search (p = q = 2)
    for p in ("1", "2"):
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            estimator(EmbeddingSpec(p, "2", 2, n=3), restarts=restarts)


def test_same_seed_reproduces_the_estimate():
    spec = EmbeddingSpec("1", "inf", 2, n=2)
    a = estimate_kolmogorov(spec, seed=5)
    b = estimate_kolmogorov(spec, seed=5)
    assert a.value == b.value
    assert a.detail == b.detail
    assert a.seed == 5


def test_estimate_carries_its_provenance():
    spec = EmbeddingSpec("1", "2", 2, n=2)
    est = estimate_kolmogorov(spec, restarts=4, seed=9)
    assert est.spec == spec
    assert est.snumber_kind == "kolmogorov"
    assert est.restarts == 4
    assert est.seed == 9
    assert isinstance(est.detail, dict)
