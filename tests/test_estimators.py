"""Numerical s-number estimators: pins, reductions, determinism."""
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths import distances, estimators
from schatten_widths.acceptance import EXPONENT_GRID
from schatten_widths.ascent import sup_ratio_ascent
from schatten_widths.certificates import lower_certificates, upper_certificates
from schatten_widths.core import EmbeddingSpec, embedding_norm, last_snumber, schatten_norm
from schatten_widths.exponents import as_exponent, dual_exponent
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

#: The search behind each estimator at its default budget, called past
#: ``_closed_form``: at N = 2 the estimators answer every spec exactly
#: without one
SEARCH = {kind: partial(estimators._width_search, kind=kind, restarts=6, seed=0)
          for kind in ("gelfand", "kolmogorov")}
SEARCH["approximation"] = partial(estimators._approx_search, restarts=6, seed=0)


def test_kolmogorov_pinned_value_trace_to_frobenius():
    # third width of S_1 -> S_2 at N = 2 equals 1/sqrt(2)
    est = SEARCH["kolmogorov"](EmbeddingSpec("1", "2", 2, n=3))
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
# of that order or of a search budget moves these values.  The norm
# ascents' counts also follow the last bits of each start's LAPACK
# singular values, and of nothing LAPACK computes after: the ascent
# factors each start once, with one full SVD, and moves its singular
# values in float arithmetic from there.  The two costliest norm ascents
# of the search-n3 benchmark, (1/2, inf) and (inf, 2), are pinned beside
# (1/2, 2).  The
# Kolmogorov number of S_1 -> S_inf is searched as the Gelfand number of
# the same pair (its dual); both width values are the exact ones, and so
# is the norm's.  The N = 2, n = 3 points are the searches themselves (the
# estimators answer them with the ``hurwitz-radon-tail`` anchor): the two
# approximation searches read above the exact 1/2 and 2^(-3/4).
SEARCH_PINS = [
    (SEARCH["kolmogorov"], EmbeddingSpec("1", "inf", 2, n=3), 0.5,
     {"candidates": 8, "search_rounds": 16, "winner": "split-rotation", "pair": ("1", "inf")},
     True),
    (SEARCH["approximation"], EmbeddingSpec("1", "inf", 2, n=3), 0.9949521602699152,
     {"candidates": 9, "winner": "random-proj-0"}, True),
    (SEARCH["approximation"], EmbeddingSpec("4/3", "inf", 2, n=3), 0.7705371642955792,
     {"candidates": 9, "winner": "refined"}, True),
    (estimate_approx, EmbeddingSpec("inf", "4/3", 3, n=4), 1.681792830507429,
     {"candidates": 9, "winner": "col-keep@1"}, True),
    (estimate_approx, EmbeddingSpec("1", "inf", 3, n=5), 0.9149167912427325,
     {"candidates": 9, "winner": "refined"}, True),
    (SEARCH["gelfand"], EmbeddingSpec("1/2", "2", 2, n=3), 0.3535533905932738,
     {"candidates": 8, "search_rounds": 16, "winner": "split-rotation", "pair": ("1/2", "2")},
     True),
    (operator_norm_estimate, EmbeddingSpec("1/2", "2", 3), 1.0,
     {"iterations": 89, "evaluations": 144, "start_index": 0}, True),
    (operator_norm_estimate, EmbeddingSpec("1/2", "inf", 3), 1.0,
     {"iterations": 280, "evaluations": 398, "start_index": 0}, True),
    (operator_norm_estimate, EmbeddingSpec("inf", "2", 3), 1.7320508075688772,
     {"iterations": 165, "evaluations": 338, "start_index": 1}, True),
]


@pytest.mark.parametrize("estimator, spec, value, detail, converged", SEARCH_PINS,
                         ids=["kolmogorov", "approx", "approx-refined", "approx-col-keep",
                              "approx-n3", "gelfand-direct", "norm", "norm-1/2-inf",
                              "norm-inf-2"])
def test_search_results_are_pinned(estimator, spec, value, detail, converged):
    est = estimator(spec)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert list(est.detail.items()) == list(detail.items())
    assert est.converged is converged


@pytest.mark.parametrize("q", ["1", "4/3", "inf"])
def test_residual_objective_is_the_residual_norm_and_its_adjoint_gradient(q):
    # an approximant is a plain N^2 x N^2 array in vec coordinates; the
    # gradient carries the norm's gradient at X - A(X) back through I - A^T
    rng = np.random.default_rng(6)
    A = rng.standard_normal((9, 9))
    x = rng.standard_normal((3, 3))
    objective = estimators._residual_objective(A, q)
    value, gradient = objective(x)
    assert value == pytest.approx(schatten_norm(x - (A @ x.reshape(-1)).reshape(3, 3), q),
                                  rel=1e-12)
    direction = rng.standard_normal((3, 3))
    h = 1e-6
    slope = (objective(x + h * direction)[0] - objective(x - h * direction)[0]) / (2 * h)
    assert np.tensordot(gradient(), direction) == pytest.approx(slope, rel=1e-6)


def test_norm_ascent_factors_each_point_once_per_use(count_calls):
    # the norm ascent factors each start once, with one LAPACK SVD, and
    # scores every trial from that start's singular values: no trial is
    # factored or split
    from schatten_widths import core

    calls = count_calls(core, "_lapack_svd")
    splits = count_calls(core, "spectrum_2x2")
    est = operator_norm_estimate(EmbeddingSpec("1/2", "2", 3))
    assert est.detail["evaluations"] > est.restarts
    assert len(calls) == est.restarts
    assert not splits


def test_norm_ascent_factors_only_its_starts_at_n2(count_calls):
    # at N = 2 too: the whole-space norm ascent takes no 2x2 split, and
    # one SVD per start
    from schatten_widths import core

    calls = count_calls(core, "_lapack_svd")
    splits = count_calls(core, "spectrum_2x2")
    est = operator_norm_estimate(EmbeddingSpec("1/2", "2", 2))
    assert est.detail["evaluations"] > est.restarts
    assert len(calls) == est.restarts
    assert not splits


def test_ascent_forms_gradients_only_at_starts_and_accepted_points(monkeypatch):
    # a trial point costs a value: the ascent forms a gradient (the
    # objective's or the p-norm's) only at a start or an accepted trial,
    # and only when it builds a step from there, so a point after which a
    # cut ends the start forms none.  A trial is accepted when its value
    # beats the current one by 1e-14.  The norm objective is an exponent,
    # so the norm layer is recorded: one call per scored point
    from schatten_widths import ascent

    runs = []
    layer = ascent.norms_and_deferred_gradients

    def recording_layer(t, exponents):
        norms = layer(t, exponents)
        (p_norm, _), (q_norm, _) = norms
        point = [t, q_norm / p_norm, False]
        runs[-1][2].append(point)

        def recorded(gradient):
            def formed():
                point[2] = True
                return gradient()

            return formed

        return [(value, recorded(gradient)) for value, gradient in norms]

    def recording_ascent(objective, p, starts, **kwargs):
        runs.append((p, starts, []))  # [t, value, gradient formed], one per point
        return sup_ratio_ascent(objective, p, starts, **kwargs)

    monkeypatch.setattr(ascent, "norms_and_deferred_gradients", recording_layer)
    monkeypatch.setattr(estimators, "sup_ratio_ascent", recording_ascent)
    SEARCH["kolmogorov"](EmbeddingSpec("1", "2", 2, n=3))
    assert runs
    formed = candidates = 0
    for p, starts, points in runs:
        # a start is scored after scaling by a power of two: the same
        # matrix up to that scale
        heads = [s / np.abs(s).max() for s in map(np.asarray, starts)]
        is_head, candidate, current, k = [], [], 0.0, 0
        for t, value, _ in points:
            head = k < len(heads) and np.array_equal(t / np.abs(t).max(), heads[k])
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


@pytest.mark.parametrize("p, q", [("1", "inf"), ("2", "1"), ("1/2", "2"), ("4/3", "4")])
def test_kolmogorov_is_the_gelfand_search_on_the_annihilator(p, q):
    # d_n(S_p -> S_q) = c_n(S_q* -> S_max(p,1)*) for q >= 1: one search.
    # At N = 2 every index is an anchor, so the pairs are searched at N = 3
    spec = EmbeddingSpec(p, q, 3, n=6)
    dual = EmbeddingSpec(dual_exponent(spec.q), dual_exponent(max(spec.p, 1)), spec.N, n=spec.n)
    kolmogorov = estimate_kolmogorov(spec, seed=3)
    gelfand = estimate_gelfand(dual, seed=3)
    assert kolmogorov.value == gelfand.value
    assert kolmogorov.detail == gelfand.detail
    assert kolmogorov.detail["pair"] == (str(dual.p), str(dual.q))


# (estimator, (p, q, N, n), exact value): the last index at N = 3, where
# d_9 = N^(1/q - 1/max(p,1)) for p <= q and 1 for p >= q; the first
# indices n <= N with p < 1 <= q, where every subspace of codimension
# below N holds a rank-one matrix of ratio 1; an oracle point; and two
# Hurwitz-Radon points at N = 4, where every subspace of codimension
# n - 1 < 4 meets the quaternion multiplications, whose ratio is the norm.
# The estimators answer the anchors without a search, so the test runs
# the search itself
ANCHORS = [
    (estimate_kolmogorov, ("1", "inf", 3, 9), 1 / 3),
    (estimate_kolmogorov, ("1", "2", 3, 9), 3**-0.5),
    (estimate_kolmogorov, ("2", "1", 3, 9), 1.0),
    (estimate_gelfand, ("1/2", "1", 3, 2), 1.0),
    (estimate_gelfand, ("1/2", "2", 3, 3), 1.0),
    (estimate_gelfand, ("1/2", "2", 2, 3), 0.3535534),  # net oracle
    (estimate_gelfand, ("2", "1", 4, 3), 2.0),
    (estimate_kolmogorov, ("inf", "4/3", 4, 4), 2**1.5),
]
_KIND = {estimate_gelfand: "gelfand", estimate_kolmogorov: "kolmogorov"}


@pytest.mark.parametrize("estimator, args, exact", ANCHORS)
def test_width_searches_reach_the_exact_anchors(estimator, args, exact):
    p, q, N, n = args
    est = estimators._width_search(EmbeddingSpec(p, q, N, n=n), _KIND[estimator], 6, 0)
    assert est.method == "pg-search"
    assert est.value == pytest.approx(exact, abs=1e-6)


def _grid_anchors(N):
    """The N x N Gelfand and Kolmogorov anchors on the exponent grid, as
    ``{(searched pair, n): [(kind, p, q, exact value), ...]}``."""
    groups = {}
    for kind in ("gelfand", "kolmogorov"):
        for p, q in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
            for n in range(1, N * N + 1):
                spec = EmbeddingSpec(p, q, N, n=n)
                try:
                    exact = estimators._closed_form(spec, kind, 6, 0)
                except NotImplementedError:
                    continue
                if exact is not None and exact.method == "anchor-exact":
                    key = (estimators._width_pair(spec, kind), n)
                    groups.setdefault(key, []).append((kind, p, q, exact.value))
    return groups


N2_ANCHORS = _grid_anchors(2)


@pytest.mark.parametrize("key", N2_ANCHORS, ids=lambda key: f"{key[0][0]},{key[0][1]}-n{key[1]}")
def test_width_search_reaches_every_n2_grid_anchor(key):
    # a Kolmogorov anchor is graded by the Gelfand search at its searched
    # pair, which is the search the Kolmogorov estimator runs (see
    # test_kolmogorov_is_the_gelfand_search_on_the_annihilator); at n = 1
    # that search is the norm's, operator_norm_estimate
    (a, b), n = key
    if n == 1:
        est = operator_norm_estimate(EmbeddingSpec(a, b, 2))
    else:
        est = estimators._width_search(EmbeddingSpec(a, b, 2, n=n), "gelfand", 6, 0)
    for kind, p, q, exact in N2_ANCHORS[key]:
        assert est.value == pytest.approx(exact, rel=1e-6), (kind, p, q)


def test_no_estimator_solves_a_distance(monkeypatch):
    # every search scores subspaces or approximants by norm ratios alone,
    # and the quasi diagonal p = q < 1 is exact.  At N = 2 the estimators
    # answer every spec without a search, so the searches are called past
    # them; an approximation number with a Frobenius side is a width
    calls = []
    solve = distances.distance_schatten

    def spy(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(distances, "distance_schatten", spy)
    assert not hasattr(estimators, "distance_schatten")
    searched = []
    for estimator, args in ((SEARCH["kolmogorov"], ("1", "inf", 2, 3)),
                            (SEARCH["kolmogorov"], ("1/2", "2", 2, 3)),
                            (estimate_kolmogorov, ("1/2", "1/2", 2, 2)),
                            (estimate_kolmogorov, ("1/2", "1/2", 2, 4)),
                            (SEARCH["gelfand"], ("1/2", "1", 2, 3)),
                            (SEARCH["gelfand"], ("4/3", "4", 2, 3)),
                            (SEARCH["kolmogorov"], ("1", "2", 2, 3)),
                            (SEARCH["gelfand"], ("2", "inf", 2, 3)),
                            (SEARCH["approximation"], ("4/3", "inf", 2, 3))):
        p, q, N, n = args
        searched.append(estimator(EmbeddingSpec(p, q, N, n=n), seed=0).method == "pg-search")
    assert calls == []
    assert searched.count(True) == 7


@pytest.mark.parametrize("p", ["1/2", "3/4"])
@pytest.mark.parametrize("N, n", [(N, n) for N in (2, 3) for n in range(1, N * N + 1)])
def test_kolmogorov_quasi_diagonal_is_exactly_one_at_every_index(N, n, p):
    # the annihilator of F holds a nonzero Z, whose top singular pair
    # X = u v^T has ||X - Y||_p >= <X - Y, Z> / ||Z||_inf = 1 for Y in F
    est = estimate_kolmogorov(EmbeddingSpec(p, p, N, n=n), seed=0)
    assert est.value == 1.0
    assert est.method == "identity-exact"
    assert est.detail == {"reduction": "rank-one-annihilator"}
    assert est.converged


@pytest.mark.parametrize("p, q", [("1/2", "3/4"), ("3/4", "1")])
@pytest.mark.parametrize("N, n", [(N, n) for N in (2, 3) for n in range(1, N * N + 1)])
@pytest.mark.parametrize("estimator, reduction", [
    (estimate_kolmogorov, None), (estimate_approx, "width-sandwich")])
def test_widths_below_max_p_1_are_exactly_one(estimator, reduction, N, n, p, q):
    # on p <= q <= max(p, 1), d_n = 1 (rank-one member of the annihilator,
    # or a diagonal searched pair at q = 1), and d_n <= a_n <= ||id|| = 1
    est = estimator(EmbeddingSpec(p, q, N, n=n), seed=0)
    assert est.value == 1.0
    assert est.method == "identity-exact"
    if reduction is None:
        reduction = "rank-one-annihilator" if q == "3/4" else "identity-restriction-norm"
    assert est.detail == {"reduction": reduction}
    assert est.converged


@pytest.mark.parametrize("p", ["1", "4/3", "inf"])
def test_approx_on_the_diagonal_is_exactly_one(p):
    for n in range(1, 10):
        est = estimate_approx(EmbeddingSpec(p, p, 3, n=n), seed=0)
        assert est.value == 1.0
        assert est.method == "identity-exact"
        assert est.detail == {"reduction": "width-sandwich"}


def test_approx_index_one_is_the_norm():
    # an anchor for every pair: rank one for p <= q, Hurwitz-Radon otherwise
    for p, q, reduction in (("1", "inf", "rank-one-member"), ("inf", "1", "hurwitz-radon")):
        est = estimate_approx(EmbeddingSpec(p, q, 3, n=1), seed=0)
        assert est.method == "anchor-exact"
        assert est.detail == {"reduction": reduction}
        assert est.value == embedding_norm(p, q, 3)


def test_approx_frobenius_reductions_are_labelled():
    # at N = 2 every index is an anchor
    est = estimate_approx(EmbeddingSpec("2", "inf", 3, n=8), seed=0)
    assert est.detail["reduction"] == "hilbert-domain"
    est = estimate_approx(EmbeddingSpec("1", "2", 3, n=8), seed=0)
    assert est.detail["reduction"] == "hilbert-codomain"


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

#: rho(N) for N = 1..16, from N = 2^(4a+b) * odd, rho = 8a + 2^b
HURWITZ_RADON = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
_ESTIMATORS = {"approximation": estimate_approx, "gelfand": estimate_gelfand,
               "kolmogorov": estimate_kolmogorov}


def test_hurwitz_radon_numbers():
    assert tuple(map(estimators._hurwitz_radon_number, range(1, 17))) == HURWITZ_RADON


def _quaternion_units():
    """Left multiplication by 1, i, j, k on R^4 = H."""
    units = [np.eye(4)]
    for signs in (((0, 1, -1), (1, 0, 1), (2, 3, -1), (3, 2, 1)),
                  ((0, 2, -1), (1, 3, 1), (2, 0, 1), (3, 1, -1)),
                  ((0, 3, -1), (1, 2, -1), (2, 1, 1), (3, 0, 1))):
        unit = np.zeros((4, 4))
        for row, col, sign in signs:
            unit[row, col] = sign
        units.append(unit)
    return units


#: the Hurwitz-Radon families of N = 2 and N = 4, rho(N) matrices each
HURWITZ_RADON_FAMILIES = pytest.mark.parametrize("family", [
    [np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])],
    _quaternion_units(),
], ids=["N2-span-I-J", "N4-quaternions"])


@HURWITZ_RADON_FAMILIES
def test_hurwitz_radon_families_have_flat_spectra(family):
    # rho(N) independent matrices whose every combination is a multiple of
    # an orthogonal matrix: its ratio ||X||_q / ||X||_p is the norm
    N = len(family[0])
    assert len(family) == HURWITZ_RADON[N - 1]
    assert np.linalg.matrix_rank(np.array([f.ravel() for f in family])) == len(family)
    coeffs = np.random.default_rng(41).standard_normal((1000, len(family)))
    members = np.einsum("kf,fij->kij", coeffs, np.array(family))
    sigma = np.linalg.svd(members, compute_uv=False)
    assert np.all(sigma[:, -1] >= sigma[:, 0] * (1 - 1e-12))
    ratio = schatten_norm(members, "4/3") / schatten_norm(members, "inf")
    assert ratio == pytest.approx(embedding_norm("inf", "4/3", N), rel=1e-12)


@HURWITZ_RADON_FAMILIES
def test_hurwitz_radon_complement_attains_the_tail_approximation_number(family):
    # id - P_H, with P_H the Frobenius projection onto the family's span H,
    # has rank N^2 - rho(N) and leaves P_H X, whose q-norm is at most
    # N^(1/q - 1/max(p, 1)) ||X||_p (Hoelder against H's orthogonal
    # members): the hurwitz-radon-tail value of a_n at p <= q.  E_11 = e_1
    # e_1^T (rank one) attains the bound at p <= 1, and I, a member of H, at
    # p >= 1
    N, rho = len(family[0]), len(family)
    frame = np.array([f.ravel() for f in family]).T / np.sqrt(N)
    assert np.allclose(frame.T @ frame, np.eye(rho), rtol=0.0, atol=1e-15)
    proj = frame @ frame.T
    assert np.linalg.matrix_rank(np.eye(N * N) - proj) == N * N - rho

    def project(xs):
        return (xs.reshape(len(xs), -1) @ proj).reshape(xs.shape)

    rng = np.random.default_rng(43)
    u, v = rng.standard_normal((2, 500, N))
    samples = np.concatenate([rng.standard_normal((500, N, N)), np.einsum("ki,kj->kij", u, v)])
    unit = np.zeros((N, N))
    unit[0, 0] = 1.0
    attainers = np.array([unit, np.eye(N)])
    for p, q in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
        if as_exponent(p) > as_exponent(q):
            continue
        inv_p, inv_q = (0.0 if e == np.inf else 1 / float(e) for e in map(as_exponent, (p, q)))
        bound = N ** (inv_q - min(inv_p, 1.0))
        if as_exponent(q) >= 1:
            assert bound == pytest.approx(last_snumber("approximation", p, q, N), rel=1e-15)
        ratios = schatten_norm(project(samples), q) / schatten_norm(samples, p)
        assert ratios.max() <= bound * (1 + 1e-12), (p, q)
        attained = schatten_norm(project(attainers), q) / schatten_norm(attainers, p)
        assert attained[0 if as_exponent(p) <= 1 else 1] == pytest.approx(bound, rel=1e-12)


def _expected_anchor(kind, p, q, N, n):
    """``(value, reduction)`` of the anchor at a spec that passes the
    refusal and the exact pairs, or None: the statements, not the code."""
    p, q = as_exponent(p), as_exponent(q)
    inv_p, inv_q = (0.0 if e == np.inf else 1 / float(e) for e in (p, q))
    inv_domain = inv_p if kind == "gelfand" else min(inv_p, 1.0)
    last = min(1.0, N ** (inv_q - inv_domain))
    if p <= q and n <= N:
        return 1.0, "rank-one-member"
    if n == N * N:
        return last, "last-index"
    if p <= q and n > N * N - HURWITZ_RADON[N - 1]:
        return last, "hurwitz-radon-tail"
    if p > q and n <= HURWITZ_RADON[N - 1]:
        return N ** (inv_q - inv_p), "hurwitz-radon"
    if p > q and n > N * (N - 1):
        return 1.0, "column-zero"
    return None


def _exact_before_the_anchors(kind, p, q):
    """Whether ``_closed_form`` refuses the pair or answers it before the
    anchors (``hilbert-exact``, ``identity-exact``)."""
    p, q = as_exponent(p), as_exponent(q)
    if q < 1 and (q < p or (kind == "gelfand" and p != q)):
        return True
    return p == q if kind == "gelfand" else p <= q <= max(p, 1)


def _anchor_specs(kind, N):
    """The specs on the exponent grid at side ``N`` that pass the refusal
    and the exact pairs."""
    for p, q in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
        if not _exact_before_the_anchors(kind, p, q):
            for n in range(1, N * N + 1):
                yield EmbeddingSpec(p, q, N, n=n)


@pytest.mark.parametrize("kind", ["approximation", "gelfand", "kolmogorov"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_every_grid_anchor_is_answered_exactly(kind, N):
    anchors = 0
    for spec in _anchor_specs(kind, N):
        expected = _expected_anchor(kind, spec.p, spec.q, N, spec.n)
        if expected is None:
            assert estimators._anchor(spec, kind) is None
            continue
        anchors += 1
        est = _ESTIMATORS[kind](spec, seed=0)
        assert est.method == "anchor-exact"
        assert est.value == pytest.approx(expected[0], rel=1e-15, abs=0.0)
        assert est.detail == {"reduction": expected[1]}
        assert (est.snumber_kind, est.restarts, est.converged) == (kind, 0, True)
    assert anchors > 0


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["approximation", "gelfand", "kolmogorov"]),
       p=st.sampled_from(EXPONENT_GRID), q=st.sampled_from(EXPONENT_GRID),
       N=st.sampled_from([2, 3, 4]))
def test_anchors_lie_between_the_exact_certificates(kind, p, q, N):
    # the certificates are independent proofs: no anchor may contradict one
    if _exact_before_the_anchors(kind, p, q):
        return
    for n in range(1, N * N + 1):
        spec = EmbeddingSpec(p, q, N, n=n)
        if estimators._anchor(spec, kind) is None:
            continue
        value = _ESTIMATORS[kind](spec, seed=0).value
        lows = [c.value for c in lower_certificates(spec, kind) if c.exact_constant]
        ups = [c.value for c in upper_certificates(spec, kind) if c.exact_constant]
        assert max(lows, default=0.0) <= value * (1 + 1e-12)
        assert value <= min(ups) * (1 + 1e-12)


@pytest.mark.parametrize("p, q, N, n", [("1/2", "4", 3, 4), ("3/4", "inf", 3, 4)])
def test_approx_quasi_domain_collapses_onto_p_1(p, q, N, n):
    # conv(S_p ball) = S_1 ball and X -> ||X - A(X)||_q is convex; at
    # N = 2 every index is an anchor
    est = estimate_approx(EmbeddingSpec(p, q, N, n=n), seed=0)
    base = estimate_approx(EmbeddingSpec("1", q, N, n=n), seed=0)
    assert est.value == base.value
    assert est.method == base.method == "pg-search"
    assert est.detail == {"reduction": "quasi-domain-collapse", **base.detail}
    assert est.spec.p == as_exponent(p)


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
    # q < 1 is refused below the domain (q < p) for every kind, and for
    # Gelfand numbers everywhere off the diagonal
    exponents = ("1/4", "1/2", "3/4", "1", "4/3", "2", "inf")
    cases = [(estimator, p, q)
             for estimator in (estimate_approx, estimate_gelfand, estimate_kolmogorov)
             for p in exponents for q in exponents
             if as_exponent(q) < min(as_exponent(p), 1)]
    for estimator, p, q in cases + [(estimate_gelfand, "1/2", "3/4")]:
        with pytest.raises(NotImplementedError):
            estimator(EmbeddingSpec(p, q, 2, n=2), seed=0)


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
    spec = EmbeddingSpec("1", "2", 3, n=8)
    est = estimate_kolmogorov(spec, restarts=4, seed=9)
    assert est.spec == spec
    assert est.snumber_kind == "kolmogorov"
    assert est.restarts == 4
    assert est.seed == 9
    assert isinstance(est.detail, dict)
