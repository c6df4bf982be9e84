"""Net-search reference oracle and its frozen calibration battery."""
import functools
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths.acceptance import EXPONENT_GRID
from schatten_widths.core import EmbeddingSpec, embedding_norm, last_snumber, schatten_norm
from schatten_widths.distances import distance_schatten
from schatten_widths.exponents import dual_exponent, exponent_float
from schatten_widths.operators import SubspaceBasis
from schatten_widths import estimators, oracle
from schatten_widths.oracle import (
    DEFAULT_ORACLE_SEED,
    _RestrictionNet,
    _frame_search,
    load_frozen_battery,
    net_oracle,
)


# ---------------------------------------------------------------------------
# frozen battery integrity
# ---------------------------------------------------------------------------


def test_frozen_battery_shape_and_provenance():
    data = load_frozen_battery()
    assert data["h"] == 0.05
    assert data["seed"] == DEFAULT_ORACLE_SEED
    points = data["points"]
    assert len(points) == 15
    assert sum(1 for pt in points if pt["battery"]) == 12
    for pt in points:
        assert pt["kind"] in ("approx", "gelfand", "kolmogorov")
        assert isinstance(pt["n"], int) and 1 <= pt["n"] <= 4
        assert pt["value"] > 0
        assert pt["error_bar"] > 0
        assert pt["path"] in ("gelfand", "kolmogorov")


# The frozen points whose value is proven at N = 2, with the proof:
# - n <= N with p <= q: a rank-one member of ratio 1 (the estimators'
#   ``rank-one-member`` anchor);
# - the last index n = 4 (``last-index``);
# - n = 2 with p > q: span{I, J} meets every hyperplane, and its members'
#   flat spectra give the norm (``hurwitz-radon``);
# - n = 3 with p > q: the column-zero bound and every ratio being at
#   least 1 (``column-zero``);
# - p = q = 2: the identity is an isometry of S_2;
# - Kolmogorov (1, 2), n = 3: the rank-one matrices u v^T average to
#   I / 4 in vec coordinates, so their mean squared distance to a plane F
#   is 1/2, and F = span{I, J} attains it at every u v^T.  A quasi-norm
#   domain collapses onto p = 1, and the approximation number with a
#   Frobenius codomain is the Kolmogorov number;
# - every n = 3 with p <= q, Kolmogorov (4/3, 2) among them: the last
#   index's value, attained by span{I, J} (``hurwitz-radon-tail``).
PROVEN = {
    ("kolmogorov", "1", "2", 2): 1.0,
    ("kolmogorov", "1", "2", 3): 2.0**-0.5,
    ("kolmogorov", "1", "2", 4): 2.0**-0.5,
    ("kolmogorov", "1/2", "2", 3): 2.0**-0.5,
    ("kolmogorov", "inf", "2", 2): 2.0**0.5,
    ("kolmogorov", "2", "1", 3): 1.0,
    ("kolmogorov", "1", "inf", 2): 1.0,
    ("approx", "2", "inf", 4): 2.0**-0.5,
    ("approx", "2", "inf", 2): 1.0,
    ("approx", "1", "2", 3): 2.0**-0.5,
    ("approx", "inf", "2", 2): 2.0**0.5,
    ("gelfand", "2", "4", 2): 1.0,
    ("gelfand", "1/2", "1", 2): 1.0,
    ("kolmogorov", "2", "2", 3): 1.0,
    ("kolmogorov", "4/3", "2", 3): 2.0**-0.25,
}


def test_frozen_battery_contains_exactly_known_values():
    data = load_frozen_battery()
    values = {(pt["kind"], pt["p"], pt["q"], pt["n"]): pt["value"] for pt in data["points"]}
    assert set(values) == set(PROVEN)
    for key, exact in PROVEN.items():
        assert values[key] == pytest.approx(exact, rel=1e-9, abs=0.0), key


def test_frozen_extra_points_match_the_search_estimators():
    # the estimators answer these anchors without a search, so the search
    # is called past them
    data = load_frozen_battery()
    extras = [pt for pt in data["points"] if not pt["battery"] and pt["kind"] == "gelfand"]
    assert extras
    for pt in extras:
        spec = EmbeddingSpec(pt["p"], pt["q"], 2, n=pt["n"])
        est = estimators._width_search(spec, "gelfand", 6, 0)
        assert est.method == "pg-search"
        assert est.value == pytest.approx(pt["value"], abs=pt["error_bar"])


# ---------------------------------------------------------------------------
# live oracle runs (kept cheap: coarse nets only)
# ---------------------------------------------------------------------------


def test_net_oracle_reproduces_a_known_width_cheaply():
    est = net_oracle(EmbeddingSpec("1", "2", 2, n=3), "kolmogorov", h=0.1)
    assert est.value == pytest.approx(2.0**-0.5, abs=0.05)
    assert est.method == "net-oracle"
    assert est.detail["path"] == "kolmogorov"
    assert est.detail["h"] == 0.1
    assert est.detail["error_bar"] == pytest.approx(0.2)
    assert est.converged


def test_net_oracle_is_deterministic_for_a_fixed_seed():
    spec = EmbeddingSpec("1", "2", 2, n=2)
    a = net_oracle(spec, "kolmogorov", h=0.15, seed=123)
    b = net_oracle(spec, "kolmogorov", h=0.15, seed=123)
    assert a.value == b.value
    assert a.restarts == b.restarts


def test_net_oracle_routes_approximation_through_coincidences():
    est = net_oracle(EmbeddingSpec("2", "inf", 2, n=2), "approx", h=0.15)
    assert est.detail["path"] == "gelfand"
    est = net_oracle(EmbeddingSpec("1", "2", 2, n=2), "approx", h=0.15)
    assert est.detail["path"] == "kolmogorov"


@pytest.mark.parametrize("p,q", [("2", "inf"), ("1", "2")])
def test_net_oracle_takes_the_estimators_name_for_approximation_numbers(p, q):
    # estimate_approx, envelope_profile and the CLI's --kind say "approximation"
    spec = EmbeddingSpec(p, q, 2, n=2)
    long = net_oracle(spec, "approximation", h=0.25)
    short = net_oracle(spec, "approx", h=0.25)
    assert long.value == short.value
    assert long.restarts == short.restarts
    assert long.detail == short.detail
    assert long.snumber_kind == "approximation"
    with pytest.raises(NotImplementedError):
        net_oracle(EmbeddingSpec("4/3", "4", 2, n=2), "approximation")


# every frozen point is cheap at the frozen resolution (about 0.1 s
# together): the restriction nets of lines, planes and hyperplanes, all of
# them built on the 2x2 rotation/reflection split
FROZEN = load_frozen_battery()


@pytest.mark.parametrize(
    "kind,p,q,n", [(pt["kind"], pt["p"], pt["q"], pt["n"]) for pt in FROZEN["points"]])
def test_cheap_battery_points_reproduce_their_frozen_values(kind, p, q, n):
    (frozen,) = [
        pt for pt in FROZEN["points"] if (pt["kind"], pt["p"], pt["q"], pt["n"]) == (kind, p, q, n)
    ]
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=FROZEN["h"], seed=FROZEN["seed"])
    assert est.value == pytest.approx(frozen["value"], rel=1e-12, abs=0.0)
    assert est.restarts == frozen["frames"]


def test_distance_net_point_is_pinned():
    # Kolmogorov (1, inf), n = 2, once a q = inf distance net, is the
    # Gelfand restriction net at its dual pair (1, inf), where the rank-one
    # members attain the exact value 1
    est = net_oracle(EmbeddingSpec("1", "inf", 2, n=2), "kolmogorov", h=0.25)
    assert est.value == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert est.detail["pair"] == ("1", "inf")


# oracle paths at the coarsest resolution: a hyperplane net read by its
# flat-spectrum members (the Hurwitz-Radon value sqrt(2)), and the
# two-dimensional restriction nets with their rank-one roots
@pytest.mark.parametrize(
    "kind,p,q,n,value,frames",
    [
        ("kolmogorov", "2", "1", 2, 1.4142135623730951, 464),
        ("gelfand", "1/2", "1", 3, 0.5, 484),
        ("gelfand", "2", "4", 3, 0.8408964152537144, 484),
    ],
)
def test_unreached_oracle_paths_are_pinned(kind, p, q, n, value, frames):
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=0.25)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.restarts == frames
    assert 0 < est.detail["frames_scored"] < frames


def test_kolmogorov_numbers_run_the_gelfand_net_at_the_dual_pair():
    # d_n(S_1 -> S_4/3) = c_n(S_4 -> S_inf): served at every q >= 1, not
    # only at q in {1, 2, inf}
    kolmogorov = net_oracle(EmbeddingSpec("1", "4/3", 2, n=2), "kolmogorov", h=0.25)
    gelfand = net_oracle(EmbeddingSpec("4", "inf", 2, n=2), "gelfand", h=0.25)
    assert kolmogorov.value == gelfand.value
    assert kolmogorov.restarts == gelfand.restarts
    assert kolmogorov.detail["pair"] == gelfand.detail["pair"] == ("4", "inf")
    assert kolmogorov.detail["path"] == "kolmogorov"
    # a quasi-norm codomain has no dual pair: only the norm n = 1 is served
    spec = EmbeddingSpec("1/2", "3/4", 2, n=1)
    assert net_oracle(spec, "kolmogorov", h=0.25).detail["pair"] == ("1/2", "3/4")
    for n in (2, 3, 4):
        with pytest.raises(NotImplementedError):
            net_oracle(EmbeddingSpec("1/2", "3/4", 2, n=n), "kolmogorov", h=0.25)


@pytest.mark.parametrize("kind,p,q,n", [("kolmogorov", "1", "2", 1)])
def test_paths_without_a_frame_search_score_all_they_consider(kind, p, q, n):
    # the norm path, the whole space, considers no frames
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=0.25)
    assert est.detail["frames_scored"] == est.restarts == 0


@pytest.mark.parametrize("p,q", list(itertools.product(EXPONENT_GRID, EXPONENT_GRID)))
def test_one_dimensional_restrictions_read_the_last_snumber(p, q):
    # c_4 = min(1, 2^(1/q - 1/p)) is the least ratio of one matrix, at a
    # split axis (flat spectrum) for p <= q and a matrix unit otherwise:
    # both are seed frames, and every later line is screened by its exact
    # value
    est = net_oracle(EmbeddingSpec(p, q, 2, n=4), "gelfand", h=0.25)
    assert est.value == pytest.approx(last_snumber("gelfand", p, q, 2), rel=1e-15, abs=0.0)
    assert 0 < est.detail["frames_scored"] < est.restarts


def test_planes_read_the_hurwitz_radon_tail_anchors():
    # at n = 3 with p <= q the estimators answer every width from the
    # hurwitz-radon-tail anchor, last_snumber, without a search: the net
    # agrees with each of them (the power-mean bound, attained on span{I, J})
    checked = 0
    for kind in ("gelfand", "kolmogorov"):
        for p, q in itertools.product(EXPONENT_GRID, EXPONENT_GRID):
            spec = EmbeddingSpec(p, q, 2, n=3)
            try:
                exact = estimators._closed_form(spec, kind, 6, 0)
            except NotImplementedError:
                continue
            if exact.detail.get("reduction") != "hurwitz-radon-tail":
                continue
            est = net_oracle(spec, kind, h=0.25)
            assert est.value == pytest.approx(exact.value, rel=1e-12, abs=0.0), (kind, p, q)
            checked += 1
    assert checked == 38


@functools.lru_cache(maxsize=None)
def _distances_and_dual_bounds(q, m):
    """Ten random points x and frames F at N = 2: the points, the N = 2
    solvers' dist_q(x, F), and the best and the largest of 20,000 sampled
    Hahn-Banach bounds <x, Z> / ||Z||_{q*} over Z in F-perp (half of the
    samples around the best of the first half)."""
    rng = np.random.default_rng(2103)
    points, values, best, largest = [], [], [], []
    for _ in range(10):
        full = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        basis = SubspaceBasis(full[:, :m], 2)
        x = rng.standard_normal((2, 2))

        def bounds(coeffs):
            Z = coeffs @ full[:, m:].T
            return np.abs(Z @ x.reshape(-1)) / schatten_norm(Z.reshape(-1, 2, 2), dual_exponent(q))

        coarse = rng.standard_normal((10_000, 4 - m))
        ratios = bounds(coarse)
        centre = coarse[ratios.argmax()] / np.linalg.norm(coarse[ratios.argmax()])
        fine = bounds(centre + 0.05 * rng.standard_normal((10_000, 4 - m)))
        points.append(x)
        values.append(distance_schatten(x, basis, q).value)
        best.append(fine.max())
        largest.append(max(ratios.max(), fine.max()))
    return np.array(points), np.array(values), np.array(best), np.array(largest)


@pytest.mark.parametrize("p", ["2", "1/2", "inf"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", ["1", "2", "inf"])
def test_distance_net_agrees_with_distance_schatten(q, m, p):
    # dist_q(x, F) = max over Z in F-perp of <x, Z> / ||Z||_{q*}: every
    # sampled Z bounds the N = 2 solvers' value from below, and the best
    # sample comes within 1% of it
    points, values, best, largest = _distances_and_dual_bounds(q, m)
    assert np.all(largest <= values * (1 + 1e-9))
    assert np.all(best >= values * (1 - 1e-2))
    # a distance net's score max_x dist_q(x, F) / ||x||_p, read from the
    # dual bounds, agrees, and stays within ||id: S_p -> S_q|| as 0 is in F
    norms = schatten_norm(points, p)
    score = (values / norms).max()
    assert (best / norms).max() == pytest.approx(score, rel=1e-2, abs=0.0)
    assert score <= embedding_norm(p, q, 2) * (1 + 1e-12)


#: the hyperplanes that hold span{I, J} (normal (1, 0, 0, -1) / sqrt(2))
#: and the reflection plane (normal J), as frames
_FLAT_HOLDERS = np.stack([oracle._SPLIT_DIRS[[0, 1, 3]].T, oracle._SPLIT_DIRS[[0, 2, 3]].T])


def _random_frames(count, m, seed=7):
    return oracle._orth(np.random.default_rng(seed).standard_normal((count, 4, m)))


def _assert_stack_matches_single_frames(evaluate, frames):
    stacked = evaluate(frames)
    alone = np.array([evaluate(frames[i:i + 1])[0] for i in range(frames.shape[0])])
    assert stacked.shape == (frames.shape[0],)
    assert np.array_equal(stacked, alone)  # bit for bit


@pytest.mark.parametrize("dim", [2, 3])
def test_restriction_net_stack_matches_single_frames(dim):
    net = _RestrictionNet(dim, 0.5, 1.0, 0.25)
    frames = _random_frames(oracle._CHUNK // net.W.shape[0] + 2, dim)
    eye = np.eye(4)
    if dim == 3:
        frames[0] = eye[:, [0, 1, 3]]  # the rank-one net drops the angle 0
        frames[1:3] = _FLAT_HOLDERS
    else:
        frames[0] = oracle._SPLIT_DIRS[:2].T  # rotations: no real rank-one ray
        frames[1] = eye[:, [3, 0]]  # det(C) = 0 with a linear root
        frames[2] = eye[:, [0, 1]]  # det(C) = 0 and no linear term
    _assert_stack_matches_single_frames(net, frames)


def _frame_search_one_by_one(evaluate, m, rng, h):
    """The frame search scoring one frame at a time, as it was written
    before it scored stacks: the reference for :func:`_frame_search`."""
    frames = list(oracle._seed_frames(m))
    n_frames = len(frames) + max(96, int(round(16.0 / h)))
    while len(frames) < n_frames:
        frames.extend(oracle._orth(rng.standard_normal((1, 4, m))))
    top = []
    counter = 0

    def consider(B):
        nonlocal counter
        top.append((evaluate(B[None])[0], counter, B))
        counter += 1
        top.sort(key=lambda item: (item[0], item[1]))
        del top[3:]

    for B in frames:
        consider(B)
    n_zoom = max(24, int(round(1.6 / h)))
    for tau in (0.6, 0.25, 0.1, 0.04, 0.016):
        for _, _, B in list(top):
            for _ in range(n_zoom):
                for q in oracle._orth((B + tau * rng.standard_normal((4, m)))[None]):
                    consider(q)
    value, _, frame = top[0]
    return value, frame, counter


@pytest.mark.parametrize(
    "make,m",
    [
        (lambda h: _RestrictionNet(1, 2.0, 4.0, h), 1),
        (lambda h: _RestrictionNet(2, 2.0, 4.0, h), 2),
        (lambda h: _RestrictionNet(3, 0.5, 1.0, h), 3),
        (lambda h: _RestrictionNet(3, math.inf, 2.0, h), 3),
    ],
    ids=["restriction-dim1", "restriction-dim2", "restriction-dim3", "restriction-dim3-flat"],
)
def test_stacked_frame_search_repeats_the_one_by_one_search(make, m):
    h = 0.25
    evaluate = make(h)
    value, frame, count = _frame_search(evaluate, m, np.random.default_rng(11), h)
    scored = evaluate.scored
    ref_value, ref_frame, ref_count = _frame_search_one_by_one(
        evaluate, m, np.random.default_rng(11), h)
    assert value == ref_value
    assert np.array_equal(frame, ref_frame)
    assert count == ref_count
    assert scored < count  # the lower bounds screened some frames out


@pytest.mark.parametrize(
    "make,m",
    [(lambda: _RestrictionNet(3, 0.5, 1.0, 0.25), 3)],
    ids=["restriction"],
)
def test_a_searched_evaluator_is_freed_without_the_cyclic_collector(make, m):
    # a reference cycle (say, a bound method stored on the evaluator) would
    # keep each call's net alive until the cyclic collector runs, and
    # repeated oracle calls would pile their nets up in memory
    gc.disable()
    try:
        evaluate = make()
        ref = weakref.ref(evaluate)
        _frame_search(evaluate, m, np.random.default_rng(0), 0.25)
        del evaluate
        assert ref() is None
    finally:
        gc.enable()


#: exponents for the lower-bound property: quasi-norms, norms and inf
EXPONENT = st.one_of(st.floats(0.3, 8.0), st.just(math.inf))


def _special_and_random_frames(dim, seed):
    """40 random frames, the first three replaced by frames on the edge
    cases of the exact members."""
    frames = _random_frames(40, dim, seed)
    if dim == 2:
        frames[0] = oracle._SPLIT_DIRS[:2].T  # rotations: no rank-one member
        frames[1] = np.eye(4)[:, [3, 0]]  # det(C) = 0 with a linear root
        frames[2] = np.eye(4)[:, [0, 1]]  # det(C) = 0 and no linear term
    elif dim == 3:
        frames[0] = np.eye(4)[:, [0, 1, 3]]  # the rank-one net drops the angle 0
        frames[1:3] = _FLAT_HOLDERS
    return frames


class _RecordingNet(_RestrictionNet):
    """A restriction net that keeps each stack it scores in full."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stacks = []

    def __call__(self, B):
        self.stacks.append(B)
        return super().__call__(B)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    p=EXPONENT,
    q=EXPONENT,
    seed=st.integers(0, 2**16),
    pick=st.integers(0, 39),
)
def test_the_screen_scores_exactly_the_frames_below_the_bar(dim, p, q, seed, pick):
    # a pool at the bar of one frame's own bound, so that ties are exact;
    # a frame with a NaN entry has a NaN bound and is scored
    evaluate = _RecordingNet(dim, p, q, 0.25)
    frames = _special_and_random_frames(dim, seed)
    frames[3, 0, 0] = np.nan
    bounds = evaluate.lower(frames)
    finite = bounds[~np.isnan(bounds)]
    bar = finite[pick % finite.size]
    below = ~(bounds >= bar)
    assert np.array_equal(evaluate.lower(frames, bar) >= bar, bounds >= bar)
    pool = oracle._TopThree(evaluate, dim)
    pool.frames, pool.values, pool.seen = frames[:3], np.full(3, bar), np.arange(3)
    pool.considered = 3
    pool.absorb(frames)
    scored = np.concatenate(evaluate.stacks) if evaluate.stacks else frames[:0]
    assert np.array_equal(scored, frames[below], equal_nan=True)
    assert evaluate.scored == below.sum()
    assert pool.considered == 3 + frames.shape[0]


@pytest.mark.parametrize("p,q", [(0.5, 1.0), (2.0, 4.0), (math.inf, 2.0)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_frame_with_a_nan_entry_reads_nan(dim, p, q):
    # every entry position once, each in its own frame; at dim = 2 the
    # rank-one roots of a NaN plane have a NaN discriminant and must stay
    net = _RestrictionNet(dim, p, q, 0.25)
    frames = _random_frames(4 * dim, dim)
    for f in range(frames.shape[0]):
        frames[f, f % 4, f // 4] = np.nan
    assert np.isnan(net.lower(frames)).all()
    assert np.isnan(net(frames)).all()


def test_hyperplane_normals_are_the_svd_normals_in_closed_form():
    frames = np.concatenate([_random_frames(500, 3, seed=9), oracle._seed_frames(3), _FLAT_HOLDERS])
    normals = oracle._normals(frames)
    assert np.all(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= 1e-15)
    assert np.all(np.abs(np.einsum("fi,fij->fj", normals, frames)) <= 1e-15)
    svd = np.linalg.svd(frames, full_matrices=True)[0][:, :, 3]
    sign = np.sign(np.einsum("fi,fi->f", normals, svd))
    assert np.all(np.abs(normals - sign[:, None] * svd) <= 1e-12)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    dim=st.sampled_from([1, 2, 3]),
    p=EXPONENT,
    q=EXPONENT,
    seed=st.integers(0, 2**16),
)
def test_lower_bounds_never_exceed_the_frame_values(dim, p, q, seed):
    evaluate = _RestrictionNet(dim, p, q, 0.25)
    frames = _special_and_random_frames(dim, seed)
    bounds = evaluate.lower(frames)
    values = evaluate(frames)
    assert bounds.shape == values.shape == (frames.shape[0],)
    assert np.all(bounds <= values)
    if dim == 1:
        assert np.array_equal(bounds, values)  # a line's value is exact
    if dim == 2:
        assert bounds[0] == -np.inf


@pytest.mark.parametrize("p,q", [("2", "1"), ("inf", "2"), ("1", "1/2"), ("inf", "1")])
def test_every_hyperplane_reads_the_norm_from_its_flat_members(p, q):
    # span{I, J} meets every hyperplane, and so does the reflection plane;
    # their members' flat spectra give the ratio 2^(1/q - 1/p), the norm
    # for p > q, at random hyperplanes and at those that hold either plane
    norm = embedding_norm(p, q, 2)
    evaluate = _RestrictionNet(3, exponent_float(p), exponent_float(q), 0.25)
    frames = np.concatenate([_random_frames(200, 3, seed=8), _FLAT_HOLDERS])
    bounds = evaluate.lower(frames)
    assert np.allclose(bounds, norm, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_frame_search_builds_its_seed_frames_once(monkeypatch, m):
    # at m = 3 each build takes eight full SVDs
    builds = []
    seed_frames = oracle._seed_frames

    def counting(m):
        builds.append(m)
        return seed_frames(m)

    monkeypatch.setattr(oracle, "_seed_frames", counting)
    value, frame, evaluated = _frame_search(
        _RestrictionNet(m, 0.5, 1.0, 0.5), m, np.random.default_rng(0), 0.5)
    assert builds == [m]
    assert frame.shape == (4, m) and evaluated > 96


def test_net_oracle_guards_its_domain():
    with pytest.raises(ValueError):
        net_oracle(EmbeddingSpec("1", "2", 3, n=2), "kolmogorov")  # N = 2 only
    with pytest.raises(ValueError):
        net_oracle(EmbeddingSpec("1", "2", 2, n=2), "kolmogorov", h=0.3)
    with pytest.raises(ValueError):
        net_oracle(EmbeddingSpec("1", "2", 2, n=2), "kolmogorov", h=0.0)
    with pytest.raises(ValueError):
        net_oracle(EmbeddingSpec("1", "2", 2, n=2), "bernstein")
    with pytest.raises(ValueError):
        net_oracle(EmbeddingSpec("1", "2", 2), "kolmogorov")  # index required
    with pytest.raises(NotImplementedError):
        net_oracle(EmbeddingSpec("4/3", "4", 2, n=2), "approx")
    with pytest.raises(NotImplementedError):
        net_oracle(EmbeddingSpec("1", "1/2", 2, n=2), "kolmogorov")  # q < 1
