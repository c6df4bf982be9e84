"""Net-search reference oracle and its frozen calibration battery."""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths.core import EmbeddingSpec, schatten_norm
from schatten_widths.distances import distance_schatten
from schatten_widths.estimators import estimate_gelfand
from schatten_widths.exponents import exponent_float
from schatten_widths.operators import SubspaceBasis, orthonormal_columns
from schatten_widths import oracle
from schatten_widths.oracle import (
    DEFAULT_ORACLE_SEED,
    _DistanceNet,
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


def test_frozen_battery_contains_exactly_known_values():
    data = load_frozen_battery()

    def lookup(kind, p, q, n):
        for pt in data["points"]:
            if (pt["kind"], pt["p"], pt["q"], pt["n"]) == (kind, p, q, n):
                return pt["value"]
        raise KeyError((kind, p, q, n))

    # widths that coincide with exactly known values at N = 2
    assert lookup("kolmogorov", "1", "2", 3) == pytest.approx(2.0**-0.5, rel=1e-3)
    assert lookup("kolmogorov", "1", "2", 4) == pytest.approx(2.0**-0.5, rel=1e-3)
    assert lookup("kolmogorov", "1", "2", 2) == pytest.approx(1.0, rel=1e-2)
    assert lookup("approx", "2", "inf", 2) == pytest.approx(1.0, rel=1e-2)
    assert lookup("gelfand", "1/2", "1", 2) == pytest.approx(1.0, rel=1e-2)


def test_frozen_extra_points_match_the_search_estimators():
    data = load_frozen_battery()
    extras = [pt for pt in data["points"] if not pt["battery"] and pt["kind"] == "gelfand"]
    assert extras
    for pt in extras:
        spec = EmbeddingSpec(pt["p"], pt["q"], 2, n=pt["n"])
        est = estimate_gelfand(spec, seed=0)
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


# the battery points whose nets are cheap at the frozen resolution (about
# 1 s together): the Frobenius-distance, direction-search and restriction
# nets, all of them built on the 2x2 rotation/reflection split
CHEAP_BATTERY = (
    ("kolmogorov", "1", "2", 2),
    ("kolmogorov", "inf", "2", 2),
    ("kolmogorov", "1", "2", 4),
    ("approx", "2", "inf", 4),
    ("approx", "2", "inf", 2),
    ("gelfand", "1/2", "1", 2),
)


@pytest.mark.parametrize("kind,p,q,n", CHEAP_BATTERY)
def test_cheap_battery_points_reproduce_their_frozen_values(kind, p, q, n):
    data = load_frozen_battery()
    (frozen,) = [
        pt for pt in data["points"] if (pt["kind"], pt["p"], pt["q"], pt["n"]) == (kind, p, q, n)
    ]
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=data["h"], seed=data["seed"])
    assert est.value == pytest.approx(frozen["value"], rel=1e-12, abs=0.0)


def test_distance_net_point_is_pinned():
    # a q = inf distance net at the coarsest resolution: exercises the
    # frame split of the nuclear/spectral solvers, which no battery point
    # above reaches
    est = net_oracle(EmbeddingSpec("1", "inf", 2, n=2), "kolmogorov", h=0.25)
    assert est.value == pytest.approx(0.9953368024752356, rel=1e-12, abs=0.0)


# the oracle paths no battery point and no bench job reaches, at the
# coarsest resolution: the nuclear-distance net at one column and the
# two-dimensional restriction nets with their rank-one roots
@pytest.mark.parametrize(
    "kind,p,q,n,value,frames",
    [
        ("kolmogorov", "2", "1", 2, 1.3924665866900414, 464),
        ("gelfand", "1/2", "1", 3, 0.5, 484),
        ("gelfand", "2", "4", 3, 0.8408964152537144, 484),
    ],
)
def test_unreached_oracle_paths_are_pinned(kind, p, q, n, value, frames):
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=0.25)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.restarts == frames
    if kind == "kolmogorov":  # the nuclear distance net has no lower bound
        assert est.detail["frames_scored"] == frames
    else:
        assert 0 < est.detail["frames_scored"] < frames


@pytest.mark.parametrize(
    "kind,p,q,n",
    [("kolmogorov", "1", "2", 1), ("kolmogorov", "1", "2", 4), ("gelfand", "2", "4", 4)],
)
def test_paths_without_a_frame_search_score_all_they_consider(kind, p, q, n):
    # the norm path considers no frames; the direction searches score each
    # direction exactly
    est = net_oracle(EmbeddingSpec(p, q, 2, n=n), kind, h=0.25)
    assert est.detail["frames_scored"] == est.restarts


@pytest.mark.parametrize("p", ["2", "1/2", "inf"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", ["1", "2", "inf"])
def test_distance_net_agrees_with_distance_schatten(q, m, p):
    # the nets' own Frobenius, nuclear and spectral solvers, for frames of
    # one and two columns, against the package's N = 2 distance solvers
    rng = np.random.default_rng(2103)
    X = rng.standard_normal((40, 4))
    B = orthonormal_columns(rng.standard_normal((4, m)))
    basis = SubspaceBasis(B, 2)
    expected = max(
        distance_schatten(x.reshape(2, 2), basis, q).value / schatten_norm(x.reshape(2, 2), p)
        for x in X
    )
    net = _DistanceNet(X, exponent_float(p), exponent_float(q))
    (value,) = net(B[None])
    assert value == pytest.approx(expected, rel=1e-7, abs=0.0)


def _random_frames(count, m, seed=7):
    return oracle._orth(np.random.default_rng(seed).standard_normal((count, 4, m)))


def _assert_stack_matches_single_frames(evaluate, frames):
    stacked = evaluate(frames)
    alone = np.array([evaluate(frames[i:i + 1])[0] for i in range(frames.shape[0])])
    assert stacked.shape == (frames.shape[0],)
    assert np.array_equal(stacked, alone)  # bit for bit


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", ["1", "2", "inf"])
def test_distance_net_stack_matches_single_frames(q, m):
    # a small Gaussian cloud: its sup often sits where the projection onto
    # the frame is large, so a rounding that depended on the stack would
    # show (on a matrix net the sup sits near the frame's complement)
    X = np.random.default_rng(1).standard_normal((40, 4))
    net = _DistanceNet(X, 0.5, exponent_float(q))
    # the Frobenius net takes _CHUNK // 40 frames a tile at m = 1, so this
    # spans two tiles; the nuclear and spectral nets go frame by frame
    count = oracle._CHUNK // X.shape[0] + 2 if q == "2" else 12
    _assert_stack_matches_single_frames(net, _random_frames(count, m))


@pytest.mark.parametrize("dim", [2, 3])
def test_restriction_net_stack_matches_single_frames(dim):
    net = _RestrictionNet(dim, 0.5, 1.0, 0.25)
    frames = _random_frames(oracle._CHUNK // net.W.shape[0] + 2, dim)
    eye = np.eye(4)
    if dim == 3:
        frames[0] = eye[:, [0, 1, 3]]  # the rank-one net drops the angle 0
    else:
        frames[0] = oracle._SPLIT_DIRS[:2].T  # rotations: no real rank-one ray
        frames[1] = eye[:, [3, 0]]  # det(C) = 0 with a linear root
        frames[2] = eye[:, [0, 1]]  # det(C) = 0 and no linear term
    _assert_stack_matches_single_frames(net, frames)


def test_distance_net_tiles_the_net_points_of_a_wide_frame(monkeypatch):
    # when one frame's projections outgrow the chunk, the net is split
    # into column tiles; the value must not move
    net = _DistanceNet(np.random.default_rng(3).standard_normal((40, 4)), 1.0, 2.0)
    frames = _random_frames(5, 2)
    whole = net(frames)
    monkeypatch.setattr(oracle, "_CHUNK", 24)
    assert np.array_equal(net(frames), whole)


def _frame_search_one_by_one(evaluate, m, rng, h):
    """The frame search scoring one frame at a time, as it was written
    before it scored stacks: the reference for :func:`_frame_search`."""
    frames = list(oracle._seed_frames(m))
    n_frames = len(frames) + max(96, int(round((10.0 if m == 1 else 16.0) / h)))
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
        (lambda h: _DistanceNet(oracle._matrix_net(h, np.random.default_rng(5)), 1.0, 2.0), 1),
        (lambda h: _DistanceNet(oracle._matrix_net(h, np.random.default_rng(5)), 1.0, 2.0), 2),
        (lambda h: _RestrictionNet(2, 2.0, 4.0, h), 2),
        (lambda h: _RestrictionNet(3, 0.5, 1.0, h), 3),
    ],
    ids=["frobenius-m1", "frobenius-m2", "restriction-dim2", "restriction-dim3"],
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
    [
        (lambda: _DistanceNet(np.random.default_rng(5).standard_normal((40, 4)), 1.0, 2.0), 2),
        (lambda: _RestrictionNet(3, 0.5, 1.0, 0.25), 3),
    ],
    ids=["frobenius", "restriction"],
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


def test_a_plain_callable_scores_every_frame():
    # an evaluator without a lower bound is not screened
    sizes = []

    def evaluate(B):
        sizes.append(B.shape[0])
        return B[:, 0, 0] ** 2

    _, _, count = _frame_search(evaluate, 2, np.random.default_rng(0), 0.25)
    assert sum(sizes) == count


#: exponents for the lower-bound property: quasi-norms, norms and inf
EXPONENT = st.one_of(st.floats(0.3, 8.0), st.just(math.inf))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    net=st.sampled_from(["distance-1", "distance-2", "restriction-2", "restriction-3"]),
    p=EXPONENT,
    q=EXPONENT,
    seed=st.integers(0, 2**16),
)
def test_lower_bounds_never_exceed_the_frame_values(net, p, q, seed):
    family, m = net.split("-")
    m = int(m)
    if family == "distance":
        # the strided sub-net of a Gaussian cloud and of a matrix net
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 4)) if seed % 2 else oracle._matrix_net(0.25, rng)
        evaluate = _DistanceNet(X, p, 2.0)
    else:
        evaluate = _RestrictionNet(m, p, q, 0.25)
    frames = _random_frames(40, m, seed)
    if net == "restriction-2":
        frames[0] = oracle._SPLIT_DIRS[:2].T  # rotations: no rank-one member
        frames[1] = np.eye(4)[:, [3, 0]]  # det(C) = 0 with a linear root
        frames[2] = np.eye(4)[:, [0, 1]]  # det(C) = 0 and no linear term
    elif net == "restriction-3":
        frames[0] = np.eye(4)[:, [0, 1, 3]]  # the rank-one net drops the angle 0
    bounds = evaluate.lower(frames)
    values = evaluate(frames)
    assert bounds.shape == values.shape == (frames.shape[0],)
    assert np.all(bounds <= values)
    if net == "restriction-2":
        assert bounds[0] == -np.inf


def test_the_strided_bound_is_the_value_less_its_margin():
    # a one-point net is all stride: the bound is that point's ratio less
    # the margin, and the margin is far below any gap the screen relies on
    x = np.random.default_rng(4).standard_normal((1, 4))
    evaluate = _DistanceNet(x, 1.0, 2.0)
    frames = _random_frames(8, 2)
    values = evaluate(frames)
    weight = np.sqrt(evaluate.sq[0]) / evaluate.norm_p[0]
    gap = values - evaluate.lower(frames)
    assert np.all(gap > 0.0)
    assert np.allclose(gap, oracle._STRIDE_MARGIN * weight, rtol=1e-6, atol=0.0)


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
        lambda B: B[:, 0, 0] ** 2, m, np.random.default_rng(0), 0.5)
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
