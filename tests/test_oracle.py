"""Net-search reference oracle and its frozen calibration battery."""
import numpy as np
import pytest

from schatten_widths.core import EmbeddingSpec, schatten_norm
from schatten_widths.distances import distance_schatten
from schatten_widths.estimators import estimate_gelfand
from schatten_widths.exponents import exponent_float
from schatten_widths.operators import SubspaceBasis, orthonormal_columns
from schatten_widths import oracle
from schatten_widths.oracle import (
    DEFAULT_ORACLE_SEED,
    _DistanceNet,
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


@pytest.mark.parametrize("p", ["2", "1/2", "inf"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("q", ["1", "inf"])
def test_distance_net_agrees_with_distance_schatten(q, m, p):
    # the nets' own nuclear and spectral solvers, for frames of one and
    # two columns, against the package's N = 2 distance solvers
    rng = np.random.default_rng(2103)
    X = rng.standard_normal((40, 4))
    B = orthonormal_columns(rng.standard_normal((4, m)))
    basis = SubspaceBasis(B, 2)
    expected = max(
        distance_schatten(x.reshape(2, 2), basis, q).value / schatten_norm(x.reshape(2, 2), p)
        for x in X
    )
    net = _DistanceNet(X, exponent_float(p), exponent_float(q))
    assert net(B) == pytest.approx(expected, rel=1e-7, abs=0.0)


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
        lambda B: float(B[0, 0] ** 2), m, np.random.default_rng(0), 0.5)
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
