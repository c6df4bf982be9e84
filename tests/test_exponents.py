"""Exact exponent arithmetic: parsing, duality, inversion, formatting."""
import math
from fractions import Fraction

import numpy as np
import pytest

from schatten_widths.exponents import (
    INF,
    as_exponent,
    dual_exponent,
    format_exponent,
    inv,
    is_infinite,
    npower,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("1/2", Fraction(1, 2)),
        ("4/3", Fraction(4, 3)),
        (" 2 ", Fraction(2)),
        ("0.75", Fraction(3, 4)),
        ("inf", INF),
        ("Infinity", INF),
        ("oo", INF),
        (3, Fraction(3)),
        (Fraction(7, 5), Fraction(7, 5)),
        (math.inf, INF),
    ],
)
def test_as_exponent_parses(raw, expected):
    assert as_exponent(raw) == expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("+2", Fraction(2)),
        ("+1/2", Fraction(1, 2)),
        ("Inf", INF),
        (" infinity ", INF),
        ("+inf", INF),
        (" +Infinity ", INF),
        ("+oo", INF),
    ],
)
def test_as_exponent_accepts_a_leading_plus(raw, expected):
    assert as_exponent(raw) == expected


@pytest.mark.parametrize("bad", ["-inf", "-Infinity", "-oo", "++inf", "+-inf", "+ inf"])
def test_as_exponent_rejects_a_negative_or_doubled_sign_on_inf(bad):
    with pytest.raises(ValueError):
        as_exponent(bad)


def test_float_input_converts_to_exact_binary_rational():
    assert as_exponent(0.5) == Fraction(1, 2)
    assert as_exponent(0.1) == Fraction(0.1)  # the exact binary value, not 1/10


@pytest.mark.parametrize(
    "bad",
    [0, -1, "0", "-2", "1/0", "abc", True, None, float("nan"), -math.inf, [2],
     np.True_, np.int64(0), np.float32(-0.5), np.float32("nan")],
)
def test_as_exponent_rejects(bad):
    with pytest.raises(ValueError):
        as_exponent(bad)


@pytest.mark.parametrize(
    "raw,expected",
    [
        (np.int64(2), Fraction(2)),
        (np.uint8(3), Fraction(3)),
        (np.float32(0.5), Fraction(1, 2)),
        (np.float64(4 / 3), Fraction(4 / 3)),
        (np.float32("inf"), INF),
    ],
)
def test_as_exponent_accepts_numpy_scalars(raw, expected):
    assert as_exponent(raw) == expected


def test_canonical_exponents_come_back_unchanged():
    half = Fraction(1, 2)
    assert as_exponent(half) is half
    assert as_exponent(INF) is INF


def test_is_infinite():
    assert is_infinite(as_exponent("inf"))
    assert not is_infinite(as_exponent("4/3"))


@pytest.mark.parametrize(
    "p,expected",
    [("2", Fraction(1, 2)), ("1/2", Fraction(2)), ("inf", Fraction(0))],
)
def test_inv(p, expected):
    assert inv(as_exponent(p)) == expected


@pytest.mark.parametrize(
    "p,dual",
    [("1", INF), ("inf", Fraction(1)), ("2", Fraction(2)), ("4/3", Fraction(4)), ("3", Fraction(3, 2))],
)
def test_dual_exponent(p, dual):
    assert dual_exponent(p) == dual


@pytest.mark.parametrize("p", ["1", "4/3", "3/2", "2", "5", "inf"])
def test_dual_is_an_involution(p):
    assert dual_exponent(dual_exponent(p)) == as_exponent(p)


def test_dual_requires_banach_range():
    with pytest.raises(ValueError):
        dual_exponent("1/2")


def test_npower_exact_at_zero_exponent():
    assert npower(123.456, Fraction(0)) == 1.0
    assert npower(2.0, Fraction(3, 2)) == pytest.approx(2.0**1.5, rel=1e-15)


@pytest.mark.parametrize("p", ["1/2", "1", "4/3", "2", "10", "inf"])
def test_format_round_trips(p):
    e = as_exponent(p)
    assert as_exponent(format_exponent(e)) == e
