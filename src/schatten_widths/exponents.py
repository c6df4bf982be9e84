"""Exact arithmetic for Schatten exponents.

Exponents live in (0, inf].  They are stored either as an exact
:class:`fractions.Fraction` or as ``math.inf``, never as an inexact float.
Keeping them exact makes duality identities (``p -> p/(p-1)``) and regime
comparisons in the envelope tables hold bitwise instead of up to rounding.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from fractions import Fraction
from typing import Union

INF = math.inf

#: Anything accepted where an exponent is expected.
ExponentLike = Union[int, float, str, Fraction]

#: Canonical internal form: an exact rational, or positive infinity.
Exponent = Union[Fraction, float]


def as_exponent(value: ExponentLike) -> Exponent:
    """Coerce ``value`` to a canonical exponent in (0, inf].

    Parameters
    ----------
    value:
        An int, Fraction, float (``math.inf`` allowed), numpy integer or
        floating scalar, or a string such as ``"inf"``, ``"2"``, ``"4/3"``
        or ``"0.5"``, with an optional leading ``+`` (``"+inf"`` too, as
        ``float`` reads it).  Finite floats are converted to their exact
        binary rational value.  ``bool`` and ``numpy.bool_`` are rejected.

    Returns
    -------
    Fraction or math.inf

    Raises
    ------
    ValueError
        If the value is not a positive exponent (or cannot be parsed).
    """
    if type(value) is Fraction and value.numerator > 0 or value is INF:
        return value  # already canonical: the common case inside searches
    if isinstance(value, str):
        return _parse_exponent(value)
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"exponent must be a number, got {value!r}")
    if not isinstance(value, (float, Fraction)):
        try:
            value = operator.index(value)  # int and numpy integer types
        except TypeError:
            # numpy floating scalars; numpy's bool is not a numbers.Real
            if not isinstance(value, numbers.Real):
                raise ValueError(f"exponent must be a number, got {value!r}") from None
            value = float(value)
    if isinstance(value, float):
        if math.isinf(value) and value > 0:
            return INF
        if not math.isfinite(value):
            raise ValueError(f"exponent must be finite or +inf, got {value!r}")
        value = Fraction(value)
    elif isinstance(value, int):
        value = Fraction(value)
    if value <= 0:
        raise ValueError(f"exponent must lie in (0, inf], got {value}")
    return value


@functools.lru_cache(maxsize=256)
def _parse_exponent(value: str) -> Exponent:
    """:func:`as_exponent` of a string, parsed once per distinct string: a
    run names a few exponents, each many times.  A string that does not
    parse, or names no exponent, raises every time: nothing is cached."""
    text = value.strip().lower()
    if text.removeprefix("+") in ("inf", "infinity", "oo"):
        return INF
    try:
        parsed = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse exponent from {value!r}") from exc
    return as_exponent(parsed)


def exponent_float(p: ExponentLike) -> float:
    """The exponent ``p`` as a float (``math.inf`` for infinity), validated
    by :func:`as_exponent` unless it already is a positive float or int."""
    if type(p) is float and p > 0.0:
        return p
    if type(p) is int and p > 0:
        return float(p)
    return float(as_exponent(p))


def is_infinite(p: Exponent) -> bool:
    """Return True when ``p`` is the infinity exponent."""
    return isinstance(p, float) and math.isinf(p)


def inv(p: Exponent) -> Fraction:
    """Return ``1/p`` as an exact Fraction, with ``1/inf = 0``."""
    if is_infinite(p):
        return Fraction(0)
    return Fraction(1) / p


def dual_exponent(p: ExponentLike) -> Exponent:
    """Return the conjugate exponent ``p*`` with ``1/p + 1/p* = 1``.

    Defined for ``1 <= p <= inf``; the endpoints swap (``1 <-> inf``).

    Raises
    ------
    ValueError
        If ``p < 1`` (no conjugate exists in (0, inf]).
    """
    q = as_exponent(p)
    if is_infinite(q):
        return Fraction(1)
    if q < 1:
        raise ValueError(f"dual exponent requires p >= 1, got {q}")
    if q == 1:
        return INF
    return q / (q - 1)


def npower(base: float, exponent: Fraction) -> float:
    """Return ``base ** exponent`` as a float, for ``base > 0``."""
    if exponent == 0:
        return 1.0
    return float(base) ** float(exponent)


def format_exponent(p: Exponent) -> str:
    """Render an exponent compactly (``"inf"``, ``"2"``, ``"4/3"``)."""
    if is_infinite(p):
        return "inf"
    return str(p)
