"""Two-sided envelopes for s-numbers of Schatten-class embeddings.

For the identity ``S_p^N -> S_q^N`` and an index ``1 <= n <= N^2``, the
functions here return the best known asymptotic envelope of the n-th
approximation, Gelfand or Kolmogorov number: a lower and an upper value,
the regime the index falls in, and a sharpness tag.

Values are *asymptotic* envelopes: exact rows mean lower and upper agree up
to the universal constants recorded in the result, not that the s-number
equals the value literally.  Two structural facts are enforced on top of
the raw piecewise formulas, neither of which weakens any bound:

* s-number sequences are non-increasing in ``n``, so each stream is
  monotone-regularized: an upper bound established at some ``m <= n`` also
  bounds the n-th value, and a lower bound established at some ``m >= n``
  does too.  Evaluation carries the best such bound across regime
  boundaries (in particular each stream stays inside
  ``[value(N^2), value(1)]`` of its own closed-form anchors);
* at ``n = N^2`` the value is exactly ``N^(1/q-1/p)`` for ``p <= q`` in the
  Banach range (the smallest s-number of an invertible embedding).

All regime comparisons use exact rational exponent arithmetic, so dual
pairs of envelopes agree bitwise.

Rows where the paper leaves open which side is sharp carry the two bounds
it proves: the approximation ``transition`` row (a sqrt(log N) upper
factor), the ``intermediate`` rows for ``2 < p < q`` and the Gelfand
``small-index`` row for ``p < 1 < 2 < q`` (all ``gap``), and the
Kolmogorov row for ``q < 1``, ``q < p`` (``existence-only``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .core import as_int, as_matrix_side
from .exponents import (
    Exponent,
    ExponentLike,
    as_exponent,
    dual_exponent,
    format_exponent,
    inv,
    is_infinite,
    npower,
)

__all__ = [
    "ConstantsRegistry",
    "EnvelopeValue",
    "EnvelopeProfile",
    "envelope_profile",
    "recovery_envelope",
    "SNUMBER_KINDS",
    "EXACT",
    "GAP",
    "EXISTENCE_ONLY",
]

EXACT = "exact-asymptotic"
GAP = "gap"
EXISTENCE_ONLY = "existence-only"

SNUMBER_KINDS = ("approximation", "gelfand", "kolmogorov", "recovery")

_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# constants registry
# ---------------------------------------------------------------------------


def _as_constant(value) -> Fraction:
    frac = Fraction(value) if not isinstance(value, Fraction) else value
    if not 0 < frac < 1:
        raise ValueError(f"regime constants must lie in (0, 1), got {frac}")
    return frac


@dataclass(frozen=True)
class ConstantsRegistry:
    """Universal constants controlling regime boundaries.

    ``c_universal`` is the default constant used everywhere; individual
    rows keyed by an exponent pair or a single exponent may be overridden.
    All values must lie in (0, 1); the default is 1/2.
    """

    c_universal: Fraction = Fraction(1, 2)
    pair_overrides: tuple[tuple[tuple[Exponent, Exponent], Fraction], ...] = ()
    single_overrides: tuple[tuple[Exponent, Fraction], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_universal", _as_constant(self.c_universal))
        object.__setattr__(
            self,
            "pair_overrides",
            tuple(
                ((as_exponent(k[0]), as_exponent(k[1])), _as_constant(v))
                for k, v in self.pair_overrides
            ),
        )
        object.__setattr__(
            self,
            "single_overrides",
            tuple((as_exponent(k), _as_constant(v)) for k, v in self.single_overrides),
        )

    def universal(self) -> Fraction:
        return self.c_universal

    def pair(self, p: Exponent, q: Exponent) -> Fraction:
        for key, value in self.pair_overrides:
            if key == (p, q):
                return value
        return self.c_universal

    def single(self, q: Exponent) -> Fraction:
        for key, value in self.single_overrides:
            if key == q:
                return value
        return self.c_universal

    def describe(self) -> str:
        parts = [f"c_universal={self.c_universal}"]
        for (p, q), v in self.pair_overrides:
            parts.append(f"c[{format_exponent(p)},{format_exponent(q)}]={v}")
        for q, v in self.single_overrides:
            parts.append(f"c[{format_exponent(q)}]={v}")
        return " ".join(parts)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstantsRegistry":
        """Build a registry from a plain-JSON dict.

        Expected shape::

            {"c_universal": "1/2",
             "pair": [["2", "inf", "1/4"], ...],
             "single": [["inf", "1/3"], ...]}
        """
        c = data.get("c_universal", "1/2")
        pair = tuple(
            ((as_exponent(pp), as_exponent(qq)), Fraction(vv))
            for pp, qq, vv in data.get("pair", [])
        )
        single = tuple((as_exponent(qq), Fraction(vv)) for qq, vv in data.get("single", []))
        return cls(c_universal=Fraction(c), pair_overrides=pair, single_overrides=single)


DEFAULT_CONSTANTS = ConstantsRegistry()


# ---------------------------------------------------------------------------
# envelope values and profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeValue:
    """Two-sided envelope value at a single index.

    ``value_lower <= value_upper`` always; ``sharpness == "exact-asymptotic"``
    implies they are equal.  ``log_factor`` marks upper bounds carrying an
    extra ``sqrt(log N)``; ``constants_used`` names the regime constants
    that shaped the boundaries.
    """

    snumber_kind: str
    value_lower: float
    value_upper: float
    regime: str
    sharpness: str
    constants_used: tuple[str, ...] = ()
    log_factor: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.snumber_kind not in SNUMBER_KINDS:
            raise ValueError(f"unknown s-number kind {self.snumber_kind!r}")
        if self.value_lower > self.value_upper * (1 + 1e-12):
            raise ValueError(
                f"envelope lower {self.value_lower} exceeds upper {self.value_upper}"
            )
        if self.sharpness == EXACT and self.value_lower != self.value_upper:
            raise ValueError("exact-asymptotic requires lower == upper")


_ValueFn = Callable[[int], float]


@dataclass
class _Segment:
    tag: str
    end: float  # inclusive right endpoint of the index interval
    lower: _ValueFn
    upper: _ValueFn
    sharpness: str
    log_factor: bool = False
    notes: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()


class EnvelopeProfile:
    """A full envelope over ``n = 1..N^2`` for one embedding and s-number kind.

    Segments partition the index range by regime; evaluation applies the
    monotone lift described in the module docstring.
    """

    def __init__(
        self,
        kind: str,
        p: Exponent,
        q: Exponent,
        N: int,
        segments: Sequence[_Segment],
        case: str,
        case_notes: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.p = p
        self.q = q
        self.N = N
        self.case = case
        self.case_notes = case_notes
        full = N * N
        # Endpoint anchors come from the builder's *final* row (the exact
        # large-index formula), even if clamping leaves it an empty range:
        # the n = N^2 value is the floor of both streams.
        anchor = segments[-1]
        self._floor_lower = anchor.lower(full)
        self._floor_upper = anchor.upper(full)
        self.segments, dropped = self._clamp(list(segments), N)
        if dropped:
            self.case_notes = case_notes + (f"degenerate-range: {', '.join(dropped)}",)
        first = self.segments[0]
        self._cap_lower = first.lower(1)
        self._cap_upper = first.upper(1)
        # Cross-segment monotone carry.  Formulas are non-increasing inside
        # a regime, so a segment's lower bound peaks at its first index and
        # its upper bound bottoms out at its last: carrying the suffix-max
        # of first-index lowers leftward (and the prefix-min of last-index
        # uppers rightward) regularizes both streams without weakening
        # either bound.
        self._floors = [self._floor_lower] * len(self.segments)
        running_floor = self._floor_lower
        prev_end = 0.0
        firsts: list[int] = []
        lasts: list[int] = []
        for seg in self.segments:
            firsts.append(int(prev_end) + 1)
            lasts.append(int(seg.end))
            prev_end = seg.end
        for i in range(len(self.segments) - 2, -1, -1):
            nxt = self.segments[i + 1]
            running_floor = max(running_floor, nxt.lower(firsts[i + 1]))
            self._floors[i] = running_floor
        self._caps = [math.inf] * len(self.segments)
        running_cap = math.inf
        for i in range(1, len(self.segments)):
            prev = self.segments[i - 1]
            running_cap = min(running_cap, prev.upper(lasts[i - 1]))
            self._caps[i] = running_cap

    @staticmethod
    def _clamp(segments: list[_Segment], N: int) -> tuple[list[_Segment], list[str]]:
        full = float(N * N)
        kept: list[_Segment] = []
        dropped: list[str] = []
        prev = 0.0
        for seg in segments:
            end = min(max(seg.end, prev), full)
            if end <= prev:
                dropped.append(seg.tag)
                continue
            seg.end = end
            kept.append(seg)
            prev = end
        if not kept:
            raise ValueError("envelope profile has no non-empty regime")
        kept[-1].end = full
        return kept, dropped

    def boundaries(self) -> list[float]:
        """Right endpoints of the regimes (the last one is N^2)."""
        return [seg.end for seg in self.segments]

    def sweep(self, first: int, last: int) -> Iterator[EnvelopeValue]:
        """Values at ``n = first..last``, made one regime segment at a time.

        Everything fixed within a segment (its carried floor and cap, regime
        label, notes and row functions) is resolved once per segment.  The
        range is clipped to the segments; ``value`` checks a single index.
        """
        kind = self.kind
        cap_lower, cap_upper = self._cap_lower, self._cap_upper
        floor_lower, floor_upper = self._floor_lower, self._floor_upper
        isclose = math.isclose
        lo = 0.0
        for seg, seg_floor, seg_cap in zip(self.segments, self._floors, self._caps):
            start, stop = max(first, int(lo) + 1), min(last, int(seg.end))
            regime = f"{self.case}/{seg.tag} n in ({lo:g}, {seg.end:g}]"
            lo = seg.end
            if start > stop:
                continue
            lower_fn, upper_fn = seg.lower, seg.upper
            sharpness, constants, log_factor = seg.sharpness, seg.constants, seg.log_factor
            notes = seg.notes + self.case_notes
            lifted_notes = notes + ("monotone-lift",)
            lifted_sharpness = GAP if sharpness == EXACT else sharpness
            for n in range(start, stop + 1):
                raw_lower = lower_fn(n)
                raw_upper = upper_fn(n)
                lower = max(raw_lower, seg_floor)
                upper = min(raw_upper, seg_cap)
                lower = min(cap_lower, max(lower, floor_lower))
                upper = min(cap_upper, max(upper, floor_upper))
                # where the two sides meet, separately rounded formulas can
                # cross by an ulp; keep the documented order exact
                upper = max(upper, lower)
                if isclose(lower, raw_lower, rel_tol=1e-12, abs_tol=0.0) and isclose(
                    upper, raw_upper, rel_tol=1e-12, abs_tol=0.0
                ):
                    row_notes, row_sharpness = notes, sharpness
                else:
                    row_notes = lifted_notes
                    row_sharpness = lifted_sharpness if lower != upper else sharpness
                yield EnvelopeValue(
                    snumber_kind=kind,
                    value_lower=lower,
                    value_upper=upper,
                    regime=regime,
                    sharpness=row_sharpness,
                    constants_used=constants,
                    log_factor=log_factor,
                    notes=row_notes,
                )

    def value(self, n: int) -> EnvelopeValue:
        n_int = as_int(n)
        if n_int is None or not 1 <= n_int <= self.N**2:
            raise ValueError(f"index n must satisfy 1 <= n <= N^2 = {self.N ** 2}, got {n!r}")
        return next(self.sweep(n_int, n_int))

    def values(self) -> list[EnvelopeValue]:
        return list(self.sweep(1, self.N**2))


# ---------------------------------------------------------------------------
# shared formula pieces
# ---------------------------------------------------------------------------


def _sqrt_log_factor(N: int) -> float:
    # floored at 1 so a gap upper bound never drops below its lower partner
    return math.sqrt(max(1.0, math.log(N)))


def _segments_trivial_one(note: tuple[str, ...] = ()) -> list[_Segment]:
    one = lambda n: 1.0
    return [_Segment("unit", math.inf, one, one, EXACT, notes=note)]


def _codomain_dominated_segment(p: Exponent, q: Exponent, N: int) -> list[_Segment]:
    # exact row for q <= p: max(1, r/N)^(1/q - 1/p), r = N^2 - n + 1
    e = inv(q) - inv(p)
    ef = float(e)

    def value(n: int) -> float:
        return max(1.0, (N * N - n + 1) / N) ** ef

    return [_Segment("codomain-dominated", math.inf, value, value, EXACT)]


def _high_pair_rows(p: Exponent, q: Exponent, N: int):
    """Row functions for ``p < q`` with ``q > 2``: the lower and upper bounds
    of the intermediate gap of the high pair ``2 <= p < q`` (Gelfand and
    approximation numbers), and the large-index value ``N^(1/q - 1/p)``."""
    ip, iq = inv(p), inv(q)
    e_low = float((ip - iq) / (1 - 2 * iq))
    up_scale = npower(N, -_HALF - ip)
    large_value = npower(N, iq - ip)

    def gap_lower(n: int) -> float:
        return ((N * N - n + 1) / (N * N)) ** e_low

    def gap_upper(n: int) -> float:
        return min(1.0, up_scale * math.sqrt(N * N - n + 1))

    def large_fn(n: int) -> float:
        return large_value

    return gap_lower, gap_upper, large_fn


# ---------------------------------------------------------------------------
# Gelfand envelope segments
# ---------------------------------------------------------------------------


def _gelfand_case(
    p: Exponent, q: Exponent, N: int, reg: ConstantsRegistry
) -> tuple[str, list[_Segment], tuple[str, ...]]:
    ip, iq = inv(p), inv(q)
    c = reg.universal()
    c_str = f"c_universal={c}"
    full = N * N

    if q <= p:
        return "shrinking-codomain", _codomain_dominated_segment(p, q, N), ()

    # now p < q
    if q <= 2:
        if p <= 1:
            e = float(ip - iq)

            def row2(n: int) -> float:
                return min(1.0, N / n) ** e

            return (
                "flat-ball",
                [_Segment("rank-one-hull", math.inf, row2, row2, EXACT)],
                (),
            )
        # 1 < p < q <= 2
        outer = float((ip - iq) / (ip - _HALF))
        scale = npower(N, Fraction(3, 2) - ip)

        def row3(n: int) -> float:
            return min(1.0, scale / math.sqrt(n)) ** outer

        return (
            "banach-low",
            [_Segment("interpolated", math.inf, row3, row3, EXACT)],
            (),
        )

    # q > 2 from here on
    t_mid_end = full - float(c) * npower(N, 1 + 2 * iq) + 1.0
    gap_lower, gap_upper, large_fn = _high_pair_rows(p, q, N)

    if p <= 2:
        t_small_end = float((1 - c) * (full))
        mid_scale = npower(N, -_HALF - ip)

        def mid(n: int) -> float:
            return mid_scale * math.sqrt(N * N - n + 1)

        segs: list[_Segment] = []
        if p >= 1:
            small_scale = npower(N, Fraction(3, 2) - ip)

            def small_exact(n: int) -> float:
                return min(1.0, small_scale / math.sqrt(n))

            segs.append(
                _Segment("small-index", t_small_end, small_exact, small_exact, EXACT, constants=(c_str,))
            )
        else:
            e_low = float(ip - iq)
            e_up = float(ip - _HALF)

            def small_lower(n: int) -> float:
                return min(1.0, N / n) ** e_low

            def small_upper(n: int) -> float:
                return min(1.0, N / n) ** e_up

            segs.append(
                _Segment(
                    "small-index",
                    t_small_end,
                    small_lower,
                    small_upper,
                    GAP,
                    notes=("quasi-domain small-index bounds do not meet for q > 2",),
                    constants=(c_str,),
                )
            )
        segs.append(_Segment("intermediate", t_mid_end, mid, mid, EXACT, constants=(c_str,)))
        segs.append(_Segment("large-index", math.inf, large_fn, large_fn, EXACT, constants=(c_str,)))
        return "square", segs, ()

    # 2 < p < q
    c_pair = reg.pair(p, q)
    c_q = reg.single(q)
    t_small_end = float(c_pair) * full
    trivial_zone = full - float(1 / c_q**2) * npower(N, 1 + 2 * ip) + 1.0
    one = lambda n: 1.0
    segs = [
        _Segment(
            "small-index",
            t_small_end,
            one,
            one,
            EXACT,
            constants=(f"c_pair={c_pair}",),
        ),
        _Segment(
            "intermediate",
            t_mid_end,
            gap_lower,
            gap_upper,
            GAP,
            notes=(
                f"upper bound is trivial (=1) until about n = {trivial_zone:.6g}",
            ),
            constants=(c_str, f"c_single={c_q}"),
        ),
        _Segment("large-index", math.inf, large_fn, large_fn, EXACT, constants=(c_str,)),
    ]
    return "high-pair", segs, ()


# ---------------------------------------------------------------------------
# approximation envelope segments
# ---------------------------------------------------------------------------


def _approx_item3a(
    P: Exponent, Q: Exponent, N: int, reg: ConstantsRegistry
) -> tuple[str, list[_Segment], tuple[str, ...]]:
    """Rows for ``2 <= P < Q <= inf`` (also serves its dual block)."""
    iP, iQ = inv(P), inv(Q)
    c = reg.universal()
    c_q = reg.single(Q)
    full = N * N
    u1 = full - float(c_q) * npower(N, 1 + 2 * iP) + 1.0
    u2 = full - float(c) * npower(N, 1 + 2 * iQ) + 1.0
    l1 = float((1 - c) * full)
    sharp = P == 2  # upper and lower mid formulas coincide exactly
    gap_lower, gap_upper, large_fn = _high_pair_rows(P, Q, N)
    one = lambda n: 1.0
    consts = (f"c_universal={c}", f"c_single={c_q}")
    cuts = sorted({l1, u1, u2})
    segs: list[_Segment] = []
    prev = 0.0
    for cut in cuts:
        if cut <= prev:
            continue
        mid_point_upper = one if cut <= u1 else gap_upper
        mid_point_lower = one if cut <= l1 else gap_lower
        if mid_point_lower is one and mid_point_upper is one:
            segs.append(_Segment("small-index", cut, one, one, EXACT, constants=consts))
        elif sharp and mid_point_upper is gap_upper:
            # at P = 2 the two mid formulas coincide; share one closure so
            # the exact row is bitwise two-sided
            segs.append(_Segment("intermediate", cut, gap_upper, gap_upper, EXACT, constants=consts))
        else:
            tag = "pre-transition" if mid_point_upper is one else "intermediate"
            segs.append(
                _Segment(tag, cut, mid_point_lower, mid_point_upper, GAP, constants=consts)
            )
        prev = cut
    segs.append(_Segment("large-index", math.inf, large_fn, large_fn, EXACT, constants=consts))
    return "high-pair", segs, ()


def _approx_item2(
    p: Exponent, q: Exponent, N: int, reg: ConstantsRegistry
) -> tuple[str, list[_Segment], tuple[str, ...]]:
    """Rows for the square ``1 <= p <= 2 <= q <= inf`` (canonical orientation)."""
    ip, iq = inv(p), inv(q)
    # the transition window's polynomial orders; equal on a dual pair
    alpha = max(3 - 2 * ip, 1 + 2 * iq)
    beta = min(3 - 2 * ip, 1 + 2 * iq)
    c = reg.universal()
    full = N * N
    t_small = float((1 - c) * full)
    t_alpha = full - float(c) * npower(N, alpha) + 1.0
    t_beta = full - float(c) * npower(N, beta) + 1.0
    removable = (p == 1) or is_infinite(q)
    small_scale = npower(N, alpha / 2)
    mid_scale = npower(N, alpha / 2 - 2)
    large_value = npower(N, iq - ip)
    logf = _sqrt_log_factor(N)
    consts = (f"c_universal={c}",)

    def small(n: int) -> float:
        return min(1.0, small_scale / math.sqrt(n))

    def mid(n: int) -> float:
        return mid_scale * math.sqrt(N * N - n + 1)

    def mid_log(n: int) -> float:
        return min(1.0, mid(n) * logf)

    def large_fn(n: int) -> float:
        return large_value

    segs = [_Segment("small-index", t_small, small, small, EXACT, constants=consts)]
    if removable:
        segs.append(_Segment("intermediate", t_beta, mid, mid, EXACT, constants=consts))
    else:
        segs.append(
            _Segment(
                "transition",
                t_alpha,
                mid,
                mid_log,
                GAP,
                log_factor=True,
                notes=("upper bound carries a sqrt(log N) factor",),
                constants=consts,
            )
        )
        segs.append(_Segment("intermediate", t_beta, mid, mid, EXACT, constants=consts))
    segs.append(_Segment("large-index", math.inf, large_fn, large_fn, EXACT, constants=consts))
    return "square", segs, ()


def _approx_case(
    p: Exponent, q: Exponent, N: int, reg: ConstantsRegistry
) -> tuple[str, list[_Segment], tuple[str, ...]]:
    notes: tuple[str, ...] = ()
    if q <= p:
        return "shrinking-codomain", _codomain_dominated_segment(p, q, N), ()
    if q <= 1:
        return "quasi-flat", _segments_trivial_one(), ()
    if p < 1:
        # the p-ball has the same convex hull as the p=1 ball, and these
        # s-numbers only see the hull
        notes = (f"index-stationary: reduced p={format_exponent(p)} to p=1",)
        p = Fraction(1)
    # Banach dispatch: 1 <= p < q <= inf
    if q <= 2:
        case, segs, extra = _approx_item3a(dual_exponent(q), dual_exponent(p), N, reg)
        return case + "-dual", segs, notes + extra + ("computed via duality",)
    if p >= 2:
        case, segs, extra = _approx_item3a(p, q, N, reg)
        return case, segs, notes + extra
    s = inv(p) + inv(q)
    if s > 1:
        case, segs, extra = _approx_item2(dual_exponent(q), dual_exponent(p), N, reg)
        return case + "-dual", segs, notes + extra + ("computed via duality",)
    case, segs, extra = _approx_item2(p, q, N, reg)
    return case, segs, notes + extra


# ---------------------------------------------------------------------------
# Kolmogorov envelope segments
# ---------------------------------------------------------------------------


def _kolmogorov_case(
    p: Exponent, q: Exponent, N: int, reg: ConstantsRegistry
) -> tuple[str, list[_Segment], tuple[str, ...]]:
    if q < 1:
        if p <= q:
            return "quasi-flat", _segments_trivial_one(), ()
        # q < 1, q < p: only an existence statement is known for the lower side
        e = float(inv(q) - inv(p))

        def upper(n: int) -> float:
            return max(1.0, (N * N - n + 1) / N) ** e

        zero = lambda n: 0.0
        note = (
            "lower side known only as an existence statement: at doubled size 2N "
            "there is an index around c(p,q)*(2N)^2 where the value is at least a "
            "constant times (2N)^(1/q-1/p); no bound is asserted at this index",
        )
        return (
            "quasi-codomain",
            [_Segment("existence-only", math.inf, zero, upper, EXISTENCE_ONLY, notes=note)],
            (),
        )
    notes: tuple[str, ...] = ()
    if p < 1:
        notes = (f"index-stationary: reduced p={format_exponent(p)} to p=1",)
        p = Fraction(1)
    case, segs, extra = _gelfand_case(dual_exponent(q), dual_exponent(p), N, reg)
    return case + "-dual", segs, notes + extra + ("computed via duality from the Gelfand table",)


# ---------------------------------------------------------------------------
# public envelope API
# ---------------------------------------------------------------------------


def envelope_profile(
    kind: str,
    p: ExponentLike,
    q: ExponentLike,
    N: int,
    consts: Optional[ConstantsRegistry] = None,
) -> EnvelopeProfile:
    """Build the full envelope profile over ``n = 1..N^2``.

    ``kind`` is one of ``"approximation"``, ``"gelfand"``, ``"kolmogorov"``.
    """
    pe, qe = as_exponent(p), as_exponent(q)
    N = as_matrix_side(N)
    reg = consts if consts is not None else DEFAULT_CONSTANTS
    if kind not in ("approximation", "gelfand", "kolmogorov"):
        raise ValueError(f"unknown envelope kind {kind!r}")
    if N == 1:
        return EnvelopeProfile(kind, pe, qe, N, _segments_trivial_one(), "scalar")
    if kind == "gelfand":
        case, segs, notes = _gelfand_case(pe, qe, N, reg)
    elif kind == "approximation":
        case, segs, notes = _approx_case(pe, qe, N, reg)
    else:
        case, segs, notes = _kolmogorov_case(pe, qe, N, reg)
    return EnvelopeProfile(kind, pe, qe, N, segs, case, notes)


def recovery_envelope(p: ExponentLike, q: ExponentLike, N: int, m: int) -> EnvelopeValue:
    """Optimal worst-case recovery error from ``m`` linear measurements.

    For quasi-norm balls ``0 < p <= 1``, ``p < q <= 2`` the optimal error of
    recovering matrices from ``m`` linear samples decays like
    ``min(1, N/m)^(1/p - 1/q)``; ``m = 0`` means no information (error 1).
    """
    pe, qe = as_exponent(p), as_exponent(q)
    if not (pe <= 1 and pe < qe <= 2):
        raise ValueError(
            "recovery envelope needs 0 < p <= 1 and p < q <= 2, got "
            f"p={format_exponent(pe)}, q={format_exponent(qe)}"
        )
    N, m_int = as_matrix_side(N), as_int(m)
    if m_int is None or not 0 <= m_int <= N**2:
        raise ValueError(f"measurement count m must satisfy 0 <= m <= N^2, got {m!r}")
    m = m_int
    e = float(inv(pe) - inv(qe))
    value = 1.0 if m == 0 else min(1.0, N / m) ** e
    regime = "no-information" if m == 0 else ("flat" if m <= N else "decay")
    return EnvelopeValue(
        snumber_kind="recovery",
        value_lower=value,
        value_upper=value,
        regime=f"recovery/{regime} m={m}",
        sharpness=EXACT,
    )

