"""Envelope profiles: regimes, constants, critical exponents, recovery scaling."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatten_widths.acceptance import EXPONENT_GRID
from schatten_widths.envelope import (
    DEFAULT_CONSTANTS,
    ConstantsRegistry,
    EnvelopeValue,
    envelope_profile,
    recovery_envelope,
)
from schatten_widths.exponents import as_exponent, dual_exponent

EXPONENTS = ("1/2", "3/4", "1", "4/3", "2", "4", "inf")
KINDS = ("approximation", "gelfand", "kolmogorov")
# exponents for the property tests: quasi-norm, Banach and Hilbert classes,
# with denominators the fixed grid above does not use
PROPERTY_EXPONENTS = (
    "1/3", "1/2", "2/3", "3/4", "1", "6/5", "4/3", "3/2", "2", "5/2", "3", "4", "7", "inf",
)
BANACH_EXPONENTS = tuple(e for e in PROPERTY_EXPONENTS if as_exponent(e) >= 1)


# ---------------------------------------------------------------------------
# a fully pinned profile: trace-class into operator-norm, N = 16
# ---------------------------------------------------------------------------


def test_trace_to_operator_profile_boundaries():
    prof = envelope_profile("gelfand", "1", "inf", 16)
    assert prof.boundaries() == [128.0, 249.0, 256.0]


@pytest.mark.parametrize(
    "n,expected,regime",
    [
        (1, 1.0, "square/small-index"),
        (16, 1.0, "square/small-index"),
        (128, 0.35355339059327373, "square/small-index"),
        (129, 0.1767766952966369, "square/intermediate"),
        (249, 0.0625, "square/intermediate"),
        (250, 0.0625, "square/large-index"),
        (256, 0.0625, "square/large-index"),
    ],
)
def test_trace_to_operator_profile_pinned_values(n, expected, regime):
    val = envelope_profile("gelfand", "1", "inf", 16).value(n)
    assert val.value_lower == pytest.approx(expected, rel=1e-12)
    assert val.value_upper == pytest.approx(expected, rel=1e-12)
    assert val.regime.startswith(regime)
    assert val.sharpness == "exact-asymptotic"


def test_smaller_constant_widens_the_small_index_regime():
    consts = ConstantsRegistry(c_universal=Fraction(1, 4))
    prof = envelope_profile("gelfand", "1", "inf", 16, consts)
    assert prof.boundaries() == [192.0, 253.0, 256.0]


def test_monotone_lift_is_recorded_in_notes():
    # the raw intermediate formula dips below the final-index value near the
    # regime boundary; the lift flattens it and leaves a trace in the notes
    val = envelope_profile("gelfand", "1", "inf", 16).value(248)
    assert val.value_lower == pytest.approx(0.0625)
    assert "monotone-lift" in val.notes


# ---------------------------------------------------------------------------
# constants registry
# ---------------------------------------------------------------------------


def test_constants_registry_defaults_and_overrides():
    assert DEFAULT_CONSTANTS.universal() == Fraction(1, 2)
    reg = ConstantsRegistry(
        c_universal=Fraction(1, 3),
        pair_overrides=((("2", "inf"), Fraction(1, 5)),),
        single_overrides=(("inf", Fraction(1, 7)),),
    )
    from schatten_widths.exponents import as_exponent

    assert reg.pair(as_exponent("2"), as_exponent("inf")) == Fraction(1, 5)
    assert reg.pair(as_exponent("1"), as_exponent("2")) == Fraction(1, 3)
    assert reg.single(as_exponent("inf")) == Fraction(1, 7)
    assert reg.single(as_exponent("2")) == Fraction(1, 3)
    assert "c_universal=1/3" in reg.describe()


def test_constants_registry_from_json_dict_round_trip():
    reg = ConstantsRegistry.from_json_dict(
        {"c_universal": "1/4", "pair": [["2", "inf", "1/8"]], "single": [["inf", "1/16"]]}
    )
    from schatten_widths.exponents import as_exponent

    assert reg.universal() == Fraction(1, 4)
    assert reg.pair(as_exponent("2"), as_exponent("inf")) == Fraction(1, 8)
    assert reg.single(as_exponent("inf")) == Fraction(1, 16)


@pytest.mark.parametrize("bad", [0, 1, "3/2", -1])
def test_constants_must_lie_strictly_inside_unit_interval(bad):
    with pytest.raises(ValueError):
        ConstantsRegistry(c_universal=bad)


# ---------------------------------------------------------------------------
# critical exponents
# ---------------------------------------------------------------------------


def _tags(prof):
    return [seg.tag for seg in prof.segments]


def test_crit_exponents_on_a_dual_pair_coincide():
    # the approximation transition window of the square 1 <= p <= 2 <= q
    # ends at N^2 - c N^alpha + 1, the intermediate row at N^2 - c N^beta + 1,
    # alpha = max(3 - 2/p, 1 + 2/q) and beta = min(...); on the dual pair
    # (4/3, 4) both are 3/2, so the intermediate row is empty
    prof = envelope_profile("approximation", "4/3", "4", 16)
    assert _tags(prof) == ["small-index", "transition", "large-index"]
    assert "degenerate-range: intermediate" in prof.case_notes
    assert prof.boundaries() == pytest.approx([128.0, 257 - 0.5 * 16**1.5, 256.0], rel=1e-15)


def test_crit_exponents_extremes_and_ordering():
    # off the dual pair alpha = 5/3 > beta = 3/2: all four rows remain
    prof = envelope_profile("approximation", "3/2", "4", 16)
    assert _tags(prof) == ["small-index", "transition", "intermediate", "large-index"]
    assert not any(note.startswith("degenerate-range") for note in prof.case_notes)
    assert prof.boundaries() == pytest.approx(
        [128.0, 257 - 0.5 * 16 ** (5 / 3), 257 - 0.5 * 16**1.5, 256.0], rel=1e-15
    )
    # at p = 1 the log factor is removable: no transition row
    prof = envelope_profile("approximation", "1", "inf", 16)
    assert _tags(prof) == ["small-index", "intermediate", "large-index"]
    assert prof.boundaries() == [128.0, 249.0, 256.0]


# ---------------------------------------------------------------------------
# EnvelopeValue invariants
# ---------------------------------------------------------------------------


def test_envelope_value_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        EnvelopeValue("gelfand", 1.0, 0.5, "r", "two-sided-gap")


def test_envelope_value_exact_requires_collapse():
    with pytest.raises(ValueError):
        EnvelopeValue("gelfand", 0.5, 1.0, "r", "exact-asymptotic")
    with pytest.raises(ValueError):
        EnvelopeValue("not-a-kind", 1.0, 1.0, "r", "exact-asymptotic")


# ---------------------------------------------------------------------------
# structural invariants on a light grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p,q", [("1/2", "1"), ("1", "inf"), ("4/3", "4"), ("2", "2"), ("4", "4/3")])
def test_profiles_are_monotone_and_ordered(kind, p, q):
    N = 8
    prof = envelope_profile(kind, p, q, N)
    values = prof.values()
    assert len(values) == N * N
    prev_lo = math.inf
    prev_up = math.inf
    for val in values:
        assert val.value_lower <= val.value_upper
        assert val.value_lower <= prev_lo + 1e-12
        assert val.value_upper <= prev_up + 1e-12
        prev_lo, prev_up = val.value_lower, val.value_upper


@pytest.mark.parametrize("p,q", [("1", "inf"), ("4/3", "4"), ("2", "2"), ("4", "2")])
def test_gelfand_kolmogorov_duality_on_banach_pairs(p, q):
    N = 8
    gel = envelope_profile("gelfand", p, q, N)
    kol = envelope_profile("kolmogorov", dual_exponent(q), dual_exponent(p), N)
    for n in range(1, N * N + 1):
        g, k = gel.value(n), kol.value(n)
        assert (g.value_lower, g.value_upper) == (k.value_lower, k.value_upper)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(KINDS),
    p=st.sampled_from(PROPERTY_EXPONENTS),
    q=st.sampled_from(PROPERTY_EXPONENTS),
    N=st.integers(2, 24),
)
def test_every_profile_is_non_increasing_with_lower_below_upper(kind, p, q, N):
    values = envelope_profile(kind, p, q, N).values()
    assert len(values) == N * N
    for prev, val in zip(values, values[1:]):
        assert val.value_lower <= prev.value_lower
        assert val.value_upper <= prev.value_upper
    for val in values:
        assert val.value_lower <= val.value_upper


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(KINDS),
    p=st.sampled_from(EXPONENT_GRID),
    q=st.sampled_from(EXPONENT_GRID),
    N=st.integers(1, 24),
    data=st.data(),
)
def test_sweeps_agree_with_single_index_values(kind, p, q, N, data):
    prof = envelope_profile(kind, p, q, N)
    full = N * N
    singles = [prof.value(n) for n in range(1, full + 1)]
    assert prof.values() == singles  # dataclass ==: every field
    # ranges that start in one regime and end in the next
    for end in prof.boundaries():
        last_in = int(end)
        first = data.draw(st.integers(max(1, last_in - 3), last_in), label="first")
        last = data.draw(st.integers(min(last_in + 1, full), min(last_in + 3, full)), label="last")
        assert list(prof.sweep(first, last)) == singles[first - 1 : last]


@pytest.mark.parametrize("p,N,n", [("1/2", 22, 463), ("1/3", 13, 157)])
def test_bounds_meeting_at_the_floor_keep_their_order(p, N, n):
    # raw lower and upper formulas cross by one ulp where both reach the
    # large-index value; the profile must still report lower <= upper
    val = envelope_profile("approximation", p, "3/2", N).value(n)
    assert val.value_lower <= val.value_upper
    assert val.value_lower == pytest.approx(val.value_upper, rel=1e-15)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    p=st.sampled_from(BANACH_EXPONENTS),
    q=st.sampled_from(BANACH_EXPONENTS),
    N=st.integers(2, 24),
)
def test_gelfand_equals_dual_kolmogorov_bitwise(p, q, N):
    gel = envelope_profile("gelfand", p, q, N).values()
    kol = envelope_profile(
        "kolmogorov", dual_exponent(as_exponent(q)), dual_exponent(as_exponent(p)), N
    ).values()
    assert [(g.value_lower, g.value_upper) for g in gel] == [
        (k.value_lower, k.value_upper) for k in kol
    ]


def test_scalar_case_is_trivial():
    prof = envelope_profile("approximation", "1", "2", 1)
    val = prof.value(1)
    assert (val.value_lower, val.value_upper) == (1.0, 1.0)


def test_envelope_profile_validates_inputs():
    with pytest.raises(ValueError):
        envelope_profile("bernstein", "1", "2", 4)
    with pytest.raises(ValueError):
        envelope_profile("gelfand", "1", "2", 0)
    with pytest.raises(ValueError):
        envelope_profile("gelfand", "1", "2", True)
    prof = envelope_profile("gelfand", "1", "2", 4)
    with pytest.raises(ValueError):
        prof.value(0)
    with pytest.raises(ValueError):
        prof.value(17)


@pytest.mark.parametrize("integer", [np.int64, np.int32])
def test_numpy_integers_are_accepted(integer):
    prof = envelope_profile("gelfand", "1", "2", integer(4))
    assert prof.N == 4 and type(prof.N) is int
    assert prof.value(integer(5)) == envelope_profile("gelfand", "1", "2", 4).value(5)
    assert recovery_envelope("1", "2", integer(8), integer(32)) == recovery_envelope("1", "2", 8, 32)
    with pytest.raises(ValueError):
        prof.value(5.0)
    with pytest.raises(ValueError):
        recovery_envelope("1", "2", 8, True)


# ---------------------------------------------------------------------------
# recovery envelope
# ---------------------------------------------------------------------------


def test_recovery_envelope_values():
    assert recovery_envelope("1", "2", 8, 0).value_lower == 1.0
    assert recovery_envelope("1", "2", 8, 4).value_lower == 1.0  # m <= N: flat
    assert recovery_envelope("1", "2", 8, 32).value_lower == pytest.approx(0.5)
    assert recovery_envelope("1", "2", 8, 64).value_lower == pytest.approx(2.0**-1.5)
    val = recovery_envelope("1", "2", 8, 32)
    assert val.value_lower == val.value_upper
    assert val.sharpness == "exact-asymptotic"
    assert "decay" in val.regime


def test_recovery_envelope_validates_domain():
    with pytest.raises(ValueError):
        recovery_envelope("2", "2", 8, 4)  # p must be <= 1
    with pytest.raises(ValueError):
        recovery_envelope("1", "4", 8, 4)  # q must be <= 2
    with pytest.raises(ValueError):
        recovery_envelope("1", "1", 8, 4)  # q must exceed p
    with pytest.raises(ValueError):
        recovery_envelope("1", "2", 8, -1)
    with pytest.raises(ValueError):
        recovery_envelope("1", "2", 8, 65)
    with pytest.raises(ValueError):
        recovery_envelope("1", "2", 0, 0)

