"""Acceptance registry, and the checks cheap enough for every test run.

Check 1 (exact norm agreement, about 2 s) runs the norm ascent on the
49 exponent pairs at each of N = 2, 3, 4; at N = 2 that exercises the
closed-form 2x2 norm and gradient.  Checks 2 (identity s-numbers) and 3
(quasi-norm domain collapse) run the three width estimators at N = 2 on
pairs where every value is exactly 1 (p = q, and p <= 1 = q), so they
take no search and read no deviation.  Checks 4 and 5 (the certificate checks), 7
(envelope structure) and 8 (interpolation and convex-hull
decompositions) take a few seconds each.  Check 6 (under
1 s) calibrates the Kolmogorov and approximation estimators at N = 2
against the frozen net-oracle battery.  Check 9 (about 6 s) takes
longer and runs through ``schatten-widths suite``: its 72 nuclear-norm
decodes at N = 32 take about 22,500 over-relaxed Douglas–Rachford steps
(38,900 before the relaxation 1.8), one 32 x 32 SVD each; the decoder's
own sweep is pinned at N = 8 in ``test_recovery.py``.
"""
import pytest

from schatten_widths.acceptance import check_numbers, run_check


def test_registry_numbers_the_nine_checks_in_order():
    assert check_numbers() == (1, 2, 3, 4, 5, 6, 7, 8, 9)


@pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6, 7, 8])
def test_certificate_checks_pass(number):
    result = run_check(number)
    assert result.number == number
    assert result.passed, result.summary_line()


@pytest.mark.parametrize("number, detail", [
    (2, "48 estimates; worst |value - 1| = 0 at every point (tolerance 0.02)"),
    (3, "16 quasi-norm estimates; worst deviation 0 at every point (tolerance 0.05)"),
])
def test_a_check_without_deviation_names_every_point(number, detail):
    assert run_check(number).detail == detail
