"""Acceptance registry, and the two certificate checks it runs.

Checks 4 and 5 take a few seconds together.  The others call the search
estimators or the recovery sweep and run through ``schatten-widths suite``.
"""
import pytest

from schatten_widths.acceptance import check_numbers, run_check


def test_registry_numbers_the_nine_checks_in_order():
    assert check_numbers() == (1, 2, 3, 4, 5, 6, 7, 8, 9)


@pytest.mark.parametrize("number", [4, 5])
def test_certificate_checks_pass(number):
    result = run_check(number)
    assert result.number == number
    assert result.passed, result.summary_line()
