"""Closed formula, recurrence and the multi-trace sum relation."""

from fractions import Fraction
from math import comb, factorial

import pytest

from ncbv import (
    NuPolynomial,
    Scalar,
    catalan,
    double_factorial,
    harer_zagier_closed,
    hz_recurrence_check,
    multitrace_sum_check,
    reduce_to_polynomial,
)
from ncbv.harer_zagier import catalan_leading_check, hz_closed_form_check


def test_closed_formula_base_cases():
    assert harer_zagier_closed(1, 1) == 1
    assert harer_zagier_closed(0, 5) == 5  # I^N_0 = N


@pytest.mark.parametrize("k", range(1, 8))
def test_rank_one_gives_double_factorials(k):
    assert harer_zagier_closed(k, 1) == double_factorial(2 * k - 1)


@pytest.mark.parametrize("size", range(1, 6))
def test_k_two_matches_p4(size):
    assert harer_zagier_closed(2, size) == 2 * size**3 + size


def _closed_form_nested(k, size):
    """The closed form with C(N, m+1) rebuilt as a product for every m."""
    size = Fraction(size)
    total = 0
    for m in range(k + 1):
        binom = 1
        for t in range(m + 1):
            binom = binom * (size - t) / (t + 1)
        total += 2**m * comb(k, m) * binom
    return Fraction(factorial(2 * k), 2**k * factorial(k)) * total


@pytest.mark.parametrize("size", [0, 1, 7, -4, Fraction(7, 3), Fraction(-1, 2)])
def test_closed_formula_matches_nested_reference(size):
    for k in range(61):
        assert harer_zagier_closed(k, size) == _closed_form_nested(k, size), k


def test_closed_formula_is_polynomial_in_n():
    # exact rational evaluation works off the integers too
    value = harer_zagier_closed(2, Fraction(1, 2))
    assert value == 2 * Fraction(1, 8) + Fraction(1, 2)


def test_recurrence_hand_instances():
    p0, p2 = NuPolynomial.nu(), reduce_to_polynomial((2,))
    p4, p6 = reduce_to_polynomial((4,)), reduce_to_polynomial((6,))
    assert p4.scale(3) == p2.shift(1).scale(6) + p0.scale(3)
    assert p6.scale(4) == p4.shift(1).scale(10) + p2.scale(30)


def test_recurrence_check_passes():
    assert hz_recurrence_check(8).passed


def test_closed_form_check_passes():
    assert hz_closed_form_check(8, 5).passed


def test_catalan_values_and_leading_check():
    assert [catalan(k) for k in range(1, 6)] == [1, 2, 5, 14, 42]
    assert catalan_leading_check(8).passed


def test_multitrace_sum_hand_instance():
    # k = 2: p13 + p22 + p31 = p6 - 2 nu p4
    lhs = reduce_to_polynomial((1, 3)).scale(2) + reduce_to_polynomial((2, 2))
    rhs = reduce_to_polynomial((6,)) - reduce_to_polynomial((4,)).shift(1).scale(2)
    assert lhs == rhs


def test_multitrace_sum_k3_paper_values():
    # uses p_{1,5} = 10 nu^3 + 5 nu and friends
    lhs = (
        reduce_to_polynomial((1, 5)).scale(2)
        + reduce_to_polynomial((2, 4)).scale(2)
        + reduce_to_polynomial((3, 3))
    )
    rhs = reduce_to_polynomial((8,)) - reduce_to_polynomial((6,)).shift(1).scale(2)
    assert lhs == rhs
    assert reduce_to_polynomial((1, 5)) == NuPolynomial({3: Scalar(10), 1: Scalar(5)})


def test_multitrace_sum_check_passes():
    assert multitrace_sum_check(4).passed


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: harer_zagier_closed(-1, 3), "k must be nonnegative", id="negative-k"),
])
def test_harer_zagier_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
