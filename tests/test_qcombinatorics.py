"""Bracket, factorial, binomial, and product-family building blocks.

Everything here is a polynomial identity in q, checked coefficientwise;
specializing q = 1 must reproduce the ordinary integer combinatorics.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qortho.exactalg import PoleError, QPolynomial
from qortho.qcombinatorics import (
    SYMBOLIC,
    QPoint,
    VanishingDenominator,
    built_at,
    q_binomial,
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_multifactorial,
    q_pochhammer_signed,
    q_power_binom2,
)


def qp(*coeffs):
    return QPolynomial(coeffs)


def q_binomial_by_division(n: int, k: int, base: int = 1) -> QPolynomial:
    """[n]!/([k]![n-k]!) computed by exact division; the oracle for q_binomial."""
    if k < 0 or k > n:
        return QPolynomial.zero()
    num = q_factorial(n, base)
    return num.divexact(q_factorial(k, base)).divexact(q_factorial(n - k, base))


class TestBracket:
    def test_zero_bracket_vanishes(self):
        assert q_bracket(0).is_zero

    def test_bracket_is_a_geometric_sum(self):
        assert q_bracket(1) == qp(1)
        assert q_bracket(3) == qp(1, 1, 1)

    def test_bracket_in_a_power_of_q(self):
        assert q_bracket(2, base=2) == qp(1, 0, 1)
        assert q_bracket(3, base=2) == qp(1, 0, 1, 0, 1)

    def test_bracket_counts_at_one(self):
        for n in range(9):
            assert q_bracket(n).evaluate(1) == n


class TestFactorial:
    def test_empty_factorial_is_one(self):
        assert q_factorial(0).is_one

    def test_factorial_is_a_product_of_brackets(self):
        assert q_factorial(3) == q_bracket(1) * q_bracket(2) * q_bracket(3)

    def test_factorial_counts_at_one(self):
        assert q_factorial(4).evaluate(1) == 24
        for n in range(9):
            assert q_factorial(n).evaluate(1) == math.factorial(n)


class TestBinomial:
    def test_edge_columns_are_one(self):
        for n in range(7):
            assert q_binomial(n, 0).is_one
            assert q_binomial(n, n).is_one

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, 5).is_zero
        assert q_binomial(3, -1).is_zero

    def test_gaussian_coefficient_four_choose_two(self):
        assert q_binomial(4, 2) == qp(1, 1, 2, 1, 1)

    def test_counts_at_one(self):
        assert q_binomial(5, 2).evaluate(1) == 10

    def test_symmetry_in_the_column_index(self):
        for n in range(11):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_both_pascal_recurrences(self):
        for n in range(1, 13):
            for k in range(n + 1):
                left = q_binomial(n, k)
                assert left == q_binomial(n - 1, k - 1) + QPolynomial.monomial(k) * q_binomial(n - 1, k)
                assert left == QPolynomial.monomial(n - k) * q_binomial(n - 1, k - 1) + q_binomial(n - 1, k)

    def test_division_route_agrees_with_recurrence_route(self):
        for n in range(11):
            for k in range(n + 1):
                assert q_binomial_by_division(n, k) == q_binomial(n, k)
        assert q_binomial_by_division(6, 3, base=2) == q_binomial(6, 3, base=2)

    def test_base_two_binomial_lives_in_even_powers(self):
        p = q_binomial(4, 2, base=2)
        assert all(c == 0 for e, c in enumerate(p.coefficients) if e % 2 == 1)
        assert p.evaluate(1) == 6


class TestPochhammer:
    def test_negative_sign_gives_plus_products(self):
        assert q_pochhammer_signed(-1, 1, 2) == qp(1, 1) * qp(1, 0, 1)

    def test_plus_sign_starting_at_exponent_zero_vanishes(self):
        assert q_pochhammer_signed(1, 0, 1).is_zero

    def test_empty_product_is_one(self):
        assert q_pochhammer_signed(-1, 1, 0).is_one

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            q_pochhammer_signed(2, 0, 1)


class TestDoubleFactorial:
    def test_no_factors_is_one(self):
        assert q_double_factorial(0, "odd").is_one
        assert q_double_factorial(0, "even").is_one

    def test_odd_factors(self):
        assert q_double_factorial(2, "odd") == q_bracket(1) * q_bracket(3)
        assert q_double_factorial(3, "odd").evaluate(1) == 15

    def test_even_factors(self):
        assert q_double_factorial(2, "even") == q_bracket(2) * q_bracket(4)

    def test_rejects_unknown_parity(self):
        with pytest.raises(ValueError):
            q_double_factorial(2, "both")

    def test_even_times_odd_gives_the_full_factorial(self):
        for n in range(11):
            assert (
                q_double_factorial(n, "even") * q_double_factorial(n, "odd")
                == q_factorial(2 * n)
            )


class TestMultifactorial:
    def test_base_cases_below_two(self):
        for step in (1, 2, 3):
            assert q_multifactorial(0, step).is_one
            assert q_multifactorial(1, step).is_one

    def test_descends_by_the_step(self):
        assert q_multifactorial(7, 3) == q_bracket(7) * q_bracket(4)
        assert q_multifactorial(2, 3) == q_bracket(2)
        assert q_multifactorial(6, 2).evaluate(1) == 48

    def test_step_one_is_the_factorial(self):
        for n in range(11):
            assert q_multifactorial(n, 1) == q_factorial(n)

    def test_step_two_at_even_arguments_is_the_even_double_factorial(self):
        for n in range(11):
            assert q_multifactorial(2 * n, 2) == q_double_factorial(n, "even")


def test_half_square_power():
    assert q_power_binom2(4) == QPolynomial.monomial(6)
    assert q_power_binom2(0).is_one


def test_even_binomial_splits_into_odd_double_factorials():
    # [2n over 2k] [2k-1]!! [2n-2k-1]!! = [n over k]_{q^2} [2n-1]!!
    for n in range(11):
        for k in range(n + 1):
            lhs = (
                q_binomial(2 * n, 2 * k)
                * q_double_factorial(k, "odd")
                * q_double_factorial(n - k, "odd")
            )
            rhs = q_binomial(n, k, base=2) * q_double_factorial(n, "odd")
            assert lhs == rhs


class TestQuantitiesAtAPoint:
    """QPoint against the symbolic quantities evaluated at its point."""

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=-4, max_value=4, max_denominator=5))
    @example(Fraction(-1))
    @example(Fraction(0))
    @example(Fraction(1))
    @example(Fraction(2))
    @example(Fraction(-1, 2))
    def test_every_quantity_is_the_symbolic_one_evaluated(self, q0):
        at = QPoint(q0)
        for n in range(13):
            assert at.power(n) == SYMBOLIC.power(n).evaluate(q0), n
            for parity in ("odd", "even"):
                assert at.double_factorial(n, parity) == q_double_factorial(n, parity).evaluate(q0)
            for base in (1, 2, 3):
                assert at.bracket(n, base) == q_bracket(n, base).evaluate(q0), (n, base)
                for k in range(-1, n + 2):
                    assert at.binomial(n, k, base) == q_binomial(n, k, base).evaluate(q0), (n, k)
            for power in range(4):
                for sign in (1, -1):
                    expected = q_pochhammer_signed(sign, power, n).evaluate(q0)
                    assert at.pochhammer(sign, power, n) == expected
                    shift = SYMBOLIC.signed(n, power, q_bracket(3))
                    assert at.signed(n, power, at.bracket(3)) == shift.evaluate(q0)

    def test_values_are_fractions_and_cached_per_instance(self):
        at = QPoint(Fraction(5, 4))
        assert type(at.binomial(6, 3, base=2)) is Fraction
        assert at.binomial(6, 3, base=2) is at.binomial(6, 3, base=2)
        assert QPoint(Fraction(5, 4))._binomials == {}

    def test_a_vanishing_denominator_raises_instead_of_dividing(self):
        at = QPoint(-1)
        assert at.bracket(2) == 0
        with pytest.raises(VanishingDenominator):
            at.ratio(at.one, at.bracket(2))
        assert at.ratio(at.one, at.bracket(3)) == 1
        assert at.ratio(Fraction(3, 2)) == Fraction(3, 2)

    def test_built_at_falls_back_to_the_symbolic_build(self):
        def half(q=SYMBOLIC):
            # [4] / [2] = 1 + q^2, whose unreduced denominator vanishes at -1
            return q.ratio(q.bracket(4), q.bracket(2))

        def pole(q=SYMBOLIC):
            return q.ratio(q.one, q.bracket(2))

        assert built_at(None, half) == half()
        assert built_at(QPoint(2), half) == Fraction(5)
        fallen = built_at(QPoint(-1), half)
        assert type(fallen) is Fraction and fallen == 2
        pair = built_at(QPoint(-1), lambda q=SYMBOLIC: (half(q), q.ratio(q.one, q.bracket(3))))
        assert pair == (Fraction(2), Fraction(1)) and {type(v) for v in pair} == {Fraction}
        with pytest.raises(PoleError, match="pole at evaluation point q=-1"):
            built_at(QPoint(-1), pole)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: q_bracket(-1), "q_bracket wants n >= 0"),
        (lambda: q_bracket(3, base=0), "base exponent must be a positive integer, got 0"),
        (lambda: q_factorial(-1), "q_factorial wants n >= 0"),
        (lambda: q_binomial(-1, 0), "q_binomial wants n >= 0"),
        (lambda: q_pochhammer_signed(1, -1, 2), "q_pochhammer_signed wants power >= 0"),
        (lambda: q_pochhammer_signed(1, 0, -1), "q_pochhammer_signed wants length >= 0"),
        (lambda: q_double_factorial(-1, "odd"), "q_double_factorial wants n >= 0"),
        (lambda: q_multifactorial(5, 0), "multifactorial step must be >= 1"),
        (lambda: q_power_binom2(-1), "q_power_binom2 wants n >= 0"),
        (lambda: QPoint(2).bracket(-1), "q_bracket wants n >= 0"),
        (lambda: QPoint(2).binomial(-1, 0), "q_binomial wants n >= 0"),
        (lambda: QPoint(2).double_factorial(3, "both"), "parity must be 'odd' or 'even'"),
    ],
    ids=[
        "bracket",
        "bracket-base-0",
        "factorial",
        "binomial",
        "pochhammer-power",
        "pochhammer-length",
        "double-factorial",
        "multifactorial-step-0",
        "power-binom2",
        "point-bracket",
        "point-binomial",
        "point-parity",
    ],
)
def test_an_argument_out_of_range_raises_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
