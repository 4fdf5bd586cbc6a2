"""Exercises the rational-function tower: integer-coefficient polynomial
arithmetic, normalized quotients, and evaluation at rational points."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qortho import _intkernel, exactalg
from qortho.exactalg import PoleError, QPolynomial, QRational
from qortho.momentfamilies import family_moment
from qortho.xpoly import _Ints, _Polys


def qp(*coeffs):
    return QPolynomial(coeffs)


ONE = QPolynomial.one()
Q = QPolynomial.variable()


class TestQPolynomial:
    def test_sum_collapses_to_constant(self):
        assert qp(1, 1) + qp(1, -1) == qp(2)

    def test_product_expands(self):
        assert qp(1, 1) * qp(1, 0, 1) == qp(1, 1, 1, 1)

    def test_subtraction_cancels_to_zero(self):
        assert (qp(-1, 1) + qp(1, -1)).is_zero

    def test_fraction_coefficients_share_a_denominator(self):
        p = QPolynomial([Fraction(1, 2), Fraction(1, 3)])
        assert p.coefficients == (Fraction(1, 2), Fraction(1, 3))
        nums, den = p.int_parts()
        assert nums == [3, 2] and den == 6

    def test_degree_and_leading_coefficient(self):
        p = qp(5, 0, 7)
        assert p.degree == 2
        assert p.leading_coefficient == 7
        assert QPolynomial.zero().degree == -1

    def test_power_matches_repeated_product(self):
        base = qp(1, 1)
        assert base**3 == base * base * base
        assert base**0 == ONE

    def test_monomial_and_constant_builders(self):
        assert QPolynomial.monomial(3, 2) == qp(0, 0, 0, 2)
        assert QPolynomial.constant(Fraction(2, 3)) == QPolynomial([Fraction(2, 3)])

    def test_evaluate_at_one_sums_coefficients(self):
        assert qp(1, 1, 1).evaluate(1) == 3
        assert qp(1, 1, 1).evaluate(Fraction(1, 2)) == Fraction(7, 4)

    def test_divexact_recovers_factor(self):
        f = qp(1, 2, 1)
        g = qp(1, 1)
        assert f.divexact(g) == g

    def test_divexact_rejects_inexact_division(self):
        with pytest.raises(ValueError):
            qp(1, 0, 1).divexact(qp(1, 1))

    def test_inflate_substitutes_a_power_of_q(self):
        assert qp(1, 1, 1).inflate(2) == qp(1, 0, 1, 0, 1)

    def test_json_round_trip(self):
        p = QPolynomial([Fraction(-3, 4), 0, Fraction(5, 2)])
        assert QPolynomial.from_json(p.to_json()) == p

    def test_str_rendering(self):
        assert str(qp(1, 1, 2)) == "1 + q + 2q^2"
        assert str(QPolynomial.zero()) == "0"

    def test_a_fractional_coefficient_is_bracketed(self):
        assert str(QPolynomial([0, Fraction(1, 2)])) == "(1/2)q"

    def test_coefficient_inside_and_outside_the_degree_range(self):
        p = QPolynomial([Fraction(-3, 4), 0, Fraction(5, 2)])
        assert [p.coefficient(k) for k in range(3)] == [Fraction(-3, 4), 0, Fraction(5, 2)]
        assert p.coefficient(3) == 0 and p.coefficient(-1) == 0
        assert type(p.coefficient(7)) is Fraction
        assert QPolynomial.zero().coefficient(0) == 0

    def test_repr_names_the_class(self):
        assert repr(Q + 1) == "QPolynomial(1 + q)"

    def test_subtraction_from_a_scalar(self):
        assert str(1 - Q) == "1 - q"

    def test_equality_with_a_foreign_type_is_false(self):
        assert (Q == "q") is False

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power of a polynomial"):
            Q**-1


class TestQRational:
    def test_common_factor_cancels_to_polynomial(self):
        r = QRational.of(qp(-1, 0, 1), qp(-1, 1))
        assert r == QRational.of(qp(1, 1))
        assert r.is_polynomial

    def test_integer_content_cancels(self):
        assert QRational.of(qp(0, 2), qp(2)) == QRational.of(Q)

    def test_denominator_is_kept_monic(self):
        r = QRational.of(qp(-1, 1), qp(1, -1))
        assert r == QRational.of(qp(-1))
        s = QRational.of(ONE, qp(2, 2))
        assert s.denominator.leading_coefficient == 1

    def test_eval_at_point(self):
        assert QRational.of(qp(-1, 0, 1), qp(-1, 1)).eval_at(1) == 2
        assert QRational.of(qp(1, 1), qp(1, 0, 1)).eval_at(Fraction(1, 2)) == Fraction(6, 5)

    def test_eval_at_pole_raises(self):
        r = QRational.of(ONE, qp(-1, 1))
        with pytest.raises(PoleError):
            r.eval_at(1)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QRational.of(ONE) / QRational.zero()

    def test_arithmetic_over_a_common_denominator(self):
        a = QRational.of(ONE, qp(1, 1))
        b = QRational.of(Q, qp(1, 1))
        assert a + b == QRational.one()
        assert a - a == QRational.zero()
        assert (a * b).denominator == qp(1, 2, 1)

    def test_power_and_reciprocal(self):
        r = QRational.of(Q, qp(1, 1))
        assert r**2 == r * r
        assert 1 / r == QRational.of(qp(1, 1), Q)

    def test_repr_names_the_class(self):
        assert repr(QRational.of(Q + 1, Q - 2)) == "QRational((1 + q)/(-2 + q))"

    def test_subtraction_from_a_fraction(self):
        r = QRational.of(Q + 1, Q - 2)
        assert Fraction(1, 2) - r == QRational.of(Fraction(-1, 2) * Q - 2, Q - 2)

    def test_subtracting_a_foreign_type_raises(self):
        with pytest.raises(TypeError):
            QRational.of(Q + 1, Q - 2) - object()

    def test_negative_powers(self):
        r = QRational.of(Q + 1, Q - 2)
        assert r**-2 == 1 / (r * r)
        with pytest.raises(ZeroDivisionError):
            QRational.zero() ** -1

    def test_reciprocal_substitution(self):
        # f(1/q) for f = q/(1+q) is (1/q)/(1+1/q) = 1/(1+q)
        r = QRational.of(Q, qp(1, 1))
        assert r.substitute_q_reciprocal() == QRational.of(ONE, qp(1, 1))
        # the side of lower degree is raised to the other's
        r = QRational.of(qp(1, 2), qp(5, 0, 0, 1))
        assert r.substitute_q_reciprocal() == QRational.of(qp(0, 0, 2, 1), qp(1, 0, 0, 5))
        r = QRational.of(qp(3, 0, 1), qp(-1, 1))
        assert r.substitute_q_reciprocal() == QRational.of(qp(1, 0, 3), qp(0, 1, -1))
        assert QRational.zero().substitute_q_reciprocal().is_zero

    def test_reciprocal_substitution_takes_no_gcd(self, monkeypatch):
        # the reversed sides of a reduced fraction are coprime already
        values = [family_moment("andrews-q-catalan", n) for n in range(2, 9)]
        calls = []
        gcd = exactalg._k.gcd

        def counting(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(exactalg._k, "gcd", counting)
        reversed_values = [r.substitute_q_reciprocal() for r in values]
        assert len(calls) == 0
        assert [r.substitute_q_reciprocal() for r in reversed_values] == values

    def test_json_round_trip(self):
        r = QRational.of(qp(1, -2, 5), qp(3, 0, 1))
        assert QRational.from_json(r.to_json()) == r

    def test_pickle_round_trip(self):
        rational, polynomial = QRational.of(qp(1, -2, 5), qp(3, 0, 1)), QRational.of(Q) / 2
        for r in (rational, polynomial, QRational.of(Fraction(-3, 4))):
            again = pickle.loads(pickle.dumps(r))
            assert again == r and hash(again) == hash(r) and str(again) == str(r)

    def test_a_product_takes_no_gcd_after_its_cross_cancels(self, monkeypatch):
        # a/b and c/d reduced, so a*c and b*d are coprime once a, d and c, b
        # have cancelled: two gcds, one per cross-cancel
        x, y = QRational(Q, qp(1, 1)), QRational(qp(2, 1), qp(-1, 1))
        expected = QRational(qp(0, 2, 1), qp(-1, 0, 1))
        calls = []
        cancel = exactalg._cancel

        def counting(a, b):
            calls.append((a, b))
            return cancel(a, b)

        monkeypatch.setattr(exactalg, "_cancel", counting)
        assert x * y == expected
        assert len(calls) == 2


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QPolynomial([1.5]), TypeError, "coefficient must be int or Fraction, got float"),
        (
            lambda: QPolynomial._raw([1], 0),
            ZeroDivisionError,
            "zero denominator in polynomial construction",
        ),
        (lambda: QPolynomial.monomial(-1), ValueError, "monomial exponent must be nonnegative"),
        (lambda: Q.inflate(0), ValueError, "inflation exponent must be >= 1"),
        (lambda: Q.divexact(None), TypeError, "divexact needs a polynomial"),
        (lambda: Q.divexact(QPolynomial.zero()), ZeroDivisionError, "division by zero polynomial"),
        (
            lambda: QRational(ONE, QPolynomial.zero()),
            ZeroDivisionError,
            "division by zero polynomial",
        ),
        (lambda: QRational.of(None), TypeError, "cannot build QRational from NoneType"),
        (
            lambda: None - Q,
            TypeError,
            "unsupported operand type(s) for -: 'NoneType' and 'QPolynomial'",
        ),
        (
            lambda: Q + None,
            TypeError,
            "unsupported operand type(s) for +: 'QPolynomial' and 'NoneType'",
        ),
        (
            lambda: Q * None,
            TypeError,
            "unsupported operand type(s) for *: 'QPolynomial' and 'NoneType'",
        ),
        (
            lambda: QRational.of(Q) + None,
            TypeError,
            "unsupported operand type(s) for +: 'QRational' and 'NoneType'",
        ),
        (
            lambda: QRational.of(Q) * None,
            TypeError,
            "unsupported operand type(s) for *: 'QRational' and 'NoneType'",
        ),
        (
            lambda: QRational.of(Q) / None,
            TypeError,
            "unsupported operand type(s) for /: 'QRational' and 'NoneType'",
        ),
        (
            lambda: None / QRational.of(Q),
            TypeError,
            "unsupported operand type(s) for /: 'NoneType' and 'QRational'",
        ),
    ],
    ids=[
        "float-coefficient",
        "zero-denominator",
        "monomial",
        "inflate",
        "divexact-foreign",
        "divexact-by-zero",
        "rational-over-zero",
        "rational-of-foreign",
        "foreign-minus-polynomial",
        "polynomial-plus-foreign",
        "polynomial-times-foreign",
        "rational-plus-foreign",
        "rational-times-foreign",
        "rational-over-foreign",
        "foreign-over-rational",
    ],
)
def test_a_bad_argument_raises(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_zero_polynomial_edge_values():
    zero = QPolynomial.zero()
    assert zero.leading_coefficient == 0 and type(zero.leading_coefficient) is Fraction
    assert zero.divexact(qp(1, 1)) == zero
    assert not zero and Q


def test_kernel_zero_divisor_and_zero_scalar():
    with pytest.raises(ZeroDivisionError) as err:
        _intkernel.divexact([1, 2], [0])
    assert str(err.value) == "division by zero polynomial"
    assert _intkernel.mul_scalar([1, 2], 0) == []


def test_equal_constants_hash_equal():
    assert len({1, Fraction(1), QPolynomial.one(), QRational.one()}) == 1
    half = Fraction(3, 2)
    assert len({half, QPolynomial.constant(half), QRational.of(half)}) == 1
    assert len({0, QPolynomial.zero(), QRational.zero()}) == 1


def test_polynomial_values_hash_like_their_polynomial():
    p = qp(1, Fraction(-3, 2), 2)
    assert QRational.of(p) == p
    assert len({p, QRational.of(p)}) == 1


# -- randomized algebra laws ----------------------------------------------------

small_fraction = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)
polys = st.lists(small_fraction, min_size=0, max_size=5).map(QPolynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_polynomial_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPolynomial.zero() == a
    assert a * ONE == a


@settings(max_examples=120, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_quotient_normalization_is_idempotent(num, den):
    r = QRational.of(num, den)
    again = QRational.of(r.numerator, r.denominator)
    assert again.numerator == r.numerator
    assert again.denominator == r.denominator
    assert r.denominator.leading_coefficient == 1
    # the reduced pair still represents num/den
    assert r.numerator * den == num * r.denominator


@settings(max_examples=120, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys.filter(lambda p: p.degree > 0))
def test_quotient_cancels_a_planted_factor(a, b, h):
    r = QRational.of(a * h, b * h)
    assert r == QRational.of(a, b)
    parts = [_intkernel.primitive(p.int_parts()[0])[1] for p in (r.numerator, r.denominator)]
    assert _intkernel._gcd_prs(*parts) == [1]
    assert r.denominator.leading_coefficient == 1


# Small factors shared between draws, so sums and products meet common
# factors in their denominators and both cross-cancels of a product fire.
_FACTORS = [qp(0, 1), qp(1, 1), qp(-1, 1), qp(2, 0, 1), qp(1, 1, 1)]


def _with_factors(base):
    return st.tuples(base, st.lists(st.sampled_from(_FACTORS), max_size=2)).map(
        lambda t: math.prod(t[1], start=t[0])
    )


rationals = st.tuples(_with_factors(polys), _with_factors(nonzero_polys)).map(
    lambda nd: QRational.of(*nd)
)


@settings(max_examples=80, deadline=None)
@given(*[_with_factors(p) for p in (polys, nonzero_polys, polys, nonzero_polys)])
def test_a_product_is_the_reduced_product_of_its_parts(a, b, c, d):
    assert QRational(a, b) * QRational(c, d) == QRational(a * c, b * d)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == QRational.zero()
    if not b.is_zero:
        assert (a / b) * b == a


def _is_lowest_pair(n, d):
    """No common polynomial or integer factor, and d's lead positive (zero is ([], [1]))."""
    if not n:
        return d == [1]
    coprime = _intkernel._gcd_prs(_intkernel.primitive(n)[1], _intkernel.primitive(d)[1]) == [1]
    return coprime and math.gcd(*n, *d) == 1 and d[-1] > 0


@settings(max_examples=120, deadline=None)
@given(rationals)
def test_the_numerator_ring_reads_and_builds_the_fields_own_pair(r):
    n, d = _Polys.parts(r)
    assert _is_lowest_pair(n, d)
    assert _Polys.value(n, d) == r
    # fresh lists: changing them leaves r as it was
    before = (r.numerator, r.denominator)
    n.append(7)
    d[:] = [0]
    assert (r.numerator, r.denominator) == before
    assert _Polys.value(*_Polys.parts(r)) == r
    # the views are the same fraction, over a monic denominator
    assert QRational(r.numerator, r.denominator) == r
    assert r.denominator.leading_coefficient == 1
    if r.is_polynomial:
        p = r.numerator
        assert hash(r) == hash(p)
        if p.degree <= 0:
            assert hash(r) == hash(p.coefficient(0))


@settings(max_examples=120, deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_the_integer_ring_reads_and_builds_a_fraction(f):
    assert _Ints.value(*_Ints.parts(f)) == f


@settings(max_examples=80, deadline=None)
@given(rationals, st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5))
def test_reciprocal_substitution_is_an_involution_in_lowest_terms(r, point):
    s = r.substitute_q_reciprocal()
    assert _is_lowest_pair(*_Polys.parts(s))
    assert s.substitute_q_reciprocal() == r
    if point:
        try:
            expected = r.eval_at(1 / point)
        except PoleError:
            return
        assert s.eval_at(point) == expected


@settings(max_examples=60, deadline=None)
@given(rationals, st.integers(min_value=0, max_value=6))
def test_a_power_is_the_repeated_product(r, n):
    assert r**n == math.prod([r] * n, start=QRational.one())


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4))
def test_evaluation_is_a_ring_homomorphism(a, b, point):
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def _fraction_horner(p, point):
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * point + c
    return acc


@settings(max_examples=150, deadline=None)
@given(
    polys,
    st.one_of(
        st.integers(min_value=-50, max_value=50).map(Fraction),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=60),
    ),
)
@example(QPolynomial(), Fraction(3, 2))
@example(qp(Fraction(1, 3), 0, -2), Fraction(0))
def test_evaluation_matches_a_fraction_horner(p, point):
    assert p.evaluate(point) == _fraction_horner(p, point)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_product_with_divexact_round_trips(a, b):
    assert (a * b).divexact(b) == a


# -- the dense integer kernel ----------------------------------------------------

int_coeffs = st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=8)


@settings(max_examples=150, deadline=None)
@given(int_coeffs)
def test_kernel_pack_unpack_round_trip(cs):
    bound = max((abs(c) for c in cs), default=0)
    w = _intkernel._width_for(bound)
    assert _intkernel.unpack(_intkernel.pack(cs, w), w) == _intkernel.strip(cs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([8, 16, 64]).flatmap(
    lambda w: st.tuples(
        st.just(w),
        st.lists(st.integers(min_value=-(1 << (w - 1)), max_value=(1 << (w - 1)) - 1), max_size=8),
    )
))
@example((8, [-128, 127, 0, -1]))
def test_kernel_pack_is_the_value_at_two_to_the_w(case):
    # the offset digits must cover the whole balanced range, both ends included
    w, cs = case
    assert _intkernel.pack(cs, w) == sum(c << (w * i) for i, c in enumerate(cs))


def _unpack_with_carries(x: int, w: int) -> list[int]:
    """unpack as a carry loop over the digits of |x|: the oracle for the offset read."""
    if x == 0:
        return []
    sign = 1
    if x < 0:
        sign, x = -1, -x
    wbytes = w // 8
    nbytes = (x.bit_length() + 7) // 8
    nbytes = ((nbytes + wbytes - 1) // wbytes) * wbytes
    data = x.to_bytes(nbytes, "little")
    half = 1 << (w - 1)
    full = 1 << w
    out: list[int] = []
    carry = 0
    for i in range(0, nbytes, wbytes):
        d = int.from_bytes(data[i : i + wbytes], "little") + carry
        carry = 0
        if d >= half:
            d -= full
            carry = 1
        out.append(sign * d)
    if carry:
        out.append(sign)
    return _intkernel.strip(out)


def _balanced_digits(w):
    """Coefficient lists inside unpack's precondition |c| < 2**(w-1), ends included."""
    top = (1 << (w - 1)) - 1
    digit = st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top))
    return st.tuples(st.just(w), st.lists(digit, max_size=10))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64).map(lambda k: 8 * k).flatmap(_balanced_digits))
@example((8, [127, -127, 0, -1, 0]))
@example((8, [-127, 0, 0, 127]))
@example((512, [(1 << 511) - 1, -((1 << 511) - 1), 0, -5]))
def test_kernel_unpack_matches_the_carry_loop(case):
    w, cs = case
    x = sum(c << (w * i) for i, c in enumerate(cs))
    assert _intkernel.unpack(x, w) == _unpack_with_carries(x, w) == _intkernel.strip(list(cs))


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    """The product by the double loop over coefficient pairs: the oracle for mul and dots."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _intkernel.strip(out)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(int_coeffs, int_coeffs), max_size=5), st.integers(1, 3))
def test_kernel_dots_match_sums_of_schoolbook_products(pairs, copies):
    xs = [x for x, _ in pairs]
    yss = [[y for _, y in pairs]] + [[x for x, _ in pairs]] * copies  # repeated polynomials
    expected = []
    for ys in yss:
        total = []
        for x, y in zip(xs, ys):
            if x and y:
                total = _intkernel.add(total, _schoolbook(x, y))
        expected.append(_intkernel.strip(total))
    assert _intkernel.dots(xs, yss) == expected


# every length from 0 to 40, zeros (trailing ones included) drawn often
any_length_int_coeffs = st.integers(0, 40).flatmap(
    lambda n: st.lists(
        st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6)),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=200, deadline=None)
@given(any_length_int_coeffs, any_length_int_coeffs)
@example([], [1, 2])
@example([0, 0], [3])
@example([-5], [1, 0, -2])
@example([1, 2, 0, 0], [0, 7])
@example([0, 0, 3, 0], [-1, 0, 0])
@example([10**6] * 40, [-(10**6)] * 40)
def test_kernel_multiplication_matches_schoolbook(a, b):
    # every product of two non-constant polynomials is packed; a constant scales
    assert _intkernel.mul(a, b) == _schoolbook(a, b)


def _sized_int_poly(max_digits):
    """Nonzero integer polynomials whose coefficients share one size, 1 to 10**max_digits."""
    return st.integers(min_value=0, max_value=max_digits).flatmap(
        lambda e: st.lists(
            st.integers(min_value=-(10**e), max_value=10**e), min_size=1, max_size=6
        ).filter(any)
    )


def _planted(a, b, c):
    """a*c, b*c and their primitive gcd by the primitive-PRS oracle."""
    ac, bc = _intkernel.mul(a, c), _intkernel.mul(b, c)
    return ac, bc, _intkernel._gcd_prs(_intkernel.primitive(ac)[1], _intkernel.primitive(bc)[1])


@settings(max_examples=150, deadline=None)
@given(_sized_int_poly(30), _sized_int_poly(30), _sized_int_poly(8))
def test_kernel_gcd_matches_the_prs_oracle(a, b, c):
    # c is a planted common factor; a and b draw their sizes apart, so one
    # pair can mix coefficients of 1 and of 10**30.
    ac, bc, expected = _planted(a, b, c)
    assert _intkernel.gcd(ac, bc) == expected


# pairs that the planted common factor q^2 - 3q + 7 turns into gcd inputs
_PLANTED = [
    ([-1, 0, 1], [1, 2, 1]),
    ([10**30, 1, -(10**29)], [1, 1]),
    ([6, 5, 1], [3, 4, 1]),
    ([2, 3], [5, 7]),
]


@pytest.mark.parametrize("a, b", _PLANTED)
def test_kernel_gcd_falls_back_to_the_prs_when_the_heuristic_gives_up(monkeypatch, a, b):
    ac, bc, expected = _planted(a, b, [7, -3, 1])
    refused, prs = [], []
    gcd_prs = _intkernel._gcd_prs

    class Refusing:
        def __init__(self, d):
            pass

        def __call__(self, n):
            refused.append(n)
            raise ArithmeticError("refused")

    def counted_prs(f, g):
        prs.append((f, g))
        return gcd_prs(f, g)

    monkeypatch.setattr(_intkernel, "ExactDivider", Refusing)
    monkeypatch.setattr(_intkernel, "_gcd_prs", counted_prs)
    assert _intkernel.gcd(ac, bc) == expected
    assert refused and prs


@pytest.mark.parametrize("a, b", _PLANTED)
def test_kernel_gcd_reads_the_cofactors_off_the_packed_values(monkeypatch, a, b):
    # the heuristic accepts its candidate without any schoolbook division
    ac, bc, expected = _planted(a, b, [7, -3, 1])
    calls = []
    divexact = _intkernel.divexact

    def counted(f, g):
        calls.append((f, g))
        return divexact(f, g)

    monkeypatch.setattr(_intkernel, "divexact", counted)
    assert _intkernel.gcd(ac, bc) == expected
    assert not calls


def test_kernel_gcd_rejects_a_candidate_that_does_not_divide():
    # At the first width, 2**8, the integer gcd of the two values reads back
    # as q - 127, which divides neither input; the true gcd is 1.
    a, b = [2, 1], [3, 2, 0, 0, -2, 3]
    w = _intkernel._width_for(3)
    first = _intkernel.unpack(math.gcd(_intkernel.pack(a, w), _intkernel.pack(b, w)), w)
    assert _intkernel.primitive(first)[1] == [-127, 1]
    assert _intkernel.gcd(a, b) == [1]


def test_kernel_gcd_of_a_constant_is_one():
    assert _intkernel.gcd([6], [2, 4]) == [1]
    assert _intkernel.gcd([0, 3, 3], [-5]) == [1]
    assert _intkernel.gcd([0, -2], []) == [0, 1]
    assert _intkernel.gcd([], []) == []


@settings(max_examples=80, deadline=None)
@given(int_coeffs, int_coeffs)
def test_kernel_gcd_divides_both_inputs(a, b):
    g = _intkernel.gcd(a, b)
    if g:
        for f in (a, b):
            if _intkernel.strip(list(f)):
                _intkernel.divexact(_intkernel.strip(list(f)), g)


def exact_div_by_divmod(num, den):
    """Exact quotient by long division, as fraction-free elimination once did it."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _sized_int(max_digits):
    """Integers up to 10**e in size, with e itself drawn from 0..max_digits."""
    return st.integers(min_value=0, max_value=max_digits).flatmap(
        lambda e: st.integers(min_value=-(10**e), max_value=10**e)
    )


# odd part times a power of two, either sign; d = +-1 drawn on its own
divisors = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(
        lambda odd, shift, sign: sign * (2 * odd + 1) << shift,
        _sized_int(1500).map(abs),
        st.integers(min_value=0, max_value=200),
        st.sampled_from([1, -1]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_sized_int(3000), divisors)
def test_exact_divider_matches_the_divmod_oracle(q, d):
    n = q * d
    div = _intkernel.ExactDivider(d)
    # every route, whichever one this interpreter calls
    assert div._by_inverse(n) == div._by_divmod(n) == div._by_size(n) == q
    assert exact_div_by_divmod(n, d) == q


@settings(max_examples=60, deadline=None)
@given(st.lists(_sized_int(3000), min_size=1, max_size=6), divisors)
def test_exact_divider_serves_numerators_of_any_size_in_any_order(qs, d):
    # the inverse is lifted as larger quotients arrive and reused for smaller ones
    div = _intkernel.ExactDivider(d)
    assert [div._by_inverse(q * d) for q in qs] == [exact_div_by_divmod(q * d, d) for q in qs]


@settings(max_examples=150, deadline=None)
@given(_sized_int(3000), divisors.filter(lambda d: abs(d) > 1), st.data())
def test_exact_divider_rejects_a_remainder(q, d, data):
    r = data.draw(st.integers(min_value=1, max_value=abs(d) - 1))
    div = _intkernel.ExactDivider(d)
    for route in (div._by_inverse, div._by_divmod, div._by_size):
        with pytest.raises(ArithmeticError, match="inexact division"):
            route(q * d + r)


def test_exact_divider_edge_cases():
    for d in (1, -1, 2, -6, 3 << 70):
        div = _intkernel.ExactDivider(d)
        assert div._by_inverse(0) == div._by_divmod(0) == div._by_size(0) == 0
    div = _intkernel.ExactDivider(-1)
    assert div._by_inverse(-(10**50)) == div._by_divmod(-(10**50)) == 10**50
    div = _intkernel.ExactDivider(4)
    for route in (div._by_inverse, div._by_divmod, div._by_size):
        with pytest.raises(ArithmeticError):
            route(2)
    with pytest.raises(ZeroDivisionError):
        _intkernel.ExactDivider(0)


def test_exact_divider_takes_divmod_from_four_times_the_divisors_length(monkeypatch):
    routes = []
    for name in ("_by_inverse", "_by_divmod"):
        real = getattr(_intkernel.ExactDivider, name)
        monkeypatch.setattr(
            _intkernel.ExactDivider,
            name,
            lambda self, n, name=name, real=real: routes.append(name) or real(self, n),
        )
    d = (1 << 999) + 7  # 1000 bits
    div = _intkernel.ExactDivider(d)
    for q in (1 << 2000, 1 << 2999, 1 << 3000, 1 << 5000):  # q * d: 3000, 3999, 4000, 6000 bits
        assert div._by_size(q * d) == q
    assert routes == ["_by_inverse", "_by_inverse", "_by_divmod", "_by_divmod"]
