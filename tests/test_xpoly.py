"""Polynomials in x over the rational-function field, the moment
functional that integrates them, and even-part compression."""

import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho.exactalg import QPolynomial, QRational
from qortho.momentfamilies import family
from qortho.xpoly import (
    MomentSequence,
    XPolynomial,
    apply_functional,
    even_part_compress,
)


def qr(*coeffs):
    return QRational.of(QPolynomial(coeffs))


X = XPolynomial.x_power(1)
ONE = XPolynomial.one()


class TestArithmetic:
    def test_product_by_x_shifts_degrees(self):
        assert X * (X - ONE) == XPolynomial([0, -1, 1])

    def test_shift_x_matches_multiplication(self):
        p = XPolynomial([qr(1), qr(0, 1), qr(2)])
        assert p.shift_x(1) == X * p
        assert p.shift_x(2) == X * X * p

    def test_opposites_cancel(self):
        assert ((X - ONE) + (ONE - X)).is_zero

    def test_scale_by_a_rational_function(self):
        factor = QRational.of(QPolynomial.one(), QPolynomial([1, 1]))
        p = (XPolynomial.x_power(2) + ONE).scale(factor)
        assert p.coefficient(2) == factor
        assert p.coefficient(1).is_zero
        assert p.coefficient(0) == factor

    def test_monicity_and_degree(self):
        p = XPolynomial.x_power(3) - XPolynomial.x_power(1, coefficient=Fraction(5, 2))
        assert p.degree == 3
        assert p.is_monic
        assert not p.scale(qr(2)).is_monic
        assert XPolynomial.zero().degree == -1

    def test_coefficient_beyond_degree_is_zero(self):
        assert (X - ONE).coefficient(7) == 0

    def test_product_with_a_fraction_scales_each_coefficient(self):
        p = XPolynomial([1, Fraction(1, 2), 3]) * Fraction(2, 3)
        assert p == XPolynomial([Fraction(2, 3), Fraction(1, 3), 2])
        assert Fraction(2, 3) * XPolynomial([1, Fraction(1, 2), 3]) == p
        assert (p * Fraction(0)).is_zero

    def test_product_with_the_zero_polynomial_is_zero(self):
        p = XPolynomial([qr(1, 1), qr(2)])
        assert (p * XPolynomial.zero()).is_zero
        assert (XPolynomial.zero() * p).is_zero

    def test_evaluate_q_specializes_every_coefficient(self):
        p = XPolynomial([qr(1, 1), qr(0, 0, 1)])
        assert p.evaluate_q(2) == (Fraction(3), Fraction(4))

    def test_json_round_trip(self):
        p = XPolynomial([QRational.of(QPolynomial([1]), QPolynomial([1, 1])), qr(0, 3)])
        assert XPolynomial.from_json(p.to_json()) == p

    def test_str_rendering(self):
        assert str(XPolynomial([2, -4, 1])) == "x^2 - 4x + 2"


class TestMomentFunctional:
    def test_normalized_zeroth_moment(self):
        from qortho.momentfamilies import family

        for spec in ("geometric-q", "q-factorial:m=0", "andrews-q-catalan"):
            seq = family(spec).moments
            assert apply_functional(seq, ONE) == QRational.one()

    def test_factorial_moments_at_one(self):
        from qortho.momentfamilies import family

        seq = family("q-factorial:m=0").specialized_moments(1)
        assert apply_functional(seq, XPolynomial.x_power(2)) == qr(2)
        assert apply_functional(seq, XPolynomial.x_power(3)) == qr(6)

    def test_linearity(self):
        from qortho.momentfamilies import family

        seq = family("geometric-q").moments
        a = QRational.of(QPolynomial.one(), QPolynomial([1, 1]))
        b = qr(0, 1)
        p = XPolynomial.x_power(3) + X
        r = XPolynomial.x_power(2) - ONE
        assert (
            apply_functional(seq, p.scale(a) + r.scale(b))
            == a * apply_functional(seq, p) + b * apply_functional(seq, r)
        )

    def test_degree_two_orthogonal_polynomial_annihilates_lower_powers(self):
        from qortho.momentfamilies import family
        from qortho.orthocore import orthopoly_det

        seq = family("geometric-q").moments
        p2 = orthopoly_det(seq, 2)
        assert apply_functional(seq, p2).is_zero
        assert apply_functional(seq, X * p2).is_zero
        assert not apply_functional(seq, X * X * p2).is_zero


def _coefficient(symbolic):
    """A small Fraction, or with ``symbolic`` a Fraction over 1 + c q."""
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    if not symbolic:
        return small
    return st.tuples(small, st.integers(-3, 3)).map(
        lambda fc: QRational.of(QPolynomial([fc[0]]), QPolynomial([1, fc[1]]))
    )


class TestClearedFunctional:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(
            ["andrews-q-catalan", "q-factorial:m=1", "lucas-functional", "geometric-q"]
        ),
        st.sampled_from([None, Fraction(5, 4), Fraction(-2, 3)]),
        st.booleans().flatmap(lambda sym: st.lists(_coefficient(sym), max_size=9)),
    )
    def test_equals_the_sum_of_its_terms(self, spec, point, coefficients):
        # one lcm for p and one for the moments, whose denominators grow
        # with the index on andrews-q-catalan, so the window is rescaled
        fam = family(spec)
        seq = fam.moments if point is None else fam.specialized_moments(point)
        p = XPolynomial(coefficients)
        total = seq.zero
        for k, c in enumerate(p.coefficients):
            if c:
                total = total + c * seq.moment(k)
        value = apply_functional(seq, p)
        assert value == total
        assert type(value) is type(total)


class TestMomentSequence:
    def test_values_are_cached_by_index(self):
        calls = []

        def rule(n):
            calls.append(n)
            return qr(n + 1)

        seq = MomentSequence(rule, name="counting")
        assert seq.moment(3) == qr(4)
        assert seq.moment(3) == qr(4)
        assert calls.count(3) == 1

    def test_specialized_sequence_evaluates_symbolic_moments(self):
        seq = MomentSequence(lambda n: QRational.of(QPolynomial.monomial(n)), name="powers")
        at2 = seq.specialized(2)
        assert at2.moment(3) == qr(8)

    def test_aerated_sequence_interleaves_zeros(self):
        seq = MomentSequence(lambda n: qr(n + 1), name="counting")
        aer = seq.aerated()
        assert aer.moment(0) == qr(1)
        assert aer.moment(1).is_zero
        assert aer.moment(4) == qr(3)

    def test_specialized_sequence_is_built_once_per_point(self):
        seq = MomentSequence(lambda n: QRational.of(QPolynomial.monomial(n)), name="powers")
        assert seq.specialized(2) is seq.specialized(Fraction(4, 2))
        assert seq.specialized(2) is not seq.specialized(3)

    def test_threads_share_one_aerated_sequence(self):
        _assert_threads_share_one_result(MomentSequence.aerated)

    def test_threads_share_one_specialized_sequence(self):
        _assert_threads_share_one_result(lambda seq: seq.specialized(Fraction(5, 4)))


def _assert_threads_share_one_result(derive):
    """Eight threads that derive a sequence from one fresh sequence at once all get one object."""
    for _ in range(20):
        seq = MomentSequence(lambda n: qr(n + 1), name="counting")
        start = threading.Barrier(8)
        seen = []

        def run():
            start.wait(timeout=60)
            seen.append(derive(seq))

        threads = [threading.Thread(target=run) for _ in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert len(seen) == 8
        assert all(a is seen[0] for a in seen)


class TestTwoFields:
    def test_a_fraction_equals_and_hashes_like_its_qrational(self):
        for v in (Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(10**30, 7)):
            lifted = QRational.of(v)
            assert v == lifted and lifted == v
            assert hash(v) == hash(lifted)

    def test_polynomials_over_either_field_compare_and_hash_alike(self):
        from qortho.momentfamilies import family
        from qortho.orthocore import orthopoly_recur

        seq = family("andrews-q-catalan").specialized_moments(Fraction(5, 4))
        for n in range(6):
            p = orthopoly_recur(seq, n)
            lifted = XPolynomial([QRational.of(c) for c in p.coefficients])
            assert {type(c) for c in p.coefficients} == {Fraction}
            assert {type(c) for c in lifted.coefficients} == {QRational}
            assert p == lifted and lifted == p
            assert hash(p) == hash(lifted)
            # the --all-methods agreement set
            assert len({tuple(p.coefficients), tuple(lifted.coefficients)}) == 1
            assert str(p) == str(lifted)
            assert p.to_json() == lifted.to_json()

    def test_ints_and_fractions_give_a_polynomial_over_q(self):
        p = XPolynomial([1, Fraction(1, 2), 0])
        assert p.coefficients == (Fraction(1), Fraction(1, 2))
        assert {type(c) for c in p.coefficients} == {Fraction}
        assert {type(c) for c in (p.shift_x(2) * p).coefficients} == {Fraction}
        assert type(p.coefficient(5)) is Fraction

    def test_one_coefficient_in_q_of_q_lifts_the_rest(self):
        p = XPolynomial([1, Fraction(1, 2)])
        mixed = XPolynomial([2, qr(0, 1)])
        assert {type(c) for c in mixed.coefficients} == {QRational}
        assert {type(c) for c in XPolynomial([QPolynomial([1, 1])]).coefficients} == {QRational}
        for r in (p + mixed, p * mixed, p.scale(qr(0, 1))):
            assert {type(c) for c in r.coefficients} == {QRational}

    def test_a_fraction_sequence_specializes_to_itself(self):
        seq = MomentSequence(lambda n: Fraction(1, n + 1), name="harmonic")
        at = seq.specialized(Fraction(5, 4))
        assert [at.moment(n) for n in range(5)] == [Fraction(1, n + 1) for n in range(5)]
        assert {type(at.moment(n)) for n in range(5)} == {Fraction}
        assert at.name == "harmonic@q=5/4"

    def test_a_specialized_family_specializes_again(self):
        from qortho.momentfamilies import family, family_moment

        seq = family("q-factorial:m=1").specialized_moments(Fraction(5, 4)).specialized(2)
        assert seq.moment(4) == family_moment("q-factorial:m=1", 4).eval_at(Fraction(5, 4))

    def test_a_zeroth_moment_fixes_the_field(self):
        over_q = MomentSequence(lambda n: Fraction(1) if n == 0 else qr(n))
        assert over_q.moment(3) == Fraction(3)
        assert type(over_q.moment(3)) is Fraction
        with pytest.raises(TypeError, match="depends on q"):
            MomentSequence(lambda n: Fraction(1) if n == 0 else qr(0, 1)).moment(1)
        over_qq = MomentSequence(lambda n: qr(1) if n == 0 else Fraction(n, 2))
        assert type(over_qq.moment(3)) is QRational
        assert type(MomentSequence(lambda n: 1).one) is QRational

    def test_a_non_number_is_no_coefficient(self):
        with pytest.raises(TypeError):
            XPolynomial(["1/2"])
        with pytest.raises(TypeError):
            X * "x"


class TestEvenPartCompress:
    def test_replaces_x_squared_by_x(self):
        p = XPolynomial([3, 0, -6, 0, 1])
        assert even_part_compress(p) == XPolynomial([3, -6, 1])

    def test_degree_zero_is_fixed(self):
        assert even_part_compress(ONE) == ONE

    def test_rejects_polynomials_with_odd_terms(self):
        with pytest.raises(ValueError, match="even"):
            even_part_compress(XPolynomial.x_power(3))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: XPolynomial.x_power(-1), ValueError, "x_power wants n >= 0"),
        (lambda: X.shift_x(-1), ValueError, "shift_x wants k >= 0"),
        (lambda: MomentSequence(lambda n: 2), ValueError, "moment(0) must be 1, got 2"),
        (lambda: MomentSequence(lambda n: 1).moment(-1), ValueError, "moment index must be >= 0"),
        (
            lambda: X + None,
            TypeError,
            "unsupported operand type(s) for +: 'XPolynomial' and 'NoneType'",
        ),
        (
            lambda: X - None,
            TypeError,
            "unsupported operand type(s) for -: 'XPolynomial' and 'NoneType'",
        ),
    ],
    ids=["x_power", "shift_x", "a(0)", "moment", "add-foreign", "sub-foreign"],
)
def test_a_bad_argument_raises(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_edge_values():
    zero = XPolynomial.zero()
    assert zero.shift_x(3) is zero
    assert (str(zero), repr(zero)) == ("0", "XPolynomial(0)")
    assert X.__eq__(None) is NotImplemented and X != None  # noqa: E711
    # an int moment after a Fraction a(0) is lifted into Q
    seq = MomentSequence(lambda n: Fraction(1) if n == 0 else n, name="ints")
    assert type(seq.moment(2)) is Fraction and seq.moment(2) == 2
    assert repr(seq) == "MomentSequence('ints')"
