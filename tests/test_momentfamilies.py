"""The registered moment sequences, their parameters, and the closed
recurrence data attached to them.

Cross-cutting checks live here too: reciprocal-q behavior of the
factorial moments, product forms of the Catalan-style moments, and the
consistency of the aerated coefficients T with the plain (s, t) pair.
"""

from fractions import Fraction

import pytest

from qortho.closedforms import classical_polynomial, closed_polynomial
from qortho.exactalg import QPolynomial, QRational
from qortho.momentfamilies import (
    FamilyId,
    aerated_moment,
    closed_T,
    closed_st,
    family,
    family_moment,
    functional_from_basis,
    registry_family_ids,
)
from qortho.orthocore import deaerate
from qortho.qcombinatorics import (
    q_binomial,
    q_bracket,
    q_double_factorial,
    q_pochhammer_signed,
)


def qr(*coeffs):
    return QRational.of(QPolynomial(coeffs))


def mono(e):
    return QRational.of(QPolynomial.monomial(e))


class TestFamilyId:
    def test_parse_round_trip(self):
        for spec in (
            "geometric-q",
            "q-factorial:m=2",
            "multifactorial:r=3,m=1",
            "q-double-factorial",
            "andrews-q-catalan",
            "q-central-binomial",
            "fibonacci-functional",
            "lucas-functional",
        ):
            assert str(FamilyId.parse(spec)) == spec

    def test_parameter_defaults(self):
        assert FamilyId.parse("q-factorial").m == 0
        fid = FamilyId.parse("multifactorial")
        assert (fid.r, fid.m) == (1, 0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            FamilyId.parse("chebyshev")

    def test_irrelevant_parameter_rejected(self):
        with pytest.raises(ValueError):
            FamilyId("geometric-q", m=1)
        with pytest.raises(ValueError):
            FamilyId("q-factorial", r=2)

    def test_bad_parameter_values_rejected(self):
        with pytest.raises(ValueError):
            FamilyId("multifactorial", r=0)
        with pytest.raises(ValueError):
            FamilyId("q-factorial", m=-1)
        with pytest.raises(ValueError):
            FamilyId.parse("q-factorial:m=two")
        with pytest.raises(ValueError):
            FamilyId.parse("q-factorial:k=1")

    def test_repeated_parameter_rejected(self):
        for spec, item in (("q-factorial:m=2,m=3", "m=3"), ("multifactorial:r=2,r=3", "r=3")):
            with pytest.raises(ValueError) as err:
                FamilyId.parse(spec)
            assert str(err.value) == f"bad family parameter {item!r} in {spec!r}"

    def test_registry_is_interned(self):
        assert family("q-factorial:m=1") is family(FamilyId("q-factorial", m=1))

    def test_registry_listing(self):
        ids = registry_family_ids()
        assert len(ids) == 19
        assert len(registry_family_ids(include_functionals=False)) == 17
        assert len(set(ids)) == len(ids)
        # the order of the reports of verify --all
        assert [str(fid) for fid in ids] == [
            "geometric-q",
            "q-factorial:m=0",
            "q-factorial:m=1",
            "q-factorial:m=2",
            "q-factorial:m=3",
            "multifactorial:r=1,m=0",
            "multifactorial:r=1,m=1",
            "multifactorial:r=1,m=2",
            "multifactorial:r=2,m=0",
            "multifactorial:r=2,m=1",
            "multifactorial:r=2,m=2",
            "multifactorial:r=3,m=0",
            "multifactorial:r=3,m=1",
            "multifactorial:r=3,m=2",
            "q-double-factorial",
            "andrews-q-catalan",
            "q-central-binomial",
            "fibonacci-functional",
            "lucas-functional",
        ]

    def test_every_tag_reports_what_it_has(self):
        ids = registry_family_ids()
        assert len({fid.tag for fid in ids}) == 8
        for fid in ids:
            fam = family(fid)
            for has, formula in ((fam.has_closed_T, closed_T), (fam.has_closed_st, closed_st)):
                if has:
                    formula(fid, 1)
                else:
                    with pytest.raises(ValueError):
                        formula(fid, 1)
            for n in (0, 3):
                closed = closed_polynomial(fid, n)
                assert (closed is None) == (classical_polynomial(fid, n) is None), (str(fid), n)
        plain = registry_family_ids(include_functionals=False)
        assert [fid for fid in ids if fid in plain] == plain
        dropped = [str(fid) for fid in ids if fid not in plain]
        assert dropped == ["fibonacci-functional", "lucas-functional"]


class TestMoments:
    def test_every_family_starts_at_one(self):
        for fid in registry_family_ids():
            assert family_moment(fid, 0) == QRational.one()

    def test_factorial_moments_at_one(self):
        assert family_moment("q-factorial:m=0", 3).eval_at(1) == 6
        assert family_moment("q-factorial:m=2", 2).eval_at(1) == 12  # 4!/2!

    def test_geometric_moments_are_pure_powers(self):
        assert family_moment("geometric-q", 4) == mono(6)
        assert family_moment("geometric-q", 1) == QRational.one()

    def test_catalan_quarter_moments_at_one(self):
        fam = family("andrews-q-catalan")
        values = [fam.moments.moment(n).eval_at(1) for n in range(4)]
        assert values == [1, Fraction(1, 4), Fraction(1, 8), Fraction(5, 64)]

    def test_double_factorial_moments(self):
        fam = family("q-double-factorial")
        assert fam.moments.moment(2) == QRational.of(q_double_factorial(2, "odd"))

    def test_aeration_zeroes_odd_positions(self):
        assert aerated_moment("q-factorial:m=0", 3).is_zero
        assert aerated_moment("q-double-factorial", 4) == QRational.of(
            q_double_factorial(2, "odd")
        )

    def test_aerated_sequence_is_built_once(self):
        fam = family("q-double-factorial")
        assert fam.moments.aerated() is fam.moments.aerated()
        at = fam.specialized_moments(Fraction(3, 2))
        assert at.aerated() is at.aerated()
        assert family("q-double-factorial").aerated_moments is fam.moments.aerated()

    def test_multifactorial_collapses_to_factorial_at_step_one(self):
        for n in range(7):
            assert family_moment("multifactorial:r=1,m=2", n) == family_moment(
                "q-factorial:m=2", n
            )


class TestFunctionalFromBasis:
    def test_unit_zeroth_value(self):
        from qortho.closedforms import cf_qfibonacci

        assert functional_from_basis(cf_qfibonacci, 0) == QRational.one()

    def test_fibonacci_even_moments_are_catalan_fractions(self):
        from qortho.closedforms import cf_qfibonacci

        m4 = functional_from_basis(cf_qfibonacci, 4)
        assert m4 == qr(1, 0, 1)
        assert m4 == QRational.of(q_binomial(4, 2), q_bracket(3))
        assert m4.eval_at(1) == 2

    def test_odd_moments_vanish(self):
        from qortho.closedforms import cf_qfibonacci, cf_qlucas

        for n in (1, 3, 5):
            assert functional_from_basis(cf_qfibonacci, n).is_zero
            assert functional_from_basis(cf_qlucas, n).is_zero

    def test_registered_functionals_match_their_product_formulas(self):
        fib = family("fibonacci-functional")
        luc = family("lucas-functional")
        for k in range(4):
            assert fib.moments.moment(2 * k) == QRational.of(
                q_binomial(2 * k, k), q_bracket(k + 1)
            )
            assert luc.moments.moment(2 * k) == QRational.of(q_binomial(2 * k, k))
            if k:
                assert fib.moments.moment(2 * k - 1).is_zero
                assert luc.moments.moment(2 * k - 1).is_zero

    def test_rejects_non_monic_basis(self):
        from qortho.xpoly import XPolynomial

        with pytest.raises(ValueError):
            functional_from_basis(lambda n: XPolynomial.x_power(n, coefficient=2), 1)


class TestClosedRecurrenceData:
    def test_factorial_seed_values(self):
        for m in range(4):
            assert closed_T(f"q-factorial:m={m}", 0) == QRational.of(q_bracket(m + 1))
            s0, t0 = closed_st(f"q-factorial:m={m}", 0)
            assert s0 == QRational.of(q_bracket(m + 1))
            assert t0 == mono(m + 1) * QRational.of(q_bracket(m + 1))

    def test_factorial_next_level_at_one(self):
        s1, t1 = closed_st("q-factorial:m=0", 1)
        assert s1.eval_at(1) == 3
        assert t1.eval_at(1) == 4

    def test_multifactorial_seed_at_one(self):
        for r in (1, 2, 3):
            for m in (0, 1, 2):
                s0, t0 = closed_st(f"multifactorial:r={r},m={m}", 0)
                assert s0.eval_at(1) == r + m
                assert t0.eval_at(1) == r * (r + m)

    def test_catalan_style_seeds(self):
        num = QPolynomial.monomial(2)
        den = QPolynomial([1, 0, 0, 1]) * QPolynomial([1, 0, 0, 0, 1])
        assert closed_T("andrews-q-catalan", 2) == QRational.of(num, den)
        assert closed_T("q-central-binomial", 0) == QRational.of(
            QPolynomial.one(), QPolynomial([1, 1])
        )

    def test_deaerated_T_reproduces_closed_st(self):
        # s_n = T_{2n-1} + T_{2n} and t_n = T_{2n} T_{2n+1}
        for spec in (
            "q-factorial:m=0",
            "q-factorial:m=3",
            "multifactorial:r=2,m=1",
            "multifactorial:r=3,m=2",
        ):
            fid = FamilyId.parse(spec)
            table = deaerate(lambda j: closed_T(fid, j), 10)
            for i in range(10):
                s_i, t_i = closed_st(fid, i)
                assert table.s[i] == s_i
                if i < 9:
                    assert table.t[i] == t_i

    def test_closed_data_requires_a_registered_shape(self):
        with pytest.raises(ValueError):
            closed_T("geometric-q", 0)
        with pytest.raises(ValueError):
            closed_st("andrews-q-catalan", 0)


class TestMomentIdentities:
    def test_factorial_moments_under_q_reciprocal(self):
        # a(n; 1/q) = a(n; q) / q^(C(n,2) + m n)
        for m in range(4):
            fam = family(f"q-factorial:m={m}")
            for n in range(11):
                a = fam.moments.moment(n)
                assert a.substitute_q_reciprocal() == a / mono(n * (n - 1) // 2 + m * n)

    def test_catalan_moment_product_form(self):
        # [2] [2n-1]!! [n+1]_{q^2} prod_{j=1..2n} (1+q^j) = [2n over n]_{q^2} [2n+2]!!
        for n in range(11):
            lhs = (
                q_bracket(2)
                * q_double_factorial(n, "odd")
                * q_bracket(n + 1, base=2)
                * q_pochhammer_signed(-1, 1, 2 * n)
            )
            rhs = q_binomial(2 * n, n, base=2) * q_double_factorial(n + 1, "even")
            assert lhs == rhs

    def test_central_moment_product_form(self):
        # [2n-1]!! (-q;q)_n (-q^{n+1};q)_n = [2n over n]_{q^2} [2n]!!
        for n in range(11):
            lhs = (
                q_double_factorial(n, "odd")
                * q_pochhammer_signed(-1, 1, n)
                * q_pochhammer_signed(-1, n + 1, n)
            )
            rhs = q_binomial(2 * n, n, base=2) * q_double_factorial(n, "even")
            assert lhs == rhs

    def test_moment_quotients_match_the_product_forms(self):
        # the two statements above, read back as statements about moments
        andrews = family("andrews-q-catalan")
        central = family("q-central-binomial")
        for n in range(8):
            assert andrews.moments.moment(n) == QRational.of(
                q_binomial(2 * n, n, base=2),
                q_bracket(n + 1, base=2) * q_pochhammer_signed(-1, 1, 2 * n),
            )
            assert central.moments.moment(n) == QRational.of(
                q_binomial(2 * n, n, base=2),
                q_pochhammer_signed(-1, 1, n) * q_pochhammer_signed(-1, n + 1, n),
            )


class TestDepthCaps:
    def test_cap_constants_are_ordered(self):
        from qortho.momentfamilies import DEFAULT_DEPTH_CAP, HARD_DEPTH_CAP

        assert 0 < DEFAULT_DEPTH_CAP < HARD_DEPTH_CAP
