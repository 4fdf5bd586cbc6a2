"""The registered moment sequences, their parameters, and the closed
recurrence data attached to them.

Cross-cutting checks live here too: reciprocal-q behavior of the
factorial moments, product forms of the Catalan-style moments, and the
consistency of the aerated coefficients T with the plain (s, t) pair.
"""

import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qortho import momentfamilies
from qortho.closedforms import cf_qlucas, classical_polynomial, closed_polynomial
from qortho.exactalg import PoleError, QPolynomial, QRational
from qortho.momentfamilies import (
    FamilyId,
    MomentFamily,
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
    QPoint,
    VanishingDenominator,
    q_binomial,
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_multifactorial,
    q_pochhammer_signed,
    q_power_binom2,
)
from qortho.xpoly import XPolynomial


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

    def test_bool_parameters_rejected(self):
        # bool is an int, and m=True would intern as m=1 under the name m=True
        for tag, name in (("q-factorial", "m"), ("multifactorial", "r"), ("multifactorial", "m")):
            with pytest.raises(ValueError, match=f"^family {tag} needs integer {name} >= "):
                FamilyId(tag, **{name: True})
        assert family("q-factorial:m=1").moments.name == "q-factorial:m=1"

    def test_repeated_parameter_rejected(self):
        for spec, item in (("q-factorial:m=2,m=3", "m=3"), ("multifactorial:r=2,r=3", "r=3")):
            with pytest.raises(ValueError) as err:
                FamilyId.parse(spec)
            assert str(err.value) == f"bad family parameter {item!r} in {spec!r}"

    def test_registry_is_interned(self):
        assert family("q-factorial:m=1") is family(FamilyId("q-factorial", m=1))

    def test_parsed_and_keyword_forms_are_one_key(self):
        for spec, fid in (
            ("q-factorial:m=1", FamilyId("q-factorial", m=1)),
            ("multifactorial:r=3,m=2", FamilyId("multifactorial", 2, 3)),
            ("multifactorial", FamilyId(tag="multifactorial", m=0, r=1)),
            ("geometric-q", FamilyId("geometric-q")),
        ):
            parsed = FamilyId.parse(spec)
            assert parsed == fid and hash(parsed) == hash(fid)
            assert len({parsed, fid}) == 1
            assert family(parsed) is family(fid) is family(spec)
        assert FamilyId("q-factorial", m=1) != FamilyId("q-factorial", m=2)
        assert FamilyId("q-factorial") != ("q-factorial", 0, None)

    def test_fields_cannot_be_assigned(self):
        fid = FamilyId.parse("q-factorial:m=1")
        for name, value in (("m", 2), ("r", 1), ("tag", "geometric-q")):
            with pytest.raises(AttributeError):
                setattr(fid, name, value)
            with pytest.raises(AttributeError):
                delattr(fid, name)
        with pytest.raises(AttributeError):
            fid.other = 1
        assert (fid.tag, fid.m, fid.r) == ("q-factorial", 1, None)

    def test_validation_messages(self):
        for make, message in (
            (lambda: FamilyId("chebyshev"), "unknown family 'chebyshev'"),
            (lambda: FamilyId("geometric-q", m=1), "family geometric-q takes no parameter m"),
            (lambda: FamilyId("q-factorial", r=2), "family q-factorial takes no parameter r"),
            (lambda: FamilyId("multifactorial", r=0), "family multifactorial needs integer r >= 1"),
            (lambda: FamilyId("q-factorial", m=-1), "family q-factorial needs integer m >= 0"),
            (lambda: FamilyId("q-factorial", m=1.0), "family q-factorial needs integer m >= 0"),
        ):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    def test_repr_names_the_fields_and_pickles(self):
        fid = FamilyId.parse("multifactorial:r=2")
        assert repr(fid) == "FamilyId(tag='multifactorial', m=0, r=2)"
        assert pickle.loads(pickle.dumps(fid)) == fid

    def test_each_spec_gets_its_own_params(self):
        a, b = momentfamilies._Spec(), momentfamilies._Spec()
        assert a.params == {} and a.params is not b.params

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
                assert fam.has_closed_poly == (closed is not None), (str(fid), n)
            assert fam.has_closed_norm == (fid.tag == "geometric-q"), str(fid)
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


# Each stepped family's moments written out as a closed product, apart
# from the step table the library multiplies out.
_PRODUCT_FORMULAS = {
    "geometric-q": lambda fid, n: QRational.of(q_power_binom2(n)),
    "q-factorial": lambda fid, n: QRational.of(
        q_factorial(n + fid.m).divexact(q_factorial(fid.m))
    ),
    "multifactorial": lambda fid, n: QRational.of(
        q_multifactorial(fid.r * n + fid.m, fid.r).divexact(q_multifactorial(fid.m, fid.r))
    ),
    "q-double-factorial": lambda fid, n: QRational.of(q_double_factorial(n, "odd")),
    "andrews-q-catalan": lambda fid, n: QRational.of(
        q_bracket(2) * q_double_factorial(n, "odd"), q_double_factorial(n + 1, "even")
    ),
    "q-central-binomial": lambda fid, n: QRational.of(
        q_double_factorial(n, "odd"), q_double_factorial(n, "even")
    ),
}


def _expand_in_basis(basis, n):
    """L(x^n) by expanding x^n in the basis from the top down: the degree-0 coefficient."""
    residual = [QRational.zero()] * (n + 1)
    residual[n] = QRational.one()
    for k in range(n, 0, -1):
        ck = residual[k]
        if ck:
            for j, bc in enumerate(basis(k).coefficients):
                residual[j] = residual[j] - ck * bc
    return residual[0]


class TestMomentsAgainstIndependentFormulas:
    def test_every_family_states_its_moments_once(self):
        for tag, spec in momentfamilies._SPECS.items():
            assert (spec.step is None) != (spec.basis is None), tag

    @pytest.mark.parametrize("fid", registry_family_ids(include_functionals=False), ids=str)
    def test_stepped_moments_match_their_product_formula(self, fid):
        formula = _PRODUCT_FORMULAS[fid.tag]
        for n in range(21):
            assert family_moment(fid, n) == formula(fid, n), n

    @pytest.mark.parametrize(
        "tag, basis", [("fibonacci-functional", "cf_qfibonacci"), ("lucas-functional", "cf_qlucas")]
    )
    def test_functional_moments_match_the_expansion_of_x_to_the_n(self, tag, basis):
        from qortho import closedforms

        basis = getattr(closedforms, basis)
        for n in range(15):
            expected = _expand_in_basis(basis, n)
            assert family_moment(tag, n) == expected, n
            assert functional_from_basis(basis, n) == expected, n

    def test_a_functional_builds_each_basis_element_once(self, monkeypatch):
        from qortho import closedforms

        calls = []
        lucas = closedforms.cf_qlucas

        def counted(k):
            calls.append(k)
            return lucas(k)

        monkeypatch.setattr(closedforms, "cf_qlucas", counted)
        fam = MomentFamily(FamilyId("lucas-functional"))
        got = [fam.moments.moment(n) for n in range(13)]
        assert sorted(calls) == list(range(13))
        assert got == [_expand_in_basis(lucas, n) for n in range(13)]

    def test_threads_share_one_fresh_family(self):
        fid = FamilyId("andrews-q-catalan")
        expected = [_PRODUCT_FORMULAS[fid.tag](fid, n) for n in range(21)]
        fam = MomentFamily(fid)
        start = threading.Barrier(8)
        seen = []

        def run():
            start.wait(timeout=60)
            seen.append([fam.moments.moment(n) for n in range(21)])

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
        assert seen == [expected] * 8


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


# Points where the q-products misbehave (q = -1 zeroes every even
# bracket, q = 0 the powers of q, q = 1 is the classical limit) and a few
# ordinary ones.
_POINTS = [Fraction(v) for v in (-1, 0, 1, 2, "-2/3", "1/2", "5/4", "9/8")]
_DIRECT = registry_family_ids(include_functionals=False)
_FUNCTIONALS = [fid for fid in registry_family_ids() if fid not in _DIRECT]


def _symbolic_at(fid, n, q0):
    """The oracle: ("value", a(n) at q0) from the symbolic moment, or ("pole", message)."""
    try:
        return "value", family_moment(fid, n).eval_at(q0)
    except PoleError as exc:
        return "pole", str(exc)


def _direct_at(rule, n):
    try:
        value = rule(n)
    except PoleError as exc:
        return "pole", str(exc)
    assert type(value) is Fraction
    return "value", value


class TestMomentsAtAPoint:
    def test_every_family_but_the_functionals_has_a_direct_rule(self):
        assert len(_DIRECT) == 17
        assert [str(f) for f in registry_family_ids() if f not in _DIRECT] == [
            "fibonacci-functional",
            "lucas-functional",
        ]

    @pytest.mark.parametrize("fid", _DIRECT, ids=str)
    def test_direct_rule_matches_the_symbolic_moments(self, fid):
        for q0 in _POINTS:
            rule = momentfamilies._moments_at(fid, q0)
            for n in range(25):
                assert _direct_at(rule, n) == _symbolic_at(fid, n, q0), (q0, n)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_DIRECT),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=14),
    )
    def test_direct_rule_matches_at_small_height_points(self, fid, a, b, n):
        q0 = Fraction(a, b)
        assert _direct_at(momentfamilies._moments_at(fid, q0), n) == _symbolic_at(fid, n, q0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(_FUNCTIONALS),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
    )
    @example(_FUNCTIONALS[1], Fraction(-1))
    @example(_FUNCTIONALS[0], Fraction(-1))
    @example(_FUNCTIONALS[1], Fraction(0))
    @example(_FUNCTIONALS[1], Fraction(1))
    @example(_FUNCTIONALS[1], Fraction(2))
    @example(_FUNCTIONALS[1], Fraction(-1, 2))
    def test_functional_moments_from_the_basis_at_the_point(self, fid, q0):
        # a fresh family, so its sequence at q0 is built by this call
        seq = MomentFamily(fid).specialized_moments(q0)
        for n in range(17):
            got = _direct_at(seq.moment, n)
            assert got == _symbolic_at(fid, n, q0), (q0, n)
            if got[0] == "pole":
                break

    @pytest.mark.parametrize("fid", _FUNCTIONALS, ids=str)
    def test_functional_moments_evaluate_no_symbolic_moment(self, fid, monkeypatch):
        q0 = Fraction(-2, 3)
        expected = [family_moment(fid, n).eval_at(q0) for n in range(13)]

        def refuse(self, point):
            raise AssertionError("a symbolic moment was evaluated")

        monkeypatch.setattr(QRational, "eval_at", refuse)
        got = [MomentFamily(fid).specialized_moments(q0).moment(n) for n in range(13)]
        assert got == expected
        assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("fid", _FUNCTIONALS, ids=str)
    def test_functional_moments_at_minus_one_read_no_symbolic_moment(self, fid):
        # at q = -1 some point-built q-Lucas coefficients divide by a vanishing
        # bracket; still neither functional reads its symbolic sequence past a(0)
        fam = MomentFamily(fid)
        got = [fam.specialized_moments(-1).moment(n) for n in range(13)]
        assert fam.moments._cache == [QRational.one()]
        assert got == [family_moment(fid, n).eval_at(-1) for n in range(13)]

    def test_a_removable_vanishing_denominator_in_the_basis(self):
        # [n]/[n-k] in a q-Lucas coefficient has a denominator that vanishes at
        # -1, but the coefficient is a polynomial in q, so a(n) has a value there
        fid = FamilyId("lucas-functional")
        with pytest.raises(VanishingDenominator):
            cf_qlucas(3, QPoint(-1))
        rule = momentfamilies._basis_at(fid, Fraction(-1))
        for n in range(13):
            assert _direct_at(rule, n) == _symbolic_at(fid, n, Fraction(-1)), n

    def test_specialized_moments_evaluate_no_symbolic_moment(self, monkeypatch):
        q0 = Fraction(7, 11)
        expected = [family_moment("andrews-q-catalan", n).eval_at(q0) for n in range(9)]

        def refuse(self, point):
            raise AssertionError("a symbolic moment was evaluated")

        monkeypatch.setattr(QRational, "eval_at", refuse)
        seq = MomentFamily(FamilyId("andrews-q-catalan")).specialized_moments(q0)
        got = [seq.moment(n) for n in range(9)]
        assert got == expected
        assert all(type(v) is Fraction for v in got)
        assert seq.name == "andrews-q-catalan@q=7/11"

    def test_functionals_evaluate_their_symbolic_moments(self):
        fam = family("lucas-functional")
        seq = fam.specialized_moments(Fraction(-2, 3))
        assert seq is fam.moments.specialized(Fraction(-2, 3))
        assert [seq.moment(n) for n in range(6)] == [
            fam.moments.moment(n).eval_at(Fraction(-2, 3)) for n in range(6)
        ]

    def test_a_pole_raises_with_the_message_of_eval_at(self):
        seq = family("q-central-binomial").specialized_moments(-1)
        with pytest.raises(PoleError, match=r"^pole at evaluation point q=-1$"):
            seq.moment(1)

    def test_built_once_per_point(self):
        fam = family("q-factorial:m=1")
        assert fam.specialized_moments(2) is fam.specialized_moments(Fraction(4, 2))
        assert fam.specialized_moments(2) is not fam.specialized_moments(3)

    def test_threads_share_one_specialized_sequence(self):
        for _ in range(20):
            fam = MomentFamily(FamilyId("q-double-factorial"))
            start = threading.Barrier(8)
            seen = []

            def run():
                start.wait(timeout=60)
                seen.append(fam.specialized_moments(Fraction(5, 4)))

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
            assert all(seq is seen[0] for seq in seen)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: closed_T("andrews-q-catalan", -1), ValueError, "T index must be >= 0"),
        (lambda: closed_st("q-factorial:m=1", -1), ValueError, "recurrence index must be >= 0"),
        (
            lambda: functional_from_basis(XPolynomial.x_power, -1),
            ValueError,
            "moment index must be >= 0",
        ),
        (lambda: family(3), TypeError, "family spec must be FamilyId or str, got int"),
    ],
    ids=["closed_T", "closed_st", "functional_from_basis", "family"],
)
def test_a_bad_argument_raises(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_family_repr_names_its_id():
    assert repr(family("q-factorial:m=1")) == "MomentFamily(q-factorial:m=1)"
