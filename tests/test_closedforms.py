"""Explicit polynomial families, their rescalings, the q = 1 limits,
and the verification engine that compares everything against the
determinant oracle."""

import collections
import functools
import gc
import json
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qortho.closedforms as closedforms
import qortho.momentfamilies as momentfamilies
import qortho.orthocore as orthocore
from qortho.closedforms import (
    VerificationEntry,
    VerificationReport,
    cf_chebT,
    cf_chebT_rescaled,
    cf_chebU,
    cf_chebU_rescaled,
    cf_geometric_norm,
    cf_geometric_poly,
    cf_multifactorial_poly,
    cf_qbinomial_product,
    cf_qbinomial_sum,
    cf_qfibonacci,
    cf_qhermite,
    cf_qlaguerre,
    cf_qlucas,
    classical_chebT_style,
    classical_chebU_style,
    classical_hermite_style,
    classical_laguerre_style,
    classical_multifactorial_style,
    classical_polynomial,
    closed_polynomial,
    specialize_poly,
    verify_family,
)
from qortho import cli
from qortho.exactalg import PoleError, QPolynomial, QRational
from qortho.momentfamilies import closed_st, closed_T, family, registry_family_ids
from qortho.orthocore import aerated_recurrence, orthopoly_det, orthopoly_recur, stieltjes
from qortho.qcombinatorics import (
    QPoint,
    VanishingDenominator,
    built_at,
    q_bracket,
    q_factorial,
    q_pochhammer_signed,
    q_power_binom2,
)
from qortho.xpoly import MomentSequence, XPolynomial, _value_at, apply_functional


def qr(*coeffs):
    return QRational.of(QPolynomial(coeffs))


X = XPolynomial.x_power(1)
ONE = XPolynomial.one()


class TestBinomialTheoremPair:
    def test_degree_zero(self):
        assert cf_qbinomial_sum(0) == ONE
        assert cf_qbinomial_product(0) == ONE

    def test_degree_two_expansion(self):
        expected = XPolynomial([qr(1), qr(-1, -1), qr(0, 1)])
        assert cf_qbinomial_sum(2) == expected
        assert cf_qbinomial_product(2) == expected

    def test_sum_equals_product_up_to_degree_ten(self):
        for n in range(11):
            assert cf_qbinomial_sum(n) == cf_qbinomial_product(n)


class TestGeometricFamily:
    def test_degree_one(self):
        assert cf_geometric_poly(1) == X - ONE

    def test_matches_the_determinant_construction(self):
        seq = family("geometric-q").moments
        for n in range(6):
            assert cf_geometric_poly(n) == orthopoly_det(seq, n)

    def test_collapses_to_binomial_powers_at_one(self):
        for n in range(7):
            at1 = specialize_poly(cf_geometric_poly(n), 1)
            assert at1 == classical_polynomial("geometric-q", n)
            # (x - 1)^n has alternating binomial coefficients
            power = ONE
            for _ in range(n):
                power = power * (X - ONE)
            assert at1 == power

    def test_norm_values(self):
        assert cf_geometric_norm(0, 0) == QRational.one()
        assert cf_geometric_norm(2, 2) == QRational.of(
            QPolynomial.monomial(3) * QPolynomial([1, -1]) ** 2 * QPolynomial([1, 1])
        )
        for n in range(1, 6):
            for m in range(n):
                assert cf_geometric_norm(n, m).is_zero

    def test_norm_matches_the_functional(self):
        seq = family("geometric-q").moments
        for n in range(7):
            p = cf_geometric_poly(n)
            for m in range(7):
                assert apply_functional(seq, p.shift_x(m)) == cf_geometric_norm(n, m)

    def test_diagonal_norm_product_form(self):
        # L(x^n p_n) = q^{3 C(n,2)} (q-1)^n [n]!
        for n in range(7):
            expected = QRational.of(
                q_power_binom2(n) ** 3 * QPolynomial([-1, 1]) ** n * q_factorial(n)
            )
            assert cf_geometric_norm(n, n) == expected


class TestFactorialFamilies:
    def test_laguerre_style_degree_one(self):
        assert cf_qlaguerre(1, 0) == X - ONE

    def test_laguerre_style_degree_two_at_one(self):
        assert specialize_poly(cf_qlaguerre(2, 0), 1) == XPolynomial([2, -4, 1])

    def test_laguerre_style_matches_oracle(self):
        for m in range(3):
            seq = family(f"q-factorial:m={m}").moments
            for n in range(5):
                assert cf_qlaguerre(n, m) == orthopoly_det(seq, n)

    def test_multifactorial_reduces_to_laguerre_style_at_step_one(self):
        for m in range(3):
            for n in range(6):
                assert cf_multifactorial_poly(n, 1, m) == cf_qlaguerre(n, m)

    def test_multifactorial_degree_two_at_one(self):
        assert specialize_poly(cf_multifactorial_poly(2, 2, 1), 1) == XPolynomial(
            [15, -10, 1]
        )

    def test_multifactorial_matches_oracle(self):
        seq = family("multifactorial:r=2,m=1").moments
        for n in range(4):
            assert cf_multifactorial_poly(n, 2, 1) == orthopoly_det(seq, n)


class TestHermiteStyleFamily:
    def test_degree_one(self):
        assert cf_qhermite(1) == X - ONE

    def test_degree_two_at_one(self):
        assert specialize_poly(cf_qhermite(2), 1) == XPolynomial([3, -6, 1])

    def test_matches_oracle(self):
        seq = family("q-double-factorial").moments
        for n in range(5):
            assert cf_qhermite(n) == orthopoly_det(seq, n)


class TestChebyshevStyleFamilies:
    def test_second_kind_seeds(self):
        assert cf_chebU(0) == ONE
        assert cf_chebU(1) == X

    def test_second_kind_degree_two(self):
        expected = XPolynomial(
            [QRational.of(QPolynomial([-1]), QPolynomial([1, 1]) * QPolynomial([1, 0, 1])), qr(0), qr(1)]
        )
        assert cf_chebU(2) == expected

    def test_second_kind_recurrence(self):
        # u_n = x u_{n-1} - (q^{n-2} / ((1+q^{n-1})(1+q^n))) u_{n-2}
        for n in range(2, 9):
            coeff = QRational.of(
                QPolynomial.monomial(n - 2),
                q_pochhammer_signed(-1, n - 1, 2),
            )
            assert cf_chebU(n) == cf_chebU(n - 1).shift_x(1) - cf_chebU(n - 2).scale(coeff)

    def test_second_kind_halved_at_one(self):
        assert specialize_poly(cf_chebU(3), 1) == XPolynomial([0, Fraction(-1, 2), 0, 1])

    def test_first_kind_seeds_and_special_second_step(self):
        assert cf_chebT(0) == ONE
        assert cf_chebT(1) == X
        expected = XPolynomial([QRational.of(QPolynomial([-1]), QPolynomial([1, 1])), qr(0), qr(1)])
        assert cf_chebT(2) == expected
        assert specialize_poly(cf_chebT(2), 1) == XPolynomial([Fraction(-1, 2), 0, 1])

    def test_rescaled_second_kind_identity(self):
        # U_n = (-q; q)_n u_n
        for n in range(9):
            scale = QRational.of(q_pochhammer_signed(-1, 1, n))
            assert cf_chebU_rescaled(n) == cf_chebU(n).scale(scale)

    def test_rescaled_second_kind_recurrence(self):
        # U_n = (1 + q^n) x U_{n-1} - q^{n-2} U_{n-2}
        for n in range(2, 9):
            lead = QRational.of(QPolynomial.one() + QPolynomial.monomial(n))
            back = QRational.of(QPolynomial.monomial(n - 2))
            assert cf_chebU_rescaled(n) == cf_chebU_rescaled(n - 1).shift_x(1).scale(
                lead
            ) - cf_chebU_rescaled(n - 2).scale(back)

    def test_rescaled_first_kind_identity(self):
        # T_n = (-q; q)_{n-1} t_n with T_0 = t_0 = 1
        assert cf_chebT_rescaled(0) == ONE
        for n in range(1, 9):
            scale = QRational.of(q_pochhammer_signed(-1, 1, n - 1))
            assert cf_chebT_rescaled(n) == cf_chebT(n).scale(scale)

    def test_rescaled_first_kind_recurrence(self):
        # T_n = (1 + q^{n-1}) x T_{n-1} - q^{n-2} T_{n-2}
        for n in range(2, 9):
            lead = QRational.of(QPolynomial.one() + QPolynomial.monomial(n - 1))
            back = QRational.of(QPolynomial.monomial(n - 2))
            assert cf_chebT_rescaled(n) == cf_chebT_rescaled(n - 1).shift_x(1).scale(
                lead
            ) - cf_chebT_rescaled(n - 2).scale(back)

    def test_even_compressions_match_their_moment_families(self):
        for spec in ("andrews-q-catalan", "q-central-binomial"):
            seq = family(spec).moments
            for n in range(4):
                assert closed_polynomial(spec, n) == orthopoly_recur(seq, n)


class TestFibonacciLucasBases:
    def test_seeds(self):
        assert cf_qfibonacci(0) == ONE
        assert cf_qfibonacci(1) == X
        assert cf_qlucas(0) == ONE
        assert cf_qlucas(1) == X

    def test_classical_values_at_one(self):
        assert specialize_poly(cf_qfibonacci(4), 1) == XPolynomial([1, 0, -3, 0, 1])
        assert specialize_poly(cf_qlucas(2), 1) == XPolynomial([-2, 0, 1])

    def test_classical_recurrence_at_one(self):
        # F_n = x F_{n-1} - F_{n-2} holds only after specializing q
        for n in range(2, 9):
            lhs = specialize_poly(cf_qfibonacci(n), 1)
            rhs = specialize_poly(cf_qfibonacci(n - 1), 1).shift_x(1) - specialize_poly(
                cf_qfibonacci(n - 2), 1
            )
            assert lhs == rhs

    def test_bases_are_not_orthogonal_symbolically(self):
        # the degree-3 orthogonal polynomial of the Fibonacci-moment
        # functional differs from the basis polynomial F_3 for general q
        fam = family("fibonacci-functional")
        p3 = orthopoly_recur(fam.moments, 3)
        assert p3 == XPolynomial([qr(0), qr(-1, 0, -1), qr(0), qr(1)])
        assert p3 != cf_qfibonacci(3)
        assert specialize_poly(p3, 1) == specialize_poly(cf_qfibonacci(3), 1)

    def test_no_closed_orthogonal_form_is_registered(self):
        assert closed_polynomial("fibonacci-functional", 3) is None
        assert closed_polynomial("lucas-functional", 3) is None
        assert classical_polynomial("fibonacci-functional", 3) is None


class TestClassicalLimits:
    def test_laguerre_style_chain(self):
        for m in range(3):
            for n in range(7):
                assert specialize_poly(cf_qlaguerre(n, m), 1) == classical_laguerre_style(n, m)

    def test_multifactorial_chain(self):
        for r in (2, 3):
            for n in range(6):
                assert specialize_poly(cf_multifactorial_poly(n, r, 1), 1) == (
                    classical_multifactorial_style(n, r, 1)
                )

    def test_hermite_style_chain(self):
        for n in range(7):
            assert specialize_poly(cf_qhermite(n), 1) == classical_hermite_style(n)

    def test_chebyshev_chains(self):
        for n in range(7):
            assert specialize_poly(cf_chebU(n), 1) == classical_chebU_style(n)
            assert specialize_poly(cf_chebT(n), 1) == classical_chebT_style(n)

    def test_dispatch_covers_every_closed_family(self):
        for spec in (
            "geometric-q",
            "q-factorial:m=1",
            "multifactorial:r=2,m=0",
            "q-double-factorial",
            "andrews-q-catalan",
            "q-central-binomial",
        ):
            assert classical_polynomial(spec, 3) is not None
            assert closed_polynomial(spec, 3) is not None


class TestVerificationEngine:
    def test_factorial_family_verifies(self):
        report = verify_family("q-factorial:m=0", max_n=4)
        assert report.ok
        assert report.counts["mismatch"] == 0
        assert report.counts["match"] > 0

    def test_catalan_style_family_verifies(self):
        report = verify_family("andrews-q-catalan", max_n=3)
        assert report.ok

    def test_specialized_point_verifies(self):
        report = verify_family("q-factorial:m=0", max_n=3, q=Fraction(2))
        assert report.ok

    def test_report_serializes(self):
        report = verify_family("geometric-q", max_n=2)
        doc = report.to_json()
        assert doc["ok"] is True
        assert doc["family"] == "geometric-q"
        assert {e["check"] for e in doc["entries"]}

    def test_seeded_error_is_caught_with_both_sides(self, monkeypatch):
        real = cf_qlaguerre

        def corrupted(n, m):
            p = real(n, m)
            if n == 3:
                return p + ONE
            return p

        monkeypatch.setattr(closedforms, "cf_qlaguerre", corrupted)
        report = verify_family("q-factorial:m=0", max_n=4)
        assert not report.ok
        bad = report.mismatches()
        assert any(e.n == 3 for e in bad)
        entry = next(e for e in bad if e.n == 3)
        assert entry.left and entry.right and entry.left != entry.right

    def test_one_elimination_serves_both_determinant_checks(self, monkeypatch):
        orders = []
        real = orthocore._eliminate

        def counted(m, *args, **kwargs):
            orders.append(len(m.rows))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(orthocore, "_eliminate", counted)
        report = verify_family("q-factorial:m=1", max_n=5)
        assert report.ok
        assert report.counts["match"] > 0
        assert orders == [5]

    def test_entries_are_deterministically_ordered(self):
        a = verify_family("q-double-factorial", max_n=3)
        b = verify_family("q-double-factorial", max_n=3)
        assert [(e.n, e.check) for e in a.entries] == [(e.n, e.check) for e in b.entries]
        assert a == b

    def test_reports_never_share_entries(self):
        a, b = VerificationReport("geometric-q", 2), VerificationReport("geometric-q", 2)
        a.entries.append(VerificationEntry("geometric-q", 0, "hankel", "match"))
        assert b.entries == [] and a != b
        assert verify_family("geometric-q", max_n=2).entries is not a.entries

    def test_entry_keyword_construction_and_equality(self):
        entry = VerificationEntry("q-factorial", 3, "det-vs-recurrence", "mismatch", "1", "2")
        same = VerificationEntry(
            family="q-factorial",
            n=3,
            check="det-vs-recurrence",
            status="mismatch",
            left="1",
            right="2",
            note="",
        )
        assert entry == same
        assert entry != VerificationEntry("q-factorial", 3, "det-vs-recurrence", "mismatch", "1", "3")
        assert (same.left, same.right, same.note) == ("1", "2", "")
        assert repr(VerificationEntry("f", 0, "c", "match")) == (
            "VerificationEntry(family='f', n=0, check='c', status='match', "
            "left='', right='', note='')"
        )
        assert repr(VerificationReport("f", 1)) == (
            "VerificationReport(family='f', max_n=1, entries=[])"
        )

    def test_entries_and_reports_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(VerificationEntry("f", 0, "c", "match"))
        with pytest.raises(TypeError):
            hash(VerificationReport("f", 1))


class TestFailureReports:
    """What verify reports when a closed value is wrong, raises or has a pole."""

    def test_a_wrong_closed_form_reports_both_sides_in_json(self, capsys, monkeypatch):
        intact = closedforms.cf_qlaguerre

        def corrupted(n, m, *q):
            p = intact(n, m, *q)
            return p + ONE if n == 3 else p

        monkeypatch.setattr(closedforms, "cf_qlaguerre", corrupted)
        code = cli.main(["verify", "--family", "q-factorial:m=0", "--max-n", "4", "--format", "json"])
        entries = json.loads(capsys.readouterr().out)["results"][0]["entries"]
        assert code == 1
        bad = [e for e in entries if e["status"] == "mismatch"]
        assert [(e["check"], e["n"]) for e in bad] == [
            ("closed-vs-recurrence", 3),
            ("classical-limit", 3),
        ]
        seq = family("q-factorial:m=0").moments
        assert bad[0]["left"] == str(intact(3, 0) + ONE)
        assert bad[0]["right"] == str(orthopoly_recur(seq, 3))
        assert all(set(e) == {"family", "n", "check", "status", "left", "right"} for e in bad)
        assert not any("left" in e or "right" in e for e in entries if e["status"] != "mismatch")

    def test_a_closed_form_that_raises_is_a_mismatch_noted_with_its_message(self, monkeypatch):
        def failing(n, m, *q):
            raise ValueError(f"no p_{n} here")

        monkeypatch.setattr(closedforms, "cf_qlaguerre", failing)
        report = verify_family("q-factorial:m=0", max_n=3)
        for check in ("closed-vs-recurrence", "classical-limit"):
            got = [(e.n, e.status, e.note, e.left, e.right) for e in report.entries if e.check == check]
            assert got == [(n, "mismatch", f"no p_{n} here", "", "") for n in range(4)], check
        # every other check still ran and matched
        others = [e for e in report.entries if e.check not in ("closed-vs-recurrence", "classical-limit")]
        assert {e.status for e in others} == {"match"}
        assert {"closed-recurrence-s", "deaerated-t", "aeration-roundtrip"} <= {e.check for e in others}

    def test_a_closed_coefficient_with_a_pole_is_a_mismatch_noted_pole(self, capsys, monkeypatch):
        def pole(j, *q):
            raise PoleError(f"pole in T_{j}")

        monkeypatch.setattr(momentfamilies, "_catalan_T", pole)
        report = verify_family("andrews-q-catalan", max_n=2)
        assert [(e.check, e.n, e.note) for e in report.mismatches()] == [
            *(("closed-aerated-T", j, f"pole: pole in T_{j}") for j in range(3)),
            ("deaerated-s", -1, "pole: pole in T_0"),
        ]
        code = cli.main(["verify", "--family", "andrews-q-catalan", "--max-n", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in lines if line.startswith("MISMATCH")] == [
            *(f"MISMATCH andrews-q-catalan n={j} closed-aerated-T (pole: pole in T_{j})" for j in range(3)),
            "MISMATCH andrews-q-catalan n=-1 deaerated-s (pole: pole in T_0)",
        ]
        assert lines[-1] == "verification FAILED"

    def test_an_asymmetric_aerated_sequence_is_a_mismatch_and_the_rest_still_runs(
        self, monkeypatch
    ):
        def asymmetric(seq, depth):
            raise ValueError(f"moment sequence {seq.name!r} is not symmetric")

        monkeypatch.setattr(closedforms, "aerated_recurrence", asymmetric)
        report = verify_family("q-factorial:m=0", max_n=3)
        assert not report.ok
        assert [(e.check, e.n, e.note) for e in report.mismatches()] == [
            ("aeration-symmetry", -1, "moment sequence 'q-factorial:m=0-aerated' is not symmetric")
        ]
        checks = {e.check for e in report.entries}
        assert {
            "determinant-vs-recurrence",
            "orthogonality",
            "hankel-two-path",
            "closed-recurrence-s",
            "aeration-roundtrip",
            "classical-limit",
        } <= checks
        assert not checks & {"closed-aerated-T", "deaerated-s", "deaerated-t"}

    def test_depth_zero_checks_the_symmetry_and_deaerates_nothing(self):
        report = verify_family("q-factorial:m=0", max_n=0)
        assert report.ok
        assert [e.status for e in report.entries if e.check == "aeration-symmetry"] == ["match"]
        assert not [e for e in report.entries if e.check.startswith("deaerated-")]

    def test_a_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="max_n must be >= 0"):
            verify_family("geometric-q", max_n=-1)


class TestSpecializedVerifier:
    def test_values_at_a_point_are_fractions(self):
        q0 = Fraction(5, 4)
        verifier = closedforms._Verifier("q-factorial:m=1", 3, q=q0)
        for got, v in zip(verifier.closed_st(2), closed_st("q-factorial:m=1", 2)):
            assert type(got) is Fraction
            assert got == v.eval_at(q0)
        closed = closed_polynomial("q-factorial:m=1", 3)
        assert {type(c) for c in verifier.closed_poly(3).coefficients} == {Fraction}
        assert verifier.closed_poly(3) == specialize_poly(closed, q0)
        t = verifier.closed_T(4)
        assert type(t) is Fraction and t == closed_T("q-factorial:m=1", 4).eval_at(q0)

    def test_each_closed_T_is_built_once_at_a_point(self, monkeypatch):
        # T_0..T_14 serve both closed-aerated-T and deaeration
        calls = []
        real = momentfamilies._catalan_T

        def counted(j, *q):
            calls.append(j)
            return real(j, *q)

        monkeypatch.setattr(momentfamilies, "_catalan_T", counted)
        assert verify_family("andrews-q-catalan", 8, q=Fraction(5, 4)).ok
        assert sorted(calls) == list(range(15))

    def test_each_closed_polynomial_is_built_once(self, monkeypatch):
        # the symbolic p_n serves both closed-vs-recurrence and classical-limit
        calls = []
        real = closedforms.cf_qhermite

        def counted(n, *q):
            calls.append(n)
            return real(n, *q)

        monkeypatch.setattr(closedforms, "cf_qhermite", counted)
        assert verify_family("q-double-factorial", 6).ok
        assert sorted(calls) == list(range(7))

    def test_only_a_mismatch_renders_its_sides(self):
        class Unprintable:
            def __eq__(self, other):
                return True

            __hash__ = None

            def __str__(self):
                raise AssertionError("a matching value was rendered")

        verifier = closedforms._Verifier("geometric-q", 1)
        verifier._record(0, "demo", Unprintable(), Unprintable())
        verifier._record(1, "demo", Fraction(1, 2), QRational.of(Fraction(1, 3)))
        match, mismatch = verifier.report.entries
        assert (match.status, match.left, match.right) == ("match", "", "")
        assert (mismatch.status, mismatch.left, mismatch.right) == ("mismatch", "1/2", "1/3")


def _sequence_names(monkeypatch) -> list[str]:
    """The name of every MomentSequence built from now on, in order."""
    names = []
    init = MomentSequence.__init__

    def recorded(self, rule, name="", at=None):
        names.append(name)
        init(self, rule, name, at)

    monkeypatch.setattr(MomentSequence, "__init__", recorded)
    return names


class TestPointStateLifetime:
    """A point sequence and all its state live while a caller holds it, and no longer."""

    def test_more_points_leave_no_more_live_memory(self):
        points = [Fraction(p, p + 10) for p in (3, 7, 9, 11, 13)]

        def verify_all(points):
            for q0 in points:
                for fid in registry_family_ids():
                    assert verify_family(fid, 3, q=q0).ok

        tracemalloc.start()
        try:
            verify_all(points[:1])
            gc.collect()
            one = tracemalloc.get_traced_memory()[0]
            verify_all(points)
            gc.collect()
            five = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert five - one <= 64 * 1024

    def test_reference_counting_alone_frees_a_point_sequence(self):
        q0 = Fraction(23, 19)
        gc.disable()
        try:
            seq = family("q-double-factorial").specialized_moments(q0)
            aerated = seq.aerated()
            stieltjes(seq, 5)
            aerated_recurrence(aerated, 9)
            assert verify_family("q-double-factorial", 5, q=q0).ok
            refs = weakref.ref(seq), weakref.ref(aerated)
            del seq, aerated
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("q0", [None, Fraction(5, 4)], ids=["symbolic", "point"])
    def test_a_verification_builds_each_aerated_sequence_once(self, monkeypatch, q0):
        # the weak cache must not drop an aerated sequence whose Stieltjes
        # table a later check reads again
        monkeypatch.setattr(momentfamilies, "_registry", {})
        names = _sequence_names(monkeypatch)
        for fid in registry_family_ids():
            assert verify_family(fid, 4, q=q0).ok
        built = collections.Counter(name for name in names if name.endswith("-aerated"))
        at = "" if q0 is None else f"@q={q0}"
        capable = [fid for fid in registry_family_ids() if family(fid).aerated_capable]
        assert len(capable) > 1
        assert all(built[f"{fid}{at}-aerated"] == 1 for fid in capable)
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("q0", [None, Fraction(3, 2)], ids=["symbolic", "point"])
    def test_the_recurrence_command_builds_one_aerated_sequence(self, monkeypatch, capsys, q0):
        monkeypatch.setattr(momentfamilies, "_registry", {})
        names = _sequence_names(monkeypatch)
        argv = ["recurrence", "--family", "q-double-factorial", "--max-n", "5", "--format", "json"]
        assert cli.main(argv + ([] if q0 is None else ["--q", str(q0)])) == 0
        assert json.loads(capsys.readouterr().out)["results"]["aerated"]["source"] == "stieltjes"
        built = [name for name in names if name.endswith("-aerated")]
        at = "" if q0 is None else f"@q={q0}"
        assert built.count(f"q-double-factorial{at}-aerated") == 1
        assert len(built) == len(set(built))


class TestOrthogonalityCheck:
    def test_a_polynomial_off_the_sequence_is_flagged(self, monkeypatch):
        real = closedforms.orthopoly_recur

        def shifted(moments, n):
            p = real(moments, n)
            return p + XPolynomial.one() if n == 2 else p

        monkeypatch.setattr(closedforms, "orthopoly_recur", shifted)
        report = verify_family("q-double-factorial", max_n=3)
        bad = [e for e in report.mismatches() if e.check == "orthogonality"]
        assert [(e.n, e.note) for e in bad] == [(2, "nonzero against x^k for k in [0, 1]")]

    def test_a_polynomial_off_the_sequence_is_flagged_at_a_specialized_q(self, monkeypatch):
        real = closedforms.orthopoly_recur

        def shifted(moments, n):
            p = real(moments, n)
            return p + XPolynomial.one() if n == 2 else p

        monkeypatch.setattr(closedforms, "orthopoly_recur", shifted)
        report = verify_family("q-double-factorial", max_n=3, q=Fraction(5, 4))
        bad = [e for e in report.mismatches() if e.check == "orthogonality"]
        assert [(e.n, e.note) for e in bad] == [(2, "nonzero against x^k for k in [0, 1]")]

    def test_a_vanishing_norm_is_flagged(self):
        # all moments are 1 at q = 1, so p_1 = x - 1 is orthogonal to 1 but L(p_1^2) = 0
        verifier = closedforms._Verifier("geometric-q", 1, q=1)
        verifier.check_orthogonality()
        [entry] = verifier.report.entries
        assert (entry.n, entry.status, entry.note) == (1, "mismatch", "vanishing norm")


# -- closed forms built at a point ------------------------------------------------

_DEPTH = 8


def _outcome(build):
    """("value", build()) or ("pole", message)."""
    try:
        return "value", build()
    except PoleError as exc:
        return "pole", str(exc)


def _pinned(value, q0):
    """A symbolic value's outcome at q0."""
    if isinstance(value, XPolynomial):
        return _outcome(lambda: specialize_poly(value, q0))
    return _outcome(lambda: _value_at(value, q0))


@functools.cache
def _symbolic_values(fid) -> dict:
    """The oracle's half: every closed value of a family built over Q(q), to depth 8."""
    fam = family(fid)
    out = {("p", n): closed_polynomial(fid, n) for n in range(_DEPTH + 1)}
    if fam.has_closed_T:
        out.update({("T", j): closed_T(fid, j) for j in range(2 * _DEPTH - 1)})
    if fam.has_closed_st:
        for i in range(_DEPTH):
            out["s", i], out["t", i] = closed_st(fid, i)
    if fam.tag == "geometric-q":
        out.update(
            {("norm", n, m): cf_geometric_norm(n, m) for n in range(_DEPTH + 1) for m in range(n + 1)}
        )
    return out


def _point_values(fid, at: QPoint) -> dict:
    """The outcome of each value at the point, through the entry points the verifier calls."""

    def build(kind, index, *m):
        if kind == "p":
            return closed_polynomial(fid, index, at)
        if kind == "T":
            return closed_T(fid, index, at)
        if kind in ("s", "t"):
            return closed_st(fid, index, at)["st".index(kind)]
        return built_at(at, lambda *q: cf_geometric_norm(index, *m, *q))

    return {key: _outcome(lambda: build(*key)) for key in _symbolic_values(fid)}


class TestClosedFormsAtAPoint:
    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    @example(Fraction(-1))
    @example(Fraction(0))
    @example(Fraction(1))
    @example(Fraction(2))
    @example(Fraction(-1, 2))
    def test_point_builds_equal_the_symbolic_builds_evaluated(self, q0):
        at = QPoint(q0)
        for fid in registry_family_ids():
            symbolic = _symbolic_values(fid)
            built = _point_values(fid, at)
            assert built.keys() == symbolic.keys()
            for key, (kind, value) in built.items():
                if symbolic[key] is None:
                    assert (kind, value) == ("value", None), (str(fid), key)
                    continue
                # pole for pole, with the same message, and value for value
                assert (kind, value) == _pinned(symbolic[key], q0), (str(fid), key, q0)
                if kind == "value":
                    cs = value.coefficients if isinstance(value, XPolynomial) else [value]
                    assert all(type(c) is Fraction for c in cs), (str(fid), key)

    def test_the_chebyshev_forms_raise_at_their_pole_at_minus_one(self):
        at = QPoint(-1)
        with pytest.raises(PoleError, match="pole at evaluation point q=-1"):
            closed_T("andrews-q-catalan", 0, at)
        with pytest.raises(PoleError, match="pole at evaluation point q=-1"):
            closed_polynomial("andrews-q-catalan", 3, at)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_a_removable_vanishing_denominator_gives_the_value(self, n):
        # (-q; q)_k divides t_n's denominators, but T_n's coefficients are
        # polynomials in q, so at -1 the symbolic build has no pole
        at = QPoint(-1)
        with pytest.raises(VanishingDenominator):
            cf_chebT_rescaled(n, at)
        got = built_at(at, lambda *q: cf_chebT_rescaled(n, *q))
        assert got == specialize_poly(cf_chebT_rescaled(n), -1)
        assert {type(c) for c in got.coefficients} == {Fraction}

    def test_the_corrupted_laguerre_form_trips_verification_at_a_point(self, capsys, monkeypatch):
        intact = closedforms.cf_qlaguerre

        def corrupted(n, m, *q):
            p = intact(n, m, *q)
            if n == 3:
                p = p + XPolynomial.one()
            return p

        monkeypatch.setattr(closedforms, "cf_qlaguerre", corrupted)
        code = cli.main(["verify", "--family", "q-factorial:m=0", "--max-n", "4", "--q", "5/4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verification FAILED" in out
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert mismatches, out
        assert all("q-factorial:m=0" in line and "n=3" in line for line in mismatches)

    def test_a_perturbed_specialized_moment_is_caught_by_the_closed_forms(self, monkeypatch):
        q0 = Fraction(5, 4)
        intact = momentfamilies._moments_at
        before = [closed_polynomial("q-factorial:m=0", n, QPoint(q0)) for n in range(5)]

        def perturbed(fid, point):
            rule = intact(fid, point)
            return lambda n: rule(n) + 1 if n == 3 else rule(n)

        monkeypatch.setattr(momentfamilies, "_moments_at", perturbed)
        monkeypatch.setattr(momentfamilies, "_registry", {})
        report = verify_family("q-factorial:m=0", max_n=4, q=q0)
        bad = {(e.check, e.n) for e in report.mismatches()}
        # p_n reads a(0..2n-1), so p_2 onward move with a(3); the closed forms do not
        assert {("closed-vs-recurrence", n) for n in (2, 3, 4)} <= bad
        assert ("closed-vs-recurrence", 1) not in bad
        assert [closed_polynomial("q-factorial:m=0", n, QPoint(q0)) for n in range(5)] == before
