"""Determinant, recurrence, triangle, and aeration machinery.

The determinant path and the recurrence path are built independently,
so their agreement is the main correctness signal; a brute-force
permanent-style determinant over plain fractions backs up the Hankel
values at q = 1.
"""

import math
import sys
import threading
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import _intkernel, orthocore
from qortho.exactalg import QPolynomial, QRational
from qortho.momentfamilies import family, registry_family_ids
from qortho.orthocore import (
    ExpansionTriangle,
    QuasiDefinitenessError,
    RecurrenceTable,
    aerated_orthopoly,
    aerated_recurrence,
    deaerate,
    expansion_triangle,
    hankel_direct,
    hankel_minors,
    hankel_product,
    orthopoly_det,
    orthopoly_det_sweep,
    orthopoly_recur,
    stieltjes,
)
from qortho.qcombinatorics import q_binomial, q_factorial
from qortho.xpoly import MomentSequence, XPolynomial, apply_functional, even_part_compress


def qr(*coeffs):
    return QRational.of(QPolynomial(coeffs))


def leibniz_det(rows):
    """Sum over permutations; fine for the tiny matrices used here."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def constant_moments(values, name):
    vals = [Fraction(v) for v in values]
    return MomentSequence(lambda n: QRational.of(QPolynomial([vals[n]])), name=name)


def point_mass_at_zero():
    """Moments 1, 0, 0, ...: every Hankel column past the first is zero from order 2 on."""
    return MomentSequence(lambda n: QRational.of(1 if n == 0 else 0), name="delta")


def _stieltjes_by_squares(moments, depth):
    """The bootstrap through p_k^2 that ``stieltjes`` replaced, kept as its oracle.

    Returns (s, t, norms, [p_0, ..., p_depth]) with norm_k = L(p_k^2)
    and s_k = L(x p_k^2) / norm_k, read off the square itself.
    """
    p, s, t, norms = [XPolynomial.one()], [], [], []
    for k in range(depth):
        square = p[k] * p[k]
        norm_k = apply_functional(moments, square)
        if norm_k.is_zero:
            raise QuasiDefinitenessError(k + 1, moments.name)
        s_k = apply_functional(moments, square.shift_x(1)) / norm_k
        norms.append(norm_k)
        s.append(s_k)
        succ = p[k].shift_x(1) - p[k].scale(s_k)
        if k > 0:
            t.append(norm_k / norms[k - 1])
            succ = succ - p[k - 1].scale(t[-1])
        p.append(succ)
    return tuple(s), tuple(t), tuple(norms), p


def registry_sequences():
    """Every registry family, symbolically and at q = 5/4."""
    for fid in registry_family_ids():
        fam = family(str(fid))
        yield str(fid), fam.moments
        yield f"{fid}@5/4", fam.specialized_moments(Fraction(5, 4))


class TestHankelDirect:
    def test_empty_determinant_is_one(self):
        assert hankel_direct(family("geometric-q").moments, 0) == QRational.one()

    def test_order_one_is_the_zeroth_moment(self):
        for spec in ("geometric-q", "q-factorial:m=2", "andrews-q-catalan"):
            assert hankel_direct(family(spec).moments, 1) == QRational.one()

    def test_factorial_hankel_matches_brute_force(self):
        seq = family("q-factorial:m=0").specialized_moments(1)
        fact = [Fraction(1), 1, 2, 6, 24, 120, 720, 5040]
        for n in range(5):
            rows = [[fact[i + j] for j in range(n)] for i in range(n)]
            assert hankel_direct(seq, n) == QRational.of(QPolynomial([leibniz_det(rows)]))
        assert hankel_direct(seq, 3).eval_at(1) == 4

    def test_catalan_hankel_is_identically_one(self):
        seq = family("fibonacci-functional").specialized_moments(1)
        catalan = [Fraction(1), 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
        for n in range(7):
            rows = [[catalan[(i + j) // 2] if (i + j) % 2 == 0 else Fraction(0) for j in range(n)] for i in range(n)]
            # odd moments vanish, so the matrix interleaves Catalan numbers with zeros
            assert leibniz_det(rows) == 1
            assert hankel_direct(seq, n) == QRational.one()

    def test_singular_leading_block_does_not_break_a_regular_matrix(self):
        # moments 1,1,1,2,...: the 2-by-2 determinant vanishes but the
        # 3-by-3 one is -1, which forces a row exchange internally
        seq = constant_moments([1, 1, 1, 2, 5, 14], "plateau")
        assert hankel_direct(seq, 2).is_zero
        assert hankel_direct(seq, 3) == qr(-1)

    def test_symbolic_determinant_specializes_correctly(self):
        fam = family("q-double-factorial")
        d3 = hankel_direct(fam.moments, 3)
        d3_at_1 = hankel_direct(fam.specialized_moments(1), 3)
        assert QRational.of(QPolynomial([d3.eval_at(1)])) == d3_at_1


class TestHankelMinors:
    def test_orders_zero_and_below(self):
        seq = family("geometric-q").moments
        assert hankel_minors(seq, 0) == [QRational.one()]
        with pytest.raises(ValueError):
            hankel_minors(seq, -1)

    def test_equals_one_direct_determinant_per_order_on_every_family(self):
        for name, seq in registry_sequences():
            assert hankel_minors(seq, 5) == [hankel_direct(seq, m) for m in range(6)], name

    def test_orders_past_a_vanishing_minor_come_from_row_exchanges(self):
        seq = constant_moments([1, 1, 1, 2, 5, 14], "plateau")
        minors = hankel_minors(seq, 3)
        assert minors == [hankel_direct(seq, m) for m in range(4)]
        assert minors[2].is_zero
        assert minors[3] == qr(-1)

    def test_singular_leading_block(self):
        seq = family("geometric-q").specialized_moments(1)
        assert hankel_minors(seq, 4) == [QRational.one()] * 2 + [QRational.zero()] * 3

    def test_an_all_zero_column_has_unit_content(self):
        seq = point_mass_at_zero()
        expected = [QRational.one()] * 2 + [QRational.zero()] * 2
        assert [hankel_direct(seq, m) for m in range(4)] == expected
        assert hankel_minors(seq, 3) == expected


class TestOrthopolyDetSweep:
    def test_degree_zero_and_below(self):
        seq = family("geometric-q").moments
        assert orthopoly_det_sweep(seq, 0) == ([XPolynomial.one()], [QRational.one()])
        with pytest.raises(ValueError):
            orthopoly_det_sweep(seq, -1)

    def test_equals_one_determinant_per_degree_on_every_family(self):
        for name, seq in registry_sequences():
            polys, dets = orthopoly_det_sweep(seq, 5)
            assert polys == [orthopoly_det(seq, k) for k in range(6)], name
            assert dets == [hankel_direct(seq, m) for m in range(6)], name

    @pytest.mark.parametrize(
        "seq",
        [
            constant_moments([1, 1, 1, 2, 5, 14], "plateau"),
            family("geometric-q").specialized_moments(1),
            point_mass_at_zero(),
        ],
        ids=["plateau", "geometric-q@1", "delta"],
    )
    def test_polynomials_stop_at_the_first_vanishing_minor(self, seq):
        polys, dets = orthopoly_det_sweep(seq, 3)
        assert dets == [hankel_direct(seq, m) for m in range(4)]
        assert dets[2].is_zero and not dets[1].is_zero
        assert polys == [orthopoly_det(seq, k) for k in range(2)]
        with pytest.raises(QuasiDefinitenessError) as err:
            orthopoly_det(seq, 2)
        assert err.value.level == len(polys)

    def test_contents_narrow_the_packing(self):
        # a(j) divides every a(i+j) of q-factorial, so the cleared rows and
        # columns are far smaller than the moments; 384 bits without contents
        block = orthocore._packed_rows(family("q-factorial:m=2").moments, 9, 10)
        assert block.w <= 160


def _int_polys(max_digits):
    """Integer polynomials, the zero one included, with coefficients up to 10**max_digits."""
    return st.lists(
        st.integers(min_value=-(10**max_digits), max_value=10**max_digits), max_size=6
    ).map(_intkernel.strip)


def _content_oracle(polys):
    """The primitive gcd by the primitive PRS, and the quotients by schoolbook division."""
    h = []
    for cs in polys:
        if cs:
            pp = _intkernel.primitive(cs)[1]
            h = _intkernel._gcd_prs(h, pp) if h else pp
    h = h if len(h) > 1 else [1]
    return h, [_intkernel.divexact(cs, h) for cs in polys]


class TestDivideContent:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_int_polys(20), min_size=1, max_size=5), _int_polys(6))
    def test_matches_the_prs_oracle(self, polys, c):
        # c is a planted common factor of every input
        planted = [_intkernel.mul(p, c) for p in polys]
        assert _intkernel.divide_content(planted) == _content_oracle(planted)

    @pytest.mark.parametrize("c", [[1], [3, 1], [1, 0, 1]])
    def test_a_rejected_candidate_is_tried_again_wider(self, monkeypatch, c):
        # For c = 1 the values' gcd at 2**8 reads back as q - 127, and
        # 2**8 - 127 divides a(2**8) = 258, but the quotient 2 fails the
        # norm test; the planted factors fail the first width too.
        def no_prs(f, g):
            raise AssertionError("a wider width should have been accepted")

        monkeypatch.setattr(_intkernel, "_gcd_prs", no_prs)
        a, b = [2, 1], [3, 2, 0, 0, -2, 3]
        polys = [_intkernel.mul(a, c), _intkernel.mul(b, c)]
        assert _intkernel.divide_content(polys) == (c, [a, b])

    @pytest.mark.parametrize(
        "polys, expected",
        [
            ([[-1, 0, 1], [], [1, 2, 1], [2, 2]], ([1, 1], [[-1, 1], [], [1, 1], [2]])),
            ([[2688, 4193280, 4193280]], ([1, 1560, 1560], [[2688]])),
        ],
    )
    def test_gives_up_to_the_prs(self, monkeypatch, polys, expected):
        class Refusing:
            def __init__(self, d):
                pass

            def __call__(self, n):
                raise ArithmeticError("refused")

        monkeypatch.setattr(_intkernel, "ExactDivider", Refusing)
        assert _intkernel.divide_content(polys) == expected

    def test_a_constant_or_nothing_has_unit_content(self):
        assert _intkernel.divide_content([[0, 2], [4]]) == ([1], [[0, 2], [4]])
        assert _intkernel.divide_content([[], []]) == ([1], [[], []])


class TestLcm:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_int_polys(20).filter(bool), min_size=1, max_size=5), _int_polys(6).filter(bool))
    def test_every_input_divides_it(self, polys, c):
        planted = [_intkernel.mul(p, c) for p in polys]
        lcm = orthocore._lcm(planted)
        assert lcm[-1] > 0
        for p in planted:
            _intkernel.divexact(lcm, p)  # raises unless p divides the lcm

    @settings(max_examples=150, deadline=None)
    @given(_int_polys(20).filter(bool), _int_polys(20).filter(bool), _int_polys(6).filter(bool))
    def test_lcm_times_gcd_is_the_product(self, a, b, c):
        a, b = _intkernel.mul(a, c), _intkernel.mul(b, c)
        (ka, pa), (kb, pb) = _intkernel.primitive(a), _intkernel.primitive(b)
        gcd = _intkernel.mul_scalar(_intkernel._gcd_prs(pa, pb), math.gcd(ka, kb))
        product = _intkernel.mul(a, b)
        assert _intkernel.mul(orthocore._lcm([a, b]), gcd) in (
            product,
            _intkernel.mul_scalar(product, -1),
        )


# c = 2/(2q + 3); the moments [n]! c^n have denominators (q + 3/2)^n, which
# are not integer polynomials, so every row is cleared through the integer lcm
_C = QRational.of(QPolynomial([2]), QPolynomial([3, 2]))


def _scaled_factorial(c):
    return MomentSequence(lambda n: QRational.of(q_factorial(n)) * c**n, name="scaled")


class TestNonIntegerDenominators:
    def test_the_denominators_have_fractional_coefficients(self):
        assert _scaled_factorial(_C).moment(2).denominator.coefficients == (
            Fraction(9, 4),
            Fraction(3),
            Fraction(1),
        )

    def test_minors_scale_by_a_power_of_c(self):
        # the recurrence path of the unscaled sequence is the reference
        base, scaled = _scaled_factorial(QRational.one()), _scaled_factorial(_C)
        expected = [_C ** (n * (n - 1)) * hankel_product(base, n) for n in range(6)]
        assert hankel_minors(scaled, 5) == expected
        assert orthopoly_det_sweep(scaled, 5)[1] == expected
        assert [hankel_direct(scaled, n) for n in range(6)] == expected

    def test_polynomials_are_rescaled(self):
        # p_n(x) = c^n p_n(x/c): coefficient k picks up c^(n - k)
        base, scaled = _scaled_factorial(QRational.one()), _scaled_factorial(_C)
        expected = [
            XPolynomial([v * _C ** (n - k) for k, v in enumerate(orthopoly_recur(base, n).coefficients)])
            for n in range(6)
        ]
        assert orthopoly_det_sweep(scaled, 5)[0] == expected
        assert [orthopoly_det(scaled, n) for n in range(6)] == expected


class TestOrthopolyDet:
    def test_degree_zero_is_one(self):
        assert orthopoly_det(family("geometric-q").moments, 0) == XPolynomial.one()

    def test_degree_one_subtracts_the_first_moment(self):
        p1 = orthopoly_det(family("q-factorial:m=0").specialized_moments(1), 1)
        assert p1 == XPolynomial([-1, 1])

    def test_output_is_monic_of_the_right_degree(self):
        for spec in ("geometric-q", "q-double-factorial"):
            p = orthopoly_det(family(spec).moments, 4)
            assert p.degree == 4
            assert p.is_monic

    def test_orthogonality_against_lower_powers(self):
        seq = family("geometric-q").moments
        p2 = orthopoly_det(seq, 2)
        for k in range(2):
            assert apply_functional(seq, p2.shift_x(k)).is_zero

    def test_degenerate_sequence_raises_with_the_failing_level(self):
        seq = family("geometric-q").specialized_moments(1)
        with pytest.raises(QuasiDefinitenessError) as err:
            orthopoly_det(seq, 2)
        assert err.value.level == 2

    def test_an_all_zero_column_has_unit_content(self):
        seq = point_mass_at_zero()
        assert orthopoly_det(seq, 1) == XPolynomial([0, 1])
        with pytest.raises(QuasiDefinitenessError) as err:
            orthopoly_det(seq, 2)
        assert err.value.level == 2


class TestStieltjes:
    def test_factorial_coefficients_at_one(self):
        # s = 1, 3, 5, ... and t = 1, 4, 9, ...
        table = stieltjes(family("q-factorial:m=0").specialized_moments(1), 5)
        assert [v.eval_at(1) for v in table.s] == [1, 3, 5, 7, 9]
        assert [v.eval_at(1) for v in table.t] == [1, 4, 9, 16]

    def test_geometric_first_step(self):
        table = stieltjes(family("geometric-q").moments, 2)
        assert table.t[0] == qr(-1, 1)

    def test_multifactorial_seed_at_one(self):
        table = stieltjes(family("multifactorial:r=2,m=1").specialized_moments(1), 2)
        assert table.s[0].eval_at(1) == 3
        assert table.t[0].eval_at(1) == 6

    def test_norms_are_hankel_quotients(self):
        fam = family("q-double-factorial")
        table = stieltjes(fam.moments, 5)
        for n in range(5):
            assert table.norms[n] == hankel_direct(fam.moments, n + 1) / hankel_direct(
                fam.moments, n
            )

    def test_deepening_is_incremental_and_consistent(self):
        fam = family("q-factorial:m=1")
        shallow = stieltjes(fam.moments, 3)
        deep = stieltjes(fam.moments, 6)
        assert deep.s[:3] == shallow.s
        assert deep.t[:2] == shallow.t

    def test_zero_norm_reports_its_level(self):
        seq = family("geometric-q").specialized_moments(1)
        with pytest.raises(QuasiDefinitenessError) as err:
            stieltjes(seq, 2)
        assert err.value.level == 2

    def test_threads_sharing_a_sequence_get_the_single_threaded_table(self):
        moments = family("q-factorial:m=1").moments
        expected = stieltjes(MomentSequence(moments.moment), 8)
        for _ in range(3):
            shared = MomentSequence(moments.moment)
            results, errors = [], []

            def run():
                try:
                    results.append(stieltjes(shared, 8))
                except Exception as exc:  # reported below, not swallowed
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
            finally:
                sys.setswitchinterval(old_interval)
            assert not any(th.is_alive() for th in threads)
            assert errors == []
            assert results == [expected, expected]


def _oracle_cases():
    """Every family symbolically at depth 6 and at q = 5/4 at depth 8, and
    every aerated sequence at depth 7."""
    for fid in registry_family_ids():
        fam = family(str(fid))
        yield pytest.param(fam.moments, 6, id=str(fid))
        yield pytest.param(fam.specialized_moments(Fraction(5, 4)), 8, id=f"{fid}@5/4")
        if fam.aerated_capable:
            yield pytest.param(fam.aerated_moments, 7, id=f"{fid}-aerated")


class TestStieltjesAgainstSquares:
    @pytest.mark.parametrize("seq, depth", _oracle_cases())
    def test_same_table_and_polynomials(self, seq, depth):
        fresh = MomentSequence(seq.moment, name=seq.name)
        s, t, norms, polys = _stieltjes_by_squares(seq, depth)
        assert stieltjes(fresh, depth) == RecurrenceTable(s, t, norms)
        assert [orthopoly_recur(fresh, n) for n in range(depth + 1)] == polys

    @pytest.mark.parametrize(
        "seq",
        [
            family("geometric-q").specialized_moments(1),
            constant_moments([1, 1, 1, 2, 5, 14], "plateau"),
            point_mass_at_zero(),
        ],
        ids=["geometric-q@1", "plateau", "point-mass"],
    )
    def test_same_failing_level(self, seq):
        with pytest.raises(QuasiDefinitenessError) as expected:
            _stieltjes_by_squares(seq, 3)
        with pytest.raises(QuasiDefinitenessError) as got:
            stieltjes(MomentSequence(seq.moment, name=seq.name), 3)
        assert (got.value.level, str(got.value)) == (expected.value.level, str(expected.value))

    def test_forms_no_product_of_polynomials(self, monkeypatch):
        mul = XPolynomial.__mul__

        def scalar_only(self, other):
            if isinstance(other, XPolynomial):
                raise AssertionError("stieltjes multiplied two polynomials")
            return mul(self, other)

        monkeypatch.setattr(XPolynomial, "__mul__", scalar_only)
        fresh = MomentSequence(family("q-factorial:m=1").moments.moment)
        assert stieltjes(fresh, 8).depth == 8


class TestOrthopolyRecur:
    def test_degree_zero_and_one(self):
        seq = family("q-factorial:m=0").specialized_moments(1)
        assert orthopoly_recur(seq, 0) == XPolynomial.one()
        assert orthopoly_recur(seq, 1) == XPolynomial([-1, 1])

    def test_factorial_degree_two_at_one(self):
        seq = family("q-factorial:m=0").specialized_moments(1)
        assert orthopoly_recur(seq, 2) == XPolynomial([2, -4, 1])

    def test_catalan_style_aerated_degree_two(self):
        seq = family("andrews-q-catalan").specialized_moments(1).aerated()
        assert orthopoly_recur(seq, 2) == XPolynomial([Fraction(-1, 4), 0, 1])

    def test_agrees_with_the_determinant_construction(self):
        for spec in ("geometric-q", "q-factorial:m=2", "q-double-factorial"):
            seq = family(spec).moments
            for n in range(5):
                assert orthopoly_recur(seq, n) == orthopoly_det(seq, n)


class TestExpansionTriangle:
    def test_top_of_the_triangle(self):
        tri = expansion_triangle(family("geometric-q").moments, 0)
        assert tri.entry(0, 0) == QRational.one()

    def test_out_of_range_entries_are_zero(self):
        tri = expansion_triangle(family("geometric-q").moments, 2)
        assert tri.entry(1, -1).is_zero
        assert tri.entry(1, 2).is_zero

    def test_column_zero_recovers_the_moments(self):
        fam = family("q-factorial:m=1")
        tri = expansion_triangle(fam.moments, 6)
        for n in range(7):
            assert tri.entry(n, 0) == fam.moments.moment(n)

    def test_diagonal_is_one(self):
        tri = expansion_triangle(family("q-double-factorial").moments, 5)
        for n in range(6):
            assert tri.entry(n, n) == QRational.one()

    def test_double_factorial_row_two_at_one(self):
        tri = expansion_triangle(family("q-double-factorial").specialized_moments(1), 2)
        assert [v.eval_at(1) for v in tri.row(2)] == [3, 6, 1]

    def test_factorial_triangle_closed_form(self):
        # a(n, k) = [n over k] a(n) / a(k) for the factorial moments
        for m in (0, 2):
            fam = family(f"q-factorial:m={m}")
            tri = expansion_triangle(fam.moments, 6)
            for n in range(7):
                for k in range(n + 1):
                    expected = (
                        QRational.of(q_binomial(n, k))
                        * fam.moments.moment(n)
                        / fam.moments.moment(k)
                    )
                    assert tri.entry(n, k) == expected

    def test_rows_iterate_in_order(self):
        tri = expansion_triangle(family("geometric-q").moments, 3)
        assert len(tri) == 4
        assert [len(row) for row in tri] == [1, 2, 3, 4]


class TestHankelProduct:
    def test_small_orders_are_one(self):
        seq = family("q-factorial:m=0").moments
        assert hankel_product(seq, 0) == QRational.one()
        assert hankel_product(seq, 1) == QRational.one()

    def test_factorial_order_three_at_one(self):
        seq = family("q-factorial:m=0").specialized_moments(1)
        assert hankel_product(seq, 3).eval_at(1) == 4

    def test_agrees_with_the_direct_determinant(self):
        for spec in ("geometric-q", "andrews-q-catalan", "multifactorial:r=2,m=0"):
            seq = family(spec).moments
            for n in range(6):
                assert hankel_product(seq, n) == hankel_direct(seq, n)


class TestAeration:
    def test_deaerate_concrete_values(self):
        # s_n = T_{2n-1} + T_{2n} with T_{-1} = 0, t_n = T_{2n} T_{2n+1}
        table = deaerate([qr(1), qr(2), qr(3), qr(4), qr(5)], 3)
        assert table.s == (qr(1), qr(5), qr(9))
        assert table.t == (qr(2), qr(12))
        assert table.norms == (qr(1), qr(2), qr(24))

    def test_deaerate_of_zero_coefficients_is_zero(self):
        table = deaerate(lambda j: QRational.zero(), 4)
        assert all(v.is_zero for v in table.s)
        assert all(v.is_zero for v in table.t)

    def test_aerated_coefficients_come_back_symmetric(self):
        fam = family("q-double-factorial")
        T = aerated_recurrence(fam.aerated_moments, 6)
        base = stieltjes(fam.moments, 4)
        recovered = deaerate(T, 3)
        assert recovered.s == base.s[:3]
        assert recovered.t == base.t[:2]

    def test_non_symmetric_input_is_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            aerated_recurrence(family("q-factorial:m=0").moments, 3)

    def test_hermite_polynomial_from_aerated_double_factorials(self):
        seq = family("q-double-factorial").specialized_moments(1).aerated()
        assert orthopoly_recur(seq, 4) == XPolynomial([3, 0, -6, 0, 1])

    def test_compression_recovers_the_base_polynomials(self):
        fam = family("q-double-factorial")
        for n in range(5):
            assert aerated_orthopoly(fam.aerated_moments, n) == orthopoly_recur(
                fam.moments, n
            )

    def test_compression_of_an_even_polynomial(self):
        p = XPolynomial([3, 0, -6, 0, 1])
        assert even_part_compress(p) == XPolynomial([3, -6, 1])


class TestRecurrenceTable:
    def test_depth_counts_s_entries(self):
        table = RecurrenceTable.from_st([qr(1), qr(2)], [qr(3)])
        assert table.depth == 2
        assert table.norms == (qr(1), qr(3))

    def test_triangle_type_bounds(self):
        tri = ExpansionTriangle([[QRational.one()]])
        assert tri.max_row == 0
