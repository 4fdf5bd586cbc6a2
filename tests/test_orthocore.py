"""Determinant, recurrence, triangle, and aeration machinery.

The determinant path and the recurrence path are built independently,
so their agreement is the main correctness signal; a brute-force
permanent-style determinant over plain fractions backs up the Hankel
values at q = 1.
"""

import functools
import math
import pickle
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import _intkernel, orthocore
from qortho.exactalg import PoleError, QPolynomial, QRational
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


def functional_by_terms(moments, p):
    """L(p) as a running sum of c_k a(k), one field operation per term.

    The functional before it was cleared, kept as the oracle's, so the
    oracle shares no arithmetic with the cleared window.
    """
    total = moments.zero
    for k, c in enumerate(p.coefficients):
        if c:
            total = total + c * moments.moment(k)
    return total


def _stieltjes_by_squares(moments, depth):
    """The bootstrap through p_k^2 that ``stieltjes`` replaced, kept as its oracle.

    Returns (s, t, norms, [p_0, ..., p_depth]) with norm_k = L(p_k^2)
    and s_k = L(x p_k^2) / norm_k, read off the square itself.
    """
    p, s, t, norms = [XPolynomial.one()], [], [], []
    for k in range(depth):
        square = p[k] * p[k]
        norm_k = functional_by_terms(moments, square)
        if not norm_k:
            raise QuasiDefinitenessError(k + 1, moments.name)
        s_k = functional_by_terms(moments, square.shift_x(1)) / norm_k
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
        assert hankel_direct(seq, 3) == 4

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

    def test_the_registry_row_exchange_case_at_a_point(self):
        # at q = -1 the lucas-functional's d_2 and d_3 vanish while d_4 and
        # d_5 do not, so only the sweep's row exchanges give d_4 and d_5
        seq = family("lucas-functional").specialized_moments(-1)
        a = [seq.moment(k) for k in range(13)]
        want = [gauss_det([[a[i + j] for j in range(n)] for i in range(n)]) for n in range(8)]
        assert want == [1, 1, 0, 0, -8, -16, 0, 0]
        assert [hankel_direct(seq, n) for n in range(8)] == want
        assert hankel_minors(seq, 7) == want

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
        assert dets[2] == 0 and dets[1] != 0
        assert polys == [orthopoly_det(seq, k) for k in range(2)]
        with pytest.raises(QuasiDefinitenessError) as err:
            orthopoly_det(seq, 2)
        assert err.value.level == len(polys)

    def test_contents_narrow_the_packing(self):
        # a(j) divides every a(i+j) of q-factorial, so the cleared rows and
        # columns are far smaller than the moments; 384 bits without contents
        block = orthocore._packed_rows(family("q-factorial:m=2").moments, 9, 10)
        assert block.w <= 160


def _denominator_lcms(seq, n):
    """u_0..u_n for the order-n bordered block, from the moments alone.

    u_j is the lcm of the denominators of a(0..min(2j, 2n-1)): by
    ``math.lcm`` at a specialized q, and over Q(q) as the monic lcm, a
    times what b / a keeps of b.  Each is returned in the moments' field.
    """
    if isinstance(seq.one, Fraction):
        lcm, lift = math.lcm, Fraction
    else:

        def lcm(a, b):
            p = a * QRational.of(b, a).numerator
            return p * (1 / p.leading_coefficient)

        lift = QRational.of
    dens = [seq.moment(k).denominator for k in range(2 * n)]
    return [lift(functools.reduce(lcm, dens[: min(2 * j, 2 * n - 1) + 1])) for j in range(n + 1)]


class TestPackedBlock:
    def test_entries_are_the_congruence_over_the_contents(self):
        # cleared_ij r_i c_j = u_i u_j a(i+j); border row e holds u_e L / c_e
        # and factors[i] = r_i c_i, so c_j / L and L r_i are read off them
        n = 5
        for name, seq in registry_sequences():
            m = orthocore._packed_rows(seq, n, n + 1)

            def value(cs):
                return m.ring.value(cs, m.ring.one)

            u = _denominator_lcms(seq, n)
            assert m.scales == [v * v for v in u[:n]], name
            c = [u[e] / value(m.ring.unpack(row[e], m.w)) for e, row in enumerate(m.border)]
            r = [value(f) / c[i] for i, f in enumerate(m.factors)]
            for i, row in enumerate(m.rows):
                for j, x in enumerate(row):
                    entry = value(m.ring.unpack(x, m.w)) * r[i] * c[j]
                    assert entry == u[i] * u[j] * seq.moment(i + j), (name, i, j)

    @pytest.mark.parametrize("specialized", [False, True], ids=["Q(q)", "Q"])
    def test_a_bordered_block_reads_no_moment_past_two_n_minus_one(self, specialized):
        n = 5
        fam = family("andrews-q-catalan")
        base = fam.specialized_moments(Fraction(5, 4)) if specialized else fam.moments

        def rule(k):
            if k > 2 * n - 1:
                raise IndexError(f"moment {k} read")
            return base.moment(k)

        seq = MomentSequence(rule, name="truncated")
        orthocore._packed_rows(seq, n, n + 1)
        assert orthopoly_det(seq, n) == orthopoly_det(base, n)

    def test_each_entry_of_the_symmetric_block_is_built_once(self, monkeypatch):
        # u_i u_j a(i+j) is the same for (i, j) and (j, i); each build costs
        # one exact quotient in the ring, and polynomial moments need no other
        seq = family("q-factorial:m=1").moments
        for k in range(11):
            seq.moment(k)
        calls = []
        divexact = seq.ring.quo

        def counting(f, g):
            calls.append((f, g))
            return divexact(f, g)

        monkeypatch.setattr(seq.ring, "quo", counting)
        orthocore._packed_rows(seq, 6, 6)
        assert len(calls) == 6 * 7 // 2

    def test_a_shared_entry_is_dropped_once_both_rows_have_read_it(self):
        # holding every undivided upper-triangle entry until the block is
        # packed peaks near 3,950 KiB here; dropping each after its second
        # read, near 2,980 KiB
        n = 12
        seq = family("andrews-q-catalan").moments
        for k in range(2 * n):
            seq.moment(k)
        tracemalloc.start()
        try:
            orthocore._packed_rows(seq, n, n + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3400 * 1024


def gauss_det(rows):
    """det over Q by Gaussian elimination with row exchanges, the Bareiss oracle."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            row[k:] = [v - f * u for v, u in zip(row[k:], a[k][k:])]
    return det


def _bareiss(
    rows: list[list[int]], border: Sequence[list[int]] = (), pivoting: bool = False
) -> tuple[list[int], int]:
    """Fraction-free elimination of ``rows`` in place, one step per row.

    The Bareiss elimination that ``orthocore._eliminate`` continues when
    it leaves the normalised form, kept whole as its oracle.  Returns
    (pivots, sign).
    Without row exchanges the pivot of step k is the leading (k+1)-minor
    of the input, and the sweep stops right after the first zero pivot.
    With ``pivoting`` a zero pivot is replaced by a lower row (``sign``
    records the exchanges), and the sweep stops after a zero pivot only
    when its whole column is zero.  The ``border`` rows, which never
    pivot, are eliminated by the same update as the rows below the
    pivot: step k writes their column k+1 for the last time, and in each
    border row it then holds the minor of rows 0..k and that row over
    columns 0..k+1.  Each step divides by the previous pivot through one
    ``ExactDivider``, which checks every quotient.  Row k is never read
    after step k, so its entries past the pivot are dropped then, and so
    is column k of the rows below it; the border rows keep theirs.
    """
    n, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    sign = 1
    div = _intkernel.ExactDivider(1)
    for k in range(n):
        if rows[k][k] == 0 and pivoting:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
        pivot = rows[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        row_k = rows[k]
        for i, row_i in enumerate([*rows[k + 1 :], *border], k + 1):
            factor = row_i[k]
            for j in range(k + 1, ncols):
                row_i[j] = div(pivot * row_i[j] - factor * row_k[j])
            if i < n:  # a border row keeps column k, which holds its minor
                row_i[k] = 0
        del row_k[k + 1 :]
        div = _intkernel.ExactDivider(pivot)
    return pivots, sign


@st.composite
def bordered_blocks(draw):
    """An integer n x (n+1) block, n <= 5, and n + 1 nonzero border scales.

    Half of the blocks get a vanishing leading minor of some order k + 1:
    row k starts as a multiple of an earlier row's start, or with zeros.
    """
    n = draw(st.integers(1, 5))
    rows = [[draw(st.integers(-50, 50)) for _ in range(n + 1)] for _ in range(n)]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        j, c = draw(st.integers(0, k)), draw(st.integers(-1, 1))
        rows[k][: k + 1] = [c * v if j < k else 0 for v in rows[j][: k + 1]]
    scales = [draw(st.integers(-50, 50).filter(bool)) for _ in range(n + 1)]
    return rows, scales


def _units(scales, ncols):
    """Border rows with one nonzero entry each: scales[e] in column e."""
    return [[s if j == e else 0 for j in range(ncols)] for e, s in enumerate(scales)]


class TestBareissBorderRows:
    @settings(max_examples=200, deadline=None)
    @given(bordered_blocks())
    def test_border_rows_hold_the_bordered_minors(self, case):
        rows, scales = case
        n = len(rows)
        units = _units(scales, n + 1)
        border = [row[:] for row in units]
        pivots, sign = _bareiss([row[:] for row in rows], border)
        minors = [gauss_det([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)]
        # the pivots are the leading minors, through the first zero one
        stop = next((k for k, d in enumerate(minors) if d == 0), n - 1)
        assert (pivots, sign) == (minors[: stop + 1], 1)
        for k, pivot in enumerate(pivots):
            if pivot == 0:
                break
            # after step k, border row e's column k+1 is the minor of block
            # rows 0..k and unit row e over columns 0..k+1
            expected = [
                gauss_det([row[: k + 2] for row in rows[: k + 1]] + [unit[: k + 2]])
                for unit in units
            ]
            assert [row[k + 1] for row in border] == expected


@st.composite
def nested_blocks(draw, exchange=False, bump=False):
    """An integer n x (n+1) block L diag(h) U, n <= 5, and n + 1 nonzero border scales.

    L is unit lower and U unit upper triangular, and each h_l divides the
    next, as the Gaussian pivots of a polynomial-moment family do, so
    every normalised quotient is an integer.  A zero h ends the chain.
    With ``exchange`` every h is nonzero, L_{j+1,j} = 0 for some j, and
    rows j and j+1 are exchanged: the leading minors of order up to j
    stay nested, the one of order j+1 vanishes, and the square block is
    nonsingular, so a sweep with row exchanges has to exchange at step j.
    With ``bump`` the last entry of the last row gains 1: no leading
    minor of the square block changes, but that entry's quotients stop
    being exact at the first step whose divisor is not 1 or -1, after
    the rows above it have been updated in that step.
    """
    n = draw(st.integers(2 if exchange else 1, 5))
    small = st.integers(-4, 4)
    lower = [[1 if j == i else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if j == i else draw(small) if j > i else 0 for j in range(n + 1)] for i in range(n)]
    ratios = st.integers(-3, 3).filter(bool) if exchange else st.integers(-3, 3)
    h = [draw(st.integers(-3, 3).filter(bool))]
    for _ in range(n - 1):
        h.append(h[-1] * draw(ratios))
    if exchange:
        j = draw(st.integers(0, n - 2))
        lower[j + 1][j] = 0
    rows = [
        [sum(lower[i][l] * h[l] * upper[l][j] for l in range(n)) for j in range(n + 1)]
        for i in range(n)
    ]
    if exchange:
        rows[j], rows[j + 1] = rows[j + 1], rows[j]
    if bump:
        rows[-1][-1] += 1
    scales = [draw(st.integers(-50, 50).filter(bool)) for _ in range(n + 1)]
    return rows, scales


def _sweeps(rows, border=(), pivoting=False):
    """``_eliminate`` and the ``_bareiss`` oracle on copies of one block.

    Returns ((pivots, sign, border rows) of each, and the quotients that
    ``_eliminate``'s dividers rejected, each of which sent it from the
    normalised form to Bareiss).
    """
    rejected = []

    class Recording(_intkernel.ExactDivider):
        def __call__(self, v):
            try:
                return super().__call__(v)
            except ArithmeticError:
                rejected.append(v)
                raise

    m = orthocore._Packed([row[:] for row in rows], 0, [], [], [row[:] for row in border], 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_intkernel, "ExactDivider", Recording)
        got = (*orthocore._eliminate(m, pivoting), m.border)
    oracle_border = [row[:] for row in border]
    want = (*_bareiss([row[:] for row in rows], oracle_border, pivoting), oracle_border)
    return got, want, rejected


def _same_read_offs(got, want):
    """Pivots and sign agree, and so does border column k+1 wherever pivot k is nonzero."""
    assert got[:2] == want[:2]
    for k, pivot in enumerate(want[0]):
        if pivot:
            assert [row[k + 1] for row in got[2]] == [row[k + 1] for row in want[2]]


class TestNormalisedElimination:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(bordered_blocks(), nested_blocks(bump=True)))
    def test_agrees_with_bareiss(self, case):
        rows, scales = case
        got, want, _ = _sweeps(rows, _units(scales, len(rows) + 1))
        _same_read_offs(got, want)

    @settings(max_examples=200, deadline=None)
    @given(nested_blocks())
    def test_a_nested_pivot_chain_never_leaves_the_normalised_form(self, case):
        rows, scales = case
        got, want, rejected = _sweeps(rows, _units(scales, len(rows) + 1))
        assert rejected == []
        _same_read_offs(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(bordered_blocks(), nested_blocks(), nested_blocks(exchange=True)))
    def test_row_exchanges_agree_with_bareiss_and_give_the_determinant(self, case):
        # nested blocks with an exchange run normalised steps before the
        # zero pivot that sends them to Bareiss, which then exchanges rows
        rows, scales = case
        n = len(rows)
        square = [row[:n] for row in rows]
        got, want, _ = _sweeps(rows, _units(scales, n + 1), pivoting=True)
        _same_read_offs(got, want)
        got, want, _ = _sweeps(square, pivoting=True)
        _same_read_offs(got, want)
        pivots, sign, _ = got
        assert sign * pivots[-1] == gauss_det(square)

    def test_equals_the_bareiss_path_on_every_family(self):
        # the order-8 blocks hold the minors of orders 1..8 and p_1..p_8; the
        # symbolic block of every family given by a step, its rational-moment
        # ones included, stays normalised, and at q = 5/4 a block may leave
        stepped = {str(fid) for fid in registry_family_ids(include_functionals=False)}
        assert len(stepped) == 17 and {"andrews-q-catalan", "q-central-binomial"} <= stepped
        for name, seq in registry_sequences():
            for ncols in (8, 9):
                m = orthocore._packed_rows(seq, 8, ncols)
                got, want, rejected = _sweeps(m.rows, m.border)
                if name in stepped:
                    assert rejected == [], name
                _same_read_offs(got, want)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_leaves_the_normalised_form_on_lucas_functional(self, n):
        # its Schur complements are not divisible by their leading entries,
        # so the sweep goes on as Bareiss; a divider that floors instead of
        # checking would stay normalised and read off wrong minors
        m = orthocore._packed_rows(family("lucas-functional").moments, n, n + 1)
        for rows, border in ((m.rows, m.border), ([row[:n] for row in m.rows], [])):
            got, want, rejected = _sweeps(rows, border)
            assert rejected
            _same_read_offs(got, want)

    @pytest.mark.parametrize(
        "seq, det3",
        [
            (constant_moments([1, 1, 1, 2, 5, 14], "plateau"), -1),
            (family("geometric-q").specialized_moments(1), 0),
            (point_mass_at_zero(), 0),
        ],
        ids=["plateau", "geometric-q@1", "delta"],
    )
    def test_a_zero_pivot_needing_row_exchanges_falls_back(self, seq, det3):
        m = orthocore._packed_rows(seq, 3, 3)
        oracle = _bareiss([row[:] for row in m.rows])
        # without row exchanges the sweep stops at the zero pivot itself
        assert orthocore._eliminate(m) == oracle and oracle[0][-1] == 0
        m = orthocore._packed_rows(seq, 3, 3)
        oracle = _bareiss([row[:] for row in m.rows], pivoting=True)
        assert orthocore._eliminate(m, pivoting=True) == oracle
        assert hankel_direct(seq, 3) == det3


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
        lcm = _intkernel.lcm(planted)
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
        assert _intkernel.mul(_intkernel.lcm([a, b]), gcd) in (
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

    @pytest.mark.parametrize("name", ["q-factorial:m=1", ""])
    def test_the_error_survives_a_pickle_round_trip(self, name):
        err = QuasiDefinitenessError(3, name)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is QuasiDefinitenessError
        assert (back.level, back.name, str(back)) == (3, name, str(err))
        where = " of 'q-factorial:m=1'" if name else ""
        assert str(back) == f"Hankel determinant{where} of order 3 vanishes"


class TestStieltjes:
    def test_factorial_coefficients_at_one(self):
        # s = 1, 3, 5, ... and t = 1, 4, 9, ...
        table = stieltjes(family("q-factorial:m=0").specialized_moments(1), 5)
        assert list(table.s) == [1, 3, 5, 7, 9]
        assert list(table.t) == [1, 4, 9, 16]

    def test_geometric_first_step(self):
        table = stieltjes(family("geometric-q").moments, 2)
        assert table.t[0] == qr(-1, 1)

    def test_multifactorial_seed_at_one(self):
        table = stieltjes(family("multifactorial:r=2,m=1").specialized_moments(1), 2)
        assert table.s[0] == 3
        assert table.t[0] == 6

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


    @pytest.mark.parametrize("specialized", [False, True], ids=["symbolic", "at-5/4"])
    def test_eight_threads_on_a_fresh_rational_sequence(self, specialized):
        # andrews-q-catalan's denominators grow with every moment, so the
        # threads race through window rescales and the lazily built p_k
        fam = family("andrews-q-catalan")
        moments = fam.specialized_moments(Fraction(5, 4)) if specialized else fam.moments
        depth = 8 if specialized else 6

        def table_and_polys(seq):
            return stieltjes(seq, depth), [orthopoly_recur(seq, n) for n in range(depth + 1)]

        expected = table_and_polys(MomentSequence(moments.moment))
        shared = MomentSequence(moments.moment)
        results, errors = [], []

        def run(first):
            try:
                # each thread deepens in its own order, asking for p_n on the way
                for n in [*range(first, depth + 1), *range(first)]:
                    orthopoly_recur(shared, n)
                    stieltjes(shared, n)
                results.append(table_and_polys(shared))
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i % (depth + 1),)) for i in range(8)]
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
        assert results == [expected] * 8


def _counted(seq):
    """A fresh sequence over ``seq``'s moments, and the list of indices it reads."""
    reads = []

    def rule(n):
        reads.append(n)
        return seq.moment(n)

    return MomentSequence(rule, name=seq.name), reads


class TestStieltjesMomentReads:
    @pytest.mark.parametrize(
        "spec, specialized",
        [("andrews-q-catalan", False), ("q-factorial:m=1", False), ("lucas-functional", True)],
    )
    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_reads_no_moment_past_two_depth_minus_one(self, spec, specialized, depth):
        fam = family(spec)
        moments = fam.specialized_moments(Fraction(5, 4)) if specialized else fam.moments
        seq, reads = _counted(moments)
        stieltjes(seq, depth)
        assert max(reads) == max(2 * depth - 1, 0)
        orthopoly_recur(seq, depth)
        assert max(reads) == max(2 * depth - 1, 0)

    @pytest.mark.parametrize("lift", [Fraction, QRational.of], ids=["Q", "Q(q)"])
    @pytest.mark.parametrize(
        "values, level", [([1, 1, 1], 2), ([1, 0, 1, 0, 1], 3)], ids=["level-2", "level-3"]
    )
    def test_a_vanishing_norm_is_found_before_a_pole_past_it(self, lift, values, level):
        # norm_k vanishes with a(0..2k) read; a(2k+1), which s_k would need, has a pole
        def rule(n):
            if n >= len(values):
                raise PoleError(f"pole in moment {n}")
            return lift(values[n])

        with pytest.raises(QuasiDefinitenessError) as err:
            stieltjes(MomentSequence(rule, name="pole-past-the-norm"), level + 1)
        assert err.value.level == level


def _oracle_cases():
    """Every family symbolically at depth 6 and at q = 5/4, 4/5 and 9/8 at
    depth 8, and every aerated sequence at depth 7."""
    for fid in registry_family_ids():
        fam = family(str(fid))
        yield pytest.param(fam.moments, 6, id=str(fid))
        for q0 in (Fraction(5, 4), Fraction(4, 5), Fraction(9, 8)):
            yield pytest.param(fam.specialized_moments(q0), 8, id=f"{fid}@{q0}")
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

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([str(fid) for fid in registry_family_ids()]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.integers(min_value=1, max_value=6),
    )
    def test_same_outcome_at_small_rational_points(self, spec, q0, depth):
        # zero, one and negative points included: the same table and
        # polynomials, or the same exception at the same level
        seq = family(spec).specialized_moments(q0)

        def outcome(build):
            try:
                return build()
            except (QuasiDefinitenessError, PoleError) as exc:
                return type(exc), str(exc)

        def by_squares():
            s, t, norms, polys = _stieltjes_by_squares(seq, depth)
            return RecurrenceTable(s, t, norms), polys

        def cleared():
            fresh = MomentSequence(seq.moment, name=seq.name)
            return stieltjes(fresh, depth), [orthopoly_recur(fresh, n) for n in range(depth + 1)]

        assert outcome(cleared) == outcome(by_squares)

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
        assert list(tri.row(2)) == [3, 6, 1]

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
        assert hankel_product(seq, 3) == 4

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


def _quotient(p, f):
    """p / f for integer coefficient lists, f monic; None if f does not divide p."""
    p, out = p[:], [0] * (len(p) - len(f) + 1)
    for i in reversed(range(len(out))):
        out[i] = c = p[i + len(f) - 1]
        for j, fj in enumerate(f):
            p[i + j] -= c * fj
    return out if out and not any(p) else None


def _cyclotomic(limit):
    """Phi_1 .. Phi_limit: Phi_d is q^d - 1 over every Phi_e, e a proper divisor of d."""
    phi = {}
    for d in range(1, limit + 1):
        p = [-1] + [0] * (d - 1) + [1]
        for e in range(1, d):
            if d % e == 0:
                p = _quotient(p, phi[e])
        phi[d] = p
    return phi


_PHI = _cyclotomic(30)


def _non_cyclotomic(poly):
    """poly over q^e and each Phi_d, d <= 30, as often as it divides.

    Returns (integer list, denominator); the list is one constant when poly is nice.
    """
    nums, den = poly.int_parts()
    nums = nums[next(i for i, c in enumerate(nums) if c) :]
    for f in _PHI.values():
        while (q := _quotient(nums, f)) is not None:
            nums = q
    return nums, den


def _is_nice(value):
    """value is +-q^e times a quotient of products of cyclotomic Phi_d(q), d <= 30."""
    if not value:
        return False
    (n, n_den), (d, d_den) = map(_non_cyclotomic, (value.numerator, value.denominator))
    return len(n) == len(d) == 1 and abs(Fraction(n[0] * d_den, n_den * d[0])) == 1


class TestNiceForm:
    """The source paper's families have q-analogs of a "nice" form.

    Every d_k and t_k of a stepped family is +-q^e times a quotient of
    products of cyclotomic polynomials.  This shares no arithmetic with
    the elimination that gives d_k or the recurrence that gives t_k, and
    a wrong value would almost never factor this way.  The two
    functionals are outside the claim: fibonacci-functional's d_4 keeps
    a non-cyclotomic factor of degree 4, and lucas-functional's d_3 one
    of degree 3.
    """

    STEPPED = [str(f) for f in registry_family_ids(include_functionals=False)]
    OUTSIDE = {"fibonacci-functional", "lucas-functional"}

    def test_the_cyclotomic_polynomials(self):
        assert _PHI[1] == [-1, 1] and _PHI[6] == [1, -1, 1] and _PHI[12] == [1, 0, -1, 0, 1]
        for d, phi in _PHI.items():  # of degree Euler's totient of d
            assert len(phi) - 1 == sum(math.gcd(k, d) == 1 for k in range(1, d + 1))

    @pytest.mark.parametrize("fid", STEPPED)
    def test_minors_and_recurrence_are_nice(self, fid):
        moments = family(fid).moments
        assert all(map(_is_nice, hankel_minors(moments, 8)[1:]))
        assert all(map(_is_nice, stieltjes(moments, 8).t))

    @pytest.mark.parametrize(
        "fid, k, degree", [("fibonacci-functional", 4, 4), ("lucas-functional", 3, 3)]
    )
    def test_the_functionals_are_outside_the_claim(self, fid, k, degree):
        assert {str(f) for f in registry_family_ids()} - set(self.STEPPED) == self.OUTSIDE
        minors = hankel_minors(family(fid).moments, k)
        assert all(map(_is_nice, minors[1:k]))
        rest, _ = _non_cyclotomic(minors[k].numerator)
        assert len(rest) - 1 == degree and not _is_nice(minors[k])

    def test_one_perturbed_moment_is_caught(self):
        real = family("q-factorial:m=1").moments
        bumped = MomentSequence(lambda n: real.moment(n) + (1 if n == 3 else 0), name="bumped")
        assert not all(map(_is_nice, hankel_minors(bumped, 8)[1:]))
        assert not all(map(_is_nice, stieltjes(bumped, 8).t))


class TestRecurrenceTable:
    def test_depth_counts_s_entries(self):
        table = RecurrenceTable.from_st([qr(1), qr(2)], [qr(3)])
        assert table.depth == 2
        assert table.norms == (qr(1), qr(3))

    def test_from_st_in_fraction(self):
        table = RecurrenceTable.from_st([Fraction(1), Fraction(5)], [Fraction(2), Fraction(9)])
        assert table == RecurrenceTable((Fraction(1), Fraction(5)), (Fraction(2), Fraction(9)), (1, 2))
        assert type(table.norms[0]) is Fraction
        assert RecurrenceTable.from_st([], []) == RecurrenceTable((), (), ())

    def test_equal_tables_hash_equal(self):
        seq = family("q-factorial:m=1").specialized_moments(Fraction(3, 2))
        table = stieltjes(seq, 4)
        same = RecurrenceTable(table.s, table.t, table.norms)
        assert table == same and hash(table) == hash(same)
        assert len({table, same}) == 1
        assert table != RecurrenceTable(table.s, table.t, table.norms[:-1])
        assert table != (table.s, table.t, table.norms)

    def test_fields_cannot_be_assigned(self):
        table = RecurrenceTable.from_st([qr(1), qr(2)], [qr(3)])
        for name in ("s", "t", "norms"):
            with pytest.raises(AttributeError):
                setattr(table, name, ())
            with pytest.raises(AttributeError):
                delattr(table, name)
        assert table.depth == 2

    def test_repr_names_the_fields_and_pickles(self):
        table = RecurrenceTable.from_st([Fraction(1)], [])
        assert repr(table) == "RecurrenceTable(s=(Fraction(1, 1),), t=(), norms=(Fraction(1, 1),))"
        assert pickle.loads(pickle.dumps(table)) == table

    def test_triangle_type_bounds(self):
        tri = ExpansionTriangle([[QRational.one()]])
        assert tri.max_row == 0


class TestFractionField:
    """At a specialized q every construction computes in Fraction."""

    @pytest.mark.parametrize(
        "spec", ["q-double-factorial", "andrews-q-catalan", "fibonacci-functional"]
    )
    def test_values_at_five_quarters_are_fractions(self, spec):
        fam = family(spec)
        seq = fam.specialized_moments(Fraction(5, 4))
        table = stieltjes(seq, 6)
        polys = [orthopoly_recur(seq, n) for n in range(7)]
        polys += [orthopoly_det(seq, n) for n in range(7)]
        sweep_polys, sweep_dets = orthopoly_det_sweep(seq, 6)
        polys += sweep_polys + orthopoly_det_sweep(seq, 0)[0]
        tri = expansion_triangle(seq, 6)
        # the functionals' odd moments vanish, so their aerated sequences degenerate
        T = aerated_recurrence(seq.aerated(), 7) if fam.aerated_capable else stieltjes(seq, 8).t
        values = [
            *table.s,
            *table.t,
            *table.norms,
            *sweep_dets,
            *hankel_minors(seq, 6),
            *hankel_minors(seq, 0),
            *(hankel_direct(seq, n) for n in range(7)),
            *(hankel_product(seq, n) for n in range(7)),
            *(e for row in tri for e in row),
            tri.entry(1, 5),
            *T,
            *deaerate(T, 4).s,
            *deaerate(T, 4).t,
            *deaerate(T, 4).norms,
            *RecurrenceTable.from_st(table.s, table.t).norms,
            *(c for p in polys for c in p.coefficients),
        ]
        assert {type(v) for v in values} == {Fraction}

    def test_a_vanishing_minor_reads_off_as_a_fraction(self):
        seq = family("geometric-q").specialized_moments(1)
        assert [type(d) for d in hankel_minors(seq, 3)] == [Fraction] * 4
        assert hankel_direct(seq, 2) == 0


_SEQ = family("q-factorial:m=1").moments


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stieltjes(_SEQ, -1), "depth must be >= 0"),
        (lambda: orthopoly_recur(_SEQ, -1), "degree must be >= 0"),
        (lambda: orthopoly_det(_SEQ, -1), "degree must be >= 0"),
        (lambda: hankel_direct(_SEQ, -1), "order must be >= 0"),
        (lambda: hankel_product(_SEQ, -1), "order must be >= 0"),
        (lambda: expansion_triangle(_SEQ, -1), "rows must be >= 0"),
        (lambda: deaerate([1, 1, 1], 0), "depth must be >= 1"),
        (lambda: aerated_recurrence(_SEQ.aerated(), -1), "depth must be >= 0"),
        (lambda: aerated_orthopoly(_SEQ.aerated(), -1), "degree must be >= 0"),
    ],
    ids=[
        "stieltjes",
        "orthopoly_recur",
        "orthopoly_det",
        "hankel_direct",
        "hankel_product",
        "expansion_triangle",
        "deaerate",
        "aerated_recurrence",
        "aerated_orthopoly",
    ],
)
def test_a_negative_size_raises_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
