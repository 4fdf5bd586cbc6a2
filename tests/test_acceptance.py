"""End-to-end acceptance gate.

Each test here is one acceptance criterion for the package as a whole and
prints a single verdict line (PASS or FAIL) on the terminal, bypassing
pytest's capture so the verdict survives output redirection.  The checks
cross seams on purpose: quantities are recomputed through independent code
paths (determinant against recurrence against closed form, elimination
against coefficient products, direct construction against compression of an
aerated construction) and compared with exact equality. Nothing in this file
tolerates approximation.
"""

import contextlib
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

import qortho.closedforms as closedforms
from qortho import cli
from qortho.closedforms import (
    cf_chebT,
    cf_chebT_rescaled,
    cf_chebU,
    cf_chebU_rescaled,
    cf_qbinomial_product,
    cf_qbinomial_sum,
    cf_qhermite,
    cf_qlaguerre,
    classical_chebT_style,
    classical_chebU_style,
    classical_hermite_style,
    classical_laguerre_style,
    specialize_poly,
)
from qortho.exactalg import QPolynomial, QRational
from qortho.momentfamilies import family, registry_family_ids
from qortho.orthocore import (
    aerated_orthopoly,
    aerated_recurrence,
    deaerate,
    expansion_triangle,
    hankel_direct,
    hankel_product,
    orthopoly_det,
    orthopoly_recur,
    stieltjes,
)
from qortho.qcombinatorics import (
    q_binomial,
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_pochhammer_signed,
    q_power_binom2,
)
from qortho.xpoly import XPolynomial, apply_functional


def _emit(capsys, text):
    with capsys.disabled():
        print(text)


@contextlib.contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        _emit(capsys, f"criterion {number:2d} ({label}): FAIL")
        raise
    _emit(capsys, f"criterion {number:2d} ({label}): PASS")


def binom2(n):
    return n * (n - 1) // 2


def leibniz_det(rows):
    """Permanent-style expansion determinant, independent of the library."""
    size = len(rows)
    total = Fraction(0)
    for perm in permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(size):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def degree_cap(fid):
    """Deep sweeps back off where coefficient growth is steepest."""
    if fid.tag == "multifactorial" and fid.r >= 2:
        return 6
    if fid.tag in ("andrews-q-catalan", "q-central-binomial"):
        return 6
    return 8


def test_criterion_01_three_construction_paths_agree(capsys):
    with verdict(capsys, 1, "three construction paths agree"):
        started = time.monotonic()
        for fid in registry_family_ids(include_functionals=False):
            fam = family(fid)
            for n in range(degree_cap(fid) + 1):
                by_det = orthopoly_det(fam.moments, n)
                by_recur = orthopoly_recur(fam.moments, n)
                by_closed = fam.closed_poly(n)
                assert by_closed is not None, str(fid)
                assert by_det == by_recur == by_closed, (str(fid), n)
        assert time.monotonic() - started < 180.0


def test_criterion_02_orthogonality_and_nonzero_norms(capsys):
    with verdict(capsys, 2, "orthogonality and nonzero norms"):
        for fid in registry_family_ids():
            fam = family(fid)
            for n in range(9):
                p = orthopoly_recur(fam.moments, n)
                for k in range(n):
                    assert apply_functional(fam.moments, p.shift_x(k)).is_zero, (
                        str(fid),
                        n,
                        k,
                    )
                assert not apply_functional(fam.moments, p * p).is_zero, (str(fid), n)


def test_criterion_03_hankel_determinants_via_two_paths(capsys):
    with verdict(capsys, 3, "hankel determinants via two paths"):
        for fid in registry_family_ids():
            fam = family(fid)
            for n in range(9):
                assert hankel_direct(fam.moments, n) == hankel_product(fam.moments, n), (
                    str(fid),
                    n,
                )

        # Spot values pinned by a brute-force determinant written right here.
        factorial_at_one = family("q-factorial:m=0").specialized_moments(1)
        rows = [
            [factorial_at_one.moment(i + j) for j in range(3)]
            for i in range(3)
        ]
        assert leibniz_det(rows) == Fraction(4)
        assert hankel_direct(factorial_at_one, 3) == Fraction(4)

        fibonacci_at_one = family("fibonacci-functional").specialized_moments(1)
        for n in range(7):
            rows = [
                [fibonacci_at_one.moment(i + j) for j in range(n)]
                for i in range(n)
            ]
            assert leibniz_det(rows) == Fraction(1)
            assert hankel_direct(fibonacci_at_one, n) == Fraction(1)


def test_criterion_04_geometric_family_norm_product(capsys):
    with verdict(capsys, 4, "geometric family norm product"):
        table = stieltjes(family("geometric-q").moments, 9)
        for n in range(9):
            want = QRational.of(
                q_power_binom2(n) ** 3 * QPolynomial([-1, 1]) ** n * q_factorial(n)
            )
            assert table.norms[n] == want, n


def test_criterion_05_closed_recurrence_data_matches_stieltjes(capsys):
    with verdict(capsys, 5, "closed recurrence data matches stieltjes"):
        for fid in registry_family_ids(include_functionals=False):
            fam = family(fid)
            if not (fam.has_closed_st or fam.has_closed_T or fam.aerated_capable):
                continue
            table = stieltjes(fam.moments, 9)
            if fam.has_closed_st:
                for i in range(9):
                    s_i, t_i = fam.closed_st(i)
                    assert table.s[i] == s_i, (str(fid), i)
                    if i < 8:
                        assert table.t[i] == t_i, (str(fid), i)
            if fam.has_closed_T:
                assert deaerate(fam.closed_T, 9) == table, str(fid)
            if fam.aerated_capable:
                # aerated_recurrence refuses any moment sequence whose
                # odd-level s coefficients are not identically zero, so a
                # clean return is itself the symmetry check.
                coeffs = aerated_recurrence(fam.aerated_moments, 17)
                if fam.has_closed_T:
                    for j in range(17):
                        assert coeffs[j] == fam.closed_T(j), (str(fid), j)


def test_criterion_06_aeration_round_trip(capsys):
    with verdict(capsys, 6, "aeration round trip"):
        for fid in registry_family_ids(include_functionals=False):
            fam = family(fid)
            if not fam.aerated_capable:
                continue
            for n in range(7):
                assert aerated_orthopoly(fam.aerated_moments, n) == orthopoly_recur(
                    fam.moments, n
                ), (str(fid), n)


def test_criterion_07_expansion_triangle_closed_forms(capsys):
    with verdict(capsys, 7, "expansion triangle closed forms"):
        # Factorial families: a(n, k) = [n + m]! / [k + m]! * [n over k].
        for m in range(4):
            tri = expansion_triangle(family(f"q-factorial:m={m}").moments, 6)
            for n in range(7):
                for k in range(n + 1):
                    want = QRational.of(
                        q_factorial(n + m) * q_binomial(n, k), q_factorial(k + m)
                    )
                    assert tri.entry(n, k) == want, (m, n, k)

        # Multifactorial families at q = 1: a(n, k) = C(n, k) a(n) / a(k).
        for r in (1, 2, 3):
            for m in (0, 1, 2):
                sp = family(f"multifactorial:r={r},m={m}").specialized_moments(1)
                tri = expansion_triangle(sp, 6)
                for n in range(7):
                    for k in range(n + 1):
                        want = (
                            QRational.of(QPolynomial([comb(n, k)]))
                            * sp.moment(n)
                            / sp.moment(k)
                        )
                        assert tri.entry(n, k) == want, (r, m, n, k)

        # Double-factorial family, symbolic and at q = 1.
        fam = family("q-double-factorial")
        tri = expansion_triangle(fam.moments, 6)
        for n in range(7):
            for k in range(n + 1):
                want = QRational.of(
                    q_binomial(n, k, base=2) * q_double_factorial(n, "odd"),
                    q_double_factorial(k, "odd"),
                )
                assert tri.entry(n, k) == want, (n, k)

        def odd_df(j):
            return 1 if j == 0 else (2 * j - 1) * odd_df(j - 1)

        tri_at_one = expansion_triangle(fam.specialized_moments(1), 6)
        for n in range(7):
            for k in range(n + 1):
                want = Fraction(odd_df(n), odd_df(k)) * comb(n, k)
                assert tri_at_one.entry(n, k) == want, (n, k)

        # Geometric family: a(n, k) = q^(C(n,2) - C(k,2)) * [n over k].
        tri = expansion_triangle(family("geometric-q").moments, 6)
        for n in range(7):
            for k in range(n + 1):
                want = QRational.of(
                    QPolynomial.monomial(binom2(n) - binom2(k)) * q_binomial(n, k)
                )
                assert tri.entry(n, k) == want, (n, k)


def test_criterion_08_q_series_identities(capsys):
    with verdict(capsys, 8, "q-series identities"):
        for n in range(11):
            # Quarter-Catalan moments as a single binomial quotient:
            # [2] [2n-1]!! / [2n+2]!!
            #   = [2n over n]_{q^2} / ([n+1]_{q^2} prod_{j=1}^{2n} (1 + q^j)).
            left = QRational.of(
                q_bracket(2) * q_double_factorial(n, "odd"),
                q_double_factorial(n + 1, "even"),
            )
            right = QRational.of(
                q_binomial(2 * n, n, base=2),
                q_bracket(n + 1, base=2) * q_pochhammer_signed(-1, 1, 2 * n),
            )
            assert left == right, n

            # Central-binomial moments as a double-factorial product:
            # [2n-1]!! (-q; q)_n (-q^(n+1); q)_n = [2n over n]_{q^2} [2n]!!.
            left = (
                q_double_factorial(n, "odd")
                * q_pochhammer_signed(-1, 1, n)
                * q_pochhammer_signed(-1, n + 1, n)
            )
            right = q_binomial(2 * n, n, base=2) * q_double_factorial(n, "even")
            assert left == right, n

            # Substituting 1/q into a factorial moment only shifts powers:
            # a(n; 1/q) = a(n; q) / q^(C(n,2) + m n).
            for m in range(4):
                a = family(f"q-factorial:m={m}").moments.moment(n)
                shift = QRational.of(QPolynomial.monomial(binom2(n) + m * n))
                assert a.substitute_q_reciprocal() == a / shift, (m, n)

            # Finite q-binomial theorem: alternating sum equals the product.
            assert cf_qbinomial_sum(n) == cf_qbinomial_product(n), n

            # Even-index binomials split over odd double factorials:
            # [2n over 2k] [2k-1]!! [2n-2k-1]!! = [n over k]_{q^2} [2n-1]!!.
            for k in range(n + 1):
                left = (
                    q_binomial(2 * n, 2 * k)
                    * q_double_factorial(k, "odd")
                    * q_double_factorial(n - k, "odd")
                )
                right = q_binomial(n, k, base=2) * q_double_factorial(n, "odd")
                assert left == right, (n, k)


def test_criterion_09_functional_moment_values(capsys):
    with verdict(capsys, 9, "functional moment values"):
        fibonacci = family("fibonacci-functional").moments
        lucas = family("lucas-functional").moments
        for n in range(7):
            assert fibonacci.moment(2 * n) == QRational.of(
                q_binomial(2 * n, n), q_bracket(n + 1)
            ), n
            assert lucas.moment(2 * n) == QRational.of(q_binomial(2 * n, n)), n
            assert fibonacci.moment(2 * n + 1).is_zero, n
            assert lucas.moment(2 * n + 1).is_zero, n


def test_criterion_10_rescaled_chebyshev_identities(capsys):
    with verdict(capsys, 10, "rescaled chebyshev-style identities"):
        for n in range(1, 9):
            u_factor = QRational.of(q_pochhammer_signed(-1, 1, n))
            t_factor = QRational.of(q_pochhammer_signed(-1, 1, n - 1))
            assert cf_chebU_rescaled(n) == cf_chebU(n).scale(u_factor), n
            assert cf_chebT_rescaled(n) == cf_chebT(n).scale(t_factor), n


def test_criterion_11_negative_control_trips_verification(capsys, monkeypatch):
    with verdict(capsys, 11, "negative control trips verification"):
        intact = closedforms.cf_qlaguerre

        def corrupted(n, m):
            p = intact(n, m)
            if n == 3:
                p = p + XPolynomial.one()
            return p

        monkeypatch.setattr(closedforms, "cf_qlaguerre", corrupted)
        code = cli.main(["verify", "--family", "q-factorial:m=0", "--max-n", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verification FAILED" in out
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert mismatches, out
        assert all("q-factorial:m=0" in line and "n=3" in line for line in mismatches)


def test_criterion_12_classical_limits_at_q_equals_one(capsys):
    with verdict(capsys, 12, "classical limits at q=1"):
        # specialize_poly evaluates every coefficient at the point, so a
        # vanishing denominator anywhere on these paths would raise.
        for n in range(9):
            for m in range(4):
                assert specialize_poly(cf_qlaguerre(n, m), 1) == classical_laguerre_style(
                    n, m
                ), (n, m)
            assert specialize_poly(cf_qhermite(n), 1) == classical_hermite_style(n), n
            assert specialize_poly(cf_chebU(n), 1) == classical_chebU_style(n), n
            assert specialize_poly(cf_chebT(n), 1) == classical_chebT_style(n), n
