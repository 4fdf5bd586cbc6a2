"""Explicit polynomial formulas for the built-in families, plus verification.

Every function here is an independent closed form: a direct summation
formula for the monic orthogonal polynomial of some moment family, a
product identity, or a classical (q = 1) counterpart.  None of them go
through the determinant or recurrence machinery, which is exactly what
makes them useful as cross-checks.  Each sum formula states only its
term, and ``_sum_poly`` lays the terms out as one ``XPolynomial``.

Each family formula is written once, over an argument q that supplies
its brackets, binomials, Pochhammers and powers of q: ``SYMBOLIC``, over
Q(q), or a ``QPoint``, in Fraction at one rational point.  At a
specialized q, ``verify`` and the command line take each closed value at
the point from ``qcombinatorics.built_at``, which alone handles a
denominator that vanishes there.  The point quantities share no code
with the specialized moments, which multiply out (1 - q^k)/(1 - q)
themselves.

``verify_family`` runs all applicable comparisons for one family and
returns a structured report; nothing is asserted, so callers decide
what a mismatch means (the command line turns any mismatch into a
nonzero exit).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate
from typing import Callable

from ._record import Record
from .exactalg import PoleError, QPolynomial, QRational
from .momentfamilies import FamilyId, _closed, family
from .orthocore import (
    aerated_orthopoly,
    aerated_recurrence,
    deaerate,
    expansion_triangle,
    hankel_product,
    orthopoly_det_sweep,
    orthopoly_recur,
    stieltjes,
)
from .qcombinatorics import SYMBOLIC, QPoint
from .xpoly import XPolynomial, _cleared, _Window, apply_functional

__all__ = [
    "cf_qbinomial_sum",
    "cf_qbinomial_product",
    "cf_geometric_poly",
    "cf_geometric_norm",
    "cf_qlaguerre",
    "cf_multifactorial_poly",
    "cf_qhermite",
    "cf_chebU",
    "cf_chebU_rescaled",
    "cf_chebT",
    "cf_chebT_rescaled",
    "cf_qfibonacci",
    "cf_qlucas",
    "closed_polynomial",
    "classical_polynomial",
    "classical_geometric_style",
    "classical_laguerre_style",
    "classical_multifactorial_style",
    "classical_hermite_style",
    "classical_chebU_style",
    "classical_chebT_style",
    "specialize_poly",
    "VerificationEntry",
    "VerificationReport",
    "verify_family",
]


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


def _sum_poly(n: int, term: Callable[[int], object], gap: int = 1) -> XPolynomial:
    """sum_k term(k) x^(n - gap k) over 0 <= k <= n / gap.

    The terms may be QPolynomials, QRationals, ints or Fractions, and
    ``XPolynomial`` lifts them, with the zeros between them, into one field.
    """
    return XPolynomial(term((n - d) // gap) if (n - d) % gap == 0 else 0 for d in range(n + 1))


# -- product identities --------------------------------------------------------


def cf_qbinomial_sum(n: int) -> XPolynomial:
    """sum_j (-1)^j q^C(j,2) [n over j] x^j (the finite q-binomial sum)."""
    q = SYMBOLIC
    return XPolynomial(q.signed(j, _binom2(j), q.binomial(n, j)) for j in range(n + 1))


def cf_qbinomial_product(n: int) -> XPolynomial:
    """prod_{j=0}^{n-1} (1 - q^j x), the product side of the same identity."""
    out = XPolynomial.one()
    for j in range(n):
        out = out * XPolynomial([QPolynomial.one(), -QPolynomial.monomial(j)])
    return out


# -- geometric family ----------------------------------------------------------


def cf_geometric_poly(n: int, q=SYMBOLIC) -> XPolynomial:
    """p_n for moments a(k) = q^C(k,2): sum_j (-1)^j q^{(n-1)j} [n over j] x^{n-j}."""
    return _sum_poly(n, lambda j: q.signed(j, (n - 1) * j, q.binomial(n, j)))


def cf_geometric_norm(n: int, m: int, q=SYMBOLIC) -> QRational | Fraction:
    """L(x^m p_n) for the geometric family.

    Equals q^{C(n,2)+C(m,2)} prod_{i=0}^{n-1} (q^m - q^i); the factor at
    i = m makes every case m < n vanish, and m = n gives the norm.
    """
    out = q.power(_binom2(n) + _binom2(m))
    for i in range(n):
        out = out * (q.power(m) - q.power(i))
    return q.ratio(out)


# -- factorial-type families ----------------------------------------------------


def cf_qlaguerre(n: int, m: int, q=SYMBOLIC) -> XPolynomial:
    """p_n for moments [k+m]!/[m]!, the step-1 multifactorial ones.

    sum_k (-1)^k q^C(k,2) [n over k] ([n+m]!/[n-k+m]!) x^{n-k}.
    """
    return cf_multifactorial_poly(n, 1, m, q)


def cf_multifactorial_poly(n: int, r: int, m: int, q=SYMBOLIC) -> XPolynomial:
    """p_n for the step-r multifactorial moments.

    sum_k (-1)^k q^{r C(k,2)} [n over k]_{q^r} (prod_{i=n-k+1}^{n} [ri+m]) x^{n-k}.
    """
    brackets = (q.bracket(r * i + m) for i in range(n, 0, -1))
    prods = list(accumulate(brackets, operator.mul, initial=q.one))
    return _sum_poly(n, lambda k: q.signed(k, r * _binom2(k), q.binomial(n, k, base=r) * prods[k]))


def cf_qhermite(n: int, q=SYMBOLIC) -> XPolynomial:
    """p_n for moments [2k-1]!!: sum_k (-1)^k q^{k(k-1)} [2n over 2k] [2k-1]!! x^{n-k}."""
    return _sum_poly(
        n,
        lambda k: q.signed(
            k, k * (k - 1), q.binomial(2 * n, 2 * k) * q.double_factorial(k, "odd")
        ),
    )


# -- Chebyshev-type families -----------------------------------------------------


def cf_chebU(n: int, q=SYMBOLIC) -> XPolynomial:
    """Monic second-kind q-Chebyshev polynomial u_n.

    sum_j (-1)^j q^{j(j-1)} [n-j over j]_{q^2}
          x^{n-2j} / prod_{i=0}^{2j-1} (1 + q^{n-2j+1+i}).
    """
    return _sum_poly(
        n,
        lambda j: q.ratio(
            q.signed(j, j * (j - 1), q.binomial(n - j, j, base=2)),
            q.pochhammer(-1, n - 2 * j + 1, 2 * j),
        ),
        gap=2,
    )


def cf_chebU_rescaled(n: int, q=SYMBOLIC) -> XPolynomial:
    """U_n = (-q; q)_n u_n, the polynomial-coefficient normalization."""
    return cf_chebU(n, q).scale(q.ratio(q.pochhammer(-1, 1, n)))


def cf_chebT(n: int, q=SYMBOLIC) -> XPolynomial:
    """Monic first-kind q-Chebyshev polynomial t_n (t_0 = 1).

    sum_k (-1)^k q^{k(k-1)} ([n]/[n-k]) [n-k over k]
          x^{n-2k} / ((-q; q)_k (-q^{n-k}; q)_k).
    """
    if n == 0:
        return XPolynomial.one()
    return _sum_poly(
        n,
        lambda k: q.ratio(
            q.signed(k, k * (k - 1), q.bracket(n) * q.binomial(n - k, k)),
            q.bracket(n - k) * q.pochhammer(-1, 1, k) * q.pochhammer(-1, n - k, k),
        ),
        gap=2,
    )


def cf_chebT_rescaled(n: int, q=SYMBOLIC) -> XPolynomial:
    """T_n = (-q; q)_{n-1} t_n for n >= 1, with T_0 = 1."""
    if n == 0:
        return XPolynomial.one()
    return cf_chebT(n, q).scale(q.ratio(q.pochhammer(-1, 1, n - 1)))


# -- Fibonacci / Lucas type -------------------------------------------------------


def cf_qfibonacci(n: int, q=SYMBOLIC) -> XPolynomial:
    """Monic q-Fibonacci polynomial: sum_k (-1)^k q^C(k,2) [n-k over k] x^{n-2k}."""
    return _sum_poly(n, lambda k: q.signed(k, _binom2(k), q.binomial(n - k, k)), gap=2)


def cf_qlucas(n: int, q=SYMBOLIC) -> XPolynomial:
    """Monic q-Lucas polynomial (degree 0 case is 1).

    sum_k (-1)^k q^C(k,2) ([n]/[n-k]) [n-k over k] x^{n-2k}.
    """
    if n == 0:
        return XPolynomial.one()
    return _sum_poly(
        n,
        lambda k: q.ratio(
            q.signed(k, _binom2(k), q.bracket(n) * q.binomial(n - k, k)),
            q.bracket(n - k),
        ),
        gap=2,
    )


# -- per-family lookup ------------------------------------------------------------


def closed_polynomial(fid: "FamilyId | str", n: int, at: QPoint | None = None) -> XPolynomial | None:
    """The registered closed form for p_n of a family, or None.

    With ``at``, its value at that point, over Fraction, from ``built_at``,
    which raises PoleError where it has a pole.  The family table resolves
    the cf_* functions through this module's globals at call time, so tests
    can substitute a deliberately wrong formula and watch verification
    catch it; over Q(q) they are called as cf_*(n, ...), with no q argument.
    """
    return _closed(fid, "closed_poly", n, at)


# -- classical (q = 1) counterparts ------------------------------------------------


def classical_geometric_style(n: int) -> XPolynomial:
    """sum_j (-1)^j C(n,j) x^{n-j} = (x - 1)^n."""
    return _sum_poly(n, lambda j: _sign(j) * math.comb(n, j))


def classical_laguerre_style(n: int, m: int) -> XPolynomial:
    """sum_j (-1)^j C(n,j) ((n+m)!/(n-j+m)!) x^{n-j}, plain integers."""
    return classical_multifactorial_style(n, 1, m)


def classical_multifactorial_style(n: int, r: int, m: int) -> XPolynomial:
    """sum_k (-1)^k C(n,k) (prod_{i=n-k+1}^{n} (ri+m)) x^{n-k}."""
    prods = list(accumulate((r * i + m for i in range(n, 0, -1)), operator.mul, initial=1))
    return _sum_poly(n, lambda k: _sign(k) * math.comb(n, k) * prods[k])


def classical_hermite_style(n: int) -> XPolynomial:
    """sum_k (-1)^k C(2n,2k) (2k-1)!! x^{n-k}."""
    return _sum_poly(
        n, lambda k: _sign(k) * math.comb(2 * n, 2 * k) * math.prod(range(1, 2 * k, 2))
    )


def classical_chebU_style(n: int) -> XPolynomial:
    """sum_k (-1)^k C(n-k,k) 4^{-k} x^{n-2k}, monic Chebyshev of the second kind."""
    return _sum_poly(n, lambda k: Fraction(_sign(k) * math.comb(n - k, k), 4**k), gap=2)


def classical_chebT_style(n: int) -> XPolynomial:
    """sum_k (-1)^k (n/(n-k)) C(n-k,k) 4^{-k} x^{n-2k}, monic first kind."""
    if n == 0:
        return XPolynomial.one()
    return _sum_poly(
        n, lambda k: Fraction(_sign(k) * n * math.comb(n - k, k), (n - k) * 4**k), gap=2
    )


def classical_polynomial(fid: "FamilyId | str", n: int) -> XPolynomial | None:
    """The q = 1 counterpart of a family's closed form, or None."""
    return _closed(fid, "classical_poly", n)


def specialize_poly(p: XPolynomial, point) -> XPolynomial:
    """The same x-polynomial with q fixed at a rational point."""
    return XPolynomial(p.evaluate_q(point))


# -- verification ------------------------------------------------------------------


class VerificationEntry(Record):
    """One comparison: status is "match", "mismatch" or "skipped".

    ``left`` and ``right`` are the two sides as text, kept for a mismatch only.
    """

    __slots__ = ("family", "n", "check", "status", "left", "right", "note")
    _defaults = {"left": "", "right": "", "note": ""}

    def to_json(self) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "check": self.check,
            "status": self.status,
        }
        if self.status == "mismatch":
            out["left"] = self.left
            out["right"] = self.right
        if self.note:
            out["note"] = self.note
        return out


class VerificationReport(Record):
    """A family's verification: its entries in the order they were checked."""

    __slots__ = ("family", "max_n", "entries")
    _defaults = {"entries": []}

    @property
    def ok(self) -> bool:
        return all(e.status != "mismatch" for e in self.entries)

    @property
    def counts(self) -> dict[str, int]:
        out = {"match": 0, "mismatch": 0, "skipped": 0}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def mismatches(self) -> list[VerificationEntry]:
        return [e for e in self.entries if e.status == "mismatch"]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "max_n": self.max_n,
            "ok": self.ok,
            "counts": self.counts,
            "entries": [e.to_json() for e in self.entries],
        }


class _Verifier:
    """One family's verification sweep; q=None means symbolic over Q(q)."""

    def __init__(self, spec, max_n: int, q=None):
        self.fam = family(spec)
        self.max_n = max_n
        self.q = None if q is None else Fraction(q)
        self.at = None if q is None else QPoint(self.q)
        self.report = VerificationReport(str(self.fam.fid), max_n)
        self.moments = (
            self.fam.moments if self.q is None else self.fam.specialized_moments(self.q)
        )
        # held for the whole run: the sequence caches it only weakly, and two
        # checks read its Stieltjes table
        self.aerated = self.moments.aerated() if self.fam.aerated_capable else None
        # each closed value at the working point, built once, by the guard of
        # the first check that reads it, so a pole is a finding, not a crash
        self.closed_poly = cache(partial(self.fam.closed_poly, at=self.at))
        self.closed_T = cache(partial(self.fam.closed_T, at=self.at))
        self.closed_st = cache(partial(self.fam.closed_st, at=self.at))

    def _entry(self, n: int, check: str, status: str, note: str = "", left="", right=""):
        self.report.entries.append(
            VerificationEntry(self.report.family, n, check, status, left, right, note)
        )

    def _record(self, n: int, check: str, left, right):
        # only a mismatch prints its two sides, so only a mismatch keeps them
        if left == right:
            self._entry(n, check, "match")
        else:
            self._entry(n, check, "mismatch", "", str(left), str(right))

    def _guarded(self, n: int, check: str, thunk):
        try:
            left, right = thunk()
        except PoleError as exc:
            self._entry(n, check, "mismatch", f"pole: {exc}")
            return
        except ValueError as exc:
            self._entry(n, check, "mismatch", str(exc))
            return
        self._record(n, check, left, right)

    def run(self) -> VerificationReport:
        self.check_polynomial_paths()
        self.check_orthogonality()
        self.check_hankel()
        self.check_triangle()
        self.check_closed_recurrence()
        self.check_closed_aerated()
        self.check_aeration_roundtrip()
        self.check_classical_limit()
        if self.fam.has_closed_norm:
            self.check_geometric_norms()
        return self.report

    @cached_property
    def _determinants(self):
        """p_0..p_N and d_0..d_N, read off one bordered elimination."""
        return orthopoly_det_sweep(self.moments, self.max_n)

    def check_polynomial_paths(self):
        # The recurrence runs first and to full depth, so a sequence that
        # is not quasi-definite raises from it, at the same level and before
        # the elimination reads any moment the recurrence has not.
        orthopoly_recur(self.moments, self.max_n)
        dets = self._determinants[0]
        for n in range(self.max_n + 1):
            recur = orthopoly_recur(self.moments, n)
            self._record(n, "determinant-vs-recurrence", dets[n], recur)
            if not self.fam.has_closed_poly:
                self._entry(n, "closed-vs-recurrence", "skipped", "no closed form registered")
                continue
            self._guarded(
                n, "closed-vs-recurrence", lambda n_=n, r=recur: (self.closed_poly(n_), r)
            )

    def check_orthogonality(self):
        # p_n over the lcm of its denominators and the moments over theirs, so
        # each L(x^k p_n) is a dot product of numerators, tested with no reduction
        window = _Window(self.moments.ring)
        for n in range(1, self.max_n + 1):
            cs, _ = _cleared(self.moments.ring, orthopoly_recur(self.moments, n).coefficients)
            window.extend(self.moments, 2 * n - 1)
            bad = [k for k, v in enumerate(window.dots(cs, range(n))) if v]
            if not bad:
                window.extend(self.moments, 2 * n)
            # with L(x^k p_n) = 0 for k < n, the norm L(p_n^2) is L(x^n p_n)
            if bad or not window.dots(cs, [n])[0]:
                note = f"nonzero against x^k for k in {bad}" if bad else "vanishing norm"
                self._entry(n, "orthogonality", "mismatch", note)
            else:
                self._record(n, "orthogonality", "orthogonal", "orthogonal")

    def check_hankel(self):
        for n, direct in enumerate(self._determinants[1]):
            self._record(n, "hankel-two-path", direct, hankel_product(self.moments, n))

    def check_triangle(self):
        tri = expansion_triangle(self.moments, self.max_n)
        for n in range(self.max_n + 1):
            self._record(n, "triangle-moments", tri.entry(n, 0), self.moments.moment(n))

    def check_closed_recurrence(self):
        if not self.fam.has_closed_st:
            self._entry(-1, "closed-recurrence", "skipped", "no closed three-term coefficients")
            return
        table = stieltjes(self.moments, self.max_n)
        for k in range(self.max_n):
            self._guarded(
                k, "closed-recurrence-s", lambda k_=k: (self.closed_st(k_)[0], table.s[k_])
            )
            if k < self.max_n - 1:
                self._guarded(
                    k, "closed-recurrence-t", lambda k_=k: (self.closed_st(k_)[1], table.t[k_])
                )

    def check_closed_aerated(self):
        if not self.fam.has_closed_T:
            self._entry(-1, "closed-aerated-T", "skipped", "no closed aerated coefficients")
            return
        depth = 2 * self.max_n - 1 if self.max_n >= 1 else 0
        try:
            actual = aerated_recurrence(self.aerated, depth)
        except ValueError as exc:
            self._entry(-1, "aeration-symmetry", "mismatch", str(exc))
            return
        self._record(-1, "aeration-symmetry", "symmetric", "symmetric")
        for j in range(depth):
            self._guarded(j, "closed-aerated-T", lambda j_=j: (self.closed_T(j_), actual[j_]))
        if self.max_n < 1:
            return
        try:
            detab = deaerate(self.closed_T, self.max_n)
        except PoleError as exc:
            self._entry(-1, "deaerated-s", "mismatch", f"pole: {exc}")
            return
        table = stieltjes(self.moments, self.max_n)
        for k in range(self.max_n):
            self._record(k, "deaerated-s", detab.s[k], table.s[k])
            if k < self.max_n - 1:
                self._record(k, "deaerated-t", detab.t[k], table.t[k])

    def check_aeration_roundtrip(self):
        if not self.fam.aerated_capable:
            self._entry(-1, "aeration-roundtrip", "skipped", "family is not aerated")
            return
        for n in range(self.max_n // 2 + 1):
            self._guarded(
                n,
                "aeration-roundtrip",
                lambda n_=n: (
                    aerated_orthopoly(self.aerated, n_),
                    orthopoly_recur(self.moments, n_),
                ),
            )

    def check_classical_limit(self):
        if self.q is not None:
            self._entry(-1, "classical-limit", "skipped", "only meaningful symbolically")
            return
        for n in range(self.max_n + 1):
            expected = classical_polynomial(self.fam.fid, n)
            if not self.fam.has_closed_poly or expected is None:
                self._entry(n, "classical-limit", "skipped", "no closed or classical form")
                continue
            self._guarded(
                n,
                "classical-limit",
                lambda n_=n, e=expected: (specialize_poly(self.closed_poly(n_), 1), e),
            )

    def check_geometric_norms(self):
        for n in range(self.max_n + 1):
            p = orthopoly_recur(self.moments, n)
            self._guarded(
                n,
                "geometric-norm",
                lambda n_=n, p_=p: (
                    apply_functional(self.moments, p_.shift_x(n_)),
                    _closed(self.fam.fid, "closed_norm", n_, self.at),
                ),
            )


def verify_family(spec, max_n: int = 6, q=None) -> VerificationReport:
    """Cross-check one family every way it supports, up to degree max_n.

    Returns a VerificationReport whose entries record each comparison;
    quasi-definiteness failures (possible when q is specialized) raise
    through to the caller.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return _Verifier(spec, max_n, q=q).run()
