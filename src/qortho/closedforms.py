"""Explicit polynomial formulas for the built-in families, plus verification.

Every function here is an independent closed form: a direct summation
formula for the monic orthogonal polynomial of some moment family, a
product identity, or a classical (q = 1) counterpart.  None of them go
through the determinant or recurrence machinery, which is exactly what
makes them useful as cross-checks.

``verify_family`` runs all applicable comparisons for one family and
returns a structured report; nothing is asserted, so callers decide
what a mismatch means (the command line turns any mismatch into a
nonzero exit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exactalg import PoleError, QPolynomial, QRational
from .momentfamilies import _SPECS, FamilyId, _as_fid, family
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
from .qcombinatorics import (
    q_binomial,
    q_bracket,
    q_double_factorial,
    q_pochhammer_signed,
)
from .xpoly import XPolynomial, apply_functional

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
    "classical_fibonacci_style",
    "classical_lucas_style",
    "specialize_poly",
    "VerificationEntry",
    "VerificationReport",
    "verify_family",
]


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _mono(e: int) -> QPolynomial:
    return QPolynomial.monomial(e)


def _sign(k: int) -> int:
    return -1 if k & 1 else 1


# -- product identities --------------------------------------------------------


def cf_qbinomial_sum(n: int) -> XPolynomial:
    """sum_j (-1)^j q^C(j,2) [n over j] x^j (the finite q-binomial sum)."""
    coeffs = [
        QRational.of(q_binomial(n, j) * _mono(_binom2(j)) * _sign(j)) for j in range(n + 1)
    ]
    return XPolynomial(coeffs)


def cf_qbinomial_product(n: int) -> XPolynomial:
    """prod_{j=0}^{n-1} (1 - q^j x), the product side of the same identity."""
    out = XPolynomial.one()
    for j in range(n):
        out = out * XPolynomial([QPolynomial.one(), -_mono(j)])
    return out


# -- geometric family ----------------------------------------------------------


def cf_geometric_poly(n: int) -> XPolynomial:
    """p_n for moments a(k) = q^C(k,2): sum_j (-1)^j q^{(n-1)j} [n over j] x^{n-j}."""
    coeffs = [QRational.zero()] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = QRational.of(q_binomial(n, j) * _mono((n - 1) * j) * _sign(j))
    return XPolynomial(coeffs)


def cf_geometric_norm(n: int, m: int) -> QRational:
    """L(x^m p_n) for the geometric family.

    Equals q^{C(n,2)+C(m,2)} prod_{i=0}^{n-1} (q^m - q^i); the factor at
    i = m makes every case m < n vanish, and m = n gives the norm.
    """
    out = _mono(_binom2(n) + _binom2(m))
    for i in range(n):
        out = out * (_mono(m) - _mono(i))
    return QRational.of(out)


# -- factorial-type families ----------------------------------------------------


def cf_qlaguerre(n: int, m: int) -> XPolynomial:
    """p_n for moments [k+m]!/[m]!.

    sum_k (-1)^k q^C(k,2) [n over k] ([n+m]!/[n-k+m]!) x^{n-k}.
    """
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n + 1):
        prod = QPolynomial.one()
        for j in range(n - k + m + 1, n + m + 1):
            prod = prod * q_bracket(j)
        coeffs[n - k] = QRational.of(
            q_binomial(n, k) * _mono(_binom2(k)) * prod * _sign(k)
        )
    return XPolynomial(coeffs)


def cf_multifactorial_poly(n: int, r: int, m: int) -> XPolynomial:
    """p_n for the step-r multifactorial moments.

    sum_k (-1)^k q^{r C(k,2)} [n over k]_{q^r} (prod_{i=n-k+1}^{n} [ri+m]) x^{n-k}.
    """
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n + 1):
        prod = QPolynomial.one()
        for i in range(n - k + 1, n + 1):
            prod = prod * q_bracket(r * i + m)
        coeffs[n - k] = QRational.of(
            q_binomial(n, k, base=r) * _mono(r * _binom2(k)) * prod * _sign(k)
        )
    return XPolynomial(coeffs)


def cf_qhermite(n: int) -> XPolynomial:
    """p_n for moments [2k-1]!!: sum_k (-1)^k q^{k(k-1)} [2n over 2k] [2k-1]!! x^{n-k}."""
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = QRational.of(
            q_binomial(2 * n, 2 * k)
            * _mono(k * (k - 1))
            * q_double_factorial(k, "odd")
            * _sign(k)
        )
    return XPolynomial(coeffs)


# -- Chebyshev-type families -----------------------------------------------------


def cf_chebU(n: int) -> XPolynomial:
    """Monic second-kind q-Chebyshev polynomial u_n.

    sum_j (-1)^j q^{j(j-1)} [n-j over j]_{q^2}
          x^{n-2j} / prod_{i=0}^{2j-1} (1 + q^{n-2j+1+i}).
    """
    coeffs = [QRational.zero()] * (n + 1)
    for j in range(n // 2 + 1):
        num = q_binomial(n - j, j, base=2) * _mono(j * (j - 1))
        den = q_pochhammer_signed(-1, n - 2 * j + 1, 2 * j)
        coeffs[n - 2 * j] = QRational.of(num * _sign(j), den)
    return XPolynomial(coeffs)


def cf_chebU_rescaled(n: int) -> XPolynomial:
    """U_n = (-q; q)_n u_n, the polynomial-coefficient normalization."""
    return cf_chebU(n).scale(QRational.of(q_pochhammer_signed(-1, 1, n)))


def cf_chebT(n: int) -> XPolynomial:
    """Monic first-kind q-Chebyshev polynomial t_n (t_0 = 1).

    sum_k (-1)^k q^{k(k-1)} ([n]/[n-k]) [n-k over k]
          x^{n-2k} / ((-q; q)_k (-q^{n-k}; q)_k).
    """
    if n == 0:
        return XPolynomial.one()
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n // 2 + 1):
        num = q_bracket(n) * q_binomial(n - k, k) * _mono(k * (k - 1))
        den = (
            q_bracket(n - k)
            * q_pochhammer_signed(-1, 1, k)
            * q_pochhammer_signed(-1, n - k, k)
        )
        coeffs[n - 2 * k] = QRational.of(num * _sign(k), den)
    return XPolynomial(coeffs)


def cf_chebT_rescaled(n: int) -> XPolynomial:
    """T_n = (-q; q)_{n-1} t_n for n >= 1, with T_0 = 1."""
    if n == 0:
        return XPolynomial.one()
    return cf_chebT(n).scale(QRational.of(q_pochhammer_signed(-1, 1, n - 1)))


# -- Fibonacci / Lucas type -------------------------------------------------------


def cf_qfibonacci(n: int) -> XPolynomial:
    """Monic q-Fibonacci polynomial: sum_k (-1)^k q^C(k,2) [n-k over k] x^{n-2k}."""
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = QRational.of(
            q_binomial(n - k, k) * _mono(_binom2(k)) * _sign(k)
        )
    return XPolynomial(coeffs)


def cf_qlucas(n: int) -> XPolynomial:
    """Monic q-Lucas polynomial (degree 0 case is 1).

    sum_k (-1)^k q^C(k,2) ([n]/[n-k]) [n-k over k] x^{n-2k}.
    """
    if n == 0:
        return XPolynomial.one()
    coeffs = [QRational.zero()] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = QRational.of(
            q_bracket(n) * q_binomial(n - k, k) * _mono(_binom2(k)) * _sign(k),
            q_bracket(n - k),
        )
    return XPolynomial(coeffs)


# -- per-family lookup ------------------------------------------------------------


def closed_polynomial(fid: "FamilyId | str", n: int) -> XPolynomial | None:
    """The registered closed form for p_n of a family, or None.

    The family table resolves the cf_* functions through this module's
    globals at call time, so tests can substitute a deliberately wrong
    formula and watch verification catch it.
    """
    fid = _as_fid(fid)
    formula = _SPECS[fid.tag].closed_poly
    return None if formula is None else formula(fid, n)


# -- classical (q = 1) counterparts ------------------------------------------------


def classical_geometric_style(n: int) -> XPolynomial:
    """sum_j (-1)^j C(n,j) x^{n-j} = (x - 1)^n."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = Fraction(_sign(j) * math.comb(n, j))
    return XPolynomial(coeffs)


def classical_laguerre_style(n: int, m: int) -> XPolynomial:
    """sum_j (-1)^j C(n,j) ((n+m)!/(n-j+m)!) x^{n-j}, plain integers."""
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        prod = math.prod(range(n - j + m + 1, n + m + 1))
        coeffs[n - j] = Fraction(_sign(j) * math.comb(n, j) * prod)
    return XPolynomial(coeffs)


def classical_multifactorial_style(n: int, r: int, m: int) -> XPolynomial:
    """sum_k (-1)^k C(n,k) (prod_{i=n-k+1}^{n} (ri+m)) x^{n-k}."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        prod = math.prod(r * i + m for i in range(n - k + 1, n + 1))
        coeffs[n - k] = Fraction(_sign(k) * math.comb(n, k) * prod)
    return XPolynomial(coeffs)


def classical_hermite_style(n: int) -> XPolynomial:
    """sum_k (-1)^k C(2n,2k) (2k-1)!! x^{n-k}."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        dblfac = math.prod(range(1, 2 * k, 2))
        coeffs[n - k] = Fraction(_sign(k) * math.comb(2 * n, 2 * k) * dblfac)
    return XPolynomial(coeffs)


def classical_chebU_style(n: int) -> XPolynomial:
    """sum_k (-1)^k C(n-k,k) 4^{-k} x^{n-2k}, monic Chebyshev of the second kind."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(_sign(k) * math.comb(n - k, k), 4**k)
    return XPolynomial(coeffs)


def classical_chebT_style(n: int) -> XPolynomial:
    """sum_k (-1)^k (n/(n-k)) C(n-k,k) 4^{-k} x^{n-2k}, monic first kind."""
    if n == 0:
        return XPolynomial.one()
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(_sign(k) * n * math.comb(n - k, k), (n - k) * 4**k)
    return XPolynomial(coeffs)


def classical_fibonacci_style(n: int) -> XPolynomial:
    """sum_k (-1)^k C(n-k,k) x^{n-2k}."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(_sign(k) * math.comb(n - k, k))
    return XPolynomial(coeffs)


def classical_lucas_style(n: int) -> XPolynomial:
    """sum_k (-1)^k (n/(n-k)) C(n-k,k) x^{n-2k} (degree 0 case is 1)."""
    if n == 0:
        return XPolynomial.one()
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(_sign(k) * n * math.comb(n - k, k), n - k)
    return XPolynomial(coeffs)


def classical_polynomial(fid: "FamilyId | str", n: int) -> XPolynomial | None:
    """The q = 1 counterpart of a family's closed form, or None."""
    fid = _as_fid(fid)
    formula = _SPECS[fid.tag].classical_poly
    return None if formula is None else formula(fid, n)


def specialize_poly(p: XPolynomial, point) -> XPolynomial:
    """The same x-polynomial with q fixed at a rational point."""
    return XPolynomial(p.evaluate_q(point))


# -- verification ------------------------------------------------------------------


@dataclass
class VerificationEntry:
    family: str
    n: int
    check: str
    status: str  # "match" | "mismatch" | "skipped"
    left: str = ""
    right: str = ""
    note: str = ""

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


@dataclass
class VerificationReport:
    family: str
    max_n: int
    entries: list[VerificationEntry] = field(default_factory=list)

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
        self.report = VerificationReport(str(self.fam.fid), max_n)
        self.moments = (
            self.fam.moments if self.q is None else self.fam.specialized_moments(self.q)
        )
        self.aerated = self.moments.aerated() if self.fam.aerated_capable else None

    # closed-form values are produced symbolically and then pinned to
    # the working point, so a specialization error is a finding, not a crash
    def _rat(self, v: QRational) -> QRational:
        return v if self.q is None else QRational.of(v.eval_at(self.q))

    def _poly(self, p: XPolynomial) -> XPolynomial:
        return p if self.q is None else specialize_poly(p, self.q)

    def _record(self, n: int, check: str, left, right, note: str = ""):
        status = "match" if left == right else "mismatch"
        self.report.entries.append(
            VerificationEntry(
                self.report.family,
                n,
                check,
                status,
                left=str(left),
                right=str(right),
                note=note,
            )
        )

    def _skip(self, check: str, note: str, n: int = -1):
        self.report.entries.append(
            VerificationEntry(self.report.family, n, check, "skipped", note=note)
        )

    def _mismatch(self, n: int, check: str, note: str):
        self.report.entries.append(
            VerificationEntry(self.report.family, n, check, "mismatch", note=note)
        )

    def _guarded(self, n: int, check: str, thunk):
        try:
            left, right = thunk()
        except PoleError as exc:
            self._mismatch(n, check, f"pole: {exc}")
            return
        except ValueError as exc:
            self._mismatch(n, check, str(exc))
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
        if self.fam.tag == "geometric-q":
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
            closed = closed_polynomial(self.fam.fid, n)
            if closed is None:
                self._skip("closed-vs-recurrence", "no closed form registered", n)
                continue
            self._guarded(
                n, "closed-vs-recurrence", lambda c=closed, r=recur: (self._poly(c), r)
            )

    def check_orthogonality(self):
        for n in range(1, self.max_n + 1):
            p = orthopoly_recur(self.moments, n)
            bad = [
                k
                for k in range(n)
                if not apply_functional(self.moments, p.shift_x(k)).is_zero
            ]
            # with L(x^k p_n) = 0 for k < n, the norm L(p_n^2) is L(x^n p_n)
            if bad or apply_functional(self.moments, p.shift_x(n)).is_zero:
                note = f"nonzero against x^k for k in {bad}" if bad else "vanishing norm"
                self._mismatch(n, "orthogonality", note)
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
            self._skip("closed-recurrence", "no closed three-term coefficients")
            return
        table = stieltjes(self.moments, self.max_n)
        for k in range(self.max_n):
            s_c, t_c = self.fam.closed_st(k)
            self._guarded(k, "closed-recurrence-s", lambda v=s_c, k_=k: (self._rat(v), table.s[k_]))
            if k < self.max_n - 1:
                self._guarded(
                    k, "closed-recurrence-t", lambda v=t_c, k_=k: (self._rat(v), table.t[k_])
                )

    def check_closed_aerated(self):
        if not self.fam.has_closed_T:
            self._skip("closed-aerated-T", "no closed aerated coefficients")
            return
        depth = 2 * self.max_n - 1 if self.max_n >= 1 else 0
        try:
            actual = aerated_recurrence(self.aerated, depth)
        except ValueError as exc:
            self._mismatch(-1, "aeration-symmetry", str(exc))
            return
        self._record(-1, "aeration-symmetry", "symmetric", "symmetric")
        for j in range(depth):
            self._guarded(
                j,
                "closed-aerated-T",
                lambda j_=j: (self._rat(self.fam.closed_T(j_)), actual[j_]),
            )
        if self.max_n < 1:
            return
        try:
            detab = deaerate(lambda j: self._rat(self.fam.closed_T(j)), self.max_n)
        except PoleError as exc:
            self._mismatch(-1, "deaerated-s", f"pole: {exc}")
            return
        table = stieltjes(self.moments, self.max_n)
        for k in range(self.max_n):
            self._record(k, "deaerated-s", detab.s[k], table.s[k])
            if k < self.max_n - 1:
                self._record(k, "deaerated-t", detab.t[k], table.t[k])

    def check_aeration_roundtrip(self):
        if not self.fam.aerated_capable:
            self._skip("aeration-roundtrip", "family is not aerated")
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
            self._skip("classical-limit", "only meaningful symbolically")
            return
        for n in range(self.max_n + 1):
            closed = closed_polynomial(self.fam.fid, n)
            expected = classical_polynomial(self.fam.fid, n)
            if closed is None or expected is None:
                self._skip("classical-limit", "no closed or classical form", n)
                continue
            self._guarded(
                n,
                "classical-limit",
                lambda c=closed, e=expected: (specialize_poly(c, 1), e),
            )

    def check_geometric_norms(self):
        for n in range(self.max_n + 1):
            p = orthopoly_recur(self.moments, n)
            self._guarded(
                n,
                "geometric-norm",
                lambda n_=n, p_=p: (
                    apply_functional(self.moments, p_.shift_x(n_)),
                    self._rat(cf_geometric_norm(n_, n_)),
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
