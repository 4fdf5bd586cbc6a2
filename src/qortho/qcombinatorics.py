"""q-analog combinatorial quantities as exact polynomials in q.

The basic object is the q-bracket [n] = 1 + q + ... + q^(n-1); factorials,
binomials, double factorials, and multifactorials are built from it.  A
``base`` argument of r means the same quantity in the variable q^r, e.g.
q_bracket(3, base=2) = 1 + q^2 + q^4.

Everything returns :class:`~qortho.exactalg.QPolynomial`.  Binomials come
from the Pascal-style recurrence (memoized) rather than division, so no
rational arithmetic ever enters; the division route survives in the test
suite as a cross-check.

The closed forms are written once for either field, over an argument
``q`` that supplies these quantities: ``SYMBOLIC``, over Q(q), or a
:class:`QPoint`, at one rational point in Fraction.  ``built_at`` gives
a build's value at the point in every case: a point build that would
divide by a denominator vanishing there raises
:class:`VanishingDenominator`, and ``built_at`` alone catches it, builds
over Q(q) and evaluates that at the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .exactalg import QPolynomial, QRational
from .xpoly import XPolynomial, _value_at

__all__ = [
    "q_bracket",
    "q_factorial",
    "q_binomial",
    "q_pochhammer_signed",
    "q_double_factorial",
    "q_multifactorial",
    "q_power_binom2",
    "QPoint",
    "VanishingDenominator",
    "SYMBOLIC",
    "built_at",
]


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 1:
        raise ValueError(f"base exponent must be a positive integer, got {base!r}")


def q_bracket(n: int, base: int = 1) -> QPolynomial:
    """[n] = 1 + q^r + q^(2r) + ... + q^((n-1)r) for base r; [0] = 0.

    >>> str(q_bracket(4))
    '1 + q + q^2 + q^3'
    """
    _check_base(base)
    if n < 0:
        raise ValueError("q_bracket wants n >= 0")
    coeffs = [0] * ((n - 1) * base + 1) if n else []
    for i in range(n):
        coeffs[i * base] = 1
    return QPolynomial._raw(coeffs, 1)


@lru_cache(maxsize=None)
def _factorial_base1(n: int) -> QPolynomial:
    if n <= 1:
        return QPolynomial.one()
    return _factorial_base1(n - 1) * q_bracket(n)


def q_factorial(n: int, base: int = 1) -> QPolynomial:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    _check_base(base)
    if n < 0:
        raise ValueError("q_factorial wants n >= 0")
    return _factorial_base1(n).inflate(base)


@lru_cache(maxsize=None)
def _binomial_base1(n: int, k: int) -> QPolynomial:
    # Pascal-style: [n,k] = [n-1,k-1] + q^k * [n-1,k]
    if k == 0 or k == n:
        return QPolynomial.one()
    return _binomial_base1(n - 1, k - 1) + QPolynomial.monomial(k) * _binomial_base1(n - 1, k)


def q_binomial(n: int, k: int, base: int = 1) -> QPolynomial:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n.

    >>> str(q_binomial(4, 2))
    '1 + q + 2q^2 + q^3 + q^4'
    """
    _check_base(base)
    if n < 0:
        raise ValueError("q_binomial wants n >= 0")
    if k < 0 or k > n:
        return QPolynomial.zero()
    return _binomial_base1(n, k).inflate(base)


def q_pochhammer_signed(sign: int, power: int, length: int) -> QPolynomial:
    """prod_{j=0}^{length-1} (1 - sign * q^(power+j)).

    sign must be +1 or -1; sign=-1 gives products like (1+q)(1+q^2)...
    Empty product (length 0) is 1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if power < 0:
        raise ValueError("q_pochhammer_signed wants power >= 0")
    if length < 0:
        raise ValueError("q_pochhammer_signed wants length >= 0")
    out = QPolynomial.one()
    for j in range(length):
        out = out * (QPolynomial.one() - QPolynomial.monomial(power + j, sign))
    return out


@lru_cache(maxsize=None)
def q_double_factorial(n: int, parity: str) -> QPolynomial:
    """Double factorial of n q-brackets: odd is [1][3]...[2n-1], even is [2][4]...[2n].

    The argument n counts factors; q_double_factorial(0, parity) = 1.

    >>> q_double_factorial(3, "odd").evaluate(1)
    Fraction(15, 1)
    """
    if parity not in ("odd", "even"):
        raise ValueError("parity must be 'odd' or 'even'")
    if n < 0:
        raise ValueError("q_double_factorial wants n >= 0")
    out = QPolynomial.one()
    for j in range(1, n + 1):
        out = out * q_bracket(2 * j - 1 if parity == "odd" else 2 * j)
    return out


@lru_cache(maxsize=None)
def q_multifactorial(n: int, step: int) -> QPolynomial:
    """mf(n) = [n] * mf(n - step), with mf(n) = 1 for all n <= 1.

    So q_multifactorial(7, 3) = [7][4], and q_multifactorial(2, 3) = [2].
    """
    if step < 1:
        raise ValueError("multifactorial step must be >= 1")
    if n <= 1:
        return QPolynomial.one()
    return q_bracket(n) * q_multifactorial(n - step, step)


def q_power_binom2(n: int) -> QPolynomial:
    """The monomial q^(n(n-1)/2)."""
    if n < 0:
        raise ValueError("q_power_binom2 wants n >= 0")
    return QPolynomial.monomial(n * (n - 1) // 2)


# -- the same quantities for formulas written once for either field -----------


class VanishingDenominator(ArithmeticError):
    """A quotient built at a point has a denominator that is 0 there."""


class _Symbolic:
    """The quantities above over Q(q): QPolynomials, and a QRational per quotient."""

    one = QPolynomial.one()
    power = staticmethod(QPolynomial.monomial)
    bracket = staticmethod(q_bracket)
    binomial = staticmethod(q_binomial)
    pochhammer = staticmethod(q_pochhammer_signed)
    double_factorial = staticmethod(q_double_factorial)
    ratio = staticmethod(QRational.of)

    @staticmethod
    def signed(k: int, e: int, p: QPolynomial) -> QPolynomial:
        """(-1)^k q^e p, by one shift of p's integer coefficients."""
        nums, den = p.int_parts()
        return QPolynomial._raw([0] * e + nums, -den if k & 1 else den)


SYMBOLIC = _Symbolic()


class QPoint:
    """The quantities above at q = q0, as Fractions; the same methods as ``SYMBOLIC``.

    Each power, bracket and binomial is computed once per instance: a
    bracket as a running sum of powers of q0, a binomial by Pascal's
    rule, so nothing is divided out.  ``ratio`` raises
    VanishingDenominator where its denominator is 0 at q0.  The caches
    grow in place, so an instance serves one thread (one verification
    run or one request).
    """

    def __init__(self, q0):
        self.q0 = Fraction(q0)
        self.one = Fraction(1)
        self._powers = [self.one]
        self._brackets: dict[int, list[Fraction]] = {}
        self._binomials: dict[int, list[list[Fraction]]] = {}
        self._double_factorials: dict[str, list[Fraction]] = {}

    def power(self, e: int) -> Fraction:
        powers = self._powers
        while len(powers) <= e:
            powers.append(powers[-1] * self.q0)
        return powers[e]

    def bracket(self, n: int, base: int = 1) -> Fraction:
        """[n] at q0, as 1 + q0^r + ... + q0^((n-1)r)."""
        _check_base(base)
        if n < 0:
            raise ValueError("q_bracket wants n >= 0")
        sums = self._brackets.setdefault(base, [Fraction(0)])
        while len(sums) <= n:
            sums.append(sums[-1] + self.power(base * (len(sums) - 1)))
        return sums[n]

    def binomial(self, n: int, k: int, base: int = 1) -> Fraction:
        """[n over k] at q0, by [n, k] = [n-1, k-1] + q0^(rk) [n-1, k]."""
        _check_base(base)
        if n < 0:
            raise ValueError("q_binomial wants n >= 0")
        if k < 0 or k > n:
            return Fraction(0)
        rows = self._binomials.setdefault(base, [[self.one]])
        while len(rows) <= n:
            prev = rows[-1]
            inner = [prev[j - 1] + self.power(base * j) * prev[j] for j in range(1, len(prev))]
            rows.append([self.one, *inner, self.one])
        return rows[n][k]

    def pochhammer(self, sign: int, power: int, length: int) -> Fraction:
        """prod_{j=0}^{length-1} (1 - sign q0^(power+j))."""
        out = self.one
        for j in range(length):
            out *= self.one - sign * self.power(power + j)
        return out

    def double_factorial(self, n: int, parity: str) -> Fraction:
        """[1][3]...[2n-1] (odd) or [2][4]...[2n] (even) at q0."""
        if parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        prods = self._double_factorials.setdefault(parity, [self.one])
        while len(prods) <= n:
            j = len(prods)
            prods.append(prods[-1] * self.bracket(2 * j - 1 if parity == "odd" else 2 * j))
        return prods[n]

    def signed(self, k: int, e: int, v: Fraction) -> Fraction:
        """(-1)^k q0^e v."""
        v = self.power(e) * v
        return -v if k & 1 else v

    def ratio(self, num: Fraction, den: Fraction | None = None) -> Fraction:
        if den is None:
            return num
        if not den:
            raise VanishingDenominator(f"denominator vanishes at q={self.q0}")
        return num / den


def built_at(at: QPoint | None, build: Callable):
    """build() over Q(q) when ``at`` is None; else the value at ``at``'s point, in Fraction.

    That value is build(at), or, where a denominator of build(at)
    vanishes at the point, build() over Q(q) evaluated there.  Away from
    such denominators evaluation at the point is a ring homomorphism, so
    the two agree; the reduced symbolic value has a pole there only if
    the value truly does, and then this raises PoleError.  A build gives
    a scalar, an x-polynomial or a tuple of scalars.
    """
    if at is None:
        return build()
    try:
        return build(at)
    except VanishingDenominator:
        value = build()
    if isinstance(value, XPolynomial):
        return XPolynomial(value.evaluate_q(at.q0))
    if isinstance(value, tuple):
        return tuple(_value_at(v, at.q0) for v in value)
    return _value_at(value, at.q0)
