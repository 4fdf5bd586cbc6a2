"""q-analog combinatorial quantities as exact polynomials in q.

The basic object is the q-bracket [n] = 1 + q + ... + q^(n-1); factorials,
binomials, double factorials, and multifactorials are built from it.  A
``base`` argument of r means the same quantity in the variable q^r, e.g.
q_bracket(3, base=2) = 1 + q^2 + q^4.

Everything returns :class:`~qortho.exactalg.QPolynomial`.  Binomials come
from the Pascal-style recurrence (memoized) rather than division, so no
rational arithmetic ever enters; the division route survives in the test
suite as a cross-check.
"""

from __future__ import annotations

from functools import lru_cache

from .exactalg import QPolynomial

__all__ = [
    "q_bracket",
    "q_factorial",
    "q_binomial",
    "q_pochhammer_signed",
    "q_double_factorial",
    "q_multifactorial",
    "q_power_binom2",
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
