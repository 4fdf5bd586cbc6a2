"""Exact arithmetic in q: polynomials over the rationals and their fractions.

Everything is exact.  There is no floating point anywhere in this
package; scalars are ``fractions.Fraction``,
polynomials in q are :class:`QPolynomial`, and elements of the rational
function field Q(q) are :class:`QRational`, two integer coefficient
tuples in lowest terms (no common polynomial or integer factor, the
denominator's lead positive), so equal field elements compare equal
structurally.  Reduction is one cancellation through ``_intkernel.gcd``
and one division by the integer content.  ``numerator`` and
``denominator`` are views with the denominator monic.

Negation, subtraction, powers, equality, truth and ``repr`` are
written once for both, on their private base ``_Field``.

Values at a specialized q are plain ``Fraction``s, not degree-0
QRationals.  A constant QRational equals its Fraction and hashes like
it, so values of the two fields compare exactly.

>>> q = QPolynomial.variable()
>>> str((q * q - 1).divexact(q - 1))
'1 + q'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd
from math import lcm
from typing import Iterable, Union

from . import _intkernel as _k

__all__ = ["QPolynomial", "QRational", "PoleError"]


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a genuine pole."""


_Scalar = Union[int, Fraction]


class _Field:
    """The operators QPolynomial and QRational share; each keeps its own ``__hash__``."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return self._raw([-x for x in self._num], self._den)

    def __pow__(self, n: int):
        if n < 0:
            return self._reciprocal() ** -n
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


class QPolynomial(_Field):
    """A polynomial in q with rational coefficients, stored exactly.

    Internally the coefficients live as a tuple of integers over one
    shared positive integer denominator, reduced so the two have no
    common factor.  The zero polynomial is the empty tuple and has
    degree -1 (the conventional stand-in for "minus infinity").

    Instances are immutable; arithmetic returns new objects.

    >>> p = QPolynomial([1, 1]) * QPolynomial([1, 1])
    >>> p.coefficients
    (Fraction(1, 1), Fraction(2, 1), Fraction(1, 1))
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coefficients: Iterable[_Scalar] = ()):
        fracs: list[Fraction] = []
        for c in coefficients:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
            fracs.append(Fraction(c))
        den = lcm(*(f.denominator for f in fracs))
        reduced = self._raw([f.numerator * (den // f.denominator) for f in fracs], den)
        self._num, self._den = reduced._num, reduced._den

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, nums: list[int], den: int) -> "QPolynomial":
        """The polynomial nums / den, reduced: the one reducer of every constructor."""
        self = object.__new__(cls)
        nums = _k.strip(list(nums))
        if den == 0:
            raise ZeroDivisionError("zero denominator in polynomial construction")
        if den < 0:
            den, nums = -den, [-x for x in nums]
        g = _igcd(_k.content(nums), den)
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        self._num = tuple(nums)
        self._den = den if nums else 1
        return self

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls._raw([], 1)

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls._raw([1], 1)

    @classmethod
    def variable(cls) -> "QPolynomial":
        """The indeterminate q."""
        return cls._raw([0, 1], 1)

    @classmethod
    def monomial(cls, exponent: int, coefficient: _Scalar = 1) -> "QPolynomial":
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        f = Fraction(coefficient)
        return cls._raw([0] * exponent + [f.numerator], f.denominator)

    @classmethod
    def constant(cls, value: _Scalar) -> "QPolynomial":
        f = Fraction(value)
        return cls._raw([f.numerator], f.denominator)

    # -- inspection -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reporting -1."""
        return len(self._num) - 1

    @property
    def is_one(self) -> bool:
        return self._num == (1,) and self._den == 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions (empty for zero)."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    def int_parts(self) -> tuple[list[int], int]:
        """(integer coefficient list, shared denominator); list is a copy."""
        return list(self._num), self._den

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "QPolynomial | None":
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return QPolynomial.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = lcm(self._den, o._den)
        a = _k.mul_scalar(list(self._num), d // self._den)
        b = _k.mul_scalar(list(o._num), d // o._den)
        return QPolynomial._raw(_k.add(a, b), d)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QPolynomial._raw(_k.mul(list(self._num), list(o._num)), self._den * o._den)

    __rmul__ = __mul__

    def _reciprocal(self):
        raise ValueError("negative power of a polynomial")

    def divexact(self, other: "QPolynomial") -> "QPolynomial":
        """Exact quotient self / other; raises ValueError when not divisible."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("divexact needs a polynomial")
        if o.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return QPolynomial.zero()
        ca, pa = _k.primitive(list(self._num))
        cb, pb = _k.primitive(list(o._num))
        quot = _k.divexact(pa, pb)
        # self/other = (ca/da)/(cb/db) * (pa/pb)
        return QPolynomial._raw(_k.mul_scalar(quot, ca * o._den), self._den * cb)

    def inflate(self, r: int) -> "QPolynomial":
        """Substitute q -> q**r (r >= 1)."""
        if r < 1:
            raise ValueError("inflation exponent must be >= 1")
        if r == 1 or self.is_zero:
            return self
        out = [0] * (len(self._num) * r - r + 1)
        for i, c in enumerate(self._num):
            out[i * r] = c
        return QPolynomial._raw(out, self._den)

    def evaluate(self, point: _Scalar) -> Fraction:
        """Exact value at a rational point a/b, by one integer Horner.

        With degree d, the sum of c_k a^k b^(d-k) is formed over the
        integers and divided once by b^d times the shared denominator.
        """
        p = Fraction(point)
        if not self._num:
            return Fraction(0)
        a, b = p.numerator, p.denominator
        acc, bk = self._num[-1], 1
        for c in reversed(self._num[:-1]):
            bk *= b
            acc = acc * a + c * bk
        return Fraction(acc, bk * self._den)

    # -- comparisons, hashing, display ---------------------------------------

    def __hash__(self):
        # A constant equals its Fraction, so it must hash like one.
        if len(self._num) <= 1:
            return hash(Fraction(self._num[0] if self._num else 0, self._den))
        return hash((self._num, self._den))

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for k, n in enumerate(self._num):
            if n == 0:
                continue
            c = Fraction(n, self._den)
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag}{var}"
                else:
                    body = f"({mag}){var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[str]:
        """Ascending coefficients, each as a 'num/den' decimal string."""
        return [str(c) for c in self.coefficients]

    @classmethod
    def from_json(cls, data: list[str]) -> "QPolynomial":
        return cls([Fraction(s) for s in data])


def _cancel(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(a / g, b / g) for the primitive gcd g of integer polynomials; as they are if g is 1."""
    if len(a) < 2 or len(b) < 2:
        return a, b
    g = _k.gcd(a, b)
    if len(g) < 2:
        return a, b
    return _k.divexact(a, g), _k.divexact(b, g)


class QRational(_Field):
    """An element of Q(q) as a reduced fraction n / d of two integer polynomials.

    Canonical form: n and d have no common polynomial or integer factor
    and d's lead is positive, so equality is structural.  ``numerator``
    and ``denominator`` are QPolynomials with the denominator monic.
    Construct with :meth:`of`, or let the arithmetic operators reduce.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: QPolynomial, den: QPolynomial | None = None):
        if den is None:
            den = QPolynomial.one()
        if den.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        # (n / e) / (d / f) = n f / (d e)
        (n, e), (d, f) = num.int_parts(), den.int_parts()
        out = QRational._raw(*_cancel(_k.mul_scalar(n, f), _k.mul_scalar(d, e)))
        self._num, self._den = out._num, out._den

    @classmethod
    def _raw(cls, n: list[int], d: list[int]) -> "QRational":
        """n / d for coprime integer polynomials, less their common integer factor, d's lead > 0."""
        self = object.__new__(cls)
        if not n:
            self._num, self._den = (), (1,)
            return self
        g = _igcd(*n, *d)
        if d[-1] < 0:
            g = -g
        if g != 1:
            n, d = [x // g for x in n], [x // g for x in d]
        self._num, self._den = tuple(n), tuple(d)
        return self

    # -- construction ----------------------------------------------------------

    @classmethod
    def of(cls, num, den=None) -> "QRational":
        """Build from ints, Fractions, QPolynomials, or QRationals."""
        n = cls._coerce(num)
        if n is None:
            raise TypeError(f"cannot build QRational from {type(num).__name__}")
        return n if den is None else n / cls.of(den)

    @classmethod
    def zero(cls) -> "QRational":
        return cls._raw([], [1])

    @classmethod
    def one(cls) -> "QRational":
        return cls._raw([1], [1])

    @property
    def numerator(self) -> QPolynomial:
        return QPolynomial._raw(self._num, self._den[-1])

    @property
    def denominator(self) -> QPolynomial:
        return QPolynomial._raw(self._den, self._den[-1])

    @property
    def is_one(self) -> bool:
        return self._num == self._den == (1,)

    @property
    def is_polynomial(self) -> bool:
        return len(self._den) == 1

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "QRational | None":
        if isinstance(other, QRational):
            return other
        if isinstance(other, QPolynomial):
            return QRational(other)
        if isinstance(other, (int, Fraction)):
            return QRational(QPolynomial.constant(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._num:
            return o
        if not o._num:
            return self
        b, d = self._den, o._den
        b1, d1 = _cancel(b, d)
        num = _k.add(_k.mul(self._num, d1), _k.mul(o._num, b1))
        return QRational._raw(*_cancel(num, _k.mul(b1, d)))

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._num, self._den
        c, d = o._num, o._den
        if not a or not c:
            return QRational.zero()
        # Cross-cancel before multiplying; keeps intermediate degrees down.
        # Then a*c and b*d are coprime (Knuth, TAOCP vol. 2, 4.5.1): no gcd.
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return QRational._raw(_k.mul(a, c), _k.mul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        return self * QRational._raw(o._den, o._num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _reciprocal(self):
        return QRational.one() / self

    # -- evaluation and transforms ----------------------------------------------

    def eval_at(self, point: _Scalar) -> Fraction:
        """Exact value at a rational point; PoleError at a genuine pole.

        Because the fraction is reduced, a vanishing denominator cannot
        be a removable singularity.
        """
        p = Fraction(point)
        dv = QPolynomial._raw(self._den, 1).evaluate(p)
        if dv == 0:
            raise PoleError(f"pole at evaluation point q={p}")
        return QPolynomial._raw(self._num, 1).evaluate(p) / dv

    def substitute_q_reciprocal(self) -> "QRational":
        """The element r(1/q): each side read backwards is q**degree * p(1/q).

        Neither reversed side is divisible by q, so they stay coprime: no gcd.
        """
        if not self._num:
            return self
        n, d = self._num, self._den
        shift = len(d) - len(n)
        return QRational._raw(
            _k.strip([0] * shift + list(reversed(n))), _k.strip([0] * -shift + list(reversed(d)))
        )

    # -- comparisons, hashing, display -------------------------------------------

    def __hash__(self):
        # A polynomial value equals its QPolynomial, so it hashes like one.
        if len(self._den) == 1:
            return hash(QPolynomial._raw(self._num, self._den[0]))
        return hash((self._num, self._den))

    def __str__(self):
        if len(self._den) == 1:
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def to_json(self) -> dict:
        return {"num": self.numerator.to_json(), "den": self.denominator.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "QRational":
        return cls(QPolynomial.from_json(data["num"]), QPolynomial.from_json(data["den"]))
