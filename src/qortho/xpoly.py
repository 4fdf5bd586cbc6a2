"""Polynomials in x over a coefficient field, and moment functionals.

The field is Q(q), with QRational coefficients, or Q when q is
specialized at a rational point, with plain Fraction coefficients.  An
:class:`XPolynomial` stores an ascending tuple of coefficients of one
field, each independently reduced; there is no shared denominator at
this level.  A :class:`MomentSequence` wraps an index -> value rule with
a growing cache and represents a linear functional L through its values
L(x^n).  Its a(0) is the field's one, and the constructions take their
zero and one from the sequence, so at a specialized q they compute in
Fraction from end to end.

Every computation that clears denominators takes its arithmetic on the
numerators from one ring, chosen once per sequence from its field and
held as ``MomentSequence.ring``: integer polynomials through
``_intkernel`` over Q(q) (``_Polys``), plain Python ints at a
specialized q (``_Ints``).  Those are the long sums of c_i a(i), in
``stieltjes`` and the orthogonality check of ``verify``, and the
cleared Hankel blocks of the determinant path.  ``_Window`` holds
a(0..m) times one common denominator, the lcm of theirs; ``_cleared``
writes a list of values over the lcm of their denominators; a sum is
then a dot product of numerators, reduced at most once.
``apply_functional``, which serves short sums, adds its terms one at a
time.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from . import _intkernel as _k
from .exactalg import QPolynomial, QRational

__all__ = [
    "Scalar",
    "XPolynomial",
    "MomentSequence",
    "apply_functional",
    "even_part_compress",
]


# A value of either coefficient field
Scalar = Union[QRational, Fraction]

_QZERO = QRational.zero()
_FZERO = Fraction(0)
_SCALARS = (int, Fraction, QPolynomial, QRational)


def _zero_like(c: Scalar) -> Scalar:
    """The zero of c's field."""
    return _QZERO if isinstance(c, QRational) else _FZERO


def _is_one(c) -> bool:
    # QRational == 1 would build a QRational for the 1 first
    return c.is_one if isinstance(c, QRational) else c == 1


def _rational(c) -> Fraction:
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class XPolynomial:
    """Polynomial in x over Q(q) or Q; immutable, trailing zeros stripped.

    A polynomial with any QRational or QPolynomial coefficient is over
    Q(q), and its other coefficients are lifted to QRational.  One whose
    coefficients are all ints and Fractions is over Q, and keeps them as
    Fractions.  Equal polynomials over the two fields compare and hash
    equal.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        cs = list(coefficients)
        kinds = set(map(type, cs))
        if QRational in kinds or QPolynomial in kinds:
            if kinds != {QRational}:
                cs = [c if isinstance(c, QRational) else QRational.of(c) for c in cs]
        elif kinds - {Fraction}:
            cs = [c if isinstance(c, Fraction) else _rational(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs: tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "XPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "XPolynomial":
        return cls([1])

    @classmethod
    def x_power(cls, n: int, coefficient=1) -> "XPolynomial":
        if n < 0:
            raise ValueError("x_power wants n >= 0")
        return cls([0] * n + [coefficient])

    @property
    def degree(self) -> int:
        """Degree in x; the zero polynomial reports -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and _is_one(self._coeffs[-1])

    @property
    def coefficients(self) -> tuple[Scalar, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return self._zero()

    def _zero(self) -> Scalar:
        """The zero of the coefficient field (Q's for the zero polynomial)."""
        return _zero_like(self._coeffs[-1]) if self._coeffs else _FZERO

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = out[i] + v
        return XPolynomial(out)

    def __neg__(self):
        return XPolynomial([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, XPolynomial):
            if self.is_zero or other.is_zero:
                return XPolynomial.zero()
            out = [self._zero()] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if not a:
                    continue
                for j, b in enumerate(other._coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return XPolynomial(out)
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> "XPolynomial":
        if not factor:
            return XPolynomial.zero()
        return XPolynomial([c * factor for c in self._coeffs])

    def shift_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift_x wants k >= 0")
        if self.is_zero:
            return self
        return XPolynomial([self._zero()] * k + list(self._coeffs))

    def evaluate_q(self, point) -> tuple[Fraction, ...]:
        """Specialize every coefficient at a rational q; may raise PoleError.

        Fraction coefficients are constant in q and stay as they are.
        """
        return tuple(_value_at(c, point) for c in self._coeffs)

    # -- comparisons, display ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"XPolynomial({self!s})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if not c:
                continue
            parts.append(_term_str(QRational.of(c), k, first=not parts))
        return " ".join(parts)

    def to_json(self) -> list[dict]:
        return [QRational.of(c).to_json() for c in self._coeffs]

    @classmethod
    def from_json(cls, data: list[dict]) -> "XPolynomial":
        return cls([QRational.from_json(d) for d in data])


def _term_str(c: QRational, k: int, first: bool) -> str:
    """One display term, descending-power convention."""
    var = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
    num = c.numerator
    single_term = c.denominator.is_one and sum(1 for v in num.coefficients if v) == 1
    if single_term:
        negative = num.leading_coefficient < 0
        mag = str(-num) if negative else str(num)
    else:
        negative = False
        mag = str(c)
    if var:
        if mag == "1":
            term = var
        elif single_term and num.degree == 0 and "/" not in mag:
            term = f"{mag}{var}"
        else:
            term = f"({mag}){var}"
    else:
        term = mag if single_term else f"({mag})"
    if first:
        return term if not negative else f"-{term}"
    return f"+ {term}" if not negative else f"- {term}"


def _in_field(value, field: type) -> Scalar:
    """value as an element of ``field``, QRational or Fraction."""
    if isinstance(value, field):
        return value
    if field is QRational:
        return QRational.of(value)
    if isinstance(value, int):
        return Fraction(value)
    r = QRational.of(value)
    if r.numerator.degree > 0 or r.denominator.degree > 0:
        raise TypeError(f"moment {r} depends on q, but the sequence is over Q")
    return r.eval_at(0)


def _value_at(value: Scalar, point: Fraction) -> Fraction:
    """value at q = point; a Fraction is constant in q."""
    return value.eval_at(point) if isinstance(value, QRational) else value


class MomentSequence:
    """A linear functional L presented by its moments a(n) = L(x^n).

    Values are cached; the zeroth moment must be 1 (checked eagerly).
    a(0) fixes the field: a Fraction gives a sequence over Q, as at a
    specialized q, and any other value one over Q(q).  Every later value
    is lifted to that field; over Q, a value that depends on q raises
    TypeError.  ``one`` is a(0) and ``zero`` the zero of its field.
    ``ring`` is the ring of the numerators that cleared computations
    work in: ``_Ints`` over Q, ``_Polys`` over Q(q).  ``at(p)``, when
    given, is the rule n -> a(n) at q = p that ``specialized`` uses in
    place of evaluating each symbolic moment.
    The cache is guarded by a lock, so instances may be shared between
    threads.
    """

    def __init__(
        self,
        rule: Callable[[int], Scalar],
        name: str = "",
        at: Callable[[Fraction], Callable[[int], Fraction]] | None = None,
    ):
        self._rule = rule
        self.name = name
        self._at = at
        self._lock = threading.Lock()
        self.recurrence = None  # orthocore's record, opaque here
        # Held while that record or a derived sequence is built in several
        # steps.  It is not _lock, because moment() takes _lock inside one.
        self.scratch_lock = threading.RLock()
        # weak, so a derived sequence and its state live only while a caller
        # holds it; each derived sequence's rule holds this one instead
        self._aerated: weakref.ref | None = None
        self._specialized = weakref.WeakValueDictionary()
        first = rule(0)
        self._field = Fraction if isinstance(first, Fraction) else QRational
        self.ring = _Ints if self._field is Fraction else _Polys
        first = _in_field(first, self._field)
        if not _is_one(first):
            raise ValueError(f"moment(0) must be 1, got {first}")
        self._cache: list[Scalar] = [first]
        self.one, self.zero = first, _zero_like(first)

    def moment(self, n: int) -> Scalar:
        if n < 0:
            raise ValueError("moment index must be >= 0")
        if n < len(self._cache):
            return self._cache[n]
        with self._lock:
            while len(self._cache) <= n:
                self._cache.append(_in_field(self._rule(len(self._cache)), self._field))
        return self._cache[n]

    __call__ = moment

    def specialized(self, point) -> "MomentSequence":
        """The same functional with q fixed at a rational point, over Q.

        Its rule is ``at(p)`` when the sequence has one; otherwise each
        value is the symbolic moment evaluated at the point.  Every call
        at that point returns the same sequence while any caller holds it,
        so its own caches are shared; once none does, it is freed.
        """
        p = Fraction(point)
        with self.scratch_lock:
            seq = self._specialized.get(p)
            if seq is None:
                seq = self._specialized[p] = MomentSequence(
                    self._at(p) if self._at else lambda n: _value_at(self.moment(n), p),
                    name=f"{self.name}@q={p}" if self.name else f"@q={p}",
                )
            return seq

    def aerated(self) -> "MomentSequence":
        """Interleave zeros: A(2n) = a(n), A(2n+1) = 0.

        Every call returns the same sequence while any caller holds it,
        so its own caches (moments, recurrence tables) are shared; once
        none does, it is freed.
        """
        with self.scratch_lock:
            seq = self._aerated and self._aerated()
            if seq is None:
                moment, zero = self.moment, self.zero
                seq = MomentSequence(
                    lambda n: moment(n // 2) if n % 2 == 0 else zero,
                    name=f"{self.name}-aerated" if self.name else "aerated",
                )
                self._aerated = weakref.ref(seq)
            return seq

    def __repr__(self):
        return f"MomentSequence({self.name or self._rule!r})"


# -- cleared arithmetic ----------------------------------------------------------


class _Polys:
    """Numerators cleared over Q(q): integer polynomials, through ``_intkernel``."""

    zero, one = [], [1]  # shared: the _intkernel routines change no input in place
    mul = staticmethod(_k.mul)
    dots = staticmethod(_k.dots)
    quo = staticmethod(_k.divexact)
    lcm = staticmethod(_k.lcm)
    height = staticmethod(_k.l1)
    pack = staticmethod(_k.pack)
    unpack = staticmethod(_k.unpack)
    primitive = staticmethod(_k.primitive_vector)

    @staticmethod
    def parts(value: QRational) -> tuple[list[int], list[int]]:
        """(numerator, denominator) of value as integer polynomials."""
        # (n / a) / (d / b) = n b / (d a)
        n, a = value.numerator.int_parts()
        d, b = value.denominator.int_parts()
        return (_k.mul_scalar(n, b) if b != 1 else n), (_k.mul_scalar(d, a) if a != 1 else d)

    @staticmethod
    def value(num: list[int], den: list[int]) -> QRational:
        return QRational(QPolynomial._raw(num, 1), QPolynomial._raw(den, 1))


class _Ints:
    """Numerators cleared at a specialized q: plain Python ints, which pack as themselves."""

    zero, one = 0, 1
    mul = staticmethod(operator.mul)
    quo = staticmethod(operator.floordiv)
    height = abs
    value = Fraction

    @staticmethod
    def dots(xs: Sequence[int], yss: Iterable[Sequence[int]]) -> list[int]:
        return [sum(map(operator.mul, xs, ys)) for ys in yss]

    @staticmethod
    def lcm(values: Sequence[int]) -> int:
        return math.lcm(*values)

    @staticmethod
    def pack(value: int, w: int) -> int:
        return value

    unpack = pack

    @staticmethod
    def primitive(values: list[int]) -> tuple[int, list[int]]:
        """(g, [v / g for v in values]), g their gcd, or 1 if they are all zero."""
        g = math.gcd(*values) or 1
        return g, ([v // g for v in values] if g > 1 else values)

    @staticmethod
    def parts(value: Fraction) -> tuple[int, int]:
        return value.numerator, value.denominator


def _cleared(ring, values: Iterable[Scalar]) -> tuple[list, object]:
    """(numerators, den): the values over the lcm of their denominators."""
    nums, dens = zip(*map(ring.parts, values))
    den = ring.lcm(dens)
    return [ring.mul(n, ring.quo(den, d)) for n, d in zip(nums, dens)], den


class _Window:
    """The moments a(0..m) of one sequence over one common denominator, as ring elements.

    ``values[j]`` is a(j) * ``den``, and ``den`` is the lcm of the
    denominators read so far.  ``extend`` reads the moments one at a
    time, so a moment that raises leaves the window as it was; when the
    lcm grows, every value held is rescaled.  A sum of c_i a(i + j)
    over one common denominator is then one of its ``dots``, with no
    reduction.  The window does not hold its sequence: each ``extend``
    is handed it, so a window kept on the sequence closes no cycle.
    """

    def __init__(self, ring):
        self.ring = ring
        self.den = ring.one
        self.values: list = []

    def extend(self, moments: MomentSequence, m: int) -> None:
        """Hold a(0..m) of ``moments``, the sequence of every earlier call."""
        ring = self.ring
        for j in range(len(self.values), m + 1):
            num, den = ring.parts(moments.moment(j))
            lcm = ring.lcm([self.den, den])
            if lcm != self.den:
                ratio = ring.quo(lcm, self.den)
                self.values = [ring.mul(v, ratio) for v in self.values]
                self.den = lcm
            self.values.append(ring.mul(num, ring.quo(lcm, den)))

    def dots(self, cs: Sequence, shifts: Iterable[int]) -> list:
        """[sum_i cs[i] a(i + j) times ``den`` for j in shifts]; the window must hold them."""
        n = len(cs)
        return self.ring.dots(cs, [self.values[j : j + n] for j in shifts])


def apply_functional(moments: MomentSequence, p: XPolynomial) -> Scalar:
    """L(p) = sum coeff_k * a(k), in the field of the moments (Q(q) if p is over it)."""
    total = moments.zero
    for k, c in enumerate(p.coefficients):
        if c:
            total = total + c * moments.moment(k)
    return total


def even_part_compress(p: XPolynomial) -> XPolynomial:
    """Substitute x^2 -> x in a polynomial that has only even powers.

    Raises ValueError when any odd-power coefficient is nonzero.
    """
    for k, c in enumerate(p.coefficients):
        if k % 2 == 1 and c:
            raise ValueError("polynomial is not even")
    return XPolynomial(list(p.coefficients[::2]))
