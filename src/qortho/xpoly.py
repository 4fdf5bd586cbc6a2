"""Polynomials in x whose coefficients live in Q(q), and moment functionals.

An :class:`XPolynomial` stores an ascending tuple of QRational
coefficients, each independently reduced; there is no shared denominator
at this level.  A :class:`MomentSequence` wraps an index -> QRational
rule with a growing cache and represents a linear functional L through
its values L(x^n).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable, Iterable

from .exactalg import QRational

__all__ = [
    "XPolynomial",
    "MomentSequence",
    "apply_functional",
    "even_part_compress",
]


class XPolynomial:
    """Polynomial in x over Q(q); immutable, trailing zeros stripped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable = ()):
        cs = [QRational.of(c) for c in coefficients]
        while cs and cs[-1].is_zero:
            cs.pop()
        self._coeffs: tuple[QRational, ...] = tuple(cs)

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
        return bool(self._coeffs) and self._coeffs[-1].is_one

    @property
    def coefficients(self) -> tuple[QRational, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> QRational:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return QRational.zero()

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
            out = [QRational.zero()] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a.is_zero:
                    continue
                for j, b in enumerate(other._coeffs):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
            return XPolynomial(out)
        try:
            s = QRational.of(other)
        except TypeError:
            return NotImplemented
        return self.scale(s)

    __rmul__ = __mul__

    def scale(self, factor) -> "XPolynomial":
        f = QRational.of(factor)
        if f.is_zero:
            return XPolynomial.zero()
        return XPolynomial([c * f for c in self._coeffs])

    def shift_x(self, k: int = 1) -> "XPolynomial":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift_x wants k >= 0")
        if self.is_zero:
            return self
        return XPolynomial([QRational.zero()] * k + list(self._coeffs))

    def evaluate_q(self, point) -> tuple[Fraction, ...]:
        """Specialize every coefficient at a rational q; may raise PoleError."""
        return tuple(c.eval_at(point) for c in self._coeffs)

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
            if c.is_zero:
                continue
            parts.append(_term_str(c, k, first=not parts))
        return " ".join(parts)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self._coeffs]

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


class MomentSequence:
    """A linear functional L presented by its moments a(n) = L(x^n).

    Values are cached; the zeroth moment must be 1 (checked eagerly).
    The cache is guarded by a lock, so instances may be shared between
    threads.
    """

    def __init__(self, rule: Callable[[int], QRational], name: str = ""):
        self._rule = rule
        self.name = name
        self._cache: list[QRational] = []
        self._lock = threading.Lock()
        self.recurrence = None  # orthocore's record, opaque here
        # Held while that record or a derived sequence is built in several
        # steps.  It is not _lock, because moment() takes _lock inside one.
        self.scratch_lock = threading.RLock()
        self._aerated: MomentSequence | None = None
        self._specialized: dict[Fraction, MomentSequence] = {}
        first = self.moment(0)
        if not first.is_one:
            raise ValueError(f"moment(0) must be 1, got {first}")

    def moment(self, n: int) -> QRational:
        if n < 0:
            raise ValueError("moment index must be >= 0")
        if n < len(self._cache):
            return self._cache[n]
        with self._lock:
            while len(self._cache) <= n:
                k = len(self._cache)
                value = self._rule(k)
                if not isinstance(value, QRational):
                    value = QRational.of(value)
                self._cache.append(value)
        return self._cache[n]

    __call__ = moment

    def specialized(self, point) -> "MomentSequence":
        """The same functional with q fixed at a rational point.

        Built once per point; every call at that point returns the same
        sequence, so its own caches are shared.
        """
        p = Fraction(point)
        with self.scratch_lock:
            if p not in self._specialized:
                self._specialized[p] = MomentSequence(
                    lambda n: QRational.of(self.moment(n).eval_at(p)),
                    name=f"{self.name}@q={p}" if self.name else f"@q={p}",
                )
            return self._specialized[p]

    def aerated(self) -> "MomentSequence":
        """Interleave zeros: A(2n) = a(n), A(2n+1) = 0.

        Built once; every call returns the same sequence, so its own
        caches (moments, recurrence tables) are shared.
        """
        with self.scratch_lock:
            if self._aerated is None:
                self._aerated = MomentSequence(
                    lambda n: self.moment(n // 2) if n % 2 == 0 else QRational.zero(),
                    name=f"{self.name}-aerated" if self.name else "aerated",
                )
            return self._aerated

    def __repr__(self):
        return f"MomentSequence({self.name or self._rule!r})"


def apply_functional(moments: MomentSequence, p: XPolynomial) -> QRational:
    """L(p) = sum coeff_k * a(k)."""
    total = QRational.zero()
    for k, c in enumerate(p.coefficients):
        if not c.is_zero:
            total = total + c * moments.moment(k)
    return total


def even_part_compress(p: XPolynomial) -> XPolynomial:
    """Substitute x^2 -> x in a polynomial that has only even powers.

    Raises ValueError when any odd-power coefficient is nonzero.
    """
    for k, c in enumerate(p.coefficients):
        if k % 2 == 1 and not c.is_zero:
            raise ValueError("polynomial is not even")
    return XPolynomial(list(p.coefficients[::2]))
