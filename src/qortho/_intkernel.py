"""Dense integer-polynomial kernel.

Polynomials here are plain lists of Python ints, ascending by exponent,
with no guarantee about trailing zeros unless stated.  Everything in the
package that needs to be fast (multiplication, gcd, fraction-free
determinants) bottoms out in these helpers, because CPython bigint
arithmetic is the only genuinely quick exact arithmetic available.

Large multiplications use Kronecker substitution: evaluate both factors
at q = 2**w for a width w that provably bounds every coefficient of the
product, multiply once as integers, and read the coefficients back off
as balanced base-2**w digits.  Packing and unpacking are linear in the
bit length because they go through ``int.to_bytes``/``from_bytes``.
``dots`` forms several sums of products the same way, at one width,
packing each polynomial once.

Polynomial gcds come from one heuristic GCDHEU, ``divide_content``: pack
every input at the same 2**w, take one integer gcd, read it back as a
polynomial h and read the quotients off the packed values.  They are
accepted only when a norm bound proves each quotient times h equals its
input, which makes h the gcd; after a few failed widths the primitive
PRS takes over.  ``gcd`` is its two-input case.

Exact integer division by one divisor, the inner step of exact
elimination, goes through ``ExactDivider``: before CPython 3.12 it
multiplies by the divisor's 2-adic inverse and checks each quotient by
multiplying it back, unless the numerator is at least four times as
long as the divisor, where ``divmod`` with a remainder check is faster;
from 3.12 on, whose big-int division is subquadratic, it always uses
``divmod``.
"""

from __future__ import annotations

import math
import sys
from functools import reduce

# Below this many coefficients on the shorter side, schoolbook wins.
_SCHOOLBOOK_CUTOFF = 24


def strip(cs: list[int]) -> list[int]:
    """Drop trailing zero coefficients (in place is fine, return the list)."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def content(cs: list[int]) -> int:
    """gcd of all coefficients, >= 0.  Zero polynomial has content 0."""
    return reduce(math.gcd, cs, 0)


def primitive(cs: list[int]) -> tuple[int, list[int]]:
    """Split into (content-with-sign, primitive part with positive lead).

    primitive([]) is (1, []).  The returned content carries the sign of
    the leading coefficient so content * part == input.
    """
    cs = strip(list(cs))
    if not cs:
        return 1, []
    c = content(cs)
    if cs[-1] < 0:
        c = -c
    return c, [a // c for a in cs]


def add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return strip(out)


def mul_scalar(a: list[int], k: int) -> list[int]:
    if k == 0:
        return []
    return [v * k for v in a]


def _mul_schoolbook(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def pack(cs: list[int], w: int) -> int:
    """Evaluate the integer polynomial at q = 2**w.

    w must be a multiple of 8, and every coefficient below 2**(w-1) in
    absolute value.  Each coefficient is offset by 2**(w-1) to a
    nonnegative digit, so one ``to_bytes`` per coefficient serves both
    signs; the offsets are taken out again as one repeated-byte integer.
    """
    wbytes = w // 8
    half = 1 << (w - 1)
    digits = b"".join([(c + half).to_bytes(wbytes, "little") for c in cs])
    offsets = (bytes(wbytes - 1) + b"\x80") * len(cs)
    return int.from_bytes(digits, "little") - int.from_bytes(offsets, "little")


def unpack(x: int, w: int) -> list[int]:
    """Inverse of pack for results whose coefficients satisfy |c| < 2**(w-1).

    Reads balanced base-2**w digits.  w must be a multiple of 8.  As in
    pack, one repeated-byte integer adds 2**(w-1) to every digit, so each
    digit reads nonnegative with no carry; one spare digit keeps any x in
    range of ``to_bytes``.
    """
    if x == 0:
        return []
    wbytes = w // 8
    ndigits = x.bit_length() // w + 2
    offsets = (bytes(wbytes - 1) + b"\x80") * ndigits
    data = (x + int.from_bytes(offsets, "little")).to_bytes(len(offsets), "little")
    half = 1 << (w - 1)
    return strip(
        [int.from_bytes(data[i : i + wbytes], "little") - half for i in range(0, len(data), wbytes)]
    )


def _width_for(bound: int) -> int:
    """Digit width (multiple of 8) so |c| <= bound fits a balanced digit."""
    w = bound.bit_length() + 2
    return ((w + 7) // 8) * 8


def l1(cs: list[int]) -> int:
    return sum(abs(c) for c in cs)


def mul(a: list[int], b: list[int]) -> list[int]:
    """Exact product of two integer polynomials."""
    a = strip(list(a))
    b = strip(list(b))
    if not a or not b:
        return []
    if min(len(a), len(b)) <= _SCHOOLBOOK_CUTOFF:
        return strip(_mul_schoolbook(a, b))
    bound = min(len(a), len(b)) * max(abs(c) for c in a) * max(abs(c) for c in b)
    w = _width_for(bound)
    return unpack(pack(a, w) * pack(b, w), w)


def dots(xs: list[list[int]], yss: list[list[list[int]]]) -> list[list[int]]:
    """[sum x_j y_j for ys in yss] for integer polynomials, by Kronecker substitution.

    All the sums share one width, which covers every coefficient of each
    of them, so each polynomial is packed once however many sums it
    enters; the packed products are added as integers and each sum is
    unpacked once.

    >>> dots([[1, 1], [2], []], [[[1, -1], [0, 3], [5]], [[1], [], [1]]])
    [[1, 6, -1], [1, 1]]
    """
    rows = [[(x, y) for x, y in zip(xs, ys) if x and y] for ys in yss]
    distinct = {id(p): p for row in rows for pair in row for p in pair}
    height = {i: max(map(abs, p)) for i, p in distinct.items()}
    bound = max(
        (sum(min(len(x), len(y)) * height[id(x)] * height[id(y)] for x, y in row) for row in rows),
        default=0,
    )
    if not bound:
        return [[] for _ in rows]
    w = _width_for(bound)
    packed = {i: pack(p, w) for i, p in distinct.items()}
    return [unpack(sum(packed[id(x)] * packed[id(y)] for x, y in row), w) for row in rows]


class ExactDivider:
    """Exact division of integers by one fixed nonzero divisor d.

    ``_by_inverse`` uses the 2-adic inverse of d (Jebelean, J. Symb.
    Comp. 15 (1993)): with d = 2**s * u and u odd, the quotient of
    n = q*d is (n >> s) * u**-1 mod 2**K, read as a balanced value, for
    any K that covers |q|.  That costs multiplications where ``divmod``
    runs a quadratic long division.  The inverse is lifted by Newton
    iteration only as far as the largest quotient asked for so far.
    Every quotient is multiplied back, so a numerator d does not divide
    raises ArithmeticError instead of returning a wrong value.

    ``_by_divmod`` raises the same ArithmeticError on a nonzero
    remainder.  From CPython 3.12 on, ``divmod`` of big ints is
    subquadratic and faster than the 2-adic route, so every call goes
    there.  Before 3.12 each call picks its route by size (``_by_size``).
    """

    __slots__ = ("_d", "_shift", "_odd", "_odd_bits", "_inv", "_bits")

    def __init__(self, d: int):
        if d == 0:
            raise ZeroDivisionError("exact division by zero")
        self._d = d
        self._shift = (d & -d).bit_length() - 1
        self._odd = d >> self._shift
        self._odd_bits = self._odd.bit_length()
        # every odd u is its own inverse modulo 2
        self._inv = 1
        self._bits = 1

    def _lift(self, bits: int) -> None:
        """Extend the inverse of the odd part to precision 2**bits."""
        targets = []
        while bits > self._bits:
            targets.append(bits)
            bits = (bits + 1) // 2
        inv, have, odd = self._inv, self._bits, self._odd
        for b in reversed(targets):
            # odd*inv = 1 + 2**have * t, and inv*(2 - odd*inv) = inv - 2**have * inv * t,
            # so only t mod 2**(b - have) enters the correction
            low = (1 << (b - have)) - 1
            t = ((odd & ((1 << b) - 1)) * inv >> have) & low
            inv = (inv - ((inv * t & low) << have)) & ((1 << b) - 1)
            have = b
        self._inv, self._bits = inv, have

    def _by_inverse(self, n: int) -> int:
        # |q| < 2**(bits - 1), so the balanced residue mod 2**bits is q
        bits = max(n.bit_length() - self._shift - self._odd_bits + 2, 1)
        if bits > self._bits:
            self._lift(bits)
        mask = (1 << bits) - 1
        inv = self._inv if bits == self._bits else self._inv & mask
        q = ((n >> self._shift) & mask) * inv & mask
        if q >> (bits - 1):
            q -= 1 << bits
        if q * self._d != n:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q

    def _by_divmod(self, n: int) -> int:
        q, r = divmod(n, self._d)
        if r:
            raise ArithmeticError("inexact division in fraction-free elimination")
        return q

    def _by_size(self, n: int) -> int:
        # The 2-adic route multiplies numbers as long as the quotient, and
        # quadratic long division costs the quotient's length times the
        # divisor's; measured on CPython 3.11, divmod is faster once the
        # numerator is four times as long as the divisor.
        if n.bit_length() >= 4 * (self._shift + self._odd_bits):
            return self._by_divmod(n)
        return self._by_inverse(n)

    __call__ = _by_divmod if sys.version_info >= (3, 12) else _by_size


def divexact(f: list[int], g: list[int]) -> list[int]:
    """Quotient f // g when g divides f exactly over the integers.

    Raises ValueError when any division step leaves a remainder; callers
    rely on that as an internal consistency check.
    """
    f = strip(list(f))
    g = strip(list(g))
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return []
    if len(f) < len(g):
        raise ValueError("inexact polynomial division")
    lg = g[-1]
    q = [0] * (len(f) - len(g) + 1)
    r = list(f)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + len(g) - 1]
        if top % lg:
            raise ValueError("inexact polynomial division")
        c = top // lg
        q[k] = c
        if c:
            for i, gc in enumerate(g):
                r[k + i] -= c * gc
    if any(r):
        raise ValueError("inexact polynomial division")
    return strip(q)


def _prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder: repeatedly scale by lead(g) and cancel the top term."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg and r:
        c = r[-1]
        k = len(r) - 1 - dg
        r = [lg * a for a in r]
        for i, gc in enumerate(g):
            r[k + i] -= c * gc
        r.pop()
        strip(r)
    return r


def _gcd_prs(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of primitive nonzero f, g by the primitive PRS."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g)
        f, g = g, primitive(r)[1]
    return f


# Evaluation widths tried by GCDHEU: the first, then this many doublings.
_GCDHEU_RETRIES = 3


def divide_content(polys: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(h, [p / h for p in polys]) for the primitive gcd h of integer polynomials.

    GCDHEU over all of them at once: evaluate each at q = 2^w, with w
    covering every coefficient (so 2^w > 4 max|p| clears the GCDHEU
    bound 2 min|p| + 2), take one integer gcd and read its primitive
    part h back.  Each quotient is the exact integer quotient
    of the values, through one ``ExactDivider``, read back as digits.
    They are accepted only when max|quotient| * |h|_1 < 2^(w-1): then
    quotient * h and p both have coefficients below 2^(w-1) and agree
    at 2^w, so they are equal, and h is the gcd (Char, Geddes & Gonnet
    1989).  After ``_GCDHEU_RETRIES`` doublings of w, the primitive PRS
    and schoolbook division take over.  A nonzero constant among them,
    or all of them zero, gives h = [1] at once, so a matrix of constants
    costs no polynomial gcd at all.

    >>> divide_content([[-1, 0, 1], [], [1, 2, 1]])
    ([1, 1], [[-1, 1], [], [1, 1]])
    """
    nonzero = [cs for cs in polys if cs]
    if not nonzero or any(len(cs) == 1 for cs in nonzero):
        return [1], polys
    w = _width_for(max(max(map(abs, cs)) for cs in nonzero))
    for _ in range(_GCDHEU_RETRIES + 1):
        values = [pack(cs, w) for cs in polys]
        # smallest first, so every later gcd step reduces a big value by a small one
        _, h = primitive(unpack(math.gcd(*sorted(values, key=abs)), w))
        if len(h) == 1:
            return [1], polys
        div, norm, half = ExactDivider(pack(h, w)), l1(h), 1 << (w - 1)
        try:
            quotients = [unpack(div(v), w) for v in values]
        except ArithmeticError:
            pass
        else:
            if all(not cs or max(map(abs, cs)) * norm < half for cs in quotients):
                return h, quotients
        w *= 2
    h = reduce(_gcd_prs, [primitive(cs)[1] for cs in nonzero])
    return h, [divexact(cs, h) for cs in polys]


def primitive_vector(polys: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(content, [p / content for p in polys]) for integer polynomials.

    The content is their integer gcd times their primitive gcd, the h of
    ``divide_content``, or [1] if they are all zero.
    """
    g = 0
    for cs in polys:
        g = math.gcd(g, content(cs))
        if g == 1:
            break
    if g == 0:
        return [1], polys
    if g > 1:
        polys = [[c // g for c in cs] for cs in polys]
    h, polys = divide_content(polys)
    return mul_scalar(h, g), polys


def lcm(polys: list[list[int]]) -> list[int]:
    """The lcm of nonzero integer polynomials, with positive leading coefficient.

    It is the lcm of their integer contents times the lcm of their
    primitive parts.  The parts are taken largest first, and one that
    divides the lcm so far leaves it as it is; only another one costs a
    gcd, and the lcm grows by the quotient p / gcd(lcm, p) that
    ``divide_content`` returns.  On the rational-moment families each
    denominator divides the next, so a row's lcm is its last one.
    """
    k, out = 1, [1]
    for cs in sorted(polys, key=len, reverse=True):
        c, p = primitive(cs)
        k = k * abs(c) // math.gcd(k, c)
        if len(p) > 1:
            try:
                divexact(out, p)
            except ValueError:
                out = mul(out, divide_content([out, p])[1][1])
    return mul_scalar(out, k)


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient: ``divide_content``'s h."""
    _, f = primitive(a)
    _, g = primitive(b)
    if not f:
        return g
    if not g:
        return f
    if len(f) == 1 or len(g) == 1:
        return [1]
    return divide_content([f, g])[0]
