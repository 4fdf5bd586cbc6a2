"""Orthogonal polynomials from moment sequences over Q(q).

Three independent constructions live here:

* ``stieltjes`` walks the classical bootstrap: L(p_k^2) and L(x p_k^2) give
  s_k and t_k, which give the next polynomial; as p_k is orthogonal to x^j,
  j < k, both follow exactly from L(x^k p_k) and L(x^(k+1) p_k).
* ``orthopoly_det`` builds p_n as a bordered Hankel determinant, run
  through fraction-free (Bareiss) elimination on exact integer images.
* Closed formulas for specific families are in :mod:`qortho.closedforms`.

Hankel determinants come in two flavors for cross-checking: a direct
fraction-free determinant and the product formula over the recurrence
coefficients t_j.

Determinant internals: each matrix row over Q(q) is written as integer
polynomials over integer denominators and multiplied by their lcm L_i,
the row's scale; the row is then divided by its content (the integer
gcd of its entries times their primitive gcd), and then each column by
its content.  The moments of the registry families nest (a(j) divides
every a(i+j) of q-factorial), so these row and column contents hold
most of the entries' size, and they are multiplied back, and the
scales divided out, only in the values read off at the end.  Every
entry is then evaluated at q = 2^w for a width w chosen from an
a-priori bound on all minors, and one Bareiss sweep runs on plain
Python integers.  Because the bound makes every minor's coefficient
vector recoverable from its image, the final values unpack to exact
polynomials.  Without row exchanges the sweep's pivot chain is the
chain of cleared leading minors, and after step k of the bordered sweep
of ``orthopoly_det`` border column k+1 holds the cleared d_{k+1} p_{k+1}.
So ``hankel_minors`` reads every d_k off one sweep,
``orthopoly_det_sweep`` every p_k and d_k, and ``orthopoly_det`` checks
quasi-definiteness on the way.  Each step divides exactly by the
previous pivot through one ``_intkernel.ExactDivider`` (a 2-adic
inverse with every quotient multiplied back, or ``divmod`` from CPython
3.12 on), so a division that leaves a remainder raises instead of
returning a wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import _intkernel as _k
from .exactalg import QPolynomial, QRational
from .xpoly import MomentSequence, XPolynomial, apply_functional, even_part_compress

__all__ = [
    "QuasiDefinitenessError",
    "RecurrenceTable",
    "ExpansionTriangle",
    "stieltjes",
    "orthopoly_recur",
    "orthopoly_det",
    "orthopoly_det_sweep",
    "hankel_direct",
    "hankel_minors",
    "hankel_product",
    "expansion_triangle",
    "deaerate",
    "aerated_recurrence",
    "aerated_orthopoly",
]


class QuasiDefinitenessError(ArithmeticError):
    """Some leading Hankel determinant vanishes, so the construction stops.

    ``level`` is the smallest k with det(a(i+j))_{0 <= i,j < k} = 0.
    """

    def __init__(self, level: int, name: str = ""):
        self.level = level
        self.name = name
        where = f" of {name!r}" if name else ""
        super().__init__(f"Hankel determinant{where} of order {level} vanishes")


@dataclass(frozen=True)
class RecurrenceTable:
    """Three-term recurrence data: p_{k+1} = (x - s_k) p_k - t_{k-1} p_{k-1}.

    For depth N: s has N entries, t has N - 1, norms[k] = L(p_k^2) = L(x^k p_k).
    """

    s: tuple[QRational, ...]
    t: tuple[QRational, ...]
    norms: tuple[QRational, ...]

    @property
    def depth(self) -> int:
        return len(self.s)

    @classmethod
    def from_st(cls, s: Sequence[QRational], t: Sequence[QRational]) -> "RecurrenceTable":
        """Table from coefficients alone; norms follow since L(1) = 1."""
        norms = [QRational.one()]
        for tv in t:
            norms.append(norms[-1] * tv)
        return cls(tuple(s), tuple(t), tuple(norms[: len(s)]))


class ExpansionTriangle:
    """Coefficients a(n, k) of x^n = sum_k a(n, k) p_k(x)."""

    def __init__(self, rows: Sequence[Sequence[QRational]], name: str = ""):
        self.name = name
        self._rows = tuple(tuple(r) for r in rows)

    @property
    def max_row(self) -> int:
        return len(self._rows) - 1

    def row(self, n: int) -> tuple[QRational, ...]:
        return self._rows[n]

    def entry(self, n: int, k: int) -> QRational:
        if k < 0 or k > n:
            return QRational.zero()
        return self._rows[n][k]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


# -- Stieltjes bootstrap -------------------------------------------------------


class _Recurrence:
    """``stieltjes``'s p_0..p_K, s, t and norms, kept in ``MomentSequence.recurrence``."""

    def __init__(self):
        self.p, self.s, self.t, self.norms = [XPolynomial.one()], [], [], []


def stieltjes(moments: MomentSequence, depth: int) -> RecurrenceTable:
    """Recurrence table to the given depth, built from norms.

    p_k is orthogonal to x^j for j < k and x p_k = x^(k+1) + c x^k + lower
    terms, c its x^(k-1) coefficient, so norm_k = L(p_k^2) = L(x^k p_k) and
    s_k = L(x p_k^2) / norm_k = L(x^(k+1) p_k) / norm_k + c exactly, with
    no polynomial product.  The state stays on the sequence, so deepening
    is incremental.  Raises QuasiDefinitenessError when some norm vanishes.

    >>> from qortho.momentfamilies import family
    >>> table = stieltjes(family("q-factorial:m=0").specialized_moments(1), 3)
    >>> [str(v) for v in table.s], [str(v) for v in table.t]
    (['1', '3', '5'], ['1', '4'])
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    with moments.scratch_lock:
        state = moments.recurrence = moments.recurrence or _Recurrence()
        p, s, t, norms = state.p, state.s, state.t, state.norms
        for k in range(len(s), depth):
            pk = p[k]
            xk_pk = pk.shift_x(k)
            norm_k = apply_functional(moments, xk_pk)
            if norm_k.is_zero:
                raise QuasiDefinitenessError(k + 1, moments.name)
            s_k = apply_functional(moments, xk_pk.shift_x(1)) / norm_k + pk.coefficient(k - 1)
            norms.append(norm_k)
            s.append(s_k)
            succ = pk.shift_x(1) - pk.scale(s_k)
            if k > 0:
                t_k = norm_k / norms[k - 1]
                t.append(t_k)
                succ = succ - p[k - 1].scale(t_k)
            p.append(succ)
        return RecurrenceTable(
            tuple(s[:depth]), tuple(t[: max(depth - 1, 0)]), tuple(norms[:depth])
        )


def orthopoly_recur(moments: MomentSequence, n: int) -> XPolynomial:
    """The monic orthogonal polynomial p_n via the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    with moments.scratch_lock:
        stieltjes(moments, n)
        return moments.recurrence.p[n]


# -- exact integer elimination -------------------------------------------------


def _lcm(polys: Sequence[list[int]]) -> list[int]:
    """The lcm of nonzero integer polynomials, with positive leading coefficient.

    It is the lcm of their integer contents times the lcm of their
    primitive parts; the latter grows by the quotient p / gcd(lcm, p)
    that ``divide_content`` returns for each nonconstant part p.
    """
    k, lcm = 1, [1]
    for cs in polys:
        c, p = _k.primitive(cs)
        k = k * abs(c) // math.gcd(k, c)
        if len(p) > 1:
            lcm = _k.mul(lcm, _k.divide_content([lcm, p])[1][1])
    return _k.mul_scalar(lcm, k)


def _divide_out_content(polys: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(content, [p / content for p in polys]) for integer polynomials.

    The content is their integer gcd times their primitive gcd, the h of
    ``divide_content``, or [1] if they are all zero.
    """
    g = 0
    for cs in polys:
        g = math.gcd(g, _k.content(cs))
        if g == 1:
            break
    if g == 0:
        return [1], polys
    if g > 1:
        polys = [[c // g for c in cs] for cs in polys]
    h, polys = _k.divide_content(polys)
    return _k.mul_scalar(h, g), polys


def _minor_width(nrows_total: int, maxima: Sequence[int]) -> int:
    """Packing width so every minor's coefficients unpack unambiguously.

    A k x k minor is a signed sum of at most k! products of entries, so
    its L1 norm is at most k! times the product of per-row maxima (rows
    not listed in ``maxima`` count as 1).
    """
    bound = math.factorial(nrows_total)
    for m in maxima:
        bound *= m
    return _k._width_for(bound)


@dataclass
class _Packed:
    """A Hankel block a(i+j) cleared by ``_packed_rows`` and packed at q = 2^w.

    ``scales[i]`` is L_i, the integer lcm of row i's denominators, and
    ``factors[i]`` is r_i * c_i, its row content times its column
    content, so a leading minor of order k+1 is the packed one times
    factors[0..k] over scales[0..k].  ``border[j]`` is L / c_j, the x^j
    entry of the border row, when the block has one column more than
    rows; it is empty otherwise.
    """

    rows: list[list[int]]
    w: int
    scales: list[QRational]
    factors: list[list[int]]
    border: list[list[int]]


def _packed_rows(moments: MomentSequence, nrows: int, ncols: int) -> _Packed:
    """Rows a(i+j), i < nrows, j < ncols, cleared and packed at q = 2^w.

    Row i is written over the integers as numerators n_ij over
    denominators e_ij and multiplied by L_i, the lcm of the e_ij; it is
    then divided by its content r_i, and each column by its content c_j,
    so cleared_ij = L_i * a(i+j) / (r_i * c_j).  Contents are integer
    gcds times primitive polynomial gcds, [1] for an all-zero row or
    column.  w covers every minor of an ncols x ncols matrix made of
    these rows and, when nrows < ncols, the border row L / c_j x^j
    (L the lcm of the c_j), counted at its largest L1 norm.  The
    coefficient lists are dropped on return, before any elimination
    starts.
    """
    rows: list[list[list[int]]] = []
    scales: list[QRational] = []
    row_contents: list[list[int]] = []
    for i in range(nrows):
        nums, dens = [], []
        for j in range(ncols):
            # a(i+j) = (n / a) / (d / b) = n b / (d a)
            value = moments.moment(i + j)
            n, a = value.numerator.int_parts()
            d, b = value.denominator.int_parts()
            nums.append(_k.mul_scalar(n, b) if b != 1 else n)
            dens.append(_k.mul_scalar(d, a) if a != 1 else d)
        lcm = _lcm(dens)
        if len(lcm) == 1:  # constant denominators, as at a rational q
            ints = [_k.mul_scalar(n, lcm[0] // d[0]) for n, d in zip(nums, dens)]
        else:
            ints = [_k.mul(n, _k.divexact(lcm, d)) for n, d in zip(nums, dens)]
        content, ints = _divide_out_content(ints)
        rows.append(ints)
        scales.append(QRational.of(QPolynomial(lcm)))
        row_contents.append(content)
    col_contents = []
    for j in range(ncols):
        content, column = _divide_out_content([row[j] for row in rows])
        for row, cs in zip(rows, column):
            row[j] = cs
        col_contents.append(content)
    maxima = [max((_k.l1(cs) for cs in row), default=0) or 1 for row in rows]
    border = []
    if nrows < ncols:
        lcm = _lcm(col_contents)
        border = [_k.divexact(lcm, c) for c in col_contents]
        maxima.append(max(map(_k.l1, border)))
    w = _minor_width(ncols, maxima)
    factors = [_k.mul(r, c) for r, c in zip(row_contents, col_contents)]
    packed = [[_k.pack(e, w) for e in row] for row in rows]
    return _Packed(packed, w, scales, factors, border)


def _bareiss(
    rows: list[list[int]], xcols: list[list[int]] | None = None, pivoting: bool = False
) -> tuple[list[int], int]:
    """Fraction-free elimination of ``rows`` in place, one step per row.

    Returns (pivots, sign).  Without row exchanges the pivot of step k is
    the leading (k+1)-minor of the input, and the sweep stops right
    after the first zero pivot.  With ``pivoting`` a zero pivot is
    replaced by a lower row (``sign`` records the exchanges), and the
    sweep stops after a zero pivot only when its whole column is zero.
    ``xcols``, the column-major coefficients of a symbolic border row,
    is eliminated alongside: step k writes border column k+1 for the
    last time, and it then holds the bordered minor of rows 0..k and
    columns 0..k+1.  Each step divides by the previous pivot through
    one ``ExactDivider``, which checks every quotient.  Row k is never
    read after step k, so its entries past the pivot are dropped then.
    """
    n, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    sign = 1
    div = _k.ExactDivider(1)
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
        for i in range(k + 1, n):
            row_i = rows[i]
            factor = row_i[k]
            for j in range(k + 1, ncols):
                row_i[j] = div(pivot * row_i[j] - factor * row_k[j])
            row_i[k] = 0
        if xcols is not None:
            xk = xcols[k]
            for j in range(k + 1, ncols):
                col = xcols[j]
                rkj = row_k[j]
                for e in range(len(col)):
                    col[e] = div(pivot * col[e] - xk[e] * rkj)
        del row_k[k + 1 :]
        div = _k.ExactDivider(pivot)
    return pivots, sign


def _unscale(cleared: int, m: _Packed, k: int) -> QRational:
    """A minor of the first k rows and columns, from its cleared value.

    Unpacks it, multiplies by factors[0..k-1] and divides by the row
    scales one at a time.
    """
    if cleared == 0:
        return QRational.zero()
    cs = _k.unpack(cleared, m.w)
    for f in m.factors[:k]:
        if f != [1]:
            cs = _k.mul(cs, f)
    det = QRational.of(QPolynomial(cs))
    for s in m.scales[:k]:
        det = det / s
    return det


def _border_poly(col: list[int], m: _Packed, pivot: int, k: int) -> XPolynomial:
    """p_k from border column k, which holds the cleared d_k p_k.

    The row scales and contents cancel against the pivot's, and the
    border entry L / c_k stands in for column k, so
    p_k = column / (pivot * L / c_k).  The factor that the denominator
    shares with every coefficient is taken out once, before each
    coefficient is reduced on its own.
    """
    den = _k.mul(_k.unpack(pivot, m.w), m.border[k])
    _, (den, *nums) = _k.divide_content([den] + [_k.unpack(c, m.w) for c in col[: k + 1]])
    den = QPolynomial(den)
    return XPolynomial([QRational.of(QPolynomial(num), den) for num in nums])


def _bordered_sweep(
    moments: MomentSequence, n: int
) -> tuple[_Packed, list[list[int]], list[int]]:
    """One bordered elimination of order n: (block, border columns, pivots)."""
    m = _packed_rows(moments, n, n + 1)
    # Column-major border: xcols[j][e] is the x^e coefficient of the
    # bottom-row entry in column j (initially exactly L / c_j x^j).
    xcols = [[0] * (n + 1) for _ in range(n + 1)]
    for j, b in enumerate(m.border):
        xcols[j][j] = _k.pack(b, m.w)
    pivots, _ = _bareiss(m.rows, xcols)
    m.rows = []
    return m, xcols, pivots


def orthopoly_det(moments: MomentSequence, n: int) -> XPolynomial:
    """The monic orthogonal polynomial p_n as a bordered Hankel determinant.

    The determinantal form puts the moments a(i+j) in rows 0..n-1 and
    the powers 1, x, ..., x^n in the last row; dividing the determinant
    by the order-n Hankel determinant makes the result monic.  The
    whole matrix is eliminated in one Bareiss sweep, with the symbolic
    x-row carried per power of x, so the n leading Hankel minors fall
    out as pivots and quasi-definiteness is checked on the way.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return XPolynomial.one()
    m, xcols, pivots = _bordered_sweep(moments, n)
    if pivots[-1] == 0:
        raise QuasiDefinitenessError(len(pivots), moments.name)
    return _border_poly(xcols[n], m, pivots[-1], n)


def orthopoly_det_sweep(
    moments: MomentSequence, n: int
) -> tuple[list[XPolynomial], list[QRational]]:
    """p_0, ..., p_K and d_0, ..., d_n from one bordered elimination.

    The sweep of ``orthopoly_det(moments, n)`` passes through every
    lower degree: after step k, border column k+1 holds the cleared
    d_{k+1} p_{k+1}, and the pivots are the cleared d_1, ..., d_n.  The
    polynomials stop at the last degree K whose d_K is nonzero; if
    some d_{k+1} vanishes, each higher order comes from
    ``hankel_direct`` with its row exchanges, as in ``hankel_minors``.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return [XPolynomial.one()], [QRational.one()]
    polys = [XPolynomial.one()]
    m, xcols, pivots = _bordered_sweep(moments, n)
    for k, pivot in enumerate(pivots):
        if pivot != 0:
            polys.append(_border_poly(xcols[k + 1], m, pivot, k + 1))
    return polys, _minors(moments, m, pivots, n)


def hankel_direct(moments: MomentSequence, n: int) -> QRational:
    """det(a(i+j))_{0 <= i,j < n} by fraction-free elimination.

    Row swaps keep the elimination going past zero pivots, so singular
    matrices come back as an honest 0 rather than an error.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return QRational.one()
    m = _packed_rows(moments, n, n)
    pivots, sign = _bareiss(m.rows, pivoting=True)
    return _unscale(sign * pivots[-1], m, n)


def hankel_minors(moments: MomentSequence, n: int) -> list[QRational]:
    """The Hankel determinants d_0, ..., d_n from one elimination.

    The pivots of an order-n sweep without row exchanges are the
    cleared leading minors, and the order-n width bound covers all of
    them.  If d_{k+1} vanishes the sweep stops there, and each higher
    order comes from ``hankel_direct`` with its row exchanges.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return [QRational.one()]
    m = _packed_rows(moments, n, n)
    pivots, _ = _bareiss(m.rows)
    m.rows = []  # a sweep that stopped early leaves rows the fallback does not need
    return _minors(moments, m, pivots, n)


def _minors(moments: MomentSequence, m: _Packed, pivots: list[int], n: int) -> list[QRational]:
    """d_0, ..., d_n from the pivots of a sweep without row exchanges.

    Each pivot is unscaled to its leading minor; every order past a zero
    pivot, where the sweep stopped, comes from ``hankel_direct``.
    """
    dets = [QRational.one()] + [_unscale(p, m, k + 1) for k, p in enumerate(pivots)]
    dets.extend(hankel_direct(moments, k) for k in range(len(dets), n + 1))
    return dets


def hankel_product(moments: MomentSequence, n: int) -> QRational:
    """det(a(i+j))_{0 <= i,j < n} as the product of recurrence norms.

    d_n = h_0 h_1 ... h_{n-1} with h_k = L(p_k^2) and h_0 = a(0) = 1;
    this needs the sequence to be quasi-definite through depth n, unlike
    the direct determinant.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n <= 1:
        return QRational.one()
    out = QRational.one()
    for h in stieltjes(moments, n).norms[1:]:
        out = out * h
    return out


# -- expansions ----------------------------------------------------------------


def expansion_triangle(moments: MomentSequence, rows: int) -> ExpansionTriangle:
    """Triangle of coefficients a(n, k) of x^n in the p_k basis, n <= rows.

    Built by the inverse recurrence a(n, k) = a(n-1, k-1)
    + s_k a(n-1, k) + t_k a(n-1, k+1); column 0 recovers the moments.
    """
    if rows < 0:
        raise ValueError("rows must be >= 0")
    table = stieltjes(moments, rows)
    zero = QRational.zero()
    out: list[list[QRational]] = [[QRational.one()]]
    for n in range(1, rows + 1):
        prev = out[-1]

        def at(j: int) -> QRational:
            return prev[j] if 0 <= j < n else zero

        row = []
        for k in range(n + 1):
            acc = at(k - 1)
            if k < n:
                acc = acc + table.s[k] * at(k)
            if k + 1 < n:
                acc = acc + table.t[k] * at(k + 1)
            row.append(acc)
        out.append(row)
    return ExpansionTriangle(out, name=moments.name)


# -- aeration ------------------------------------------------------------------


def deaerate(T, depth: int) -> RecurrenceTable:
    """Recurrence of the original sequence from aerated coefficients T_j.

    If the aerated (symmetric) sequence satisfies
    P_k = x P_{k-1} - T_{k-2} P_{k-2}, the base sequence satisfies the
    three-term recurrence with s_n = T_{2n-1} + T_{2n} (taking T_{-1}
    = 0) and t_n = T_{2n} T_{2n+1}.  ``T`` may be a sequence or a
    callable index -> value; depth N consumes T_0 .. T_{2N-2}.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    get: Callable[[int], QRational] = T.__getitem__ if hasattr(T, "__getitem__") else T
    lift = QRational.of
    s = [lift(get(0))]
    for i in range(1, depth):
        s.append(lift(get(2 * i - 1)) + lift(get(2 * i)))
    t = [lift(get(2 * i)) * lift(get(2 * i + 1)) for i in range(depth - 1)]
    return RecurrenceTable.from_st(s, t)


def aerated_recurrence(symmetric_moments: MomentSequence, depth: int) -> tuple[QRational, ...]:
    """Coefficients T_0 .. T_{depth-1} with P_k = x P_{k-1} - T_{k-2} P_{k-2}.

    The input must be symmetric (odd moments zero), which makes every
    s_k vanish; anything else is rejected.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    table = stieltjes(symmetric_moments, depth + 1)
    if any(not v.is_zero for v in table.s):
        raise ValueError(
            f"moment sequence {symmetric_moments.name!r} is not symmetric"
        )
    return table.t[:depth]


def aerated_orthopoly(symmetric_moments: MomentSequence, n: int) -> XPolynomial:
    """p_n of the base sequence, read off the aerated sequence.

    The degree-2n polynomial of a symmetric sequence is even, and
    substituting x^2 -> x in it gives exactly the degree-n polynomial
    of the sequence before aeration.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return XPolynomial.one()
    aerated_recurrence(symmetric_moments, 2 * n - 1)  # rejects an asymmetric sequence
    return even_part_compress(orthopoly_recur(symmetric_moments, 2 * n))
