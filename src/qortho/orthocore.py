"""Orthogonal polynomials from moment sequences over Q(q) or Q.

Every construction computes in the field of its moment sequence: Q(q),
with QRational values, or Q at a specialized q, with Fraction values.
Each takes its zero and one from the sequence (a(0) is the field's
one), so at a specialized q they never build a QRational.

Three independent constructions live here:

* ``stieltjes`` walks the classical bootstrap: L(p_k^2) and L(x p_k^2) give
  s_k and t_k, which give the next polynomial; as p_k is orthogonal to x^j,
  j < k, both follow exactly from L(x^k p_k) and L(x^(k+1) p_k).  It runs
  on cleared numerators: the moment window a(0..2k+1) over one common
  denominator (the lcm of theirs, rescaled when it grows), and p_k as a
  vector P_k with no content over its leading entry, so those two values
  are dot products of numerators, and s_k, t_k and norm_k are each
  reduced once.  The numerators are integer polynomials over Q(q) and
  plain ints at a specialized q; one loop serves both.
* ``orthopoly_det`` builds p_n as a bordered Hankel determinant, run
  through one fraction-free elimination of the Hankel matrix on exact
  integer images, in LDL^T form while its quotients are exact.
* Closed formulas for specific families are in :mod:`qortho.closedforms`.

Hankel determinants come in two flavors for cross-checking: a direct
fraction-free determinant and the product formula over the recurrence
coefficients t_j.

Determinant internals: the Hankel block is scaled as a congruence
U H U, U = diag(u_j) with u_j the lcm of the integer denominators of
a(0..2j), so u_i u_j a(i+j) is an integer polynomial and the block keeps
its LDL^T factorisation; then each row is divided by its content (the
integer gcd of its entries times their primitive gcd), and then each
column by its content.  The moments of the registry families nest (a(j)
divides every a(i+j) of q-factorial), so these row and column contents
hold most of the entries' size, and they are multiplied back, and the
scales u_i^2 divided out, only in the values read off at the end.  Every
entry is then evaluated at q = 2^w for a width w chosen from an
a-priori bound on all minors, and one sweep runs on plain Python
integers.  Because the bound makes every minor's coefficient vector
recoverable from its image, the final values unpack to exact
polynomials.  Without row exchanges the sweep's pivot chain is the
chain of cleared leading minors.  The bordered sweep of
``orthopoly_det`` writes the symbolic last row as n + 1 border rows,
row e holding its x^e coefficients, which the sweep eliminates like
the block rows but never pivots on; after step k their column k+1
holds the cleared d_{k+1} p_{k+1}.  So ``hankel_minors`` reads every
d_k off one sweep, ``orthopoly_det_sweep`` every p_k and d_k, and
``orthopoly_det`` checks quasi-definiteness on the way.

The sweep (``_eliminate``) is one fraction-free (Bareiss) elimination
that stays in normalised form, the LDL^T factorisation of H, while its
quotients are exact, so each step divides out the factor that Bareiss
would carry into every later product.  On the symbolic blocks of every
family whose moments are given by a step, the rational-moment ones
included, every such quotient has been an integer through order 12.  At
the first one that is not (the functionals, most blocks at a specialized
q), or at a zero pivot, the rows are scaled to Bareiss's and Bareiss
continues on them, exchanging rows where ``hankel_direct`` needs it.
Every division goes through one ``_intkernel.ExactDivider`` (a 2-adic
inverse with every quotient multiplied back, or ``divmod`` with its
remainder tested where that is faster), so a division that leaves a
remainder is detected instead of returning a wrong value.  The block
is cleared, packed and read off in the sequence's numerator ring
(``MomentSequence.ring``), the one that ``stieltjes`` sums in: integer
polynomials over Q(q), and plain ints at a specialized q, where every
entry is an integer constant, packs as itself, and the values read off
are Fractions.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Sequence

from . import _intkernel as _k
from ._record import FrozenRecord, Record
from .xpoly import MomentSequence, Scalar, XPolynomial, _is_one, _Window, even_part_compress

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

    def __reduce__(self):
        # args holds the message, so the default would pass it as the level
        return (type(self), (self.level, self.name), vars(self))


class RecurrenceTable(FrozenRecord):
    """Three-term recurrence data: p_{k+1} = (x - s_k) p_k - t_{k-1} p_{k-1}.

    For depth N: s has N entries, t has N - 1, norms[k] = L(p_k^2) = L(x^k p_k).
    The values are QRationals over Q(q) and Fractions at a specialized q.
    Immutable and hashable.
    """

    __slots__ = ("s", "t", "norms")

    @property
    def depth(self) -> int:
        return len(self.s)

    @classmethod
    def from_st(cls, s: Sequence[Scalar], t: Sequence[Scalar]) -> "RecurrenceTable":
        """Table from coefficients alone; norms follow since L(1) = 1.

        norms[0] is s_0 ** 0, the one of the coefficients' field.
        """
        norms = [v**0 for v in s[:1]]
        for tv in t[: max(len(s) - 1, 0)]:
            norms.append(norms[-1] * tv)
        return cls(tuple(s), tuple(t), tuple(norms))


class ExpansionTriangle:
    """Coefficients a(n, k) of x^n = sum_k a(n, k) p_k(x)."""

    def __init__(self, rows: Sequence[Sequence[Scalar]], name: str = ""):
        self.name = name
        self._rows = tuple(tuple(r) for r in rows)
        # rows[0][0] = a(0) is the field's one
        self._zero = self._rows[0][0] * 0 if self._rows else 0

    @property
    def max_row(self) -> int:
        return len(self._rows) - 1

    def row(self, n: int) -> tuple[Scalar, ...]:
        return self._rows[n]

    def entry(self, n: int, k: int) -> Scalar:
        if k < 0 or k > n:
            return self._zero
        return self._rows[n][k]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


# -- Stieltjes bootstrap -------------------------------------------------------


class _Recurrence:
    """``stieltjes``'s state, kept in ``MomentSequence.recurrence``.

    The cleared moment window, P_0..P_K (p_k = P_k / P_k[k], P_k with no
    content), s, t and norms, and each p_k once ``orthopoly_recur`` has
    asked for it.
    """

    def __init__(self, moments: MomentSequence):
        self.window = _Window(moments.ring)
        self.cleared = [[moments.ring.one]]
        self.p = {0: XPolynomial([moments.one])}
        self.s, self.t, self.norms = [], [], []


def stieltjes(moments: MomentSequence, depth: int) -> RecurrenceTable:
    """Recurrence table to the given depth, read off norms on cleared numerators.

    p_k is orthogonal to x^j for j < k and x p_k = x^(k+1) + c x^k + lower
    terms, c its x^(k-1) coefficient, so norm_k = L(p_k^2) = L(x^k p_k) and
    s_k = L(x p_k^2) / norm_k = L(x^(k+1) p_k) / norm_k + c exactly, with
    no polynomial product.  The moments a(0..2k+1) are held over one
    common denominator B (``xpoly._Window``, rescaled when the lcm of
    their denominators grows), and p_k as a vector P_k with no content
    over its leading entry l = P_k[k].  Then norm_k l B and
    L(x^(k+1) p_k) l B are dot products sum_i P_k[i] a(i+j) B of
    numerators: integer polynomials over Q(q), plain ints at a
    specialized q.  norm_k, s_k and t_{k-1} = norm_k / norm_{k-1} are
    each reduced once, from a numerator and a denominator, so each is in
    canonical form; P_{k+1} is formed from P_k, P_{k-1}, s_k and t_{k-1}
    and divided by its content once, and p_k becomes an XPolynomial only
    in ``orthopoly_recur``.  Step k reads a(2k) before it tests the norm
    and a(2k+1) after, so it never reads past a(2 depth - 1).  The state
    stays on the sequence, so deepening is incremental.  Raises
    QuasiDefinitenessError when some norm vanishes.

    >>> from qortho.momentfamilies import family
    >>> table = stieltjes(family("q-factorial:m=0").specialized_moments(1), 3)
    >>> [str(v) for v in table.s], [str(v) for v in table.t]
    (['1', '3', '5'], ['1', '4'])
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    with moments.scratch_lock:
        state = moments.recurrence = moments.recurrence or _Recurrence(moments)
        window, cleared, s, t, norms = state.window, state.cleared, state.s, state.t, state.norms
        ring = moments.ring
        for k in range(len(s), depth):
            pk = cleared[k]
            lead = pk[k]
            window.extend(moments, 2 * k)
            den = window.den
            (nk,) = window.dots(pk, [k])  # norm_k * lead * den
            if not nk:
                raise QuasiDefinitenessError(k + 1, moments.name)
            norm_k = ring.value(nk, ring.mul(lead, den))
            window.extend(moments, 2 * k + 1)
            if window.den != den:
                nk = ring.mul(nk, ring.quo(window.den, den))
            # s_k = ns / nk + c, with c = pk[k-1] / lead
            (ns,) = window.dots(pk, [k + 1])
            c = pk[k - 1] if k else ring.zero
            (num,) = ring.dots([ns, c], [[lead, nk]])
            s_k = ring.value(num, ring.mul(nk, lead))
            # l_k l_{k-1} sd td p_{k+1} = (sd x + sn) td l_{k-1} P_k + tn sd l_k P_{k-1},
            # with sn / sd = -s_k and tn / td = -t_{k-1} (l_{-1} td = 1, tn = 0 at k = 0)
            sn, sd = ring.parts(-s_k)
            factor, g, prev = ring.one, ring.zero, []
            if k:
                (n1, d1), (n0, d0) = ring.parts(norm_k), ring.parts(norms[k - 1])
                t_k = ring.value(ring.mul(n1, d0), ring.mul(d1, n0))
                tn, td = ring.parts(-t_k)
                factor = ring.mul(td, cleared[k - 1][k - 1])
                g, prev = ring.mul(ring.mul(tn, sd), lead), cleared[k - 1]
            coefs = [ring.mul(sd, factor), ring.mul(sn, factor), g]
            cols = zip([ring.zero, *pk], [*pk, ring.zero], [*prev, ring.zero, ring.zero])
            cleared.append(ring.primitive(ring.dots(coefs, cols))[1])
            norms.append(norm_k)
            s.append(s_k)
            if k:
                t.append(t_k)
        return RecurrenceTable(
            tuple(s[:depth]), tuple(t[: max(depth - 1, 0)]), tuple(norms[:depth])
        )


def orthopoly_recur(moments: MomentSequence, n: int) -> XPolynomial:
    """The monic orthogonal polynomial p_n via the three-term recurrence.

    It is read off the cleared P_n once, each coefficient reduced once.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    with moments.scratch_lock:
        stieltjes(moments, n)
        state = moments.recurrence
        if n not in state.p:
            pn, value = state.cleared[n], moments.ring.value
            state.p[n] = XPolynomial([value(c, pn[n]) for c in pn[:n]] + [moments.one])
        return state.p[n]


# -- exact integer elimination -------------------------------------------------


class _Packed(Record):
    """A Hankel block a(i+j) cleared by ``_packed_rows`` and packed at q = 2^w.

    ``scales[i]`` is u_i^2, the square of the lcm of the denominators
    of a(0..2i) that scales row and column i, and ``factors[i]`` is
    r_i * c_i, its row content times its column content, so a leading
    minor of order k+1 is the packed one times factors[0..k] over
    scales[0..k].  When the block has one column more than rows,
    ``border`` holds the packed border rows: row e is the x^e part of
    the symbolic last row, u_e L / c_e in column e and 0 elsewhere.  It
    is empty otherwise.  ``ring`` is the moments' numerator ring: the
    factors are its elements, the packed values its packings, and the
    scales and every value read off are in the moments' field.
    """

    __slots__ = ("rows", "w", "scales", "factors", "border", "ring")


def _packed_rows(moments: MomentSequence, nrows: int, ncols: int) -> _Packed:
    """Rows a(i+j), i < nrows, j < ncols, cleared and packed at q = 2^w.

    The block is scaled as a congruence U H U, so its LDL^T factorisation
    carries over: U = diag(u_j), u_j the lcm of the denominators of
    a(0..min(2j, nrows+ncols-2)), which include those of every a(i+j),
    i <= j.  Each row is then divided by its content r_i, and each
    column by its content c_j: cleared_ij = u_i u_j a(i+j) / (r_i c_j).
    Contents are integer gcds, times primitive polynomial gcds over
    Q(q), and 1 for an all-zero row or column.  w covers every minor of an ncols x ncols
    matrix made of these rows and, when nrows < ncols, the border row
    u_j L / c_j x^j (L the lcm of the c_j), counted at its largest L1
    norm.  No moment past a(nrows+ncols-2) is read, and the coefficient
    lists are dropped on return, before any elimination starts.  Each
    entry is built once: entry (i, j), i < j < nrows, is held from row i
    until row j reads it, and no longer.
    """
    ring, top = moments.ring, nrows + ncols - 2
    nums, dens = zip(*(ring.parts(moments.moment(m)) for m in range(top + 1)))
    u = [ring.one]  # a(0) = 1
    for j in range(1, ncols):
        u.append(ring.lcm([u[-1], *dens[2 * j - 1 : min(2 * j, top) + 1]]))

    held = {}  # H is symmetric: rows i and j share entry (i, j)

    def entry(i: int, j: int):  # u_i u_j a(i+j); i <= j, so u_j clears a(i+j)
        e = held.pop((i, j), None)
        if e is None:
            e = ring.mul(nums[i + j], ring.mul(u[i], ring.quo(u[j], dens[i + j])))
            if i < j < nrows:
                held[i, j] = e
        return e

    scaled = ([entry(*sorted((i, j))) for j in range(ncols)] for i in range(nrows))
    row_contents, rows = zip(*map(ring.primitive, scaled))
    col_contents = []
    for j in range(ncols):
        content, column = ring.primitive([row[j] for row in rows])
        for row, cs in zip(rows, column):
            row[j] = cs
        col_contents.append(content)
    maxima = [max(map(ring.height, row), default=0) or 1 for row in rows]
    diagonal = []  # u_j L / c_j, the border rows' one nonzero entries
    if nrows < ncols:
        lcm = ring.lcm(col_contents)
        diagonal = [ring.mul(v, ring.quo(lcm, c)) for v, c in zip(u, col_contents)]
        maxima.append(max(map(ring.height, diagonal)))
    # a k x k minor is a signed sum of k! products, one entry from each row
    w = _k._width_for(math.factorial(ncols) * math.prod(maxima))
    scales = [ring.value(ring.mul(v, v), ring.one) for v in u[:nrows]]
    factors = [ring.mul(r, c) for r, c in zip(row_contents, col_contents)]
    packed = [[ring.pack(e, w) for e in row] for row in rows]
    border = [
        [ring.pack(b, w) if j == e else 0 for j in range(ncols)] for e, b in enumerate(diagonal)
    ]
    return _Packed(packed, w, scales, factors, border, ring)


def _eliminate(m: _Packed, pivoting: bool = False) -> tuple[list[int], int]:
    """Eliminate the packed block and its border rows in place: (pivots, sign).

    One fraction-free sweep (Bareiss, Math. Comp. 22, 1968): without row
    exchanges the pivot of step k is the cleared leading minor d_{k+1}
    (d_0 = 1), and the sweep stops right after the first zero pivot.  The
    border rows never pivot: step k writes their column k+1 for the last
    time, and in each it then holds the minor of rows 0..k and that row
    over columns 0..k+1.  Row k is never read after step k, so its
    entries past the pivot are dropped then, and the block rows on return.

    While its quotients are exact the sweep stays in normalised form, the
    LDL^T factorisation of H (Gautschi 2004, section 2.1): rows k.. hold
    Y = S / h_{k-1}, S the Gaussian Schur complement and h_k = d_{k+1} /
    d_k its leading entry (h_{-1} = 1).  Step k divides row k by Y_kk =
    h_k / h_{k-1}, so its pivot is 1, and forms S' / h_k = (Y_ij - Y_ik
    Y_kj / Y_kk) / Y_kk, the division fused into the update; d_{k+1} =
    d_k h_k is multiplied out.  Bareiss holds d_{k+1} S', larger by the
    factor d_{k+1} h_k, and carries it through every later product.
    The border rows hold their Gaussian Schur complement, with no
    divisor, and column k is multiplied by d_k once step k has read it.

    Exactness needs no check beyond the divider's: every quotient goes
    through one ``ExactDivider``, which multiplies it back or tests its
    remainder, so every value held is exact.  At q = 2^w the block is the
    image of the polynomial block, so a pivot is 0 exactly when the image
    of its minor vanishes, and a nonzero polynomial whose coefficients
    are below 2^(w-1) cannot vanish at 2^w.  Every value read off, a
    pivot or a finished border column, is the image of a minor of the
    block, which the packing width covers; the held rows need not be.

    At a zero Y_kk or the first inexact quotient the rows already updated
    in step k are taken back, rows k.. are multiplied by d_k h_{k-1} and
    the border columns from k on by d_k.  By Sylvester's identity that
    gives d_k S, Bareiss's rows, and Bareiss continues on them from step
    k, dividing by d_k.  With ``pivoting`` it replaces a zero pivot by a
    lower row (``sign`` records the exchanges) and stops after a zero
    pivot only when its whole column is zero.
    """
    rows, border = m.rows, m.border
    n = len(rows)
    pivots: list[int] = []
    sign = d = h = 1  # d_k and h_{k-1} while the sweep is normalised
    div = None  # then, Bareiss's divider by the previous pivot
    for k in range(n):
        row_k = rows[k]
        if div is None:
            g, i = row_k[k], k  # rows[k + 1 : i] are the ones updated so far
            try:
                over = _k.ExactDivider(g)
                top = [over(v) for v in row_k[k + 1 :]]
                for i in range(k + 1, n):
                    row = rows[i]
                    f = row[k]
                    row[k + 1 :] = [over(v - f * t) for v, t in zip(row[k + 1 :], top)]
            except ArithmeticError:  # g = 0 or an inexact quotient: Bareiss from step k
                for row in rows[k + 1 : i]:
                    f = row[k]
                    row[k + 1 :] = [g * v + f * t for v, t in zip(row[k + 1 :], top)]
                for row in rows[k:]:
                    row[k:] = [v * (d * h) for v in row[k:]]
                for b in border:
                    b[k:] = [v * d for v in b[k:]]
                div = _k.ExactDivider(d)
            else:
                for b in border:
                    f = b[k]
                    b[k + 1 :] = [v - f * t for v, t in zip(b[k + 1 :], top)]
                    b[k] = f * d
                h *= g
                d *= h
                pivots.append(d)
                del row_k[k + 1 :]
                continue
        if row_k[k] == 0 and pivoting:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], row_k
                    sign = -sign
                    break
            row_k = rows[k]
        pivot = row_k[k]
        pivots.append(pivot)
        if pivot == 0:
            break
        for row in [*rows[k + 1 :], *border]:
            f = row[k]
            row[k + 1 :] = [div(pivot * v - f * t) for v, t in zip(row[k + 1 :], row_k[k + 1 :])]
        del row_k[k + 1 :]
        div = _k.ExactDivider(pivot)
    if div is None:
        for b in border:
            b[n:] = [v * d for v in b[n:]]
    m.rows = []
    return pivots, sign


def _unscale(cleared: int, m: _Packed, k: int, factor) -> Scalar:
    """A minor of the first k rows and columns, from its cleared value.

    Unpacks it, multiplies by ``factor``, the product of factors[0..k-1],
    and divides by the row scales other than 1, one at a time.
    """
    ring = m.ring
    det = ring.value(ring.mul(ring.unpack(cleared, m.w), factor), ring.one)
    for s in m.scales[:k]:
        if not _is_one(s):
            det = det / s
    return det


def _border_poly(m: _Packed, k: int) -> XPolynomial:
    """p_k from column k of the border rows, which holds the cleared d_k p_k.

    p_k is monic, so its coefficients are that column over its entry in
    border row k, the cleared d_k times u_k L / c_k: the row scales and
    contents cancel.  The factor that this entry shares with every
    coefficient is taken out once, before each coefficient is reduced
    on its own, once, from its numerator and that entry.
    """
    ring = m.ring
    _, cols = ring.primitive([ring.unpack(row[k], m.w) for row in m.border[: k + 1]])
    return XPolynomial([ring.value(c, cols[-1]) for c in cols])


def orthopoly_det(moments: MomentSequence, n: int) -> XPolynomial:
    """The monic orthogonal polynomial p_n as a bordered Hankel determinant.

    The determinantal form puts the moments a(i+j) in rows 0..n-1 and
    the powers 1, x, ..., x^n in the last row; dividing the determinant
    by the order-n Hankel determinant makes the result monic.  The
    whole matrix is eliminated in one sweep (``_eliminate``), with the
    symbolic x-row carried as one border row per power of x, so the n
    leading Hankel minors fall out as pivots and quasi-definiteness is
    checked on the way.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return XPolynomial([moments.one])
    m = _packed_rows(moments, n, n + 1)
    pivots, _ = _eliminate(m)
    if pivots[-1] == 0:
        raise QuasiDefinitenessError(len(pivots), moments.name)
    return _border_poly(m, n)


def orthopoly_det_sweep(
    moments: MomentSequence, n: int
) -> tuple[list[XPolynomial], list[Scalar]]:
    """p_0, ..., p_K and d_0, ..., d_n from one bordered elimination.

    The sweep of ``orthopoly_det(moments, n)`` passes through every
    lower degree: after step k, column k+1 of the border rows holds the
    cleared d_{k+1} p_{k+1}, and the pivots are the cleared d_1, ...,
    d_n.  The polynomials stop at the last degree K whose d_K is
    nonzero; if some d_{k+1} vanishes, each higher order comes from
    ``hankel_direct`` with its row exchanges, as in ``hankel_minors``.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    one = moments.one
    if n == 0:
        return [XPolynomial([one])], [one]
    polys = [XPolynomial([one])]
    m = _packed_rows(moments, n, n + 1)
    pivots, _ = _eliminate(m)
    for k, pivot in enumerate(pivots):
        if pivot != 0:
            polys.append(_border_poly(m, k + 1))
    return polys, _minors(moments, m, pivots, n)


def hankel_direct(moments: MomentSequence, n: int) -> Scalar:
    """det(a(i+j))_{0 <= i,j < n} by elimination.

    At a zero pivot the sweep exchanges rows and keeps going, so singular
    matrices come back as an honest 0 rather than an error.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return moments.one
    m = _packed_rows(moments, n, n)
    pivots, sign = _eliminate(m, pivoting=True)
    return _unscale(sign * pivots[-1], m, n, reduce(m.ring.mul, m.factors, m.ring.one))


def hankel_minors(moments: MomentSequence, n: int) -> list[Scalar]:
    """The Hankel determinants d_0, ..., d_n from one elimination.

    The pivots of an order-n sweep without row exchanges are the
    cleared leading minors, and the order-n width bound covers all of
    them.  If d_{k+1} vanishes the sweep stops there, and each higher
    order comes from ``hankel_direct`` with its row exchanges.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return [moments.one]
    m = _packed_rows(moments, n, n)
    pivots, _ = _eliminate(m)
    return _minors(moments, m, pivots, n)


def _minors(moments: MomentSequence, m: _Packed, pivots: list[int], n: int) -> list[Scalar]:
    """d_0, ..., d_n from the pivots of a sweep without row exchanges.

    Each pivot is unscaled to its leading minor; every order past a zero
    pivot, where the sweep stopped, comes from ``hankel_direct``.
    """
    dets, product = [moments.one], m.ring.one
    for k, (p, f) in enumerate(zip(pivots, m.factors)):
        if f != m.ring.one:
            product = m.ring.mul(product, f)
        dets.append(_unscale(p, m, k + 1, product))
    dets.extend(hankel_direct(moments, k) for k in range(len(dets), n + 1))
    return dets


def hankel_product(moments: MomentSequence, n: int) -> Scalar:
    """det(a(i+j))_{0 <= i,j < n} as the product of recurrence norms.

    d_n = h_0 h_1 ... h_{n-1} with h_k = L(p_k^2) and h_0 = a(0) = 1;
    this needs the sequence to be quasi-definite through depth n, unlike
    the direct determinant.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    out = moments.one
    if n <= 1:
        return out
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
    zero = moments.zero
    out: list[list[Scalar]] = [[moments.one]]
    for n in range(1, rows + 1):
        prev = out[-1]

        def at(j: int) -> Scalar:
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
    callable index -> value; depth N consumes T_0 .. T_{2N-2}.  The
    table is in the field of the T values: QRational, or Fraction at a
    specialized q.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    get: Callable[[int], Scalar] = T.__getitem__ if hasattr(T, "__getitem__") else T
    s = [get(0)]
    for i in range(1, depth):
        s.append(get(2 * i - 1) + get(2 * i))
    t = [get(2 * i) * get(2 * i + 1) for i in range(depth - 1)]
    return RecurrenceTable.from_st(s, t)


def aerated_recurrence(symmetric_moments: MomentSequence, depth: int) -> tuple[Scalar, ...]:
    """Coefficients T_0 .. T_{depth-1} with P_k = x P_{k-1} - T_{k-2} P_{k-2}.

    The input must be symmetric (odd moments zero), which makes every
    s_k vanish; anything else is rejected.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    table = stieltjes(symmetric_moments, depth + 1)
    if any(table.s):
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
        return XPolynomial([symmetric_moments.one])
    aerated_recurrence(symmetric_moments, 2 * n - 1)  # rejects an asymmetric sequence
    return even_part_compress(orthopoly_recur(symmetric_moments, 2 * n))
