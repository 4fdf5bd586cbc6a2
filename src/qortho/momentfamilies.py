"""The built-in moment families and their closed recurrence data.

A family is a named moment sequence a(n) in Q(q) with a(0) = 1, plus
whatever closed-form extras it supports: three-term recurrence
coefficients s_n/t_n, aerated recurrence coefficients T_n, and (via the
closedforms module) explicit orthogonal polynomials, their norms and
their q = 1 limits.  Each family is one entry of the table ``_SPECS``:
its parameters, moments, registry sweep and optional formulas, which
``_closed`` alone reads.  Adding a family means adding one entry plus its
formulas, and ``verify`` then runs every check the entry supports.

Families are addressed by a tag plus small integer parameters, written
``tag`` or ``tag:key=value,key=value`` on the command line:

    geometric-q               a(n) = q^(n(n-1)/2)
    q-factorial:m=M           a(n) = [n+M]!/[M]!
    multifactorial:r=R,m=M    a(n) = mf(Rn+M)/mf(M), mf stepping by R
    q-double-factorial        a(n) = [1][3]...[2n-1]
    andrews-q-catalan         a(n) = [2]*[2n-1]!!/[2n+2]!!
    q-central-binomial        a(n) = [2n-1]!!/[2n]!!
    fibonacci-functional      moments of the functional killing the
                              q-Fibonacci basis above degree 0
    lucas-functional          same for the q-Lucas basis

The geometric-q family is perfectly regular over Q(q) but degenerates
at q = 1 (its Hankel determinants pick up factors of q - 1), so
specializing it there raises a quasi-definiteness error downstream.

Every family but the two functionals states its moments once, as a step:
a(n) / a(n-1) as a q-power times a ratio of brackets, multiplied out by
one routine over Q(q) and, with no polynomial in q built, at a
specialized q.  A functional states its basis instead, one basis element
per moment; at a specialized q it builds each basis element at the
point through ``qcombinatorics.built_at``, in Fraction.  The closed T_j
and (s_i, t_i) are written once, over the quantities of
``qcombinatorics.SYMBOLIC`` or of a ``QPoint``, and ``built_at`` gives
their values at a point.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import partial
from typing import Callable

from ._record import FrozenRecord, Record
from .exactalg import PoleError, QPolynomial, QRational
from .qcombinatorics import SYMBOLIC, QPoint, built_at, q_bracket
from .xpoly import MomentSequence, Scalar, XPolynomial, even_part_compress

__all__ = [
    "FamilyId",
    "MomentFamily",
    "family",
    "family_moment",
    "aerated_moment",
    "closed_T",
    "closed_st",
    "functional_from_basis",
    "registry_family_ids",
    "DEFAULT_DEPTH_CAP",
    "HARD_DEPTH_CAP",
]

# User-facing depth limits, enforced at the CLI / verification entry
# points.  Library internals go deeper freely (an order-n Hankel
# determinant needs moments out to index 2n - 2).
DEFAULT_DEPTH_CAP = 12
HARD_DEPTH_CAP = 20


class FamilyId(FrozenRecord):
    """A family tag plus its integer parameters.

    Immutable and hashable, since the registry is keyed by it.
    """

    __slots__ = ("tag", "m", "r")

    def __init__(self, tag: str, m: int | None = None, r: int | None = None):
        spec = _SPECS.get(tag)
        if spec is None:
            raise ValueError(f"unknown family {tag!r}")
        object.__setattr__(self, "tag", tag)
        for name, value in (("m", m), ("r", r)):
            if name in spec.params:
                low = spec.params[name]
                value = low if value is None else value
                if isinstance(value, bool) or not isinstance(value, int) or value < low:
                    raise ValueError(f"family {tag} needs integer {name} >= {low}")
            elif value is not None:
                raise ValueError(f"family {tag} takes no parameter {name}")
            object.__setattr__(self, name, value)

    @classmethod
    def parse(cls, spec: str) -> "FamilyId":
        """Parse 'tag' or 'tag:key=value,key=value'."""
        name, _, params = spec.partition(":")
        name = name.strip()
        kwargs: dict[str, int] = {}
        if params:
            for item in params.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq or key not in ("m", "r") or key in kwargs:
                    raise ValueError(f"bad family parameter {item!r} in {spec!r}")
                try:
                    kwargs[key] = int(value.strip())
                except ValueError:
                    raise ValueError(f"bad family parameter {item!r} in {spec!r}") from None
        return cls(name, **kwargs)

    def __str__(self):
        parts = []
        if self.r is not None:
            parts.append(f"r={self.r}")
        if self.m is not None:
            parts.append(f"m={self.m}")
        return self.tag if not parts else f"{self.tag}:{','.join(parts)}"


# The recurrence formulas take q as the closedforms ones do: SYMBOLIC or a QPoint.


def _multifactorial_T(r: int, m: int, j: int, q=SYMBOLIC) -> Scalar:
    i, odd = divmod(j, 2)
    if odd:
        return q.ratio(q.power(r * (i + 1) + m) * q.bracket(r * (i + 1)))
    return q.ratio(q.power(r * i) * q.bracket(r * (i + 1) + m))


def _multifactorial_st(r: int, m: int, i: int, q=SYMBOLIC) -> tuple[Scalar, Scalar]:
    s = q.power(r * i) * (q.bracket(r * (i + 1) + m) + q.power(m) * q.bracket(r * i))
    t = q.power(r * (2 * i + 1) + m) * q.bracket(r * (i + 1)) * q.bracket(r * (i + 1) + m)
    return q.ratio(s), q.ratio(t)


def _catalan_T(j: int, q=SYMBOLIC) -> Scalar:
    return q.ratio(q.power(j), (q.one + q.power(j + 1)) * (q.one + q.power(j + 2)))


def _central_binomial_T(j: int, q=SYMBOLIC) -> Scalar:
    if j == 0:
        return q.ratio(q.one, q.one + q.power(1))
    return q.ratio(q.power(j), (q.one + q.power(j)) * (q.one + q.power(j + 1)))


class _Spec(Record):
    """Everything known about one family tag.

    The moments are stated once, by exactly one of two columns.
    ``step(fid, n)``, for n >= 1, gives a(n) / a(n-1) as (e, num, den): q^e
    times the brackets [k], k in num, over the brackets [k], k in den.  ``basis(k)``
    is the monic degree-k element of the basis whose functional sends
    basis(0) to 1 and every higher element to 0; these families are left out
    by ``include_functionals=False``.  ``params`` maps each integer
    parameter to its minimum, which is also its default, and ``sweep`` lists
    the parameter sets that ``registry_family_ids`` yields.  ``aerated``
    marks the families whose aerated recurrence is exposed.  The optional
    formulas take (fid, index) and give T_j, (s_i, t_i), the closed p_n,
    the closed norm L(x^n p_n) that ``verify`` compares with the
    recurrence's p_n, and the q = 1 counterpart of p_n.  ``basis`` and
    every formula but the last take an optional last argument, a QPoint
    to build at, and pass it on; over Q(q) they pass nothing, so the
    closedforms functions are called as cf_*(n, ...).  ``_closed`` is the
    one reader of the formula columns.
    """

    __slots__ = (
        "step",
        "basis",
        "params",
        "sweep",
        "aerated",
        "closed_T",
        "closed_st",
        "closed_poly",
        "closed_norm",
        "classical_poly",
    )
    _defaults = dict.fromkeys(__slots__) | {"params": {}, "sweep": ({},), "aerated": False}


# One entry per family, in registry order.  q-factorial:m=M is
# multifactorial:r=1,m=M, so the two share their recurrence formulas.
_SPECS: dict[str, _Spec] = {
    "geometric-q": _Spec(
        step=lambda fid, n: (n - 1, (), ()),
        closed_poly=lambda fid, n, *q: _cf.cf_geometric_poly(n, *q),
        closed_norm=lambda fid, n, *q: _cf.cf_geometric_norm(n, n, *q),
        classical_poly=lambda fid, n: _cf.classical_geometric_style(n),
    ),
    "q-factorial": _Spec(
        params={"m": 0},
        step=lambda fid, n: (0, (n + fid.m,), ()),
        sweep=tuple({"m": m} for m in range(4)),
        aerated=True,
        closed_T=lambda fid, j, *q: _multifactorial_T(1, fid.m, j, *q),
        closed_st=lambda fid, i, *q: _multifactorial_st(1, fid.m, i, *q),
        closed_poly=lambda fid, n, *q: _cf.cf_qlaguerre(n, fid.m, *q),
        classical_poly=lambda fid, n: _cf.classical_laguerre_style(n, fid.m),
    ),
    "multifactorial": _Spec(
        params={"m": 0, "r": 1},
        step=lambda fid, n: (0, (fid.r * n + fid.m,), ()),
        sweep=tuple({"r": r, "m": m} for r in (1, 2, 3) for m in (0, 1, 2)),
        aerated=True,
        closed_T=lambda fid, j, *q: _multifactorial_T(fid.r, fid.m, j, *q),
        closed_st=lambda fid, i, *q: _multifactorial_st(fid.r, fid.m, i, *q),
        closed_poly=lambda fid, n, *q: _cf.cf_multifactorial_poly(n, fid.r, fid.m, *q),
        classical_poly=lambda fid, n: _cf.classical_multifactorial_style(n, fid.r, fid.m),
    ),
    "q-double-factorial": _Spec(
        step=lambda fid, n: (0, (2 * n - 1,), ()),
        aerated=True,
        closed_poly=lambda fid, n, *q: _cf.cf_qhermite(n, *q),
        classical_poly=lambda fid, n: _cf.classical_hermite_style(n),
    ),
    "andrews-q-catalan": _Spec(
        step=lambda fid, n: (0, (2 * n - 1,), (2 * n + 2,)),
        aerated=True,
        closed_T=lambda fid, j, *q: _catalan_T(j, *q),
        closed_poly=lambda fid, n, *q: even_part_compress(_cf.cf_chebU(2 * n, *q)),
        classical_poly=lambda fid, n: even_part_compress(_cf.classical_chebU_style(2 * n)),
    ),
    "q-central-binomial": _Spec(
        step=lambda fid, n: (0, (2 * n - 1,), (2 * n,)),
        aerated=True,
        closed_T=lambda fid, j, *q: _central_binomial_T(j, *q),
        closed_poly=lambda fid, n, *q: even_part_compress(_cf.cf_chebT(2 * n, *q)),
        classical_poly=lambda fid, n: even_part_compress(_cf.classical_chebT_style(2 * n)),
    ),
    # The q-Fibonacci and q-Lucas bases define their functionals' moments
    # but are not themselves orthogonal for q != 1 (they satisfy no
    # three-term recurrence in x), so no closed form is registered.
    "fibonacci-functional": _Spec(basis=lambda k, *q: _cf.cf_qfibonacci(k, *q)),
    "lucas-functional": _Spec(basis=lambda k, *q: _cf.cf_qlucas(k, *q)),
}


def _stepped(fid: FamilyId, one, ratio, q0: Fraction | None = None) -> Callable[[int], object]:
    """The rule n -> a(n), where a(0) = one and a(n) = a(n-1) ratio(*step(fid, n)).

    Each ratio and each a(n) is a pair (u, v) that stands for
    u (q - q0)^v with u != 0, so a(n) is u for v = 0 and zero for v > 0;
    over Q(q) v stays 0.  The reduced form of a(n) has a denominator that
    vanishes at q0 exactly when v < 0, so the rule raises PoleError at
    the (q0, n) where ``eval_at`` of the symbolic a(n) does, and with the
    same message.  The states computed so far stay in the closure; callers
    ask in index order, or under a lock.
    """
    step = _SPECS[fid.tag].step
    states = [(one, 0)]

    def rule(n: int):
        while len(states) <= n:
            (u, v), (du, dv) = states[-1], ratio(*step(fid, len(states)))
            states.append((u * du, v + dv))
        u, v = states[n]
        if v < 0:
            raise PoleError(f"pole at evaluation point q={q0}")
        return u if v == 0 else Fraction(0)

    return rule


def _ratio(e: int, num: tuple[int, ...], den: tuple[int, ...]) -> tuple[QRational, int]:
    """q^e prod [num] / prod [den] over Q(q)."""
    top = math.prod(map(q_bracket, num), start=QPolynomial.monomial(e))
    return QRational.of(top, math.prod(map(q_bracket, den), start=QPolynomial.one())), 0


def _basis_rule(
    basis: Callable[[int], XPolynomial], one: Scalar = QRational.one()
) -> Callable[[int], Scalar]:
    """The rule n -> L(x^n) for the functional with L(b_0) = 1 and L(b_k) = 0 for k >= 1.

    With b_k = basis(k) = x^k + sum_{j<k} b_k[j] x^j, linearity gives
    a(k) = L(b_k) - sum_{j<k} b_k[j] a(j), one basis element per moment,
    in the field of ``one``.  The moments computed so far stay in the
    closure; callers ask in index order, or under a lock.
    """
    moments: list[Scalar] = []
    zero = one - one

    def rule(n: int) -> Scalar:
        while len(moments) <= n:
            k = len(moments)
            b = basis(k)
            if b.degree != k or not b.is_monic:
                raise ValueError(f"basis element {k} is not monic of degree {k}")
            total = zero if k else one
            for a, c in zip(moments, b.coefficients):
                if a and c:
                    total = total - a * c
            moments.append(total)
        return moments[n]

    return rule


def _moment_rule(fid: FamilyId) -> Callable[[int], QRational]:
    basis = _SPECS[fid.tag].basis
    return _stepped(fid, QRational.one(), _ratio) if basis is None else _basis_rule(basis)


def _basis_at(fid: FamilyId, q0: Fraction) -> Callable[[int], Fraction]:
    """A functional's rule n -> a(n) at q = q0, from its basis built at q0 in Fraction.

    Each basis element is built through ``built_at``.  Every coefficient
    of the q-Fibonacci and q-Lucas bases is a polynomial in q, so where a
    denominator of a point build vanishes, the symbolic element it falls
    back on has no pole there.
    """
    basis, point = _SPECS[fid.tag].basis, QPoint(q0)
    return _basis_rule(lambda k: built_at(point, lambda *q: basis(k, *q)), point.one)


def _moments_at(fid: FamilyId, q0: Fraction) -> Callable[[int], Fraction]:
    """The rule n -> a(n) at q = q0, as Fractions, multiplied out of the family's steps.

    A bracket [k], k >= 1, is (q - q0)^v g(q) with g(q0) = u != 0.  At a
    rational q0 it vanishes only for q0 = -1 and even k, where
    [k] = (1 + q)[k/2]_{q^2}, so v = 1 and u = k/2.
    """

    def ratio(e, num, den):
        u, v = (Fraction(1), e) if q0 == 0 else (q0**e, 0)
        for k, sign in [(k, 1) for k in num] + [(k, -1) for k in den]:
            if q0 == -1 and k % 2 == 0:
                u, v = u * Fraction(k // 2) ** sign, v + sign
            else:
                u *= (Fraction(k) if q0 == 1 else (1 - q0**k) / (1 - q0)) ** sign
        return u, v

    return _stepped(fid, Fraction(1), ratio, q0)


def _closed(
    fid: "FamilyId | str", column: str, index: int, at: QPoint | None = None, what: str = ""
):
    """The family's ``column`` formula of ``_SPECS`` at ``index``, where it has one.

    The one reader of the formula columns.  The value is built over Q(q),
    or with ``at`` at that point, through ``built_at``.  Where the column
    is empty: None, or with ``what`` a ValueError that names the formula.
    """
    fid = _as_fid(fid)
    formula = getattr(_SPECS[fid.tag], column)
    if formula is None:
        if what:
            raise ValueError(f"no closed {what} for family {fid}")
        return None
    return built_at(at, lambda *q: formula(fid, index, *q))


def closed_T(fid: "FamilyId | str", j: int, at: QPoint | None = None) -> Scalar:
    """Closed-form aerated recurrence coefficient T_j, where available.

    With ``at``, its value at that point, from ``built_at``.
    """
    if j < 0:
        raise ValueError("T index must be >= 0")
    return _closed(fid, "closed_T", j, at, "aerated recurrence")


def closed_st(fid: "FamilyId | str", i: int, at: QPoint | None = None) -> tuple[Scalar, Scalar]:
    """Closed-form three-term coefficients (s_i, t_i), where available.

    With ``at``, their values at that point, from ``built_at``.
    """
    if i < 0:
        raise ValueError("recurrence index must be >= 0")
    return _closed(fid, "closed_st", i, at, "three-term coefficients")


class MomentFamily:
    """A registered family: identity, moments, and closed-form hooks."""

    def __init__(self, fid: FamilyId):
        self.fid = fid
        at = _basis_at if _SPECS[fid.tag].step is None else _moments_at
        self.moments = MomentSequence(_moment_rule(fid), name=str(fid), at=partial(at, fid))
        # held as long as the family, so its state lives for the process too;
        # the sequence itself caches it only weakly
        self.aerated_moments = self.moments.aerated()

    @property
    def tag(self) -> str:
        return self.fid.tag

    aerated_capable = property(lambda self: _SPECS[self.tag].aerated)
    has_closed_T = property(lambda self: _SPECS[self.tag].closed_T is not None)
    has_closed_st = property(lambda self: _SPECS[self.tag].closed_st is not None)
    has_closed_poly = property(lambda self: _SPECS[self.tag].closed_poly is not None)
    has_closed_norm = property(lambda self: _SPECS[self.tag].closed_norm is not None)

    def specialized_moments(self, point) -> MomentSequence:
        """The moments at q = point, as Fractions.

        They come from the family's steps, or for a functional from its
        basis built at the point.
        """
        return self.moments.specialized(point)

    def closed_T(self, j: int, at: QPoint | None = None) -> Scalar:
        return closed_T(self.fid, j, at)

    def closed_st(self, i: int, at: QPoint | None = None) -> tuple[Scalar, Scalar]:
        return closed_st(self.fid, i, at)

    def closed_poly(self, n: int, at: QPoint | None = None) -> XPolynomial | None:
        """Closed-form monic orthogonal polynomial, when one exists."""
        return _cf.closed_polynomial(self.fid, n, at)

    def __repr__(self):
        return f"MomentFamily({self.fid})"


_registry: dict[FamilyId, MomentFamily] = {}
_registry_lock = threading.Lock()


def _as_fid(spec: "FamilyId | str") -> FamilyId:
    if isinstance(spec, FamilyId):
        return spec
    if isinstance(spec, str):
        return FamilyId.parse(spec)
    raise TypeError(f"family spec must be FamilyId or str, got {type(spec).__name__}")


def family(spec: "FamilyId | str") -> MomentFamily:
    """The interned MomentFamily for a spec string or FamilyId."""
    fid = _as_fid(spec)
    with _registry_lock:
        fam = _registry.get(fid)
        if fam is None:
            fam = MomentFamily(fid)
            _registry[fid] = fam
        return fam


def family_moment(spec: "FamilyId | str", n: int) -> QRational:
    """a(n) for the family."""
    return family(spec).moments.moment(n)


def aerated_moment(spec: "FamilyId | str", n: int) -> QRational:
    """A(2k) = a(k), A(2k+1) = 0."""
    return family(spec).aerated_moments.moment(n)


def functional_from_basis(basis: Callable[[int], XPolynomial], n: int) -> QRational:
    """Coefficient of the degree-0 element when x^n is expanded in the basis.

    ``basis(k)`` must be monic of degree exactly k; anything else raises
    ValueError.  This defines the moments of the linear functional that
    sends basis(0) to 1 and every higher basis element to 0.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    return _basis_rule(basis)(n)


def registry_family_ids(include_functionals: bool = True) -> list[FamilyId]:
    """The standard sweep of family instances used by verification."""
    return [
        FamilyId(tag, **params)
        for tag, spec in _SPECS.items()
        if include_functionals or spec.basis is None
        for params in spec.sweep
    ]


# Bound last: closedforms imports this module.  Table entries read _cf.cf_* at
# call time, so a formula substituted on closedforms (as the negative controls
# in the tests do) is the one that runs.
from . import closedforms as _cf  # noqa: E402
