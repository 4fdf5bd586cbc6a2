"""The built-in moment families and their closed recurrence data.

A family is a named moment sequence a(n) in Q(q) with a(0) = 1, plus
whatever closed-form extras it supports: three-term recurrence
coefficients s_n/t_n, aerated recurrence coefficients T_n, and (via the
closedforms module) explicit orthogonal polynomials and their q = 1
limits.  Each family is one entry of the table ``_SPECS``: its
parameters, moment rule, registry sweep and optional formulas.  Adding
a family means adding one entry plus its formulas.

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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from .exactalg import QPolynomial, QRational
from .qcombinatorics import (
    q_bracket,
    q_double_factorial,
    q_factorial,
    q_multifactorial,
    q_power_binom2,
)
from .xpoly import MomentSequence, XPolynomial, even_part_compress

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


@dataclass(frozen=True)
class FamilyId:
    """A family tag plus its integer parameters."""

    tag: str
    m: int | None = None
    r: int | None = None

    def __post_init__(self):
        spec = _SPECS.get(self.tag)
        if spec is None:
            raise ValueError(f"unknown family {self.tag!r}")
        for name in ("m", "r"):
            value = getattr(self, name)
            if name in spec.params:
                low = spec.params[name]
                value = low if value is None else value
                if not isinstance(value, int) or value < low:
                    raise ValueError(f"family {self.tag} needs integer {name} >= {low}")
                object.__setattr__(self, name, value)
            elif value is not None:
                raise ValueError(f"family {self.tag} takes no parameter {name}")

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


def _qr(num, den=None) -> QRational:
    return QRational.of(num) if den is None else QRational.of(num, den)


def _cf():
    """The closedforms module, imported late because it imports this one.

    Table entries fetch their closedforms formula through it at call time,
    so a formula substituted on that module (as the negative control in
    the acceptance tests does) is the one that runs.
    """
    from . import closedforms

    return closedforms


def _one_plus_q(e: int) -> QPolynomial:
    return QPolynomial.one() + QPolynomial.monomial(e)


def _multifactorial_T(r: int, m: int, j: int) -> QRational:
    i, odd = divmod(j, 2)
    if odd:
        return _qr(QPolynomial.monomial(r * (i + 1) + m) * q_bracket(r * (i + 1)))
    return _qr(QPolynomial.monomial(r * i) * q_bracket(r * (i + 1) + m))


def _multifactorial_st(r: int, m: int, i: int) -> tuple[QRational, QRational]:
    s = QPolynomial.monomial(r * i) * (
        q_bracket(r * (i + 1) + m) + QPolynomial.monomial(m) * q_bracket(r * i)
    )
    t = QPolynomial.monomial(r * (2 * i + 1) + m) * q_bracket(r * (i + 1)) * q_bracket(
        r * (i + 1) + m
    )
    return _qr(s), _qr(t)


def _catalan_T(j: int) -> QRational:
    return _qr(QPolynomial.monomial(j), _one_plus_q(j + 1) * _one_plus_q(j + 2))


def _central_binomial_T(j: int) -> QRational:
    if j == 0:
        return _qr(QPolynomial.one(), _one_plus_q(1))
    return _qr(QPolynomial.monomial(j), _one_plus_q(j) * _one_plus_q(j + 1))


@dataclass(frozen=True)
class _Spec:
    """Everything known about one family tag.

    ``params`` maps each integer parameter to its minimum, which is also
    its default.  ``rule(fid)`` is the moment rule n -> a(n), and
    ``sweep`` lists the parameter sets that ``registry_family_ids``
    yields.  ``aerated`` marks the families whose aerated recurrence is
    exposed, and ``functional`` those whose moments come from a polynomial
    basis (left out by ``include_functionals=False``).  The optional
    formulas take (fid, index) and give T_j, (s_i, t_i), the closed p_n and
    its q = 1 counterpart.
    """

    rule: Callable[[FamilyId], Callable[[int], QRational]]
    params: dict[str, int] = field(default_factory=dict)
    sweep: tuple[dict[str, int], ...] = ({},)
    aerated: bool = False
    functional: bool = False
    closed_T: Callable[[FamilyId, int], QRational] | None = None
    closed_st: Callable[[FamilyId, int], tuple[QRational, QRational]] | None = None
    closed_poly: Callable[[FamilyId, int], XPolynomial] | None = None
    classical_poly: Callable[[FamilyId, int], XPolynomial] | None = None


# One entry per family, in registry order.  q-factorial:m=M is
# multifactorial:r=1,m=M, so the two share their recurrence formulas.
_SPECS: dict[str, _Spec] = {
    "geometric-q": _Spec(
        rule=lambda fid: lambda n: _qr(q_power_binom2(n)),
        closed_poly=lambda fid, n: _cf().cf_geometric_poly(n),
        classical_poly=lambda fid, n: _cf().classical_geometric_style(n),
    ),
    "q-factorial": _Spec(
        params={"m": 0},
        rule=lambda fid: lambda n: _qr(q_factorial(n + fid.m).divexact(q_factorial(fid.m))),
        sweep=tuple({"m": m} for m in range(4)),
        aerated=True,
        closed_T=lambda fid, j: _multifactorial_T(1, fid.m, j),
        closed_st=lambda fid, i: _multifactorial_st(1, fid.m, i),
        closed_poly=lambda fid, n: _cf().cf_qlaguerre(n, fid.m),
        classical_poly=lambda fid, n: _cf().classical_laguerre_style(n, fid.m),
    ),
    "multifactorial": _Spec(
        params={"m": 0, "r": 1},
        rule=lambda fid: lambda n: _qr(
            q_multifactorial(fid.r * n + fid.m, fid.r).divexact(q_multifactorial(fid.m, fid.r))
        ),
        sweep=tuple({"r": r, "m": m} for r in (1, 2, 3) for m in (0, 1, 2)),
        aerated=True,
        closed_T=lambda fid, j: _multifactorial_T(fid.r, fid.m, j),
        closed_st=lambda fid, i: _multifactorial_st(fid.r, fid.m, i),
        closed_poly=lambda fid, n: _cf().cf_multifactorial_poly(n, fid.r, fid.m),
        classical_poly=lambda fid, n: _cf().classical_multifactorial_style(n, fid.r, fid.m),
    ),
    "q-double-factorial": _Spec(
        rule=lambda fid: lambda n: _qr(q_double_factorial(n, "odd")),
        aerated=True,
        closed_poly=lambda fid, n: _cf().cf_qhermite(n),
        classical_poly=lambda fid, n: _cf().classical_hermite_style(n),
    ),
    "andrews-q-catalan": _Spec(
        rule=lambda fid: lambda n: _qr(
            q_bracket(2) * q_double_factorial(n, "odd"), q_double_factorial(n + 1, "even")
        ),
        aerated=True,
        closed_T=lambda fid, j: _catalan_T(j),
        closed_poly=lambda fid, n: even_part_compress(_cf().cf_chebU(2 * n)),
        classical_poly=lambda fid, n: even_part_compress(_cf().classical_chebU_style(2 * n)),
    ),
    "q-central-binomial": _Spec(
        rule=lambda fid: lambda n: _qr(q_double_factorial(n, "odd"), q_double_factorial(n, "even")),
        aerated=True,
        closed_T=lambda fid, j: _central_binomial_T(j),
        closed_poly=lambda fid, n: even_part_compress(_cf().cf_chebT(2 * n)),
        classical_poly=lambda fid, n: even_part_compress(_cf().classical_chebT_style(2 * n)),
    ),
    # The q-Fibonacci and q-Lucas bases define their functionals' moments
    # but are not themselves orthogonal for q != 1 (they satisfy no
    # three-term recurrence in x), so no closed form is registered.
    "fibonacci-functional": _Spec(
        rule=lambda fid: lambda n: functional_from_basis(_cf().cf_qfibonacci, n),
        functional=True,
    ),
    "lucas-functional": _Spec(
        rule=lambda fid: lambda n: functional_from_basis(_cf().cf_qlucas, n),
        functional=True,
    ),
}


def _moment_rule(fid: FamilyId) -> Callable[[int], QRational]:
    return _SPECS[fid.tag].rule(fid)


def closed_T(fid: "FamilyId | str", j: int) -> QRational:
    """Closed-form aerated recurrence coefficient T_j, where available."""
    fid = _as_fid(fid)
    if j < 0:
        raise ValueError("T index must be >= 0")
    formula = _SPECS[fid.tag].closed_T
    if formula is None:
        raise ValueError(f"no closed aerated recurrence for family {fid}")
    return formula(fid, j)


def closed_st(fid: "FamilyId | str", i: int) -> tuple[QRational, QRational]:
    """Closed-form three-term coefficients (s_i, t_i), where available."""
    fid = _as_fid(fid)
    if i < 0:
        raise ValueError("recurrence index must be >= 0")
    formula = _SPECS[fid.tag].closed_st
    if formula is None:
        raise ValueError(f"no closed three-term coefficients for family {fid}")
    return formula(fid, i)


class MomentFamily:
    """A registered family: identity, moments, and closed-form hooks."""

    def __init__(self, fid: FamilyId):
        self.fid = fid
        self.moments = MomentSequence(_moment_rule(fid), name=str(fid))

    @property
    def tag(self) -> str:
        return self.fid.tag

    @property
    def aerated_capable(self) -> bool:
        return _SPECS[self.tag].aerated

    @property
    def has_closed_T(self) -> bool:
        return _SPECS[self.tag].closed_T is not None

    @property
    def has_closed_st(self) -> bool:
        return _SPECS[self.tag].closed_st is not None

    @property
    def aerated_moments(self) -> MomentSequence:
        return self.moments.aerated()

    def specialized_moments(self, point) -> MomentSequence:
        return self.moments.specialized(point)

    def closed_T(self, j: int) -> QRational:
        return closed_T(self.fid, j)

    def closed_st(self, i: int) -> tuple[QRational, QRational]:
        return closed_st(self.fid, i)

    def closed_poly(self, n: int) -> XPolynomial | None:
        """Closed-form monic orthogonal polynomial, when one exists."""
        from . import closedforms  # deferred; closedforms imports this module

        return closedforms.closed_polynomial(self.fid, n)

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
    residual: list[QRational] = [QRational.zero()] * (n + 1)
    residual[n] = QRational.one()
    for k in range(n, 0, -1):
        ck = residual[k]
        if ck.is_zero:
            continue
        b = basis(k)
        if b.degree != k or not b.is_monic:
            raise ValueError(f"basis element {k} is not monic of degree {k}")
        for j, bc in enumerate(b.coefficients):
            if not bc.is_zero:
                residual[j] = residual[j] - ck * bc
        residual[k] = QRational.zero()
    b0 = basis(0)
    if b0.degree != 0 or not b0.is_monic:
        raise ValueError("basis element 0 is not monic of degree 0")
    return residual[0]


def registry_family_ids(include_functionals: bool = True) -> list[FamilyId]:
    """The standard sweep of family instances used by verification."""
    return [
        FamilyId(tag, **params)
        for tag, spec in _SPECS.items()
        if include_functionals or not spec.functional
        for params in spec.sweep
    ]
