"""Independent check of qortho's JSON output, using ``fractions`` only.

Nothing here imports qortho.  The moments of each family are computed
from their definitions (the table in the ``qortho.momentfamilies``
docstring) at a positive rational point q0, and every value a request
prints, symbolic in q, is evaluated at q0 and compared with what those
moments imply:

* ``hankel``: d_n(q0) equals the determinant of (a(i+j)(q0)).
* ``orthopoly``: p_n is monic of degree n, L(x^k p_n) = 0 at q0 for
  k < n, and L(x^n p_n) = D_{n+1}/D_n, which is nonzero.
* ``recurrence``: s_k and t_k equal their Hankel-ratio values, the norms
  are running products of t, and the aerated T satisfy
  s_n = T_{2n-1} + T_{2n} and t_n = T_{2n} T_{2n+1}.
* ``verify`` (already specialised at q0): every report is ``ok`` and the
  four core checks are reported as matches at every degree.

Each check raises :class:`CheckError` naming the first disagreement.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA = "qortho/1"

# The registry sweep that ``verify --all`` must cover, as the CLI prints it.
REGISTRY = (
    ["geometric-q"]
    + [f"q-factorial:m={m}" for m in range(4)]
    + [f"multifactorial:r={r},m={m}" for r in (1, 2, 3) for m in (0, 1, 2)]
    + [
        "q-double-factorial",
        "andrews-q-catalan",
        "q-central-binomial",
        "fibonacci-functional",
        "lucas-functional",
    ]
)

# verify checks that must be reported as a match at each listed degree.
CORE_CHECKS = {
    "determinant-vs-recurrence": 0,
    "orthogonality": 1,
    "hankel-two-path": 0,
    "triangle-moments": 0,
}


class CheckError(Exception):
    """A request's output disagrees with the independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- moments from the definitions -------------------------------------------------


def bracket(n: int, q: Fraction) -> Fraction:
    """[n] = 1 + q + ... + q^(n-1), with [0] = 0."""
    return sum((q**i for i in range(n)), Fraction(0))


def _product(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _odd_df(n: int, q: Fraction) -> Fraction:
    """[1][3]...[2n-1]."""
    return _product(bracket(2 * j - 1, q) for j in range(1, n + 1))


def _even_df(n: int, q: Fraction) -> Fraction:
    """[2][4]...[2n]."""
    return _product(bracket(2 * j, q) for j in range(1, n + 1))


def _multifactorial(n: int, step: int, q: Fraction) -> Fraction:
    """mf(n) = [n] mf(n - step), mf(n) = 1 for n <= 1."""
    out = Fraction(1)
    while n > 1:
        out *= bracket(n, q)
        n -= step
    return out


def _parse_family(spec: str) -> tuple[str, dict[str, int]]:
    tag, _, params = spec.partition(":")
    kwargs = {}
    for item in filter(None, params.split(",")):
        key, _, value = item.partition("=")
        kwargs[key] = int(value)
    return tag, kwargs


def moment(spec: str, n: int, q: Fraction) -> Fraction:
    """a(n) of a family at q, from its definition."""
    tag, p = _parse_family(spec)
    if tag == "geometric-q":
        return q ** (n * (n - 1) // 2)
    if tag == "q-factorial":
        m = p.get("m", 0)
        return _product(bracket(j, q) for j in range(m + 1, m + n + 1))
    if tag == "multifactorial":
        r, m = p.get("r", 1), p.get("m", 0)
        return _multifactorial(r * n + m, r, q) / _multifactorial(m, r, q)
    if tag == "q-double-factorial":
        return _odd_df(n, q)
    if tag == "andrews-q-catalan":
        return bracket(2, q) * _odd_df(n, q) / _even_df(n + 1, q)
    if tag == "q-central-binomial":
        return _odd_df(n, q) / _even_df(n, q)
    raise ValueError(f"no independent moments for family {spec!r}")


class Moments:
    """a(0..) of one family at q0, with the Hankel minors built from them."""

    def __init__(self, spec: str, q0: Fraction):
        self.spec = spec
        self.q0 = q0
        self._a: list[Fraction] = []

    def __getitem__(self, n: int) -> Fraction:
        while len(self._a) <= n:
            self._a.append(moment(self.spec, len(self._a), self.q0))
        return self._a[n]

    def hankel(self, n: int) -> Fraction:
        """D_n = det(a(i+j))_{0 <= i,j < n}, D_0 = 1."""
        return det([[self[i + j] for j in range(n)] for i in range(n)])

    def hankel_shifted(self, n: int) -> Fraction:
        """D_n with its last column replaced by a(i+n); 0 for n = 0.

        The x^(n-1) coefficient of the monic p_n is minus this over D_n.
        """
        if n == 0:
            return Fraction(0)
        cols = list(range(n - 1)) + [n]
        return det([[self[i + j] for j in cols] for i in range(n)])


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [list(r) for r in rows]
    out = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, len(m)):
                    m[i][j] -= f * m[k][j]
    return out


# -- reading the JSON -------------------------------------------------------------


def _poly_at(coeffs: list[str], q0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q0 + Fraction(c)
    return acc


def qrat_at(value: dict, q0: Fraction) -> Fraction:
    """A printed element of Q(q), {"num": [...], "den": [...]}, at q0."""
    den = _poly_at(value["den"], q0)
    _require(den != 0, f"denominator vanishes at q={q0}")
    return _poly_at(value["num"], q0) / den


def _header(doc: dict, command: str, family: str, **params) -> None:
    _require(doc.get("schema_version") == SCHEMA, "wrong schema_version")
    _require(doc.get("command") == command, f"command is {doc.get('command')!r}")
    _require(doc.get("family") == family, f"family is {doc.get('family')!r}")
    for key, want in params.items():
        got = doc.get("parameters", {}).get(key)
        _require(got == want, f"parameter {key} is {got!r}, requested {want!r}")


def check_hankel(doc: dict, family: str, max_n: int, q0: Fraction) -> None:
    _header(doc, "hankel", family, max_n=max_n)
    a = Moments(family, q0)
    results = doc["results"]
    _require([r["n"] for r in results] == list(range(max_n + 1)), "orders are not 0..max_n")
    for r in results:
        n = r["n"]
        _require(qrat_at(r["value"], q0) == a.hankel(n), f"d_{n}(q0) disagrees at q={q0}")


def check_orthopoly(doc: dict, family: str, n: int, q0: Fraction) -> None:
    _header(doc, "orthopoly", family, n=n)
    (result,) = doc["results"]
    _require(result["method"] == "det", f"method is {result['method']!r}")
    coeffs = result["polynomial"]
    _require(len(coeffs) == n + 1, f"p_{n} has degree {len(coeffs) - 1}")
    _require(coeffs[-1] == {"num": ["1"], "den": ["1"]}, f"p_{n} is not monic")
    a = Moments(family, q0)
    values = [qrat_at(c, q0) for c in coeffs]
    for k in range(n):
        lk = sum(c * a[i + k] for i, c in enumerate(values))
        _require(lk == 0, f"L(x^{k} p_{n}) = {lk} at q={q0}, expected 0")
    ln = sum(c * a[i + n] for i, c in enumerate(values))
    norm = a.hankel(n + 1) / a.hankel(n)
    _require(ln != 0 and ln == norm, f"L(x^{n} p_{n}) = {ln} at q={q0}, expected {norm}")


def check_recurrence(doc: dict, family: str, max_n: int, q0: Fraction) -> None:
    _header(doc, "recurrence", family, max_n=max_n)
    a = Moments(family, q0)
    d = [a.hankel(n) for n in range(max_n + 2)]
    chi = [a.hankel_shifted(n) for n in range(max_n + 1)]
    s_true = [chi[k + 1] / d[k + 1] - chi[k] / d[k] for k in range(max_n)]
    t_true = [d[k + 2] * d[k] / d[k + 1] ** 2 for k in range(max_n - 1)]
    rows = doc["results"]["rows"]
    _require([r["k"] for r in rows] == list(range(max_n)), "rows are not 0..max_n-1")
    norm = Fraction(1)
    for r in rows:
        k = r["k"]
        _require(qrat_at(r["s"], q0) == s_true[k], f"s_{k} disagrees at q={q0}")
        _require(qrat_at(r["norm"], q0) == norm, f"norm_{k} is not the product of t")
        _require(norm == d[k + 1] / d[k], f"norm_{k} disagrees at q={q0}")
        _require(("t" in r) == (k < max_n - 1), f"row {k} has the wrong t entries")
        if k < max_n - 1:
            t = qrat_at(r["t"], q0)
            _require(t == t_true[k], f"t_{k} disagrees at q={q0}")
            norm *= t
    if max_n == 0:
        return
    values = doc["results"]["aerated"]["values"]
    _require([v["j"] for v in values] == list(range(2 * max_n - 1)), "T are not 0..2N-2")
    T = [qrat_at(v["T"], q0) for v in values]
    for k in range(max_n):
        s = (T[2 * k - 1] if k else 0) + T[2 * k]
        _require(s == s_true[k], f"T_{2 * k - 1} + T_{2 * k} != s_{k} at q={q0}")
        if k < max_n - 1:
            _require(T[2 * k] * T[2 * k + 1] == t_true[k], f"T_{2 * k} T_{2 * k + 1} != t_{k}")


def check_verify(doc: dict, max_n: int, q0: Fraction) -> None:
    _header(doc, "verify", "all", max_n=max_n, q=str(q0))
    reports = doc["results"]
    _require([r["family"] for r in reports] == REGISTRY, "verify did not sweep the registry")
    for rep in reports:
        fam = rep["family"]
        statuses = [e["status"] for e in rep["entries"]]
        _require(rep["ok"] is True, f"{fam}: report is not ok")
        _require("mismatch" not in statuses, f"{fam}: a check mismatched")
        _require(set(statuses) <= {"match", "skipped"}, f"{fam}: unknown status")
        _require(
            rep["counts"] == {s: statuses.count(s) for s in ("match", "mismatch", "skipped")},
            f"{fam}: counts disagree with entries",
        )
        for check, first in CORE_CHECKS.items():
            degrees = sorted(
                e["n"] for e in rep["entries"] if e["check"] == check and e["status"] == "match"
            )
            _require(
                degrees == list(range(first, max_n + 1)),
                f"{fam}: {check} not matched at every n <= {max_n}",
            )


def check_output(command: str, family: str | None, depth: int, q0: Fraction, stdout: str) -> None:
    """Check one request's printed JSON document; raise CheckError if wrong."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    try:
        if command == "hankel":
            check_hankel(doc, family, depth, q0)
        elif command == "orthopoly":
            check_orthopoly(doc, family, depth, q0)
        elif command == "recurrence":
            check_recurrence(doc, family, depth, q0)
        elif command == "verify":
            check_verify(doc, depth, q0)
        else:
            raise ValueError(f"no check for command {command!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
