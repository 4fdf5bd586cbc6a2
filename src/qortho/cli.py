"""Command line front end.

Subcommands: moments, orthopoly, recurrence, triangle, hankel, verify.
Families are addressed as ``tag`` or ``tag:key=value,...``; every value
is exact, either symbolic in q or specialized at a rational point given
with --q.

Exit codes: 0 on success, 1 when exact cross-checks disagree or the
moment sequence fails quasi-definiteness, 2 for usage errors, malformed
input, and evaluation at poles.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .closedforms import specialize_poly, verify_family
from .exactalg import PoleError, QRational
from .momentfamilies import (
    DEFAULT_DEPTH_CAP,
    HARD_DEPTH_CAP,
    FamilyId,
    family,
    registry_family_ids,
)
from .orthocore import (
    QuasiDefinitenessError,
    aerated_recurrence,
    expansion_triangle,
    hankel_direct,
    orthopoly_det,
    orthopoly_recur,
    stieltjes,
)
from .xpoly import XPolynomial

SCHEMA_VERSION = "qortho/1"

__all__ = ["main", "entry", "SCHEMA_VERSION"]


class UsageError(Exception):
    pass


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


# -- LaTeX rendering -------------------------------------------------------------


def _latex_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def latex_qpoly(p) -> str:
    cs = p.coefficients
    if not cs:
        return "0"
    terms = []
    for e, c in enumerate(cs):
        if c == 0:
            continue
        if e == 0:
            terms.append(_latex_fraction(c))
            continue
        var = "q" if e == 1 else f"q^{{{e}}}"
        if c == 1:
            terms.append(var)
        elif c == -1:
            terms.append(f"-{var}")
        else:
            terms.append(f"{_latex_fraction(c)}{var}")
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else f"+{t}"
    return out


def latex_qrat(r: QRational) -> str:
    if r.is_polynomial:
        return latex_qpoly(r.numerator)
    return f"\\frac{{{latex_qpoly(r.numerator)}}}{{{latex_qpoly(r.denominator)}}}"


def latex_xpoly(p: XPolynomial) -> str:
    cs = p.coefficients
    if not cs:
        return "0"
    terms = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c.is_zero:
            continue
        var = "" if e == 0 else ("x" if e == 1 else f"x^{{{e}}}")
        body = latex_qrat(c)
        if not var:
            terms.append(body)
        elif c.is_one:
            terms.append(var)
        elif body.lstrip("-").isdigit() or body.startswith("\\frac"):
            terms.append(f"{body}{var}")
        else:
            terms.append(f"\\left({body}\\right){var}")
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else f"+{t}"
    return out


# -- shared plumbing ---------------------------------------------------------------


def _check_depth(value: int, what: str) -> None:
    if value < 0:
        raise UsageError(f"{what} must be >= 0")
    if value > HARD_DEPTH_CAP:
        raise UsageError(f"{what} {value} exceeds the hard limit {HARD_DEPTH_CAP}")
    if value > DEFAULT_DEPTH_CAP:
        print(
            f"warning: {what} {value} is above {DEFAULT_DEPTH_CAP}; "
            "exact arithmetic may be slow",
            file=sys.stderr,
        )


def _resolve(args):
    """(family, moment sequence) honoring --q."""
    fam = family(args.family)
    if args.q is None:
        return fam, fam.moments
    return fam, fam.specialized_moments(args.q)


def _emit(args, command: str, family_name: str, parameters: dict, results, text_lines, latex_lines=None):
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "family": family_name,
            "parameters": parameters,
            "results": results,
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "latex":
        for line in latex_lines if latex_lines is not None else text_lines:
            print(line)
    else:
        for line in text_lines:
            print(line)


def _params(args, **extra) -> dict:
    out = {"q": None if args.q is None else str(args.q)}
    out.update(extra)
    return out


# -- subcommands --------------------------------------------------------------------


def cmd_moments(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq = _resolve(args)
    values = [seq.moment(k) for k in range(args.max_n + 1)]
    results = [{"n": k, "value": v.to_json()} for k, v in enumerate(values)]
    text = [f"a({k}) = {v}" for k, v in enumerate(values)]
    latex = [f"a_{{{k}}} = {latex_qrat(v)}" for k, v in enumerate(values)]
    _emit(args, "moments", str(fam.fid), _params(args, max_n=args.max_n), results, text, latex)
    return 0


def cmd_orthopoly(args) -> int:
    _check_depth(args.n, "--n")
    fam, seq = _resolve(args)

    def compute(method: str) -> XPolynomial | None:
        if method == "recurrence":
            return orthopoly_recur(seq, args.n)
        if method == "det":
            return orthopoly_det(seq, args.n)
        closed = fam.closed_poly(args.n)
        if closed is None:
            return None
        return closed if args.q is None else specialize_poly(closed, args.q)

    methods = ["recurrence", "det", "closed"] if args.all_methods else [args.method]
    polys = {m: compute(m) for m in methods}
    if polys.get("closed") is None and "closed" in polys:
        if not args.all_methods:
            raise UsageError(f"family {fam.fid} has no closed form")
        del polys["closed"]
    agree = len({tuple(p.coefficients) for p in polys.values()}) == 1
    results = [{"method": m, "polynomial": p.to_json()} for m, p in polys.items()]
    if args.all_methods:
        results.append({"agreement": agree})
    text = [f"[{m}] p_{args.n} = {p}" for m, p in polys.items()]
    latex = [f"p_{{{args.n}}} = {latex_xpoly(p)} \\quad\\text{{({m})}}" for m, p in polys.items()]
    if args.all_methods:
        text.append(f"agreement: {'yes' if agree else 'NO'}")
    _emit(
        args,
        "orthopoly",
        str(fam.fid),
        _params(args, n=args.n, methods=methods),
        results,
        text,
        latex,
    )
    return 0 if agree else 1


def cmd_recurrence(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq = _resolve(args)
    table = stieltjes(seq, args.max_n)
    rows = []
    text = []
    latex = []
    for k in range(table.depth):
        row = {"k": k, "s": table.s[k].to_json(), "norm": table.norms[k].to_json()}
        line = f"s[{k}] = {table.s[k]}"
        lline = f"s_{{{k}}} = {latex_qrat(table.s[k])}"
        if k < len(table.t):
            row["t"] = table.t[k].to_json()
            line += f"    t[{k}] = {table.t[k]}"
            lline += f" \\qquad t_{{{k}}} = {latex_qrat(table.t[k])}"
        rows.append(row)
        text.append(line + "    [stieltjes]")
        latex.append(lline)
    results = {"source": "stieltjes", "rows": rows}
    if fam.aerated_capable and args.max_n > 0:
        # enough T values to recover the s/t block above by deaeration
        depth = 2 * args.max_n - 1
        if fam.has_closed_T:
            t_source = "closed"
            tvals = [fam.closed_T(j) for j in range(depth)]
            if args.q is not None:
                tvals = [QRational.of(v.eval_at(args.q)) for v in tvals]
        else:
            t_source = "stieltjes"
            tvals = list(aerated_recurrence(seq.aerated(), depth))
        results["aerated"] = {
            "source": t_source,
            "values": [{"j": j, "T": v.to_json()} for j, v in enumerate(tvals)],
        }
        for j, v in enumerate(tvals):
            text.append(f"T[{j}] = {v}    [{t_source}]")
            latex.append(f"T_{{{j}}} = {latex_qrat(v)}")
    _emit(args, "recurrence", str(fam.fid), _params(args, max_n=args.max_n), results, text, latex)
    return 0


def cmd_triangle(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq = _resolve(args)
    tri = expansion_triangle(seq, args.max_n)
    results = [
        {"n": n, "entries": [e.to_json() for e in tri.row(n)]} for n in range(len(tri))
    ]
    text = [
        f"row {n}: " + ", ".join(str(e) for e in tri.row(n)) for n in range(len(tri))
    ]
    latex = [
        f"n={n}: " + ", ".join(latex_qrat(e) for e in tri.row(n)) for n in range(len(tri))
    ]
    _emit(args, "triangle", str(fam.fid), _params(args, max_n=args.max_n), results, text, latex)
    return 0


def cmd_hankel(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq = _resolve(args)
    values = [hankel_direct(seq, n) for n in range(args.max_n + 1)]
    results = [{"n": n, "value": v.to_json()} for n, v in enumerate(values)]
    text = [f"d({n}) = {v}" for n, v in enumerate(values)]
    latex = [f"d_{{{n}}} = {latex_qrat(v)}" for n, v in enumerate(values)]
    _emit(args, "hankel", str(fam.fid), _params(args, max_n=args.max_n), results, text, latex)
    return 0


def cmd_verify(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fids = registry_family_ids() if args.all else [FamilyId.parse(args.family)]
    reports = [verify_family(fid, max_n=args.max_n, q=args.q) for fid in fids]
    ok = all(r.ok for r in reports)
    text = []
    for r in reports:
        for e in r.mismatches():
            line = f"MISMATCH {e.family} n={e.n} {e.check}"
            if e.note:
                line += f" ({e.note})"
            if e.left or e.right:
                line += f": {e.left} != {e.right}"
            text.append(line)
        c = r.counts
        text.append(
            f"{r.family}: {c['match']} checks passed, "
            f"{c['mismatch']} mismatched, {c['skipped']} skipped"
        )
    text.append("all families verified" if ok else "verification FAILED")
    results = [r.to_json() for r in reports]
    fam_label = "all" if args.all else str(fids[0])
    _emit(args, "verify", fam_label, _params(args, max_n=args.max_n), results, text)
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument(
        "--family",
        required=True,
        help="family spec, e.g. q-factorial:m=2 or multifactorial:r=3,m=1",
    )
    sp.add_argument("--q", type=_rational_arg, default=None, help="specialize q at a rational")
    sp.add_argument(
        "--format", choices=("text", "json", "latex"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qortho",
        description="Exact orthogonal polynomials from q-moment sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="print the moment sequence")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=8, help="largest index (default 8)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("orthopoly", help="print an orthogonal polynomial")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="degree")
    p.add_argument(
        "--method",
        choices=("recurrence", "det", "closed"),
        default="recurrence",
        help="construction to use",
    )
    p.add_argument(
        "--all-methods",
        action="store_true",
        help="run every construction and compare them",
    )
    p.set_defaults(func=cmd_orthopoly)

    p = sub.add_parser("recurrence", help="print the three-term recurrence table")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=8, help="table depth (default 8)")
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("triangle", help="print the expansion triangle of x^n")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=6, help="largest row (default 6)")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("hankel", help="print Hankel determinants")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=8, help="largest order (default 8)")
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("verify", help="cross-check every construction of a family")
    p.add_argument("--family", help="family spec to verify")
    p.add_argument("--all", action="store_true", help="verify the whole registry")
    p.add_argument("--q", type=_rational_arg, default=None, help="specialize q at a rational")
    p.add_argument(
        "--format", choices=("text", "json", "latex"), default="text", help="output format"
    )
    p.add_argument("--max-n", type=int, default=6, help="largest degree (default 6)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify" and bool(args.family) == bool(args.all):
        print("error: verify needs exactly one of --family or --all", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except QuasiDefinitenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
