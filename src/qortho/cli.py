"""Command line front end.

Subcommands: moments, orthopoly, recurrence, triangle, hankel, verify.
Families are addressed as ``tag`` or ``tag:key=value,...``; every value
is exact, either symbolic in q or specialized at a rational point given
with --q.  Specialized values are computed as Fractions and lifted to
QRational only to be rendered, so both kinds print the same way.  Each
subcommand renders only the format it prints: text, LaTeX or JSON.

JSON is written in batches as it is encoded, each value (a verification
report too) turned into JSON only as it is written; every value is
computed first, so an error prints nothing on stdout.

Exit codes: 0 on success, 1 when exact cross-checks disagree or the
moment sequence fails quasi-definiteness, 2 for usage errors, malformed
input, and evaluation at poles, 141 (as a shell reports a process that
SIGPIPE ended) when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from .closedforms import VerificationReport, verify_family
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
from .qcombinatorics import QPoint
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


def latex_qrat(r) -> str:
    """A QRational, or a Fraction as the constant QRational it equals."""
    r = QRational.of(r)
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
        if not c:
            continue
        var = "" if e == 0 else ("x" if e == 1 else f"x^{{{e}}}")
        body = latex_qrat(c)
        if not var:
            terms.append(body)
        elif c == 1:
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


def _to_json(o):
    """A qortho value's JSON, a Fraction's as the constant QRational it equals."""
    if isinstance(o, (QRational, Fraction)):
        return QRational.of(o).to_json()
    if isinstance(o, (XPolynomial, VerificationReport)):
        return o.to_json()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(indent=2, default=_to_json)
# Encoder chunks are joined _GROUP at a time, so few small strings are held
# at once, and written once _WRITE characters are pending: with an unbuffered
# stdout (PYTHONUNBUFFERED) every write is a system call.
_GROUP = 256
_WRITE = 32768


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
    """(family, moment sequence, closed-form point) honoring --q; None is Q(q)."""
    fam = family(args.family)
    if args.q is None:
        return fam, fam.moments, None
    return fam, fam.specialized_moments(args.q), QPoint(args.q)


def _emit(args, family_name: str, results, text, latex=None, **parameters):
    """Print --format's rendering, and build no other.

    ``results``, ``text`` and ``latex`` take no arguments and build the
    JSON results, the text lines and the LaTeX lines; without ``latex``,
    LaTeX prints the text lines.  The JSON, which may hold qortho values,
    is ``json.dumps``'s indent-2 rendering, written to the current
    ``sys.stdout`` in writes of about ``_WRITE`` characters rather than
    as one string.  It names the subcommand argparse parsed, and its
    parameters are q and then ``parameters``.
    """
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "family": family_name,
            "parameters": {"q": None if args.q is None else str(args.q), **parameters},
            "results": results(),
        }
        out = sys.stdout
        chunks = _ENCODER.iterencode(doc)
        pending, size = [], 0
        while group := "".join(islice(chunks, _GROUP)):
            pending.append(group)
            size += len(group)
            if size >= _WRITE:
                out.write("".join(pending))
                pending, size = [], 0
        pending.append("\n")
        out.write("".join(pending))
        return
    for line in latex() if args.format == "latex" and latex is not None else text():
        print(line)


# -- subcommands --------------------------------------------------------------------


def _sequence(args, label: str, value) -> int:
    """Print label(n) = value(seq, n) for n = 0..--max-n."""
    _check_depth(args.max_n, "--max-n")
    fam, seq, _ = _resolve(args)
    values = [value(seq, n) for n in range(args.max_n + 1)]
    _emit(
        args,
        str(fam.fid),
        lambda: [{"n": n, "value": v} for n, v in enumerate(values)],
        lambda: [f"{label}({n}) = {v}" for n, v in enumerate(values)],
        lambda: [f"{label}_{{{n}}} = {latex_qrat(v)}" for n, v in enumerate(values)],
        max_n=args.max_n,
    )
    return 0


def cmd_moments(args) -> int:
    return _sequence(args, "a", lambda seq, n: seq.moment(n))


def cmd_orthopoly(args) -> int:
    _check_depth(args.n, "--n")
    fam, seq, at = _resolve(args)

    def compute(method: str) -> XPolynomial | None:
        if method == "recurrence":
            return orthopoly_recur(seq, args.n)
        if method == "det":
            return orthopoly_det(seq, args.n)
        return fam.closed_poly(args.n, at)

    methods = ["recurrence", "det", "closed"] if args.all_methods else [args.method]
    polys = {m: compute(m) for m in methods}
    if polys.get("closed") is None and "closed" in polys:
        if not args.all_methods:
            raise UsageError(f"family {fam.fid} has no closed form")
        del polys["closed"]
    agree = len({tuple(p.coefficients) for p in polys.values()}) == 1

    def results():
        out = [{"method": m, "polynomial": p} for m, p in polys.items()]
        if args.all_methods:
            out.append({"agreement": agree})
        return out

    def text():
        out = [f"[{m}] p_{args.n} = {p}" for m, p in polys.items()]
        if args.all_methods:
            out.append(f"agreement: {'yes' if agree else 'NO'}")
        return out

    _emit(
        args,
        str(fam.fid),
        results,
        text,
        lambda: [
            f"p_{{{args.n}}} = {latex_xpoly(p)} \\quad\\text{{({m})}}" for m, p in polys.items()
        ],
        n=args.n,
        methods=methods,
    )
    return 0 if agree else 1


def cmd_recurrence(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq, at = _resolve(args)
    table = stieltjes(seq, args.max_n)
    t_source, tvals = None, []
    if fam.aerated_capable and args.max_n > 0:
        # enough T values to recover the s/t table by deaeration
        depth = 2 * args.max_n - 1
        if fam.has_closed_T:
            t_source = "closed"
            tvals = [fam.closed_T(j, at) for j in range(depth)]
        else:
            t_source = "stieltjes"
            tvals = list(aerated_recurrence(seq.aerated(), depth))

    def results():
        rows = []
        for k in range(table.depth):
            row = {"k": k, "s": table.s[k], "norm": table.norms[k]}
            if k < len(table.t):
                row["t"] = table.t[k]
            rows.append(row)
        out = {"source": "stieltjes", "rows": rows}
        if t_source is not None:
            out["aerated"] = {
                "source": t_source,
                "values": [{"j": j, "T": v} for j, v in enumerate(tvals)],
            }
        return out

    def text():
        out = []
        for k in range(table.depth):
            line = f"s[{k}] = {table.s[k]}"
            if k < len(table.t):
                line += f"    t[{k}] = {table.t[k]}"
            out.append(line + "    [stieltjes]")
        return out + [f"T[{j}] = {v}    [{t_source}]" for j, v in enumerate(tvals)]

    def latex():
        out = []
        for k in range(table.depth):
            line = f"s_{{{k}}} = {latex_qrat(table.s[k])}"
            if k < len(table.t):
                line += f" \\qquad t_{{{k}}} = {latex_qrat(table.t[k])}"
            out.append(line)
        return out + [f"T_{{{j}}} = {latex_qrat(v)}" for j, v in enumerate(tvals)]

    _emit(args, str(fam.fid), results, text, latex, max_n=args.max_n)
    return 0


def cmd_triangle(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fam, seq, _ = _resolve(args)
    rows = list(expansion_triangle(seq, args.max_n))
    _emit(
        args,
        str(fam.fid),
        lambda: [{"n": n, "entries": row} for n, row in enumerate(rows)],
        lambda: [f"row {n}: " + ", ".join(str(e) for e in row) for n, row in enumerate(rows)],
        lambda: [f"n={n}: " + ", ".join(latex_qrat(e) for e in row) for n, row in enumerate(rows)],
        max_n=args.max_n,
    )
    return 0


def cmd_hankel(args) -> int:
    return _sequence(args, "d", hankel_direct)


def cmd_verify(args) -> int:
    _check_depth(args.max_n, "--max-n")
    fids = registry_family_ids() if args.all else [FamilyId.parse(args.family)]
    reports = [verify_family(fid, max_n=args.max_n, q=args.q) for fid in fids]
    ok = all(r.ok for r in reports)

    def text():
        out = []
        for r in reports:
            for e in r.mismatches():
                line = f"MISMATCH {e.family} n={e.n} {e.check}"
                if e.note:
                    line += f" ({e.note})"
                if e.left or e.right:
                    line += f": {e.left} != {e.right}"
                out.append(line)
            c = r.counts
            out.append(
                f"{r.family}: {c['match']} checks passed, "
                f"{c['mismatch']} mismatched, {c['skipped']} skipped"
            )
        return out + ["all families verified" if ok else "verification FAILED"]

    label = "all" if args.all else str(fids[0])
    _emit(args, label, lambda: reports, text, max_n=args.max_n)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``qortho ... | head``): end quietly, with
        # stdout on devnull so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
