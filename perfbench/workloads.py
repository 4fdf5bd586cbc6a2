"""The benchmark's request lists, made from a seed.

Each workload is a fixed list of qortho commands whose depths are chosen
so that every request does a few seconds of work at about the same cost
as the others in its list (7-10 s per list on a 2-CPU x86 VM, so a
30-second run holds two or three rounds).
The seed shuffles the order, picks the point q0 at which each symbolic
output is checked, and, for ``verify-specialized``, picks the points the
program specialises at.  The program sees only the generated commands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Request:
    command: str
    family: str | None
    depth: int
    q0: Fraction  # check point; for verify also the point the program specialises at

    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", "--all", "--max-n", str(self.depth), "--q", str(self.q0), "--format", "json"]
        depth_flag = "--n" if self.command == "orthopoly" else "--max-n"
        out = [self.command, "--family", self.family, depth_flag, str(self.depth)]
        if self.command == "orthopoly":
            out += ["--method", "det"]
        return out + ["--format", "json"]

    def label(self) -> str:
        return " ".join(self.argv()[:-2])


# (command, family, depth) for the workloads whose commands are symbolic in q.
FIXED = {
    # Stieltjes (recurrence) and hankel_direct with its division by the
    # row scales, one request on each rational-moment family; at depth 8
    # the two cost about the same.  gcd in QRational normalisation dominates.
    "rational-moments": [
        ("recurrence", "q-central-binomial", 8),
        ("hankel", "andrews-q-catalan", 8),
    ],
    # Bareiss elimination on packed integers, polynomial moments, no Stieltjes.
    "determinant-polynomial": [
        ("orthopoly", "q-factorial:m=2", 9),
        ("orthopoly", "multifactorial:r=2,m=2", 8),
        ("hankel", "q-double-factorial", 10),
    ],
}

# verify --all at points P/(P+1) and (P+1)/P: small height, never 1, and
# about the same cost each, so the seed moves the points but not the load.
VERIFY_DEPTH = 8
VERIFY_REQUESTS = 4
VERIFY_POINTS = [Fraction(p, p + 1) for p in range(3, 9)] + [Fraction(p + 1, p) for p in range(3, 9)]

NAMES = ("rational-moments", "determinant-polynomial", "verify-specialized")


def check_point(rng: random.Random) -> Fraction:
    """A positive rational other than 1 with numerator and denominator below 10."""
    while True:
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        if p != q:
            return Fraction(p, q)


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of one round of a workload."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-specialized":
        points = rng.sample(VERIFY_POINTS, VERIFY_REQUESTS)
        return [Request("verify", None, VERIFY_DEPTH, q) for q in points]
    out = [Request(c, f, d, check_point(rng)) for c, f, d in FIXED[workload]]
    rng.shuffle(out)
    return out
