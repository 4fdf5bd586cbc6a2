"""Per-layer spans for one qortho request, installed from outside the package.

``install()`` wraps the public functions and operators of each qortho
module (plus the few private helpers the per-layer metrics name) and
rebinds every wrapped name in each ``qortho`` module that imported it, so
``closedforms``, ``cli`` and ``qortho/__init__`` call the wrappers too.
Each timed call records one span (name, start, end, parent) in memory;
``Recorder.dump`` writes them out with the request id when the request
ends.  Hot leaf helpers in ``COUNTED`` are only counted: timing each of
their hundreds of thousands of calls would cost more than their work, so
their time stays in the span that called them.

``summarize()`` runs in the benchmark process.  It reads the span files
of a round and computes self time as a span's duration minus the time
its child spans cover, per name and per layer.
"""

from __future__ import annotations

import functools
import marshal
import sys
import time
from array import array
from collections import Counter

# Module names; spans and metrics name a layer without the leading underscore,
# so ``_intkernel`` reports as ``intkernel``.
MODULES = (
    "_intkernel",
    "exactalg",
    "qcombinatorics",
    "xpoly",
    "momentfamilies",
    "orthocore",
    "closedforms",
    "cli",
)
LAYERS = tuple(m.lstrip("_") for m in MODULES)

# Private helpers that the per-layer metrics name.
EXTRA = {"cli": ("_emit",), "momentfamilies": ("_moment_rule",)}

# Class members wrapped besides public methods.
OPERATORS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__", "__hash__", "__call__",
    "__str__",
}

COUNTED = {
    "intkernel.strip", "intkernel.content", "intkernel.add", "intkernel.neg",
    "intkernel.mul_scalar", "intkernel.l1", "intkernel.eval_int",
    "exactalg.rational_to_str", "exactalg.rational_from_str",
    "exactalg.QPolynomial.init", "exactalg.QPolynomial.add", "exactalg.QPolynomial.sub",
    "exactalg.QPolynomial.rsub", "exactalg.QPolynomial.mul", "exactalg.QPolynomial.neg",
    "exactalg.QPolynomial.eq", "exactalg.QPolynomial.hash", "exactalg.QPolynomial.zero",
    "exactalg.QPolynomial.one", "exactalg.QPolynomial.variable",
    "exactalg.QPolynomial.monomial", "exactalg.QPolynomial.constant",
    "exactalg.QPolynomial.coefficient", "exactalg.QPolynomial.int_parts",
    "exactalg.QRational.init", "exactalg.QRational.neg", "exactalg.QRational.eq", "exactalg.QRational.hash",
    "exactalg.QRational.zero", "exactalg.QRational.one",
    "xpoly.XPolynomial.init", "xpoly.XPolynomial.coefficient",
    "xpoly.XPolynomial.eq", "xpoly.XPolynomial.hash",
}


def _op_name(name: str) -> str:
    return name.strip("_")


class Recorder:
    """Spans and counters of one request process."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.active: list[int] = []
        self.counts: list[int] = []
        # span columns; a nested call of an open name is stored as -(id + 1)
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.gcd_useful = 0
        self.pack_width_max = 0
        self.verify_checks = 0
        self.lru_caches: list = []

    def _id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
            self.counts.append(0)
        return self.index[name]

    def counted(self, name: str, fn):
        counts, nid = self.counts, self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, after=None):
        """Span wrapper; ``after(args, result)`` may update counters."""
        nid = self._id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid if not active[nid] else -nid - 1)
            parent.append(stack[-1])
            end.append(0.0)
            active[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, name: str, fn):
        if name in COUNTED:
            return self.counted(name, fn)
        if name == "intkernel.gcd":
            return self.timed(name, fn, self._after_gcd)
        if name == "intkernel.pack":
            return self.timed(name, fn, self._after_pack)
        if name == "closedforms.verify_family":
            return self.timed(name, fn, self._after_verify)
        if name == "momentfamilies.moment_rule":
            return self._rule_factory(fn)
        return self.timed(name, fn)

    def _after_gcd(self, args, result):
        if len(result) > 1:
            self.gcd_useful += 1

    def _after_pack(self, args, result):
        self.pack_width_max = max(self.pack_width_max, args[1])

    def _after_verify(self, args, report):
        self.verify_checks += sum(e.status != "skipped" for e in report.entries)

    def _rule_factory(self, fn):
        """A family's moment rule runs inside MomentSequence.moment; give it its own span."""

        @functools.wraps(fn)
        def wrapper(fid):
            return self.timed("momentfamilies.moment_rule", fn(fid))

        return wrapper

    def dump(self, path: str, request_id: str) -> None:
        hits = misses = 0
        for cache in self.lru_caches:
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        data = {
            "request": request_id,
            "names": self.names,
            "counts": self.counts,
            "span_name": array("i", self.span_name).tobytes(),
            "parent": array("i", self.parent).tobytes(),
            "start": array("d", self.start).tobytes(),
            "end": array("d", self.end).tobytes(),
            "gcd_useful": self.gcd_useful,
            "pack_width_max": self.pack_width_max,
            "verify_checks": self.verify_checks,
            "cache_hits": hits,
            "cache_misses": misses,
        }
        with open(path, "wb") as f:
            marshal.dump(data, f)


def _members(cls):
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        if isinstance(value, (classmethod, staticmethod)) or (
            callable(value) and not isinstance(value, type)
        ):
            yield attr, value


def install() -> Recorder:
    """Wrap every layer of the imported qortho package; return the recorder."""
    import qortho.cli  # noqa: F401  (importing cli loads every layer)

    rec = Recorder()
    replaced: dict[int, object] = {}
    originals: dict[int, object] = {}
    for modname, layer in zip(MODULES, LAYERS):
        mod = sys.modules[f"qortho.{modname}"]
        rec.lru_caches += [
            o for o in vars(mod).values()
            if hasattr(o, "cache_info") and getattr(o, "__module__", None) == mod.__name__
        ]
        names = [n for n in vars(mod) if not n.startswith("_")] + list(EXTRA.get(modname, ()))
        for attr in names:
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                for member, value in _members(obj):
                    bound = isinstance(value, (classmethod, staticmethod))
                    fn = value.__func__ if bound else value
                    if id(fn) not in replaced:
                        key = f"{layer}.{obj.__name__}.{_op_name(fn.__name__)}"
                        replaced[id(fn)] = rec.wrap(key, fn)
                    new = replaced[id(fn)]
                    setattr(obj, member, type(value)(new) if bound else new)
            elif callable(obj):
                replaced[id(obj)] = rec.wrap(f"{layer}.{_op_name(attr)}", obj)
                originals[id(obj)] = obj
    for modname, mod in list(sys.modules.items()):
        if modname != "qortho" and not modname.startswith("qortho."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in originals and originals[id(obj)] is obj:
                setattr(mod, attr, replaced[id(obj)])
    return rec


# -- analysis, in the benchmark process -------------------------------------------


def load(path: str) -> dict:
    with open(path, "rb") as f:
        data = marshal.load(f)
    for key, code in (("span_name", "i"), ("parent", "i"), ("start", "d"), ("end", "d")):
        col = array(code)
        col.frombytes(data[key])
        data[key] = col
    return data


def summarize(paths: list[str]) -> dict:
    """Per-name calls, total and self seconds, and per-layer self seconds."""
    calls, total, self_s, sums = Counter(), Counter(), Counter(), Counter()
    width = 0
    for path in paths:
        d = load(path)
        names = d["names"]
        calls.update({names[i]: c for i, c in enumerate(d["counts"]) if c})
        dur = [e - s for s, e in zip(d["start"], d["end"])]
        covered = [0.0] * len(dur)
        for i, p in enumerate(d["parent"]):
            if p >= 0:
                covered[p] += dur[i]
        for i, code in enumerate(d["span_name"]):
            name = names[code if code >= 0 else -code - 1]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
            if code >= 0:  # outermost call of its name; nested ones are inside it
                total[name] += dur[i]
        sums.update({k: d[k] for k in ("gcd_useful", "verify_checks", "cache_hits", "cache_misses")})
        width = max(width, d["pack_width_max"])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, v in self_s.items():
        layer_self[name.split(".", 1)[0]] += v
    return {
        "calls": calls, "total_s": total, "self_s": self_s, "layer_self_s": layer_self,
        "pack_width_max": width, **sums,
    }
