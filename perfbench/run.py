"""qortho benchmark: seeded workloads of real CLI requests, checked independently.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client, closed loop, one request in flight: each request is a fresh
Python process running one ``qortho`` command with ``--format json``
(see ``request.py``), and the next starts when it has exited.  A run
repeats the workload's request list in whole rounds while another round
still fits in ``--seconds``; it always runs at least one.  Every output
is checked by ``checker.py`` after its round, outside the timed region.
No request is expected to fail: one that exits non-zero, leaves no ready
or peak mark, or prints a wrong output makes the run not ``correct``, and
the benchmark then exits with code 1 after printing its result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and prints the per-layer metrics from the
traced rounds (see ``tracer.py``).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
READY = "perfbench-ready "
PEAK = "perfbench-peak-kib "

END_TO_END = {"setup_s": "s", "wall_s": "s", "request_p50_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  ``<layer>.self_s`` sums the self time
# of every span in a layer; ``<span>.calls``, ``<span>.total_s`` and
# ``<span>.self_s`` read one span name.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "intkernel.gcd.calls": "count",
    "intkernel.gcd.total_s": "s",
    "intkernel.gcd.useful_ratio": "ratio",
    "intkernel.mul.calls": "count",
    "intkernel.mul.total_s": "s",
    "intkernel.divexact.total_s": "s",
    "intkernel.pack.width_bits_max": "bits",
    "exactalg.QRational.init.calls": "count",
    "exactalg.QRational.mul.total_s": "s",
    "exactalg.QRational.add.total_s": "s",
    "exactalg.QPolynomial.mul.calls": "count",
    "qcombinatorics.cache_hit_ratio": "ratio",
    "xpoly.XPolynomial.mul.total_s": "s",
    "xpoly.apply_functional.calls": "count",
    "xpoly.apply_functional.total_s": "s",
    "xpoly.MomentSequence.moment.total_s": "s",
    "momentfamilies.functional_from_basis.total_s": "s",
    "orthocore.stieltjes.total_s": "s",
    "orthocore.orthopoly_det.self_s": "s",
    "orthocore.hankel_direct.self_s": "s",
    "orthocore.hankel_direct.total_s": "s",
    "orthocore.hankel_direct.calls": "count",
    "closedforms.closed_polynomial.total_s": "s",
    "closedforms.verify_family.checks": "count",
    "cli.emit.total_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(s: dict) -> dict[str, float]:
    """Per-layer metric values from one traced round's span summary."""
    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = s["calls"].get(base, 0)
        elif kind == "total_s":
            out[name] = s["total_s"].get(base, 0.0)
        elif kind == "self_s":
            out[name] = s["layer_self_s"][base] if base in tracer.LAYERS else s["self_s"].get(base, 0.0)
    gcd_calls = s["calls"].get("intkernel.gcd", 0)
    lookups = s["cache_hits"] + s["cache_misses"]
    out["intkernel.gcd.useful_ratio"] = s["gcd_useful"] / gcd_calls if gcd_calls else 0.0
    out["intkernel.pack.width_bits_max"] = s["pack_width_max"]
    out["qcombinatorics.cache_hit_ratio"] = s["cache_hits"] / lookups if lookups else 0.0
    out["closedforms.verify_family.checks"] = s["verify_checks"]
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_request(req: workloads.Request, stem: Path, trace: bool) -> dict:
    """Run one request process; time it from launch to exit."""
    spans = stem.with_suffix(".spans")
    argv = [sys.executable, str(HERE / "request.py"), str(spans) if trace else "-", *req.argv()]
    env = child_env()
    with open(stem.with_suffix(".out"), "wb") as out, open(stem.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        done = subprocess.run(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        t1 = time.perf_counter()
    marks = {}
    for line in stem.with_suffix(".err").read_text(errors="replace").splitlines():
        for mark in (READY, PEAK):
            if line.startswith(mark):
                marks[mark] = float(line[len(mark):])
    return {
        "req": req,
        "stem": stem,
        "rc": done.returncode,
        "wall": t1 - t0,
        "setup": marks[READY] - t0 if READY in marks else None,
        "rss_mb": marks[PEAK] / 1024 if PEAK in marks else None,
        "spans": spans if trace else None,
    }


def run_round(reqs: list[workloads.Request], folder: Path, trace: bool) -> tuple[float, list[dict]]:
    t0 = time.perf_counter()
    results = [run_request(r, folder / f"{i:02d}", trace) for i, r in enumerate(reqs)]
    return time.perf_counter() - t0, results


def check(result: dict) -> str | None:
    """None if the request succeeded with a correct output, else the reason."""
    req = result["req"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    if result["setup"] is None or result["rss_mb"] is None:
        return "no ready or peak mark on stderr"
    stdout = result["stem"].with_suffix(".out").read_text()
    try:
        checker.check_output(req.command, req.family, req.depth, req.q0, stdout)
    except checker.CheckError as exc:
        return f"wrong output: {exc}"
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reqs = workloads.requests(name, seed)
    folder = OUT / name
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    plain_walls, traced_walls, traced_metrics, results = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            wall, res = run_round(reqs, folder, traced)
            for r in res:
                print(f"{name}: {r['wall']:7.3f} s  {r['req'].label()}{'  [traced]' if traced else ''}", file=sys.stderr)
                why = check(r)
                r["failed"] = why is not None
                if why:
                    print(f"{name}: FAILED {r['req'].label()} at q0={r['req'].q0}: {why}", file=sys.stderr)
            results += res
            if traced:
                traced_walls.append(wall)
                summary = tracer.summarize([str(r["spans"]) for r in res if not r["failed"]])
                traced_metrics.append(layer_metrics(summary))
            else:
                plain_walls.append(wall)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:  # the next round would not fit
            break
    ok = [r for r in results if not r["failed"]]
    plain_ok = [r for r in ok if r["spans"] is None]
    metrics: dict[str, dict] = {}
    if trace:
        values = {k: statistics.median(m[k] for m in traced_metrics) for k in traced_metrics[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    elif plain_ok:
        values = {
            "setup_s": statistics.median(r["setup"] for r in plain_ok),
            "wall_s": statistics.median(plain_walls),
            "request_p50_s": statistics.median(r["wall"] for r in plain_ok),
            "peak_rss_mb": max(r["rss_mb"] for r in plain_ok),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "rounds": len(plain_walls),
    }


def prepare() -> None:
    """Compile the package once and start one untimed request, so no run pays for either."""
    compileall.compile_dir(str(ROOT / "src" / "qortho"), quiet=1)
    OUT.mkdir(exist_ok=True)
    warm = subprocess.run(
        [sys.executable, str(HERE / "request.py"), "-", "moments", "--family", "q-factorial:m=0",
         "--max-n", "2", "--format", "json"],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if warm.returncode != 0:
        raise SystemExit(f"perfbench: qortho does not start:\n{warm.stderr}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qortho" / "cli.py").is_file():
        print(f"perfbench: no qortho source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated benchmark unwinds, so run_request kills and reaps its request.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the benchmark and, by inheritance, every request it starts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    prepare()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, r in runs.items():
        shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{name}: {r['attempted']} requests in {r['rounds']} round(s), {r['failed']} failed; {shown}")
    if len(runs) == 1:
        (r,) = runs.values()
        metrics = r["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in runs.items() for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
