"""Two sets of benchmark runs of one checkout, compared against the bounds.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py

Set A uses seeds 1..5 and set B seeds 6..10; A runs to its end before B
starts, cycling through the workloads of ``BENCHMARK.json`` seed by
seed.  For every workload and end-to-end metric it prints each set's
median and quartiles (``statistics.quantiles(n=4)``), the spread
(Q3 - Q1) / median of each set and of all runs together, the shift of
B's median from A's, and ``ok`` when the shift and the spreads are
within the metric's bound in ``BENCHMARK.json``.  A run with a failed
request exits non-zero, and the first such run stops the comparison.
The raw results are written to ``.perfbench-out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # runs per set and workload


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed}: " + ", ".join(
        f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sets = {}
    for label, first in (("A", 1), ("B", 1 + RUNS)):
        print(f"set {label}: seeds {first}..{first + RUNS - 1}", flush=True)
        sets[label] = {w: [] for w in workloads}
        for seed in range(first, first + RUNS):
            for w in workloads:
                sets[label][w].append(run_once(bench, w, seed))
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(sets, indent=1))

    all_ok = True
    print(f"\n{'workload':24} {'metric':14} {'bound':>5}  {'A median [Q1, Q3]':>27} {'spread':>6}"
          f"  {'B median [Q1, Q3]':>27} {'spread':>6} {'shift':>7} {'all':>6}")
    for w in workloads:
        a_runs, b_runs = sets["A"][w], sets["B"][w]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            shift = (qb[1] - qa[1]) / qa[1]
            spreads = (spread(a), spread(b), spread(a + b))
            ok = abs(shift) <= bound and max(spreads) <= bound
            all_ok &= ok
            print(f"{w:24} {name:14} {bound:5.2f}  {qa[1]:9.4g} [{qa[0]:7.4g}, {qa[2]:7.4g}] {spreads[0]:6.1%}"
                  f"  {qb[1]:9.4g} [{qb[0]:7.4g}, {qb[2]:7.4g}] {spreads[1]:6.1%} {shift:+7.1%}"
                  f" {spreads[2]:6.1%} {'ok' if ok else 'OUT'}")
    print("steady: every metric within its bound" if all_ok else "NOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
