"""Tests of the benchmark itself: the checker accepts real output and
catches a perturbed value or a flipped verdict, a failed request makes
the run not correct, the workloads are seeded, and the tracer's self
times add up.

Run from the root of a checkout:  python3 -m unittest discover perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def cli(*args: str, trace: str = "-") -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "request.py"), trace, *args, "--format", "json"],
        env=ENV, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def bump(value: dict) -> None:
    """Add one to the constant term of a printed numerator."""
    value["num"][0] = str(Fraction(value["num"][0]) + 1)


class CheckerTest(unittest.TestCase):
    q0 = Fraction(2, 3)

    def assertCaught(self, fn, doc, *args):
        with self.assertRaises(checker.CheckError):
            fn(doc, *args)

    def test_moments_follow_the_definitions_at_q_one(self):
        one = Fraction(1)
        self.assertEqual([checker.moment("q-factorial:m=0", n, one) for n in range(5)], [1, 1, 2, 6, 24])
        self.assertEqual(checker.moment("multifactorial:r=2,m=1", 2, one), 15)
        self.assertEqual(checker.moment("q-double-factorial", 3, one), 15)
        self.assertEqual(checker.moment("andrews-q-catalan", 1, one), Fraction(1, 4))
        self.assertEqual(checker.moment("q-central-binomial", 2, one), Fraction(3, 8))

    def test_hankel(self):
        doc = cli("hankel", "--family", "q-factorial:m=1", "--max-n", "4")
        checker.check_hankel(doc, "q-factorial:m=1", 4, self.q0)
        bad = copy.deepcopy(doc)
        bump(bad["results"][3]["value"])
        self.assertCaught(checker.check_hankel, bad, "q-factorial:m=1", 4, self.q0)
        self.assertCaught(checker.check_hankel, doc, "q-factorial:m=2", 4, self.q0)

    def test_orthopoly(self):
        doc = cli("orthopoly", "--family", "multifactorial:r=2,m=1", "--n", "3", "--method", "det")
        checker.check_orthopoly(doc, "multifactorial:r=2,m=1", 3, self.q0)
        bad = copy.deepcopy(doc)
        bump(bad["results"][0]["polynomial"][1])
        self.assertCaught(checker.check_orthopoly, bad, "multifactorial:r=2,m=1", 3, self.q0)
        bad = copy.deepcopy(doc)
        bad["results"][0]["polynomial"][3] = {"num": ["2"], "den": ["1"]}
        self.assertCaught(checker.check_orthopoly, bad, "multifactorial:r=2,m=1", 3, self.q0)

    def test_recurrence(self):
        doc = cli("recurrence", "--family", "andrews-q-catalan", "--max-n", "3")
        checker.check_recurrence(doc, "andrews-q-catalan", 3, self.q0)
        for path in (("rows", 1, "s"), ("rows", 1, "t"), ("rows", 2, "norm")):
            bad = copy.deepcopy(doc)
            bump(bad["results"][path[0]][path[1]][path[2]])
            self.assertCaught(checker.check_recurrence, bad, "andrews-q-catalan", 3, self.q0)
        bad = copy.deepcopy(doc)
        bump(bad["results"]["aerated"]["values"][3]["T"])
        self.assertCaught(checker.check_recurrence, bad, "andrews-q-catalan", 3, self.q0)

    def test_verify(self):
        q = Fraction(3, 4)
        doc = cli("verify", "--all", "--max-n", "2", "--q", "3/4")
        checker.check_verify(doc, 2, q)
        bad = copy.deepcopy(doc)
        entry = next(e for e in bad["results"][5]["entries"] if e["check"] == "hankel-two-path")
        entry["status"] = "mismatch"
        self.assertCaught(checker.check_verify, bad, 2, q)
        bad = copy.deepcopy(doc)
        bad["results"][2]["ok"] = False
        self.assertCaught(checker.check_verify, bad, 2, q)
        bad = copy.deepcopy(doc)
        report = bad["results"][7]
        report["entries"] = [e for e in report["entries"] if not (e["check"] == "orthogonality" and e["n"] == 2)]
        report["counts"]["match"] -= 1
        self.assertCaught(checker.check_verify, bad, 2, q)
        self.assertCaught(checker.check_verify, doc, 2, Fraction(4, 5))

    def test_check_output_rejects_text(self):
        with self.assertRaises(checker.CheckError):
            checker.check_output("hankel", "q-factorial:m=1", 2, self.q0, "d(0) = 1\n")


class WorkloadTest(unittest.TestCase):
    def test_seeded(self):
        for name in workloads.NAMES:
            a = workloads.requests(name, 7)
            self.assertEqual(a, workloads.requests(name, 7))
            self.assertNotEqual(a, workloads.requests(name, 8))
            self.assertTrue(all(r.q0 > 0 and r.q0 != 1 for r in a))

    def test_same_commands_for_every_seed(self):
        for name in ("rational-moments", "determinant-polynomial"):
            lists = {tuple(sorted(r.label() for r in workloads.requests(name, s))) for s in range(20)}
            self.assertEqual(len(lists), 1)


class BenchmarkFileTest(unittest.TestCase):
    def test_declares_what_run_prints(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)


class FailedRequestTest(unittest.TestCase):
    def test_non_zero_exit_fails_the_run(self):
        bad = workloads.Request("hankel", "no-such-family", 2, Fraction(2, 3))
        with mock.patch.object(run.workloads, "requests", lambda name, seed: [bad]):
            r = run.run_workload("tests-failing", 1, 0, trace=False)
        self.assertEqual((r["attempted"], r["failed"]), (1, 1))
        self.assertFalse(r["correct"])
        self.assertEqual(r["metrics"], {})

    def test_check_names_the_exit_code(self):
        result = {"req": None, "rc": 2, "setup": 0.1, "rss_mb": 16.0}
        self.assertEqual(run.check(result), "exit code 2")
        result.update(rc=0, setup=None)
        self.assertEqual(run.check(result), "no ready or peak mark on stderr")


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_the_command(self):
        out = ROOT / ".perfbench-out" / "tests"
        out.mkdir(parents=True, exist_ok=True)
        spans = str(out / "hankel.spans")
        doc = cli("hankel", "--family", "andrews-q-catalan", "--max-n", "4", trace=spans)
        checker.check_hankel(doc, "andrews-q-catalan", 4, Fraction(5, 2))
        s = tracer.summarize([spans])
        self.assertEqual(s["calls"]["cli.main"], 1)
        self.assertEqual(s["calls"]["orthocore.hankel_direct"], 5)  # orders 0..4
        self.assertGreater(s["calls"]["intkernel.gcd"], s["gcd_useful"])
        self.assertGreater(s["gcd_useful"], 0)
        self.assertAlmostEqual(sum(s["layer_self_s"].values()), s["total_s"]["cli.main"], places=6)
        self.assertGreater(s["layer_self_s"]["intkernel"], 0)


if __name__ == "__main__":
    unittest.main()
