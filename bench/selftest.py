"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Checks that inputs depend only on the seed, that a corrupted output is
counted as a failure, and the self-time arithmetic of spans.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import cli_workloads  # noqa: E402
import harness  # noqa: E402
from spans import Span, module_self_times, self_times  # noqa: E402


class Scratch(unittest.TestCase):
    def setUp(self):
        os.makedirs(harness.OUT, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=harness.OUT)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def sub(self, name):
        path = os.path.join(self.dir, name)
        os.makedirs(path)
        return path


class InputsDependOnlyOnTheSeed(Scratch):
    def hashes(self, workload, seed, name):
        records, _ = harness.build_inputs(workload, seed, self.sub(name))
        return [(r["path"], r["bytes"], r["sha256"]) for r in records]

    def test_same_seed_same_hashes(self):
        for workload in ("readme_cli", "grid_cli", "library_mix"):
            with self.subTest(workload=workload):
                a = self.hashes(workload, 11, f"{workload}-a")
                b = self.hashes(workload, 11, f"{workload}-b")
                self.assertEqual(a, b)

    def test_other_seed_other_hashes(self):
        for workload in ("grid_cli", "library_mix"):
            with self.subTest(workload=workload):
                self.assertNotEqual(self.hashes(workload, 11, f"{workload}-a"),
                                    self.hashes(workload, 12, f"{workload}-b"))


class CorruptedOutputFails(Scratch):
    """A CLI solve output that the checks accept, then broken four ways."""

    def setUp(self):
        super().setUp()
        import inputs
        from organstop import docio, solve_value_iteration
        from organstop.solver import SolveOptions
        spec = harness.spec_from_section(inputs.README_MODEL)
        vf, pol = solve_value_iteration(spec, SolveOptions(tolerance=1e-10))
        self.doc = docio.solve_results_document(spec, vf, pol)
        self.model = checks.base_arrays(inputs.README_MODEL)

    def outcome(self, doc=None, text=None, code=0):
        with open(os.path.join(self.dir, "solved.json"), "w") as fh:
            fh.write(text if text is not None else json.dumps(doc))
        ledger = harness.Ledger()
        check = cli_workloads.OutputChecks("readme_cli", self.dir, self.model,
                                           ledger)
        check("solve", harness.ChildResult(code, 1.0, 50.0, ""))
        return ledger

    def test_intact_output_passes(self):
        ledger = self.outcome(self.doc)
        self.assertEqual((ledger.attempted, ledger.failed), (1, 0))

    def test_failed_exit_fails(self):
        self.assertEqual(self.outcome(self.doc, code=3).failed, 1)

    def test_flipped_action_fails(self):
        doc = json.loads(json.dumps(self.doc))
        doc["policy"][0][0] = 1 - doc["policy"][0][0]
        self.assertEqual(self.outcome(doc).failed, 1)

    def test_perturbed_value_fails(self):
        doc = json.loads(json.dumps(self.doc))
        doc["values"][1][0] += 1e-6
        self.assertEqual(self.outcome(doc).failed, 1)

    def test_truncated_file_fails(self):
        text = json.dumps(self.doc)
        self.assertEqual(self.outcome(text=text[: len(text) // 2]).failed, 1)


class SelfTime(unittest.TestCase):
    """root [0,10] has children a [1,4] and b [3,6] (overlapping) and
    c [8,12] (runs past the root); a has child d [2,3]."""

    spans = [
        Span(0, "root", "cli", 0.0, 10.0, None, "op"),
        Span(1, "a", "docio", 1.0, 4.0, 0, "op"),
        Span(2, "b", "solver", 3.0, 6.0, 0, "op"),
        Span(3, "c", "solver", 8.0, 12.0, 0, "op"),
        Span(4, "d", "model", 2.0, 3.0, 1, "op"),
    ]

    def test_self_times(self):
        own = self_times(self.spans)
        # root: children cover [1,6] and [8,10] -> 7 of 10
        self.assertAlmostEqual(own[0], 3.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 4.0)
        self.assertAlmostEqual(own[4], 1.0)

    def test_module_self_times(self):
        self.assertEqual(module_self_times(self.spans),
                         {"cli": 3.0, "docio": 2.0, "solver": 7.0, "model": 1.0})


if __name__ == "__main__":
    unittest.main()
