"""Self-test of the benchmark harness: python3 bench/selftest.py

Checks that a seed fixes the load, that the checker rejects a corrupted
witness, that a job over the time limit counts as failed, and that a job
outside the known-defect share that raises or times out makes the result
incorrect.
"""

from __future__ import annotations

import shutil
import signal
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


class SelfTest(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(dir=HERE.parent, prefix=".bench_selftest"))
        self.addCleanup(shutil.rmtree, self.workdir)

    def _run(self, jobs, sources):
        for name, text in sources.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        return [run.run_pass(jobs)]

    def test_same_seed_same_load(self):
        for workload in WORKLOADS:
            first = run.load_digest(*generate(workload, 7, "w"))
            self.assertEqual(first, run.load_digest(*generate(workload, 7, "w")), workload)
            self.assertNotEqual(first, run.load_digest(*generate(workload, 8, "w")), workload)

    def test_corrupted_witness_fails(self):
        _, sources = generate("search", 1, str(self.workdir))
        job = {"id": 0, "defect": None,
               "argv": ["search", "--a", str(self.workdir / "evens.json"),
                        "--b", str(self.workdir / "countdown.json"),
                        "--k", "3", "--window", "3", "--relation", "uniform"],
               "spec": {"a": "evens.json", "b": "countdown.json", "k": 3, "w": 3,
                        "relation": "uniform", "round_cap": 1000, "format": "text"}}
        passes = self._run([job], sources)
        code, stdout = passes[0]["outcomes"][0][1:]
        self.assertTrue(stdout.startswith("status: witness_found"))
        self.assertEqual(run.grade([job], passes, sources)[:2], (0, 0))
        lines = stdout.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("choicesB: "))
        choices = lines[at].split(": ")[1].split(",")
        choices[0] = "1" if choices[0] == "0" else "0"
        lines[at] = "choicesB: " + ",".join(choices)
        passes[0]["outcomes"][0] = ("exit", code, "\n".join(lines) + "\n")
        self.assertEqual(run.grade([job], passes, sources)[:2], (1, 1))

    def test_timeout_fails(self):
        job = {"id": 0, "argv": ["poset", "--n", "6", "--antichain", "12"], "defect": "antichain",
               "spec": {"mode": "antichain", "n": 6, "size": 12, "format": "text"}}
        old_handler = signal.signal(signal.SIGALRM, run._on_alarm)
        old_limit, run.JOB_LIMIT_S = run.JOB_LIMIT_S, 0.2
        try:
            passes = self._run([job], {})
        finally:
            run.JOB_LIMIT_S = old_limit
            signal.signal(signal.SIGALRM, old_handler)
        self.assertEqual(passes[0]["outcomes"][0], ("timeout",))
        self.assertLess(passes[0]["latencies"][0], 1.0)
        self.assertEqual(run.grade([job], passes, {})[:2], (1, 0))
        job["defect"] = None
        self.assertEqual(run.grade([job], passes, {})[:2], (1, 1))

    def test_unexpected_exception_fails(self):
        _, sources = generate("enumerate", 1, str(self.workdir))
        job = {"id": 0, "defect": None,
               "argv": ["run", "--program", str(self.workdir / "deep_parens.json"), "--k", "5"],
               "spec": {"program": "deep_parens.json", "ref": "shallow.json", "k": 5,
                        "round_cap": 1000, "deep": True, "format": "text"}}
        passes = self._run([job], sources) * 2
        self.assertEqual(passes[0]["outcomes"][0], ("exception", "RecursionError"))
        self.assertEqual(run.grade([job], passes, sources)[:2], (2, 2))
        job["defect"] = "deep"
        self.assertEqual(run.grade([job], passes, sources)[:2], (2, 0))


if __name__ == "__main__":
    unittest.main()
