"""Byte-identity gate: every benchmark workload job prints what it printed
when ``golden/workloads.json`` was written.

Jobs come from ``bench/workloads.generate`` (imported read-only): every job
of the four workloads at seeds 1-3, and each ``run``, ``search``, ``poset``
and ``check`` job a second time with ``--stats``.  Each job's digest covers
its subcommand, exit code, stdout and stderr, with the work directory
replaced by a placeholder.  No job reaches argparse's own usage or error
text, so the digests do not depend on the Python version.

A change that alters output on purpose regenerates the file with::

    PYTHONPATH=src python tests/test_golden.py --write

and says which jobs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from eolab import cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "workloads.json"
SEEDS = (1, 2, 3)
WITH_STATS = {"run", "search", "poset", "check"}
PLACEHOLDER = "<workdir>"


def _digest(argv: list[str], workdir: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = [argv[0], code, out.getvalue(), err.getvalue().replace(workdir, PLACEHOLDER)]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def compute() -> tuple[dict[str, str], dict[str, list[str]]]:
    """(digest by job key, argv by job key), in generation order.  A key is
    ``workload/seed/id``, with `` --stats`` appended for the second run."""
    digests, argvs = {}, {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                jobs, sources = workloads.generate(workload, seed, workdir)
                for name, text in sources.items():
                    Path(workdir, name).write_text(text)
                for job in jobs:
                    runs = ([], ["--stats"]) if job["argv"][0] in WITH_STATS else ([],)
                    for extra in runs:
                        argv = job["argv"] + extra
                        key = f"{workload}/{seed}/{job['id']}{' --stats' if extra else ''}"
                        digests[key] = _digest(argv, workdir)
                        argvs[key] = [a.replace(workdir, PLACEHOLDER) for a in argv]
    return digests, argvs


def test_every_workload_job_prints_what_it_printed():
    golden = json.loads(GOLDEN.read_text())
    digests, argvs = compute()
    keys = [*golden, *(digests.keys() - golden.keys())]
    differ = [key for key in keys if golden.get(key) != digests.get(key)]
    assert not differ, f"{len(differ)} jobs differ from {GOLDEN.name}; the first: " + "; ".join(
        f"{key}: eolab {' '.join(argvs.get(key, ['(no longer generated)']))[:200]}" for key in differ[:5])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    digests, _ = compute()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
