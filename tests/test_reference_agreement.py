"""``search`` through ``cli.main`` agrees with the benchmark's reference.

Jobs are built as ``bench/workloads.py`` builds them, from its program
families, and judged by ``bench/reference.check``: its own dovetailer and
replay, and ``oracle.brute_force_witness`` for the status and both choice
vectors.  ``bench/`` is imported read-only.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile

from hypothesis import given, settings, strategies as st

from eolab import cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import reference  # noqa: E402
from workloads import FIXTURES, _Builder, _program  # noqa: E402

FAMILIES = ("reach", "guarded", "repeat", "fixture")


def _source(rng: random.Random, family: str) -> dict:
    if family == "fixture":
        return FIXTURES[rng.choice(sorted(FIXTURES))]
    return _program(rng, family)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    families=st.tuples(st.sampled_from(FAMILIES), st.sampled_from(FAMILIES)),
    k=st.integers(1, 6),
    w=st.integers(1, 3),
    relation=st.sampled_from(("eo", "uniform")),
    fmt=st.sampled_from(("text", "json")),
    max_nodes=st.none() | st.integers(1, 500),
)
def test_search_agrees_with_reference(seed, families, k, w, relation, fmt, max_nodes):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as workdir:
        b = _Builder(workdir)
        a, bb = (b.program(f"{side}.json", _source(rng, family))
                 for side, family in zip("ab", families))
        argv = ["search", "--a", b.path(a), "--b", b.path(bb), "--k", k, "--window", w,
                "--relation", relation]
        if max_nodes is not None:
            argv += ["--max-nodes", max_nodes]
        b.add(argv, {"a": a, "b": bb, "k": k, "w": w, "relation": relation,
                     "round_cap": 1000}, fmt)
        for name, text in b.sources.items():
            with open(b.path(name), "w") as f:
                f.write(text)
        (job,) = b.jobs
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job["argv"])
    assert reference.check(job, code, out.getvalue(), b.sources) is None, (job["argv"], b.sources)
