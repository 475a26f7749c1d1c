"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance and time limit is pinned here; the time
limits are asserted against wall-clock measurements of the operations
themselves.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from contextlib import contextmanager

from eolab.oracle import brute_force_witness, check_hasse
from eolab.patterns import OrderPattern, eo_leq, pattern_of, uniform
from eolab.poset import all_patterns, build_poset, max_chain, sample_antichain
from eolab.search import SearchBudget, witness
from eolab.vm import Scheduler, dovetail, schedule

from conftest import FIXTURES, PROGRAMS, PAIR_NAMES, load_program, program_pairs


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL — {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number:02d} PASS — {description} [{elapsed:.2f}s]")


def eolab(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "eolab", *argv], capture_output=True, text=True
    )


def check_json(*argv: str) -> tuple[int, dict]:
    proc = eolab(*argv, "--format", "json")
    return proc.returncode, json.loads(proc.stdout)


def is_cover(a, b) -> bool:
    # In this inversion-graded order, a related pair one inversion apart
    # can have nothing strictly between (nested inversion sets differ in
    # cardinality by at least one per strict step).
    inverted = [sum(x > y for x, y in itertools.combinations(p.ranks, 2)) for p in (a, b)]
    return eo_leq(a, b) and inverted[0] == inverted[1] + 1


def test_criterion_01_partial_order_laws():
    with criterion(1, "partial-order laws via `check --suite preorder --n 5`"):
        start = time.monotonic()
        code, doc = check_json("check", "--suite", "preorder", "--n", "5")
        elapsed = time.monotonic() - start
        assert code == 0
        assert doc["failures"] == []
        assert doc["checked"] == 120 + 1_728_000 + 14_400
        assert elapsed < 60.0


def test_criterion_02_containment_characterization():
    with criterion(2, "containment characterization via `check --suite inversion --n 6`"):
        start = time.monotonic()
        code, doc = check_json("check", "--suite", "inversion", "--n", "6")
        elapsed = time.monotonic() - start
        assert code == 0
        assert doc["failures"] == []
        assert doc["checked"] == 518_400
        assert elapsed < 60.0


def test_criterion_03_two_sided_equals_uniform():
    with criterion(3, "two-sided/uniform/equality coincidence via `check --suite theorem10 --n 6`"):
        start = time.monotonic()
        code, doc = check_json("check", "--suite", "theorem10", "--n", "6")
        elapsed = time.monotonic() - start
        assert code == 0
        assert doc["failures"] == []
        assert doc["checked"] == 518_400
        assert elapsed < 60.0


def test_criterion_04_constructive_realization():
    with criterion(4, "constructive realization via `check --suite theorem3 --n 5`"):
        from eolab.oracle import check_theorem3_finite

        start = time.monotonic()
        report = check_theorem3_finite(5, {2, 3, 5, 7, 11})
        elapsed = time.monotonic() - start
        assert report.passed and report.checked == 120
        assert elapsed < 1.0
        code, doc = check_json(
            "check", "--suite", "theorem3", "--n", "5", "--support", "2,3,5,7,11"
        )
        assert code == 0 and doc["checked"] == 120 and doc["failures"] == []


def test_criterion_05_poset_structure():
    with criterion(5, "Hasse vs transitive-reduction oracle, n <= 5"):
        start = time.monotonic()
        expected_counts = {1: 0, 2: 1, 3: 6, 4: 36, 5: 240}
        for n in range(1, 6):
            report = check_hasse(n)
            assert report.passed, report.failures[:3]
            assert len(build_poset(n).hasse) == expected_counts[n]
        elapsed = time.monotonic() - start
        assert elapsed < 30.0


def test_poset_n7_cli_covers_are_adjacent_value_swaps():
    start = time.monotonic()
    proc = eolab("poset", "--n", "7", "--format", "json")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert elapsed < 2.0
    doc = json.loads(proc.stdout)
    nodes = doc["nodes"]
    assert len(nodes) == 5040 and len(doc["hasse"]) == 15_120
    for a, b in doc["hasse"]:
        lower, upper = nodes[a], nodes[b]
        diff = [i for i in range(7) if lower[i] != upper[i]]
        assert len(diff) == 2
        i, j = diff
        assert lower[i] == lower[j] + 1 and (upper[i], upper[j]) == (lower[j], lower[i])


def test_build_poset_n8():
    start = time.monotonic()
    poset = build_poset(8)
    elapsed = time.monotonic() - start
    assert len(poset.nodes) == 40_320
    assert len(poset.hasse) == 141_120
    assert elapsed < 30.0


def test_criterion_06_chain_analogue():
    with criterion(6, "`poset --n 6 --chain`: 16 patterns, each step a cover"):
        start = time.monotonic()
        chain = max_chain(6).patterns
        elapsed = time.monotonic() - start
        assert elapsed < 1.0

        proc = eolab("poset", "--n", "6", "--chain")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 16
        patterns = [pattern_of([int(v) for v in line.split(",")]) for line in lines]
        assert [p.ranks for p in patterns] == [p.ranks for p in chain]
        assert patterns[0] == OrderPattern((5, 4, 3, 2, 1, 0))
        assert patterns[-1] == OrderPattern((0, 1, 2, 3, 4, 5))
        for a, b in zip(patterns, patterns[1:]):
            assert eo_leq(a, b) and a != b
            assert is_cover(a, b)


def test_criterion_07_antichain_analogue():
    with criterion(7, "`poset --antichain`: verified incomparable sets"):
        start = time.monotonic()
        sample_antichain(3, 2)
        sample_antichain(4, 3)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0

        proc = eolab("poset", "--n", "3", "--antichain", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0,2,1", "1,0,2"]

        proc = eolab("poset", "--n", "4", "--antichain", "3")
        assert proc.returncode == 0
        patterns = [
            pattern_of([int(v) for v in line.split(",")])
            for line in proc.stdout.splitlines()
        ]
        assert len(patterns) == 3
        for a, b in itertools.combinations(patterns, 2):
            assert not eo_leq(a, b) and not eo_leq(b, a)


def test_criterion_08_extremes():
    with criterion(8, "identity is top and reversal is bottom for n <= 6"):
        for n in range(1, 7):
            top, bottom = OrderPattern(tuple(range(n))), OrderPattern(tuple(range(n - 1, -1, -1)))
            for p in all_patterns(n):
                assert eo_leq(p, top)
                assert eo_leq(bottom, p)


def test_criterion_09_vm_determinism_and_order():
    with criterion(9, "VM determinism and cost-driven enumeration order"):
        evens = load_program("evens")
        trace = dovetail(evens, k=5, round_cap=100)
        assert trace.emitted == (0, 2, 4, 6, 8)
        assert pattern_of(trace.emitted) == OrderPattern((0, 1, 2, 3, 4))

        staggered = load_program("staggered")
        stag = dovetail(staggered, k=10, round_cap=50)
        positions = {value: t for t, value in enumerate(stag.emitted)}
        odd_positions = [t for v, t in positions.items() if v % 2 == 1]
        even_positions = [t for v, t in positions.items() if v % 2 == 0]
        assert odd_positions and even_positions
        assert max(odd_positions) < min(even_positions)

        assert dovetail(staggered, k=10, round_cap=50) == stag
        args = (
            "run", "--program", str(PROGRAMS / "staggered.json"),
            "--k", "10", "--round-cap", "50", "--format", "json",
        )
        first, second = eolab(*args), eolab(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


def test_run_round_cap_100000_is_cheap():
    start = time.monotonic()
    proc = eolab(
        "run", "--program", str(PROGRAMS / "evens_only.json"),
        "--k", "100000", "--round-cap", "100000", "--format", "json",
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert elapsed < 5.0
    doc = json.loads(proc.stdout)
    assert doc["truncated"] and doc["rounds"] == 100_000
    assert doc["emitted"] == list(range(0, 100_001, 2))


def test_run_min_first_window_20000_is_cheap():
    # The buffer is a heap: O(k log w), where a scan of the whole buffer
    # per output took 5.4 s here.
    start = time.monotonic()
    proc = eolab(
        "run", "--program", str(PROGRAMS / "evens.json"), "--k", "20000",
        "--round-cap", "100000", "--schedule", "min_first", "--window", "20000",
        "--format", "json",
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert elapsed < 2.0
    assert json.loads(proc.stdout)["emitted"] == list(range(0, 40_000, 2))


def test_pattern_length_2000_is_fast():
    # About two million pairs: the output is Θ(n²), and rendering it must
    # take time linear in its size, not build and sort pair objects.
    n = 2000
    sequence = ",".join(str((7 * i) % 2003) for i in range(n))
    for fmt in ("text", "json"):
        start = time.monotonic()
        proc = eolab("pattern", sequence, "--format", fmt)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0
        assert elapsed < 2.0, (fmt, elapsed)
        if fmt == "json":
            doc = json.loads(proc.stdout)
            assert len(doc["ascents"]) + len(doc["inversions"]) == n * (n - 1) // 2
        else:
            lines = proc.stdout.splitlines()
            assert [line.split(":")[0] for line in lines] == ["pattern", "ascents", "inversions"]


def test_search_k10_w3_exhausts_quickly():
    # Rising against falling natives: B's frontier is shared across A's
    # reorderings and dead subtrees are counted in closed form.
    evens, countdown = load_program("evens"), load_program("countdown")
    budget = SearchBudget(k=10, window=3, max_nodes=1_000_000)
    start = time.monotonic()
    eo = witness(evens, countdown, budget, "eo_leq")
    uni = witness(evens, countdown, budget, "uniform")
    elapsed = time.monotonic() - start
    assert (eo.status, eo.nodes_explored) == ("space_exhausted", 668_532)
    assert (uni.status, uni.nodes_explored) == ("space_exhausted", 537_636)
    assert elapsed < 0.25


def test_criterion_10_scheduler_window_invariant():
    with criterion(10, "window locality on the committed scheduler corpus"):
        entries = json.loads(
            (FIXTURES / "scheduler_corpus.json").read_text(encoding="utf-8")
        )
        assert len(entries) >= 20
        assert {e["kind"] for e in entries} == {"native", "min_first", "max_first", "explicit"}
        assert any(e["window"] == 1 for e in entries)
        for entry in entries:
            native = entry["native"]
            window = entry["window"]
            sched = Scheduler(
                entry["kind"], window=window, choices=tuple(entry.get("choices", ()))
            )
            out = schedule(native, sched, k=len(native))
            for t, value in enumerate(out.elements, start=1):
                assert value in native[: t + window - 1]
            if window == 1:
                assert out.elements == tuple(native)
            # Forcing window 1 must reproduce native order for any kind.
            forced = Scheduler(
                entry["kind"],
                window=1,
                choices=(0,) * len(native) if entry["kind"] == "explicit" else (),
            )
            assert schedule(native, forced, k=len(native)).elements == tuple(native)


def test_criterion_11_search_agreement_with_oracle():
    with criterion(11, "pruned search vs brute force, all k <= 6, w <= 3"):
        start = time.monotonic()
        pairs = program_pairs()
        assert len(pairs) >= 6
        for (prog_a, prog_b), relation in itertools.product(pairs, ("eo_leq", "uniform")):
            relate = eo_leq if relation == "eo_leq" else uniform
            for k, w in itertools.product(range(1, 7), range(1, 4)):
                budget = SearchBudget(k=k, window=w, max_nodes=200_000)
                pruned = witness(prog_a, prog_b, budget, relation)
                brute = brute_force_witness(prog_a, prog_b, k, w, relation)
                assert pruned.status == brute.status, (prog_a.name, prog_b.name, relation, k, w)
                if pruned.status != "witness_found":
                    continue
                assert pruned.choices_a == brute.choices_a
                assert pruned.choices_b == brute.choices_b
                sched_a = Scheduler("explicit", window=w, choices=pruned.choices_a)
                sched_b = Scheduler("explicit", window=w, choices=pruned.choices_b)
                prefix_a = schedule(dovetail(prog_a, k, 1_000).emitted, sched_a, k)
                prefix_b = schedule(dovetail(prog_b, k, 1_000).emitted, sched_b, k)
                assert prefix_a == pruned.prefix_a and prefix_b == pruned.prefix_b
                assert relate(pattern_of(prefix_a), pattern_of(prefix_b))
        elapsed = time.monotonic() - start
        assert elapsed < 120.0


def test_criterion_12_trivial_witness_guarantee():
    with criterion(12, "w >= k always yields a witness for every fixture pair"):
        assert len(PAIR_NAMES) >= 6
        for prog_a, prog_b in program_pairs():
            for k, w in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
                for relation in ("eo_leq", "uniform"):
                    report = witness(prog_a, prog_b, SearchBudget(k=k, window=w), relation)
                    assert report.status == "witness_found", (prog_a.name, prog_b.name, k, w)
