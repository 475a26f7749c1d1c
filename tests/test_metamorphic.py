"""Metamorphic checks: the fast paths against themselves, at sizes no oracle reaches.

Each test transforms its input in a way whose effect on the answer is
known from the definitions, and needs no reference: the witness walk at
k up to 300, ``cmp``'s verdict on sequences up to length 5,000, the
poset's cover edges at every length up to 8, and ``run`` through the CLI
on a program whose value v becomes M - (v).
Cases come from seeded generators, and each test counts the cases that
decide something, so a generator that drifts into vacuous cases fails.
Every witness the walk returns is also replayed and re-checked.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

from conftest import PROGRAMS
from eolab.cli import main
from eolab.patterns import _first_violation, eo_leq, pattern_of, uniform
from eolab.poset import build_poset
from eolab.search import SearchBudget, _walk
from eolab.vm import Scheduler, schedule

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from workloads import _program  # noqa: E402


def _listing(rng: random.Random, k: int) -> tuple[int, ...]:
    # k distinct naturals: shuffled, rising, falling, or rising with a few
    # adjacent positions swapped.
    values = rng.sample(range(3 * k + 1), k)
    shape = rng.choice(("shuffled", "rising", "falling", "nearly"))
    if shape != "shuffled":
        values.sort(reverse=shape == "falling")
    if shape == "nearly":
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(k)
            values[i : i + 2] = values[i : i + 2][::-1]
    return tuple(values)


def _walk_cases(seed: int, count: int):
    # (native_a, native_b, budget): half at k <= 10, where the walk can
    # exhaust its space, half at k up to 300; B is a relabelled, nearly
    # unchanged copy of A in a third of them, so uniform witnesses occur.
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 10) if rng.random() < 0.5 else rng.randint(11, 300)
        native_a = _listing(rng, k)
        if rng.random() < 1 / 3:
            native_b = [2 * x + 1 for x in native_a]
            i = rng.randrange(k)
            native_b[i : i + 2] = native_b[i : i + 2][::-1]
            native_b = tuple(native_b)
        else:
            native_b = _listing(rng, k)
        b = SearchBudget(k=k, window=rng.randint(1, 6), max_nodes=rng.randint(1, 20_000))
        yield native_a, native_b, b


def _relabel(native):
    return tuple(3 * x + 7 for x in native)


def _complement(native):
    top = max(native)
    return tuple(top - x for x in native)


def _checked_walk(native_a, native_b, b, relation):
    # The walk's outcome; a witness must replay, through the scheduler, to
    # listings whose patterns stand in the relation.
    outcome = _walk(native_a, native_b, b, relation)
    if outcome[2] is not None:
        pattern_a, pattern_b = (
            pattern_of(schedule(native, Scheduler("explicit", window=b.window, choices=choices), b.k))
            for native, choices in zip((native_a, native_b), outcome[2])
        )
        assert (eo_leq if relation == "eo_leq" else uniform)(pattern_a, pattern_b), (native_a, native_b, b)
    return outcome


@pytest.mark.parametrize("relation", ["eo_leq", "uniform"])
def test_walk_ignores_order_preserving_relabelling(relation):
    # The walk reads values only through comparisons, so x -> 3x + 7 on
    # either side leaves status, count, choices and counters unchanged.
    for native_a, native_b, b in _walk_cases(17, 120):
        outcome = _checked_walk(native_a, native_b, b, relation)
        assert _walk(_relabel(native_a), native_b, b, relation) == outcome, (native_a, native_b, b)
        assert _walk(native_a, _relabel(native_b), b, relation) == outcome, (native_a, native_b, b)


def _decided_pairs(cases, relation, transform):
    # The statuses of each case and its transformed twin, where neither
    # run hits the budget.
    for native_a, native_b, b in cases:
        first = _checked_walk(native_a, native_b, b, relation)[0]
        second = _checked_walk(*transform(native_a, native_b), b, relation)[0]
        if "budget_exceeded" not in (first, second):
            yield first, second


def test_uniform_status_is_symmetric():
    # Equal patterns are symmetric: some reorderings of A and B share a
    # pattern or none do, whichever side the walk fixes first.
    pairs = list(_decided_pairs(_walk_cases(23, 200), "uniform", lambda a, b: (b, a)))
    assert all(first == second for first, second in pairs)
    assert {first for first, _ in pairs} == {"witness_found", "space_exhausted"}


def test_eo_status_survives_complementing_and_swapping():
    # p <=eo q iff comp q <=eo comp p, and complementing a native listing
    # complements each of its window reorderings, choice for choice.
    cases = _walk_cases(29, 200)
    pairs = list(_decided_pairs(cases, "eo_leq", lambda a, b: (_complement(b), _complement(a))))
    assert all(first == second for first, second in pairs)
    assert {first for first, _ in pairs} == {"witness_found", "space_exhausted"}


def _sequence_pairs(seed: int, count: int):
    # Equal-length sequences of distinct naturals, up to length 5,000: q is
    # p with a few pairs of adjacent values exchanged, so p and q are
    # often comparable, one way or both.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5_000)
        p = rng.sample(range(2 * n), n)
        ranked = sorted(range(n), key=p.__getitem__)  # positions by value
        q = list(p)
        for _ in range(rng.randint(0, 3)):
            r = rng.randrange(n - 1)
            i, j = ranked[r], ranked[r + 1]
            q[i], q[j] = q[j], q[i]
            ranked[r], ranked[r + 1] = j, i
        yield p, q


def test_cmp_verdict_survives_reversal_and_complement():
    # Reversal and complement each turn ascents into inversions, so
    # p <=eo q iff rev q <=eo rev p iff comp q <=eo comp p.
    verdicts = []
    for p, q in _sequence_pairs(31, 60):
        top = max(p + q)
        leq = _first_violation(pattern_of(p), pattern_of(q)) is None
        rev = _first_violation(pattern_of(q[::-1]), pattern_of(p[::-1])) is None
        comp = _first_violation(pattern_of([top - x for x in q]), pattern_of([top - x for x in p])) is None
        assert leq == rev == comp, (len(p), leq, rev, comp)
        verdicts.append(leq)
    assert set(verdicts) == {True, False}


def test_cmp_cli_reversed_and_complemented(capsys):
    # p = 0,2,3,1 and q = 0,1,3,2, then (rev q, rev p) and (comp q, comp p)
    # with x -> 3 - x: the same verdict each time, and the one violation,
    # q's ascent (1,3), moved to (0,2) by reversal and kept by complement.
    for left, right, violation in (
        ("0,2,3,1", "0,1,3,2", "(1,3)"),
        ("2,3,1,0", "1,3,2,0", "(0,2)"),
        ("3,2,0,1", "3,1,0,2", "(1,3)"),
    ):
        assert main(["cmp", "--left", left, "--right", right]) == 0
        assert capsys.readouterr().out.startswith(
            f"left pattern: {left}\n"
            f"right pattern: {right}\n"
            "left ≤eo right: true\n"
            f"right ≤eo left: false (least violation {violation})\n"
            "verdict: left ≤eo right only\n"
        )


@pytest.mark.parametrize("n", range(1, 9))
def test_cover_edges_survive_reverse_complement(n):
    # p -> w0 p w0, position i taking n - 1 - p[n - 1 - i], sends the
    # ascent (i, j) to (n - 1 - j, n - 1 - i): an automorphism of the weak
    # order, so it maps the cover edges onto themselves, direction kept.
    poset = build_poset(n)
    index = {p.ranks: a for a, p in enumerate(poset.nodes)}
    image = [index[tuple(n - 1 - r for r in reversed(p.ranks))] for p in poset.nodes]
    edges = set(poset.hasse)
    assert {(image[a], image[b]) for a, b in edges} == edges


# --- run, complemented ------------------------------------------------------
#
# Dovetail order depends only on cost and guard, and v -> M - v is injective
# on every value, so the complement of a program keeps its halting rounds
# and its first emissions, and reverses the order of its values.

M = 2**64 - 1


def _program_docs(rng: random.Random, count: int) -> list[dict]:
    # The fixture programs, then ``count`` from the benchmark's families.
    docs = [json.loads(path.read_text()) for path in sorted(PROGRAMS.glob("*.json"))]
    for j in range(count):
        family = ("reach", "guarded", "repeat")[j % 3]
        docs.append({**_program(rng, family, rng.randint(2, 5)), "name": f"{family}{j}"})
    return docs


def _run(capsys, path, k, cap, schedule):
    argv = ["run", "--program", path, "--k", k, "--round-cap", cap, "--format", "json", "--stats", *schedule]
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _mirrored(original, complement) -> bool:
    # Whether the case decided something: exit 0 with values emitted.
    code, out, err = original
    assert complement[0] == code, (original, complement)
    if code:
        return False
    a, b = json.loads(out), json.loads(complement[1])
    n = len(a["emitted"])
    assert b["emitted"] == [M - v for v in a["emitted"]]
    assert b["pattern"] == (a["pattern"] and [n - 1 - r for r in a["pattern"]])
    assert (b["rounds"], b["truncated"]) == (a["rounds"], a["truncated"])
    assert complement[2] == err  # the --stats counters
    return n > 0


def test_run_on_complemented_program_mirrors_the_listing(tmp_path, capsys):
    rng = random.Random(2024)
    decided = []
    for j, doc in enumerate(_program_docs(rng, 30)):
        original, complement = tmp_path / f"p{j}.json", tmp_path / f"c{j}.json"
        original.write_text(json.dumps(doc))
        complement.write_text(json.dumps({**doc, "value": f"{M} - ({doc['value']})"}))
        for _ in range(4):
            k, w = rng.randint(1, 300), rng.randint(1, 8)
            cap = rng.choice((k, 1000))
            choices = ",".join(str(rng.randrange(min(w, k - t))) for t in range(k))
            pairs = [((), ())]
            pairs += [(("--schedule", kind, "--window", w), ("--schedule", mirror, "--window", w))
                      for kind, mirror in (("max_first", "min_first"), ("min_first", "max_first"))]
            explicit = ("--schedule", "explicit", "--window", w, "--choices", choices)
            pairs.append((explicit, explicit))
            for left, right in pairs:
                decided.append(_mirrored(_run(capsys, original, k, cap, left),
                                         _run(capsys, complement, k, cap, right)))
    assert sum(decided) >= 350 and decided.count(False) >= 100, sum(decided)  # 401 of 608
