"""Oracle suite tests: case counts, pass/fail reporting, caps."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eolab import oracle, patterns as fast
from eolab.errors import InputError
from eolab.expressions import EvaluationError
from eolab.oracle import (
    OracleCapError,
    brute_force_dovetail,
    brute_force_schedule,
    brute_force_witness,
    check_hasse,
    check_inversion_equiv,
    check_preorder_laws,
    check_theorem3_finite,
    check_theorem10,
    recursive_witness_search,
)
from eolab.search import MAX_NODES, InsufficientEnumerationError, SearchBudget
from eolab.vm import Scheduler, dovetail, parse_program

from conftest import PAIR_NAMES, PROGRAMS, load_program


@pytest.mark.parametrize("n", [1, 3, 4])
def test_preorder_laws_pass(n):
    report = check_preorder_laws(n)
    m = math.factorial(n)
    assert report.passed
    assert report.checked == m + m**3 + m**2
    assert report.suite == "preorder"


def test_preorder_cap():
    with pytest.raises(OracleCapError):
        check_preorder_laws(6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_equiv_pass(n):
    report = check_inversion_equiv(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2


def test_inversion_cap():
    with pytest.raises(OracleCapError):
        check_inversion_equiv(7)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_theorem10_pass(n):
    report = check_theorem10(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2


def test_theorem3_pass():
    report = check_theorem3_finite(3, {4, 8, 15})
    assert report.passed
    assert report.checked == 6
    report = check_theorem3_finite(5, {2, 3, 5, 7, 11})
    assert report.passed
    assert report.checked == 120


def test_theorem3_support_size_enforced():
    with pytest.raises(OracleCapError):
        check_theorem3_finite(3, {1, 2})


def test_theorem3_support_repeat_rejected():
    with pytest.raises(fast.DuplicateElementError) as exc:
        check_theorem3_finite(3, [4, 8, 4])
    assert (exc.value.value, exc.value.first_index, exc.value.second_index) == (4, 0, 2)


def test_theorem3_checks_its_support_once(monkeypatch):
    built = []
    check = fast.ListingPrefix.__post_init__
    monkeypatch.setattr(fast.ListingPrefix, "__post_init__", lambda self: built.append(check(self)))
    assert check_theorem3_finite(4, (2, 3, 5, 7)).passed
    assert len(built) == 1 + math.factorial(4)  # the support, then each arrangement


def test_theorem3_names_bad_value_at_its_support_position():
    with pytest.raises(InputError, match=f"element {2**64} at position 0 outside"):
        check_theorem3_finite(2, [2**64, 0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hasse_pass(n):
    report = check_hasse(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2 + 1


def test_hasse_cap():
    with pytest.raises(OracleCapError):
        check_hasse(6)


def test_report_json_shape():
    doc = check_theorem10(2).to_json()
    assert set(doc) == {"suite", "params", "checked", "failures"}
    assert doc["failures"] == []
    assert doc["params"] == {"n": 2}


def test_brute_force_identical_programs():
    evens = load_program("evens")
    report = brute_force_witness(evens, evens, k=3, w=2, relation="eo_leq")
    assert report.status == "witness_found"
    assert report.choices_a == (0, 0, 0)
    assert report.choices_b == (0, 0, 0)
    assert report.nodes_explored == 1


def test_brute_force_window_one_refutation():
    report = brute_force_witness(
        load_program("evens"), load_program("alternating"), k=2, w=1, relation="eo_leq"
    )
    assert report.status == "space_exhausted"
    assert report.nodes_explored == 1


def test_brute_force_unknown_relation_is_a_clipped_input_error():
    evens = load_program("evens")
    with pytest.raises(InputError, match="unknown relation") as exc:
        brute_force_witness(evens, evens, k=2, w=1, relation="r" * 250)
    assert len(str(exc.value)) < 150


def test_brute_force_caps():
    evens = load_program("evens")
    with pytest.raises(OracleCapError):
        brute_force_witness(evens, evens, k=7, w=2, relation="eo_leq")
    with pytest.raises(OracleCapError):
        brute_force_witness(evens, evens, k=2, w=4, relation="eo_leq")


@pytest.mark.parametrize("names", PAIR_NAMES, ids="-".join)
@pytest.mark.parametrize("relation", ["eo_leq", "uniform"])
def test_literal_walk_agrees_with_brute_force(names, relation):
    # The two witness references, with no fast path between them: the
    # status and both choice vectors agree.  Their node counts differ by
    # definition (candidates tried against joint vectors scanned).
    prog_a, prog_b = map(load_program, names)
    for k, w in itertools.product(range(1, 7), range(1, 4)):
        budget = SearchBudget(k=k, window=w, max_nodes=MAX_NODES)
        walked = recursive_witness_search(prog_a, prog_b, budget, relation)
        brute = brute_force_witness(prog_a, prog_b, k, w, relation)
        assert walked.status == brute.status, (k, w)
        assert (walked.choices_a, walked.choices_b) == (brute.choices_a, brute.choices_b), (k, w)


def test_brute_force_range_checks_raise_input_error():
    evens = load_program("evens")
    for call in (
        lambda: brute_force_dovetail(evens, 0, 10),
        lambda: brute_force_dovetail(evens, 3, 0),
        lambda: brute_force_schedule((1, 2, 3), Scheduler("native"), 0),
    ):
        with pytest.raises(InputError):
            call()
    with pytest.raises(InputError) as exc:
        brute_force_dovetail(evens, -(10**200), 10)
    assert len(str(exc.value)) < 200


def test_brute_force_truncation():
    guarded = load_program("evens_only")
    with pytest.raises(InsufficientEnumerationError):
        brute_force_witness(guarded, guarded, k=6, w=2, relation="uniform", round_cap=4)


def test_determinism():
    assert check_theorem10(3) == check_theorem10(3)
    assert check_hasse(3) == check_hasse(3)


# --- the direct loops over the cached pair table ----------------------------------
# The loops as nested ranges, the reference for the walk over ``_pairs``.


def _nested_leq(p, q):
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] < p[j] and not (q[i] < q[j]):
                return False
    return True


def _nested_uniform(p, q):
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if (p[i] < p[j]) != (q[i] < q[j]):
                return False
    return True


@pytest.mark.parametrize("n", range(9))
def test_pair_table_lists_index_pairs_in_order(n):
    assert oracle._pairs(n) == tuple((i, j) for i in range(n) for j in range(i + 1, n))


def test_pair_table_cache_stays_small():
    # brute_force_pair_sets builds its pairs itself, so a long reference
    # sequence leaves no table behind, and the loops keep a few lengths.
    oracle._pairs.cache_clear()
    up, down = oracle.brute_force_pair_sets(tuple(range(400)))
    assert (len(up), len(down)) == (79_800, 0)
    assert oracle._pairs.cache_info().currsize == 0
    for n in range(40):
        oracle._direct_leq(tuple(range(n)), tuple(range(n)))
    assert oracle._pairs.cache_info().currsize <= 8


@pytest.mark.parametrize("n", range(5))
def test_direct_loops_match_nested_ranges_on_permutations(n):
    perms = list(itertools.permutations(range(n)))
    for p, q in itertools.product(perms, repeat=2):
        assert oracle._direct_leq(p, q) == _nested_leq(p, q)
        assert oracle._direct_uniform(p, q) == _nested_uniform(p, q)


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n)] * 2)))
def test_direct_loops_match_nested_ranges_with_ties(pq):
    p, q = pq
    assert oracle._direct_leq(p, q) == _nested_leq(p, q)
    assert oracle._direct_uniform(p, q) == _nested_uniform(p, q)


@pytest.mark.parametrize("suite", ["preorder", "inversion", "theorem10", "theorem3", "hasse"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suites_make_one_direct_evaluation_per_counted_test(monkeypatch, suite, n):
    calls = []
    for name in ("_direct_leq", "_direct_uniform"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda p, q, real=real: calls.append(1) or real(p, q))
    run = {
        "preorder": check_preorder_laws,
        "inversion": check_inversion_equiv,
        "theorem10": check_theorem10,
        "theorem3": lambda n: check_theorem3_finite(n, (2, 3, 5, 7)[:n]),
        "hasse": check_hasse,
    }[suite]
    report = run(n)
    assert report.passed
    assert len(calls) == report.relation_tests


# --- fault injection --------------------------------------------------------------
# The suites as literal loops, the reference for the bit rows: every
# ordered triple for transitivity, a scan over all patterns for each strict
# pair, and every verdict recomputed per pair.  Under a broken relation or fast path, each
# suite must report exactly what its literal loop reports, in the same order.

_REAL_LEQ = oracle._direct_leq


def _literal_preorder(n):
    perms = list(itertools.permutations(range(n)))
    m = len(perms)
    table = [[oracle._direct_leq(p, q) for q in perms] for p in perms]
    failures = []
    for a in range(m):
        if not table[a][a]:
            failures.append({"law": "reflexivity", "p": list(perms[a])})
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[a][b] and table[b][c] and not table[a][c]:
                    failures.append({"law": "transitivity", "p": list(perms[a]),
                                     "q": list(perms[b]), "r": list(perms[c])})
    for a in range(m):
        for b in range(m):
            if table[a][b] and table[b][a] and a != b:
                failures.append({"law": "antisymmetry", "p": list(perms[a]), "q": list(perms[b])})
    return {"suite": "preorder", "params": {"n": n}, "checked": m + m**3 + m**2,
            "failures": failures}


def _literal_inversion(n):
    perms = list(itertools.permutations(range(n)))
    objects = [fast.OrderPattern(p) for p in perms]
    failures = []
    for (p, po), (q, qo) in itertools.product(zip(perms, objects), repeat=2):
        direct = oracle._direct_leq(p, q)
        contained = fast.eo_leq(po, qo)
        if direct != contained:
            failures.append({"p": list(p), "q": list(q), "direct": direct, "containment": contained})
    return {"suite": "inversion", "params": {"n": n}, "checked": len(perms) ** 2,
            "failures": failures}


def _literal_theorem10(n):
    perms = list(itertools.permutations(range(n)))
    objects = [fast.OrderPattern(p) for p in perms]
    failures = []
    for (p, po), (q, qo) in itertools.product(zip(perms, objects), repeat=2):
        equal = p == q
        verdicts = {
            "direct_two_sided": oracle._direct_leq(p, q) and oracle._direct_leq(q, p),
            "direct_uniform": oracle._direct_uniform(p, q),
            "module_eo_equiv": fast.eo_equiv(po, qo),
            "module_uniform": fast.uniform(po, qo),
        }
        if any(v != equal for v in verdicts.values()):
            failures.append({"p": list(p), "q": list(q), "equal": equal, **verdicts})
    return {"suite": "theorem10", "params": {"n": n}, "checked": len(perms) ** 2,
            "failures": failures}


def _literal_hasse(n):
    perms = list(itertools.permutations(range(n)))
    strict = {(p, q) for p in perms for q in perms if p != q and oracle._direct_leq(p, q)}
    reduction = {
        (p, q) for (p, q) in strict
        if not any((p, r) in strict and (r, q) in strict for r in perms)
    }
    poset = oracle.build_poset(n)
    module_edges = {(poset.nodes[a].ranks, poset.nodes[b].ranks) for a, b in poset.hasse}
    failures = [{"edge": [list(p), list(q)], "missing_from": "module"}
                for p, q in sorted(reduction - module_edges)]
    failures += [{"edge": [list(p), list(q)], "missing_from": "oracle"}
                 for p, q in sorted(module_edges - reduction)]
    expected_count = (n - 1) * math.factorial(n) // 2
    if len(module_edges) != expected_count:
        failures.append({"check": "cover_count", "expected": expected_count,
                         "actual": len(module_edges)})
    return {"suite": "hasse", "params": {"n": n}, "checked": len(perms) ** 2 + 1,
            "failures": failures}


_SUITES = {
    "preorder": (check_preorder_laws, _literal_preorder),
    "inversion": (check_inversion_equiv, _literal_inversion),
    "theorem10": (check_theorem10, _literal_theorem10),
    "hasse": (check_hasse, _literal_hasse),
}


def _flips(n, seed):
    """A seeded set of ordered pattern pairs, some on the diagonal."""
    rng = random.Random(seed)
    perms = list(itertools.permutations(range(n)))
    flips = {(rng.choice(perms), rng.choice(perms)) for _ in range(rng.randint(1, len(perms)))}
    return flips | {(p, p) for p in rng.sample(perms, rng.randint(0, 2))}


def _assert_same_report(suite, n):
    fast_suite, literal = _SUITES[suite]
    report = fast_suite(n).to_json()
    # json.dumps keeps key order, so this compares the order of keys too.
    assert json.dumps(report) == json.dumps(literal(n))
    return report


@pytest.mark.parametrize("suite", sorted(_SUITES))
@pytest.mark.parametrize("n", [3, 4])
def test_suites_match_literal_loops_under_broken_relation(monkeypatch, suite, n):
    failing = 0
    for seed in range(20):
        flips = _flips(n, seed)
        monkeypatch.setattr(oracle, "_direct_leq",
                            lambda p, q, flips=flips: _REAL_LEQ(p, q) != ((p, q) in flips))
        failing += bool(_assert_same_report(suite, n)["failures"])
    assert failing >= 15


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_broken_eo_leq_fails_inversion_and_theorem10(monkeypatch, n, seed):
    # A flipped diagonal pair breaks eo_equiv, so theorem10 fails too.
    flips = _flips(n, seed) | {(tuple(range(n)),) * 2}
    real = fast.eo_leq
    monkeypatch.setattr(fast, "eo_leq",
                        lambda p, q: real(p, q) != ((p.ranks, q.ranks) in flips))
    perms = itertools.permutations(range(n))
    expected = [
        {"p": list(p), "q": list(q), "direct": _REAL_LEQ(p, q), "containment": not _REAL_LEQ(p, q)}
        for p, q in itertools.product(perms, repeat=2)
        if (p, q) in flips
    ]
    assert check_inversion_equiv(n).failures == tuple(expected)
    assert _assert_same_report("theorem10", n)["failures"]


@pytest.mark.parametrize("name", ["eo_equiv", "uniform"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_broken_equivalence_fails_theorem10(monkeypatch, name, n, seed):
    flips = _flips(n, seed)
    real = getattr(fast, name)
    monkeypatch.setattr(fast, name, lambda p, q: real(p, q) != ((p.ranks, q.ranks) in flips))
    assert _assert_same_report("theorem10", n)["failures"]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_broken_poset_fails_hasse(monkeypatch, n, seed):
    real = oracle.build_poset

    def broken(n):
        poset = real(n)
        dropped = set(random.Random(seed).sample(poset.hasse, 2))
        edges = [e for e in poset.hasse if e not in dropped] + [(0, len(poset.nodes) - 1)]
        return dataclasses.replace(poset, hasse=tuple(sorted(edges)))

    monkeypatch.setattr(oracle, "build_poset", broken)
    failures = _assert_same_report("hasse", n)["failures"]
    assert [f.get("missing_from", f.get("check")) for f in failures] == [
        "module", "module", "oracle", "cover_count"
    ]


def _outcome(run, prog, k, round_cap):
    try:
        return run(prog, k, round_cap)
    except EvaluationError as exc:
        return type(exc), str(exc)


def _assert_dovetail_agrees(prog, k, round_cap):
    # Whole traces (emitted, rounds, halted_inputs, steps_charged,
    # truncated) must match, or the first error's type and message.
    assert _outcome(dovetail, prog, k, round_cap) == _outcome(
        brute_force_dovetail, prog, k, round_cap
    )


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.json")))
@pytest.mark.parametrize("round_cap", [1, 5, 40, 300])
def test_dovetail_agrees_with_round_loop_on_fixtures(name, round_cap):
    prog = load_program(name)
    for k in (1, 3, 10, 40):
        _assert_dovetail_agrees(prog, k, round_cap)


_arith = st.recursive(
    st.just("i") | st.integers(0, 12).map(str),
    lambda inner: st.builds(
        lambda a, op, b: f"({a} {op} {b})", inner, st.sampled_from(["+", "-", "*", "mod"]), inner
    ),
    max_leaves=5,
)
# Costs such as c - i reach 0 at some input: the first error must come
# from the same input, in the same round, in both dovetailers.
_cost = _arith | st.builds(lambda c, e: f"{c} - {e}", st.integers(1, 40), _arith)
_guard = st.none() | st.builds(
    lambda a, op, b: f"{a} {op} {b}", _arith, st.sampled_from(["==", "!=", "<", "<="]), _arith
)


@settings(max_examples=150, deadline=None)
@given(_arith, _cost, _guard, st.sampled_from([1, 3, 10, 40]), st.sampled_from([1, 5, 40, 300]))
def test_dovetail_agrees_with_round_loop_on_generated(value, cost, guard, k, round_cap):
    doc = {"name": "generated", "value": value, "cost": cost, "guard": guard}
    _assert_dovetail_agrees(parse_program(json.dumps(doc)), k, round_cap)
