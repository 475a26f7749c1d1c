"""Witness search tests: soundness, completeness at small scale, budgets."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from eolab.errors import InputError
from eolab.oracle import OracleCapError, _literal_walk, recursive_witness_search
from eolab.patterns import eo_leq, pattern_of, uniform
from eolab.search import (
    RESTRICTION_NOTE,
    InsufficientEnumerationError,
    SearchBudget,
    _walk,
    witness,
)
from eolab.vm import Scheduler, parse_program, schedule

from conftest import load_program, program_pairs


def budget(k, w, max_nodes=200_000, round_cap=1_000):
    return SearchBudget(k=k, window=w, max_nodes=max_nodes, round_cap=round_cap)


# --- trivial and forced outcomes ------------------------------------------


@pytest.mark.parametrize("relation", ["eo_leq", "uniform"])
def test_identical_programs_native_witness(relation):
    evens = load_program("evens")
    report = witness(evens, evens, budget(k=4, w=2), relation)
    assert report.status == "witness_found"
    assert report.choices_a == (0, 0, 0, 0)
    assert report.choices_b == (0, 0, 0, 0)


@pytest.mark.parametrize("relation", ["eo_leq", "uniform"])
@pytest.mark.parametrize("pair", program_pairs(), ids=lambda p: p[0].name + "-" + p[1].name)
def test_window_at_least_k_always_finds_witness(relation, pair):
    report = witness(pair[0], pair[1], budget(k=3, w=3), relation)
    assert report.status == "witness_found"


def test_window_one_forced_refutation():
    evens = load_program("evens")
    alternating = load_program("alternating")
    report = witness(evens, alternating, budget(k=2, w=1), "eo_leq")
    assert report.status == "space_exhausted"
    # ...but the reversed direction succeeds natively.
    assert witness(alternating, evens, budget(k=2, w=1), "eo_leq").status == "witness_found"


def test_window_one_uniform_refutation():
    report = witness(load_program("evens"), load_program("alternating"), budget(k=2, w=1), "uniform")
    assert report.status == "space_exhausted"


# --- budgets and errors ----------------------------------------------------


def test_budget_exceeded_is_distinct():
    evens = load_program("evens")
    alternating = load_program("alternating")
    report = witness(evens, alternating, budget(k=4, w=2, max_nodes=3), "eo_leq")
    assert report.status == "budget_exceeded"
    assert report.nodes_explored == 3
    assert report.choices_a is None


def test_insufficient_enumeration_raises():
    guarded = load_program("evens_only")
    with pytest.raises(InsufficientEnumerationError) as exc:
        witness(guarded, guarded, budget(k=10, w=2, round_cap=5), "eo_leq")
    assert "evens_only" in str(exc.value)


@pytest.mark.parametrize("search", [witness, recursive_witness_search])
def test_unknown_relation_rejected(search):
    evens = load_program("evens")
    with pytest.raises(InputError, match="unknown relation 'eo'"):
        search(evens, evens, budget(k=2, w=1), "eo")


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(k=0, window=1)
    with pytest.raises(ValueError):
        SearchBudget(k=1, window=0)
    with pytest.raises(ValueError):
        SearchBudget(k=1, window=1, max_nodes=0)


# --- certificate soundness -------------------------------------------------


@pytest.mark.parametrize("pair", program_pairs(), ids=lambda p: p[0].name + "-" + p[1].name)
@pytest.mark.parametrize("k,w", [(2, 2), (3, 2), (4, 3)])
def test_witness_replays_through_scheduler(pair, k, w):
    prog_a, prog_b = pair
    for relation, check in (("eo_leq", eo_leq), ("uniform", uniform)):
        report = witness(prog_a, prog_b, budget(k=k, w=w), relation)
        if report.status != "witness_found":
            continue
        sched_a = Scheduler("explicit", window=w, choices=report.choices_a)
        sched_b = Scheduler("explicit", window=w, choices=report.choices_b)
        from eolab.vm import dovetail

        native_a = dovetail(prog_a, k, 1_000).emitted
        native_b = dovetail(prog_b, k, 1_000).emitted
        prefix_a = schedule(native_a, sched_a, k)
        prefix_b = schedule(native_b, sched_b, k)
        assert prefix_a == report.prefix_a
        assert prefix_b == report.prefix_b
        assert check(pattern_of(prefix_a), pattern_of(prefix_b))


# --- structural properties ---------------------------------------------------


@pytest.mark.parametrize("pair", program_pairs()[:4], ids=lambda p: p[0].name + "-" + p[1].name)
def test_window_monotonicity(pair):
    prog_a, prog_b = pair
    for k in (2, 3):
        for w in (1, 2):
            found_small = witness(prog_a, prog_b, budget(k=k, w=w), "eo_leq").status
            found_big = witness(prog_a, prog_b, budget(k=k, w=w + 1), "eo_leq").status
            if found_small == "witness_found":
                assert found_big == "witness_found"


@pytest.mark.parametrize("pair", program_pairs(), ids=lambda p: p[0].name + "-" + p[1].name)
def test_uniform_witness_implies_eo_witness(pair):
    prog_a, prog_b = pair
    for k, w in itertools.product((2, 3), (1, 2)):
        if witness(prog_a, prog_b, budget(k=k, w=w), "uniform").status == "witness_found":
            assert witness(prog_a, prog_b, budget(k=k, w=w), "eo_leq").status == "witness_found"


def test_determinism_including_node_counts():
    prog_a, prog_b = load_program("jumpy"), load_program("countdown")
    first = witness(prog_a, prog_b, budget(k=4, w=2), "eo_leq")
    second = witness(prog_a, prog_b, budget(k=4, w=2), "eo_leq")
    assert first == second


def test_report_json_keys():
    evens = load_program("evens")
    doc = witness(evens, evens, budget(k=2, w=1), "eo_leq").to_json()
    assert set(doc) == {
        "status",
        "relation",
        "k",
        "w",
        "choicesA",
        "choicesB",
        "prefixA",
        "prefixB",
        "patternA",
        "patternB",
        "nodesExplored",
        "restriction",
    }
    assert doc["restriction"] == RESTRICTION_NOTE
    assert doc["relation"] == "eo_leq"


# --- agreement with the unpruned oracle -------------------------------------


@pytest.mark.parametrize("pair", program_pairs(), ids=lambda p: p[0].name + "-" + p[1].name)
@pytest.mark.parametrize("relation", ["eo_leq", "uniform"])
def test_search_agrees_with_brute_force_small(pair, relation):
    from eolab.oracle import brute_force_witness

    prog_a, prog_b = pair
    for k, w in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        pruned = witness(prog_a, prog_b, budget(k=k, w=w), relation)
        brute = brute_force_witness(prog_a, prog_b, k, w, relation)
        assert pruned.status == brute.status, (k, w)
        if pruned.status == "witness_found":
            assert pruned.choices_a == brute.choices_a, (k, w)
            assert pruned.choices_b == brute.choices_b, (k, w)
            assert pruned.prefix_a == brute.prefix_a
            assert pruned.prefix_b == brute.prefix_b


# --- agreement with the recursive reference ---------------------------------


@pytest.mark.parametrize("pair", program_pairs(), ids=lambda p: p[0].name + "-" + p[1].name)
@pytest.mark.parametrize("relation", ("eo_leq", "uniform"))
def test_search_report_matches_recursive_reference(pair, relation):
    # Whole reports: status, choices, prefixes and nodesExplored, including
    # where the budget cuts the walk off.
    prog_a, prog_b = pair
    for k, w, max_nodes in itertools.product(range(1, 9), range(1, 5), (1, 7, 50, 200_000)):
        b = budget(k=k, w=w, max_nodes=max_nodes)
        assert witness(prog_a, prog_b, b, relation) == recursive_witness_search(
            prog_a, prog_b, b, relation
        ), (k, w, max_nodes)


def test_recursive_reference_cap():
    # k=200 is the largest the literal walk takes; 201 is refused before
    # any dovetailing, as every oracle refuses a size above its cap.
    evens = load_program("evens")
    b = budget(k=200, w=1)
    assert recursive_witness_search(evens, evens, b, "eo_leq") == witness(evens, evens, b, "eo_leq")
    with pytest.raises(OracleCapError, match=r"^recursive witness search takes k in 1\.\.200, got 201$"):
        recursive_witness_search(evens, evens, budget(k=201, w=1), "eo_leq")


@st.composite
def walk_cases(draw, opposed=False):
    k = draw(st.integers(3 if opposed else 1, 8))
    natives = st.lists(st.integers(0, 3 * k), min_size=k, max_size=k, unique=True).map(tuple)
    b = SearchBudget(k=k, window=draw(st.integers(1, 5)), max_nodes=draw(st.integers(1, 5_000)))
    native_a, native_b, relation = draw(natives), draw(natives), draw(st.sampled_from(("eo_leq", "uniform")))
    if opposed:  # one side rising, the other falling
        falling = draw(st.booleans())
        native_a, native_b = sorted(native_a, reverse=falling), sorted(native_b, reverse=not falling)
    return tuple(native_a), tuple(native_b), b, relation


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_walk_matches_recursive_reference_on_generated_natives(case):
    native_a, native_b, b, relation = case
    assert _walk(native_a, native_b, b, relation)[:3] == _literal_walk(native_a, native_b, b, relation)


@settings(max_examples=300, deadline=None)
@given(walk_cases(opposed=True))
def test_walk_with_shared_frontiers_matches_recursive_reference(case):
    # Rising against falling natives, where many of A's reorderings
    # select bounds chains already seen and share their frontiers.
    native_a, native_b, b, relation = case
    *outcome, stats = _walk(native_a, native_b, b, relation)
    assert tuple(outcome) == _literal_walk(native_a, native_b, b, relation)
    # Every B prefix the frontiers keep comes from one B test.
    assert stats["bTests"] <= b.max_nodes


@pytest.mark.parametrize("k,w", [(6, 4), (7, 3), (7, 4), (8, 3)])
@pytest.mark.parametrize("relation", ("eo_leq", "uniform"))
def test_budget_cut_points_match_recursive_reference(k, w, relation):
    # Rising against falling natives; N is the exhaustion or witness count.
    # Every budget up to 200 cuts the walk inside an A path, a leaf's B
    # walk or a subtree counted in closed form; N - 1, N and N + 1 cut it
    # at its end.
    evens, countdown = load_program("evens"), load_program("countdown")
    n = witness(evens, countdown, budget(k=k, w=w, max_nodes=10**7), relation).nodes_explored
    for max_nodes in (*range(1, 201), n - 1, n, n + 1):
        b = budget(k=k, w=w, max_nodes=max_nodes)
        assert witness(evens, countdown, b, relation) == recursive_witness_search(
            evens, countdown, b, relation
        ), max_nodes


# Rising against falling natives: (k, w) -> the exact counters of each
# relation's walk at max_nodes 1,500,000.  Any change to how the walk
# fills, shares or counts its frontiers moves some of them.
WALK_COUNTERS = {
    (8, 4): ((5358, 43658, 4131, 3176, 1316186), (5358, 15446, 4131, 3176, 779636)),
    (10, 3): ((348, 1083, 265, 233, 668532), (348, 732, 265, 233, 537636)),
    (7, 4): ((2153, 15234, 1503, 1114, 228942), (2153, 5812, 1503, 1114, 147135)),
    (9, 3): ((348, 1083, 265, 233, 222843), (348, 732, 265, 233, 179211)),
    (8, 3): ((348, 1083, 265, 233, 74280), (348, 732, 265, 233, 59736)),
    (7, 3): ((317, 1013, 234, 202, 24595), (317, 677, 234, 202, 19779)),
    (6, 4): ((479, 2303, 297, 216, 21428), (479, 1188, 297, 216, 16673)),
    (6, 3): ((234, 787, 151, 126, 7806), (234, 522, 151, 126, 6328)),
}


@pytest.mark.parametrize("k,w", list(WALK_COUNTERS))
def test_walk_counters_are_pinned(k, w):
    evens, countdown = load_program("evens"), load_program("countdown")
    keys = ("aNodes", "bTests", "frontierHits", "closedFormSubtrees", "nodesExplored")
    for relation, counters in zip(("eo_leq", "uniform"), WALK_COUNTERS[k, w]):
        report = witness(evens, countdown, budget(k=k, w=w, max_nodes=1_500_000), relation)
        assert report.stats == dict(zip(keys, counters)), (k, w, report.relation)
        assert report.nodes_explored == report.stats["nodesExplored"]
