"""Poset structure tests, cross-checked against a reachability oracle."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time

import pytest

from eolab.errors import InputError
from eolab.oracle import _leq_rows, brute_force_antichain
from eolab.patterns import OrderPattern, eo_leq
from eolab.poset import (
    Antichain,
    Chain,
    NoAntichainError,
    _below,
    _levels,
    all_patterns,
    build_poset,
    export,
    max_chain,
    sample_antichain,
)


def inversion_count(p):
    return sum(x > y for x, y in itertools.combinations(p.ranks, 2))


def width(n):
    return max(level.bit_count() for level in _levels(n))


def direct_leq(p, q):
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] < p[j] and not (q[i] < q[j]):
                return False
    return True


def reduction_oracle(n):
    """Transitive reduction straight from the definition: an edge (p, q)
    survives iff p < q and nothing lies strictly between."""
    perms = list(itertools.permutations(range(n)))
    strict = {
        (p, q) for p in perms for q in perms if p != q and direct_leq(p, q)
    }
    return {
        (p, q)
        for (p, q) in strict
        if not any((p, r) in strict and (r, q) in strict for r in perms)
    }


# --- all_patterns --------------------------------------------------------


def test_all_patterns_counts_and_order():
    assert [p.ranks for p in all_patterns(1)] == [(0,)]
    assert [p.ranks for p in all_patterns(2)] == [(0, 1), (1, 0)]
    four = all_patterns(4)
    assert len(four) == 24
    assert [p.ranks for p in four] == sorted(p.ranks for p in four)


def test_all_patterns_range_errors():
    with pytest.raises(InputError, match=r"^pattern length 0 outside 1\.\.8$"):
        all_patterns(0)
    with pytest.raises(InputError, match=r"^pattern length 9 outside 1\.\.8$"):
        all_patterns(9)


# --- build_poset ---------------------------------------------------------


def test_poset_n3_is_hexagon():
    poset = build_poset(3)
    assert len(poset.nodes) == 6
    assert len(poset.hasse) == 6


def test_poset_n2():
    poset = build_poset(2)
    assert len(poset.nodes) == 2
    assert poset.hasse == ((1, 0),)  # [1,0] -> [0,1]


@pytest.mark.parametrize("n", range(1, 6))
def test_cover_edge_count_closed_form(n):
    poset = build_poset(n)
    assert len(poset.hasse) == (n - 1) * math.factorial(n) // 2


@pytest.mark.parametrize("n", range(1, 6))
def test_hasse_equals_reduction_oracle(n):
    poset = build_poset(n)
    got = {(poset.nodes[a].ranks, poset.nodes[b].ranks) for a, b in poset.hasse}
    assert got == reduction_oracle(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_cover_edges_are_adjacent_value_swaps(n):
    poset = build_poset(n)
    for a, b in poset.hasse:
        p, q = poset.nodes[a], poset.nodes[b]
        assert inversion_count(p) == inversion_count(q) + 1
        diff = [i for i in range(n) if p.ranks[i] != q.ranks[i]]
        assert len(diff) == 2
        i, j = diff
        assert p.ranks[i] == q.ranks[j] and p.ranks[j] == q.ranks[i]
        assert abs(p.ranks[i] - p.ranks[j]) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_extremes_reachability(n):
    poset = build_poset(n)
    top = poset.nodes.index(OrderPattern(tuple(range(n))))
    bottom = poset.nodes.index(OrderPattern(tuple(range(n - 1, -1, -1))))
    for p in poset.nodes:
        assert eo_leq(p, poset.nodes[top])
        assert eo_leq(poset.nodes[bottom], p)


@pytest.mark.parametrize("n", range(1, 5))
def test_leq_agrees_with_direct_oracle(n):
    poset = build_poset(n)
    for p, q in itertools.product(poset.nodes, repeat=2):
        assert eo_leq(p, q) == direct_leq(p.ranks, q.ranks)


# --- max_chain -----------------------------------------------------------


def test_max_chain_n2():
    assert [p.ranks for p in max_chain(2).patterns] == [(1, 0), (0, 1)]


def test_max_chain_n3_policy():
    # Frozen from the leftmost-descent policy, each step hand-checked
    # to remove exactly one inversion.
    assert [p.ranks for p in max_chain(3).patterns] == [
        (2, 1, 0),
        (1, 2, 0),
        (0, 2, 1),
        (0, 1, 2),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_max_chain_structure(n):
    chain = max_chain(n).patterns
    assert len(chain) == n * (n - 1) // 2 + 1
    assert chain[0] == OrderPattern(tuple(range(n - 1, -1, -1)))
    assert chain[-1] == OrderPattern(tuple(range(n)))
    for a, b in zip(chain, chain[1:]):
        assert eo_leq(a, b) and a != b
        assert inversion_count(a) == inversion_count(b) + 1


@pytest.mark.parametrize("n", range(2, 5))
def test_max_chain_steps_are_cover_edges(n):
    poset = build_poset(n)
    edges = set(poset.hasse)
    for a, b in zip(max_chain(n).patterns, max_chain(n).patterns[1:]):
        assert (poset.nodes.index(a), poset.nodes.index(b)) in edges


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain((OrderPattern((0, 1, 2)), OrderPattern((2, 1, 0))))  # wrong direction
    with pytest.raises(ValueError):
        Chain((OrderPattern((0, 1, 2)), OrderPattern((0, 1, 2))))  # not strict
    with pytest.raises(ValueError, match="^empty chain$"):
        Chain(())


# --- sample_antichain ----------------------------------------------------


def test_antichain_n3_size2():
    got = sample_antichain(3, 2).patterns
    assert [p.ranks for p in got] == [(0, 2, 1), (1, 0, 2)]


def test_antichain_n4_size3():
    got = sample_antichain(4, 3).patterns
    assert len(got) == 3
    for a, b in itertools.combinations(got, 2):
        assert not eo_leq(a, b) and not eo_leq(b, a)


def test_antichain_unavailable():
    with pytest.raises(NoAntichainError):
        sample_antichain(2, 2)
    with pytest.raises(NoAntichainError):
        sample_antichain(3, 5)


@pytest.mark.parametrize("n", range(1, 7))
def test_antichain_matches_backtracking_oracle(n):
    # Every size at n <= 4, one above the width included; sizes 2-10 at
    # n = 5 and 6 (the oracle takes about 7 s at n=5 size 12).
    for size in range(2, width(n) + 2 if n <= 4 else 11):
        try:
            want = brute_force_antichain(n, size)
        except NoAntichainError:
            with pytest.raises(NoAntichainError):
                sample_antichain(n, size)
            continue
        assert tuple(p.ranks for p in sample_antichain(n, size).patterns) == want


def scan_order(n):
    # The antichain scan's numbering: lexicographic order reversed.
    return list(itertools.permutations(range(n - 1, -1, -1)))


@pytest.mark.parametrize("n", range(1, 7))
def test_below_masks_match_direct_relation(n):
    perms, below = _below(n)
    assert list(perms) == scan_order(n)
    rows = _leq_rows(perms)
    for a in range(len(perms)):
        want = sum(1 << b for b, row in enumerate(rows) if row >> a & 1)
        assert below(a) == want & ~(1 << a)


@pytest.mark.parametrize("n", range(1, 9))
def test_down_sets_lie_below_own_bit(n):
    # Lexicographic order extends the weak order, so in the scan's
    # numbering no node is strictly below a node of lower index.
    perms, below = _below(n)
    for a in range(len(perms)):
        assert below(a) >> a == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_levels_match_inversion_counts(n):
    want = [0] * (n * (n - 1) // 2 + 1)
    for b, p in enumerate(all_patterns(n)):
        want[inversion_count(p)] |= 1 << b
    assert list(_levels(n)) == want
    # Mapping each value v to n-1-v reverses lexicographic order and sends
    # l inversions to n(n-1)/2 - l, so the scan's levels are these reversed.
    reverse = [0] * len(want)
    for b, p in enumerate(scan_order(n)):
        reverse[inversion_count(OrderPattern(p))] |= 1 << b
    assert reverse == want[::-1]


def test_width_is_largest_mahonian_number():
    assert [width(n) for n in range(1, 9)] == [1, 1, 2, 6, 22, 101, 573, 3836]


@pytest.mark.parametrize("n", range(5, 9))
def test_antichain_above_width_fails_at_once(n):
    start = time.monotonic()
    with pytest.raises(NoAntichainError, match=f"no antichain of size {width(n) + 1} "):
        sample_antichain(n, width(n) + 1)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("n", [5, 6])
def test_largest_inversion_level_is_an_antichain(n):
    level = {}
    for p in all_patterns(n):
        level.setdefault(inversion_count(p), []).append(p)
    largest = max(level.values(), key=len)
    assert len(Antichain(frozenset(largest)).patterns) == width(n)


@pytest.mark.parametrize(
    "size,ranks,stats",
    [
        (12, ["012354", "012435", "014235", "042135", "051234", "132045", "140235",
              "210345", "213045", "230145", "302145", "401235"],
         {"comparabilityMasks": 43, "feasibilityTests": 27, "matchings": 12}),
        (14, ["012354", "012435", "015234", "024135", "042135", "051234", "104235",
              "132045", "140235", "210345", "213045", "230145", "302145", "401235"],
         {"comparabilityMasks": 66, "feasibilityTests": 30, "matchings": 13}),
        (16, ["012354", "012435", "015234", "034125", "052134", "104235", "124035", "142035",
              "150234", "213045", "231045", "240135", "302145", "320145", "410235", "501234"],
         {"comparabilityMasks": 77, "feasibilityTests": 41, "matchings": 23}),
        (18, ["012354", "012435", "025134", "043125", "052134", "105234", "134025", "142035",
              "150234", "214035", "231045", "240135", "304125", "312045", "320145", "402135",
              "410235", "501234"],
         {"comparabilityMasks": 109, "feasibilityTests": 50, "matchings": 29}),
    ],
)
def test_antichain_n6_pinned(size, ranks, stats):
    # Ranks recorded from the backtracking scan that the feasibility scan
    # replaced (size 18 took 1.3 s there); the brute-force oracle takes
    # about 20 s at size 12.
    got = sample_antichain(6, size)
    assert ["".join(map(str, p.ranks)) for p in got.patterns] == ranks
    assert got.stats == stats


def test_antichain_n5_width_pinned():
    # Recorded from the backtracking scan that the feasibility scan
    # replaced, which took 80-100 s and 119,647,752 branches at this size.
    got = sample_antichain(5, 22)
    assert ["".join(map(str, p.ranks)) for p in got.patterns] == [
        "03421", "04231", "04312", "10432", "12430", "13240", "13402", "14032", "14203", "21043",
        "21340", "21403", "23041", "23104", "24013", "30241", "30412", "31204", "32014", "40132",
        "40213", "41023",
    ]


def test_antichain_n7_pinned():
    # The brute-force oracle stops at n=6, so this hash was recorded from the
    # three-tier scan (a greedy antichain first) that this one replaced.
    # About 0.4 s.
    got = sample_antichain(7, 100)
    assert hashlib.sha256(export(got, "text").encode()).hexdigest() == (
        "6fc0109c6bdccfee80e50ffaa1688c4e4becc92261ec6430e78b4362720767bf")
    assert got.stats == {"comparabilityMasks": 801, "feasibilityTests": 466, "matchings": 360}


@pytest.mark.parametrize("n,size", [(5, 22), (6, 20)])
def test_antichain_up_to_width_is_fast(n, size):
    start = time.monotonic()
    got = sample_antichain(n, size)
    assert time.monotonic() - start < 2.0
    assert len(got.patterns) == size


def test_antichain_size_precondition():
    with pytest.raises(ValueError):
        sample_antichain(3, 1)


def test_antichain_validation():
    with pytest.raises(ValueError):
        Antichain(frozenset({OrderPattern((0, 1, 2)), OrderPattern((2, 1, 0))}))
    with pytest.raises(ValueError):
        Antichain(frozenset())  # export would have no length to report


# --- export --------------------------------------------------------------


def test_export_dot_n2():
    text = export(build_poset(2), "dot")
    assert '"10" -> "01";' in text
    assert text.count("->") == 1


def test_export_json_n3():
    doc = json.loads(export(build_poset(3), "json"))
    assert doc["n"] == 3
    assert len(doc["nodes"]) == 6
    assert len(doc["hasse"]) == 6
    assert doc["nodes"] == sorted(doc["nodes"])
    assert doc["hasse"] == sorted(doc["hasse"])
    for a, b in doc["hasse"]:
        assert direct_leq(doc["nodes"][a], doc["nodes"][b])


@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
def test_export_byte_stable(fmt):
    poset = build_poset(3)
    assert export(poset, fmt) == export(poset, fmt)
    assert export(poset, fmt) == export(build_poset(3), fmt)


def test_export_chain_and_antichain():
    chain, antichain = max_chain(3), sample_antichain(3, 2)
    assert export(chain, "text") == "2,1,0\n1,2,0\n0,2,1\n0,1,2\n"
    assert export(chain, "dot").count("->") == 3
    assert json.loads(export(chain, "json"))["chain"] == [list(p.ranks) for p in chain.patterns]
    assert export(antichain, "text") == "0,2,1\n1,0,2\n"
    assert "->" not in export(antichain, "dot")
    doc = json.loads(export(antichain, "json"))
    assert (doc["n"], doc["antichain"]) == (3, [[0, 2, 1], [1, 0, 2]])


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(build_poset(2), "yaml")


def test_export_unknown_format_is_a_clipped_input_error():
    with pytest.raises(InputError, match="unknown export format") as exc:
        export(build_poset(2), "f" * 500)
    assert len(str(exc.value)) < 200
