"""Tests for the pattern relations, checked against literal double-loop oracles.

The oracles below re-state the relations as quantified loops over index
pairs and share no code with the module under test.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from eolab.cli import _join_pairs
from eolab.oracle import _direct_leq, brute_force_pair_sets
from eolab.errors import InputError
from eolab.patterns import (
    MAX_ELEMENT,
    ListingPrefix,
    OrderPattern,
    _first_violation,
    apply_pattern,
    eo_equiv,
    eo_leq,
    pattern_of,
    uniform,
)


def direct_leq(p, q):
    """Oracle: the relation as a literal double loop over index pairs."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] < p[j] and not (q[i] < q[j]):
                return False
    return True


def direct_first_violation(p, q):
    """Oracle: the least index pair ascending in p but not in q, by the
    same double loop."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] < p[j] and not (q[i] < q[j]):
                return (i, j)
    return None


def direct_uniform(p, q):
    """Oracle: positionwise biconditional as a literal double loop."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if (p[i] < p[j]) != (q[i] < q[j]):
                return False
    return True


def all_patterns(n):
    return [OrderPattern(t) for t in itertools.permutations(range(n))]


def pair_sets(p):
    """The ascents and the inversions of p, read back from the text that
    ``eolab pattern`` prints for them."""
    return tuple(
        frozenset(tuple(map(int, pair.strip("()").split(","))) for pair in joined.split())
        for joined in _join_pairs(p, "(", ")", " ")
    )


injective_sequences = st.lists(
    st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8, unique=True
)


# --- pattern_of ---------------------------------------------------------


@pytest.mark.parametrize(
    "prefix,expected",
    [
        ([5, 2, 9], (1, 0, 2)),
        ([0, 1, 2, 3], (0, 1, 2, 3)),
        ([7], (0,)),
        ([3, 1, 4], (1, 0, 2)),
        ([30, 10, 40], (1, 0, 2)),
    ],
)
def test_pattern_of_examples(prefix, expected):
    assert pattern_of(prefix).ranks == expected


def test_pattern_of_duplicate_reports_value_and_positions():
    with pytest.raises(InputError) as exc:
        pattern_of([3, 1, 4, 1])
    assert str(exc.value) == "duplicate element 1 at positions 1 and 3"


@given(injective_sequences)
def test_pattern_is_permutation(seq):
    p = pattern_of(seq)
    assert sorted(p.ranks) == list(range(len(seq)))


@given(injective_sequences, st.lists(st.integers(1, 1000), min_size=8, max_size=8))
def test_order_isomorphism_invariance(seq, gaps):
    # Map values through a strictly increasing function built from gaps.
    ordered = sorted(seq)
    target = {}
    acc = 0
    for v, g in zip(ordered, itertools.cycle(gaps)):
        acc += g
        target[v] = acc
    mapped = [target[v] for v in seq]
    assert pattern_of(mapped) == pattern_of(seq)


def test_empty_prefix_rejected():
    with pytest.raises(ValueError):
        ListingPrefix(())
    with pytest.raises(ValueError):
        OrderPattern(())


def test_element_range_checked():
    ListingPrefix((MAX_ELEMENT,))
    with pytest.raises(ValueError):
        ListingPrefix((MAX_ELEMENT + 1,))
    with pytest.raises(ValueError):
        ListingPrefix((-1,))


def test_prefix_messages_are_clipped():
    with pytest.raises(InputError, match="position 0 is not a natural") as exc:
        ListingPrefix(("x" * 10000,))
    assert len(str(exc.value)) < 1024
    # str() refuses an int past 4,300 digits; the message must still be an InputError.
    with pytest.raises(InputError, match=r"\(5001 characters\) at position 0 outside") as exc:
        ListingPrefix((10**5000,))
    assert len(str(exc.value)) < 1024


def test_non_permutation_message_is_clipped():
    # A certificate fault, not an input error; its message stays short however long the ranks.
    with pytest.raises(ValueError) as exc:
        OrderPattern(tuple(range(1, 5001)))
    assert not isinstance(exc.value, InputError)
    assert "not a permutation of 0..4999" in str(exc.value)
    assert len(str(exc.value)) < 1024


@pytest.mark.parametrize(
    "ranks",
    [(0, 0), (1, 1, 0), (0, 2), (1, 2, 3), (0, 0.5, 2), (0, 1, 2.5), (-1, 0, 1), ("0", "1")],
    ids=["repeat", "repeat3", "gap", "shifted", "half", "fraction", "negative", "strings"],
)
def test_non_permutation_ranks_rejected(ranks):
    # Repeats, gaps and non-integer ranks are all refused with a raise,
    # which python -O keeps.
    with pytest.raises(ValueError, match="not a permutation"):
        OrderPattern(ranks)


# --- ascents / inversions, as `pattern` renders them --------------------


def test_ascents_examples():
    assert pair_sets(OrderPattern((1, 0, 2)))[0] == {(0, 2), (1, 2)}
    assert pair_sets(OrderPattern((0, 1, 2)))[0] == {(0, 1), (0, 2), (1, 2)}
    assert pair_sets(OrderPattern((2, 1, 0)))[0] == frozenset()


def test_inversions_examples():
    assert pair_sets(OrderPattern((1, 0, 2)))[1] == {(0, 1)}
    assert pair_sets(OrderPattern((0, 1, 2)))[1] == frozenset()
    assert pair_sets(OrderPattern((2, 1, 0)))[1] == {(0, 1), (0, 2), (1, 2)}


@pytest.mark.parametrize("n", range(1, 6))
def test_ascents_inversions_partition_all_pairs(n):
    full = {(i, j) for i in range(n) for j in range(i + 1, n)}
    for p in all_patterns(n):
        a, v = pair_sets(p)
        assert a | v == full
        assert a & v == frozenset()


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_sets_agree_with_literal_reference(n):
    for p in all_patterns(n):
        assert pair_sets(p) == brute_force_pair_sets(p.ranks)


@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
def test_pair_sets_agree_with_literal_reference_long(ranks):
    p = OrderPattern(tuple(ranks))
    assert pair_sets(p) == brute_force_pair_sets(p.ranks)


def test_pairset_json_sorted():
    assert _join_pairs(OrderPattern((2, 1, 0)), "[", "]", ",") == ("", "[0,1],[0,2],[1,2]")


# --- eo_leq / uniform / eo_equiv ----------------------------------------


def test_eo_leq_examples():
    assert eo_leq(OrderPattern((1, 0, 2)), OrderPattern((0, 1, 2)))
    assert not eo_leq(OrderPattern((0, 1)), OrderPattern((1, 0)))
    for q in all_patterns(3):
        assert eo_leq(OrderPattern((2, 1, 0)), q)


def test_eo_leq_length_mismatch():
    with pytest.raises(InputError) as exc:
        eo_leq(OrderPattern((0, 1)), OrderPattern((0, 1, 2)))
    assert str(exc.value) == "length mismatch: 2 vs 3"


def test_eo_leq_related_pair_count_n3():
    # Frozen from the double-loop oracle over all 36 ordered pairs.
    ps = all_patterns(3)
    count = sum(1 for p in ps for q in ps if eo_leq(p, q))
    assert count == 17
    assert count == sum(1 for p in ps for q in ps if direct_leq(p.ranks, q.ranks))


@pytest.mark.parametrize("n", range(1, 6))
def test_eo_leq_agrees_with_direct_oracle(n):
    for p, q in itertools.product(all_patterns(n), repeat=2):
        assert eo_leq(p, q) == direct_leq(p.ranks, q.ranks)
        assert _first_violation(p, q) == direct_first_violation(p.ranks, q.ranks)


@st.composite
def pattern_pairs(draw, min_n=1, max_n=64):
    """Two patterns of one length min_n..max_n.  Half the time the second is the
    first moved down by random adjacent-value swaps, each adding an
    inversion, so the pair is comparable; random pairs almost never are."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    upper = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        return OrderPattern(tuple(upper)), OrderPattern(tuple(draw(st.permutations(range(n)))))
    lower = list(upper)
    position = {v: i for i, v in enumerate(lower)}
    for v in draw(st.lists(st.integers(min_value=0, max_value=max(n - 2, 0)), max_size=3 * n)):
        left, right = position[v], position.get(v + 1, -1)
        if left < right:
            lower[left], lower[right] = v + 1, v
            position[v], position[v + 1] = right, left
    return OrderPattern(tuple(upper)), OrderPattern(tuple(lower))


@given(pattern_pairs())
def test_eo_leq_agrees_with_oracle_on_long_patterns(pair):
    p, q = pair
    assert eo_leq(p, q) == _direct_leq(p.ranks, q.ranks)
    assert eo_leq(q, p) == _direct_leq(q.ranks, p.ranks)


@given(pattern_pairs(min_n=9, max_n=70))
def test_first_violation_agrees_with_double_loop(pair):
    # Longer than the exhaustive check reaches; half the pairs comparable.
    p, q = pair
    assert _first_violation(p, q) == direct_first_violation(p.ranks, q.ranks)
    assert _first_violation(q, p) == direct_first_violation(q.ranks, p.ranks)


def test_first_violation_on_the_sweeps_extreme_orders():
    # A reversal against itself inserts every position at the front of the
    # kept list; identity and reversal keep one position or violate at
    # every row; a shuffle mixes both.
    rng = random.Random(34)
    for n in range(1, 301):
        identity, reversal = tuple(range(n)), tuple(range(n - 1, -1, -1))
        shuffled = tuple(rng.sample(range(n), n))
        for p, q in ((reversal, reversal), (identity, reversal), (identity, shuffled)):
            for left, right in ((p, q), (q, p)):
                got = _first_violation(OrderPattern(left), OrderPattern(right))
                assert got == direct_first_violation(left, right), (n, left, right)


def test_first_violation_at_length_20000_builds_no_mask():
    # Identity against identity with positions 4,999 and 15,000 swapped:
    # row 4,999 is the first to fall, against position 5,000.  The sweep
    # keeps O(n) memory, so neither pattern builds its n²-bit ascent mask.
    n = 20_000
    swapped = list(range(n))
    swapped[4_999], swapped[15_000] = swapped[15_000], swapped[4_999]
    p, q = OrderPattern(tuple(range(n))), OrderPattern(tuple(swapped))
    assert _first_violation(p, q) == (4_999, 5_000)
    assert _first_violation(q, p) is None
    assert "ascent_mask" not in vars(p) and "ascent_mask" not in vars(q)


@pytest.mark.parametrize("n", range(1, 5))
def test_partial_order_laws(n):
    ps = all_patterns(n)
    for p in ps:
        assert eo_leq(p, p)
    for p, q in itertools.product(ps, repeat=2):
        if eo_leq(p, q) and eo_leq(q, p):
            assert p == q
    for p, q, r in itertools.product(ps, repeat=3):
        if eo_leq(p, q) and eo_leq(q, r):
            assert eo_leq(p, r)


@pytest.mark.parametrize("n", range(1, 7))
def test_bounds_identity_top_reversal_bottom(n):
    top, bottom = OrderPattern(tuple(range(n))), OrderPattern(tuple(range(n - 1, -1, -1)))
    for p in all_patterns(n):
        assert eo_leq(p, top)
        assert eo_leq(bottom, p)


def test_uniform_examples():
    assert uniform(pattern_of([3, 1, 4]), pattern_of([30, 10, 40]))
    assert not uniform(OrderPattern((0, 1)), OrderPattern((1, 0)))
    p = OrderPattern((2, 0, 1))
    assert uniform(p, p)


def test_uniform_length_mismatch():
    with pytest.raises(InputError) as exc:
        uniform(OrderPattern((0, 1)), OrderPattern((0, 1, 2)))
    assert str(exc.value) == "length mismatch: 2 vs 3"


@pytest.mark.parametrize("n", range(1, 6))
def test_uniform_is_direct_biconditional(n):
    for p, q in itertools.product(all_patterns(n), repeat=2):
        assert uniform(p, q) == direct_uniform(p.ranks, q.ranks)


@pytest.mark.parametrize("n", range(1, 7))
def test_two_sided_leq_equals_uniform_equals_equality(n):
    for p, q in itertools.product(all_patterns(n), repeat=2):
        both = eo_equiv(p, q)
        assert both == uniform(p, q) == (p == q)


def test_eo_equiv_examples():
    p = OrderPattern((1, 0, 2))
    assert eo_equiv(p, p)
    assert not eo_equiv(OrderPattern((0, 1, 2)), OrderPattern((2, 1, 0)))


# --- apply_pattern -------------------------------------------------------


def test_apply_pattern_examples():
    assert apply_pattern(OrderPattern((1, 0, 2)), {4, 8, 15}) == (8, 4, 15)
    assert apply_pattern(OrderPattern((0, 1, 2, 3)), {9, 3, 7, 1}) == (1, 3, 7, 9)


def test_apply_pattern_size_mismatch():
    with pytest.raises(InputError) as exc:
        apply_pattern(OrderPattern((0, 1)), {1, 2, 3})
    assert str(exc.value) == "length mismatch: 2 vs 3"


def test_apply_pattern_duplicate_support():
    with pytest.raises(InputError) as exc:
        apply_pattern(OrderPattern((0, 1)), [5, 5])
    assert str(exc.value) == "duplicate element 5 at positions 0 and 1"


def test_apply_pattern_names_bad_value_at_its_support_position():
    with pytest.raises(InputError, match=f"element {2**64} at position 0 outside"):
        apply_pattern(OrderPattern((0, 1)), [2**64, 0])
    # A bad value is reported before a length mismatch.
    with pytest.raises(InputError, match=f"element {2**64} at position 2 outside"):
        apply_pattern(OrderPattern((0, 1)), [1, 2, 2**64])


@pytest.mark.parametrize("n", range(1, 6))
def test_apply_pattern_roundtrip(n):
    support = {10, 20, 30, 40, 50}
    sub = set(sorted(support)[:n])
    for p in all_patterns(n):
        assert pattern_of(apply_pattern(p, sub)) == p


@pytest.mark.parametrize("n", range(1, 5))
def test_apply_pattern_bijection(n):
    support = tuple(sorted({3, 14, 15, 92}))[:n]
    images = {apply_pattern(p, support) for p in all_patterns(n)}
    assert len(images) == len(all_patterns(n))
    assert images == set(itertools.permutations(support))


@pytest.mark.parametrize("n", range(2, 6))
def test_prefix_antitonicity(n):
    for p, q in itertools.product(all_patterns(n), repeat=2):
        if eo_leq(p, q):
            for k in range(1, n + 1):
                assert eo_leq(pattern_of(p.ranks[:k]), pattern_of(q.ranks[:k]))
