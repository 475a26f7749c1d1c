"""Order patterns of finite injective sequences and the relations on them.

A listing prefix is a finite injective sequence of naturals (the first n
values emitted by some enumeration).  Its order pattern is the permutation
of [0, n) recording each entry's rank within the prefix; two prefixes have
the same pattern exactly when they are order-isomorphic position by
position.  On equal-length patterns this module decides:

- ``eo_leq``: every ascending index pair of the left pattern is ascending
  in the right one (equivalently, every inverted pair of the right one is
  inverted in the left);
- ``uniform``: positionwise order-isomorphism, i.e. pattern equality;
- ``eo_equiv``: ``eo_leq`` in both directions (coincides with ``uniform``).

All verdicts are about finite prefixes only.  Prefix truth is necessary
but never sufficient for the corresponding relation on infinite listings,
which is undecidable; see ``PREFIX_SCOPE_NOTE``.

Everything here is an immutable value and every function is pure.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InputError, clip

#: Elements are naturals that must fit in 64 unsigned bits.
MAX_ELEMENT = 2**64 - 1

#: Stated on every surface that reports a relation verdict.
PREFIX_SCOPE_NOTE = (
    "finite-prefix verdict: necessary but not sufficient for the relation "
    "on infinite listings"
)


@dataclass(frozen=True)
class OrderPattern:
    """The relative-order fingerprint of an injective sequence.

    ``ranks[i]`` is the rank of the i-th entry among all n entries, so
    ``ranks`` is always a permutation of ``range(n)``; length 0 is
    rejected.
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        n = len(ranks)
        if n == 0:
            raise ValueError("empty pattern (length must be >= 1)")
        if set(ranks) != set(range(n)):  # n ranks that cover 0..n-1, so none repeats
            raise ValueError(f"ranks {clip(ranks)} are not a permutation of 0..{n - 1}")

    @functools.cached_property
    def ascent_mask(self) -> int:
        """The ascent set as an int, built in O(n) int operations on first use.
        p ≤eo q exactly when ``p.ascent_mask & ~q.ascent_mask == 0``; ``pattern`` prints its bits."""
        # Row i, at bit offset i*8*width, has bit j set for each ascent
        # (i, j); ``above`` holds the positions of the values above p[i].
        n = len(self.ranks)
        width = (n + 7) // 8
        rows = [0] * n
        above = 0
        for i in sorted(range(n), key=self.ranks.__getitem__, reverse=True):
            rows[i] = above & -(2 << i)
            above |= 1 << i
        return int.from_bytes(b"".join([r.to_bytes(width, "little") for r in rows]), "little")


@dataclass(frozen=True)
class ListingPrefix:
    """An injective finite sequence of naturals; a prefix of a listing."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise InputError("empty prefix (length must be >= 1)")
        seen: dict[int, int] = {}
        for pos, value in enumerate(elements):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"element at position {pos} is not a natural: {clip(repr(value))}")
            if value < 0 or value > MAX_ELEMENT:
                raise InputError(f"element {clip(value)} at position {pos} outside 0..{MAX_ELEMENT}")
            if value in seen:
                raise InputError(f"duplicate element {value} at positions {seen[value]} and {pos}")
            seen[value] = pos


def pattern_of(prefix: ListingPrefix | Sequence[int]) -> OrderPattern:
    """Canonicalize an injective sequence to its order pattern.

    Position i gets rank ``|{k : prefix[k] < prefix[i]}|``.

    >>> pattern_of([5, 2, 9]).ranks
    (1, 0, 2)
    >>> pattern_of([0, 1, 2, 3]).ranks
    (0, 1, 2, 3)
    """
    if not isinstance(prefix, ListingPrefix):
        prefix = ListingPrefix(tuple(prefix))
    rank_by_value = {v: r for r, v in enumerate(sorted(prefix.elements))}
    return OrderPattern(tuple(rank_by_value[v] for v in prefix.elements))


def eo_leq(p: OrderPattern, q: OrderPattern) -> bool:
    """Whether every ascent of p is an ascent of q.

    An ascent is an index pair (i, j), i < j, with p[i] < p[j]; an
    inversion is any other index pair.  Equivalently, every inversion of q
    is an inversion of p.  Reflexive; a partial order on equal-length
    patterns.

    >>> eo_leq(OrderPattern((1, 0, 2)), OrderPattern((0, 1, 2)))
    True
    >>> eo_leq(OrderPattern((0, 1)), OrderPattern((1, 0)))
    False
    """
    if len(p.ranks) != len(q.ranks):
        raise InputError(f"length mismatch: {len(p.ranks)} vs {len(q.ranks)}")
    return p.ascent_mask & ~q.ascent_mask == 0


def _first_violation(p: OrderPattern, q: OrderPattern) -> tuple[int, int] | None:
    """Least index pair, in lexicographic order, that is an ascent of p but
    an inversion of q; None exactly when p ≤eo q.

    Positions are visited in increasing q-rank.  Invariant: ``kept`` holds,
    ascending, the visited positions that no visited position dominates (lies
    further right with a larger p-rank), and ``lows`` their negated p-ranks,
    which then ascend too.  So row i violates exactly when the first kept
    position right of i has a larger p-rank, and such a row is never kept.
    Typically O(n log n) time and O(n) memory; a reversal against itself
    inserts every position at the front, O(n²) element moves.
    """
    if len(p.ranks) != len(q.ranks):
        raise InputError(f"length mismatch: {len(p.ranks)} vs {len(q.ranks)}")
    a, b, n = p.ranks, q.ranks, len(p.ranks)
    kept: list[int] = []
    lows: list[int] = []
    least = n  # the least violating row seen so far
    for i in sorted(range(n), key=b.__getitem__):
        right, low = bisect_right(kept, i), -a[i]
        if right < len(kept) and lows[right] < low:
            if i < least:
                least = i
            continue
        # i dominates the kept positions left of it with smaller p-ranks.
        left = bisect_left(lows, low, 0, right)
        kept[left:right] = [i]
        lows[left:right] = [low]
    if least == n:
        return None
    return least, next(j for j in range(least + 1, n) if a[j] > a[least] and b[j] < b[least])


def _ascent_rows(p: OrderPattern) -> Iterator[bytes]:
    """Row i of ``p.ascent_mask`` as one digit per j > i: b"1" for an ascent (i, j), else b"0"."""
    n, stride = len(p.ranks), 8 * ((len(p.ranks) + 7) // 8)
    digits = format(p.ascent_mask, "b")[::-1].ljust(n * stride, "0").encode()  # bit 0 first
    return (digits[i * stride + i + 1 : i * stride + n] for i in range(n))


def uniform(p: OrderPattern, q: OrderPattern) -> bool:
    """Positionwise order-isomorphism: for injective sequences this is
    exactly pattern equality."""
    if len(p.ranks) != len(q.ranks):
        raise InputError(f"length mismatch: {len(p.ranks)} vs {len(q.ranks)}")
    return p.ranks == q.ranks


def eo_equiv(p: OrderPattern, q: OrderPattern) -> bool:
    """eo_leq in both directions; coincides with ``uniform`` on patterns."""
    return eo_leq(p, q) and eo_leq(q, p)


def apply_pattern(p: OrderPattern, support: ListingPrefix | Iterable[int]) -> tuple[int, ...]:
    """The unique arrangement of ``support`` whose pattern is ``p``.

    Position i carries the element of rank ``p.ranks[i]`` in
    sorted(support), so ``pattern_of(apply_pattern(p, s)) == p``.  Any other
    support is checked as a ``ListingPrefix`` first, so a bad value is named
    at its position in the support, before any length mismatch.  The result
    is a plain tuple: a permutation of a checked support needs no check.

    >>> apply_pattern(OrderPattern((1, 0, 2)), {4, 8, 15})
    (8, 4, 15)
    """
    if not isinstance(support, ListingPrefix):
        support = ListingPrefix(tuple(support))
    values = support.elements
    if len(values) != len(p.ranks):
        raise InputError(f"length mismatch: {len(p.ranks)} vs {len(values)}")
    ordered = sorted(values)
    return tuple(ordered[r] for r in p.ranks)
