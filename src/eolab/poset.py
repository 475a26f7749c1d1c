"""The quotient poset of length-n patterns under eo_leq.

Since two-sided eo_leq collapses to pattern equality, every equivalence
class at a fixed length is a single pattern and the quotient order is the
weak order on the patterns themselves (Bjorner & Brenti, ch. 3): bottom
is the reversal, top is the identity, and cover edges swap one pair of
adjacent values that sit out of order (removing exactly one inversion).

Everything is computed exhaustively, so lengths are capped (HARD_CAP
nodes at n=8 already number 40,320).  The structures here are finite
analogues of the class order on infinite r.e. sets; nothing at this
scale decides the infinite relations, and exports carry a scope note
saying so.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations
from operator import lt

from .errors import InputError, NoAntichainError, clip
from .patterns import PREFIX_SCOPE_NOTE, OrderPattern, eo_leq

#: Largest pattern length build_poset will attempt.
HARD_CAP = 8

#: Scope note attached to every export.
POSET_SCOPE_NOTE = "finite-prefix analogue of the class order; " + PREFIX_SCOPE_NOTE


class PosetRangeError(InputError):
    """Requested length is outside 1..HARD_CAP."""


def _check_n(n: int) -> None:
    if n < 1 or n > HARD_CAP:
        raise PosetRangeError(f"pattern length {clip(n)} outside 1..{HARD_CAP}")


def all_patterns(n: int) -> tuple[OrderPattern, ...]:
    """All n! patterns of length n in lexicographic order."""
    _check_n(n)
    return tuple(OrderPattern(t) for t in permutations(range(n)))


@dataclass(frozen=True)
class PatternPoset:
    """All length-n patterns with the eo_leq relation and its cover edges.

    ``hasse`` holds the cover edges as sorted (lower, upper) index pairs
    into ``nodes``; ``eo_leq`` compares any two nodes.
    """

    n: int
    nodes: tuple[OrderPattern, ...]
    hasse: tuple[tuple[int, int], ...]


def build_poset(n: int) -> PatternPoset:
    """All length-n patterns and their cover edges, in O(n * n!).

    A pattern is covered by exactly the patterns obtained by swapping
    values v+1 and v where v+1 sits left of v, so each node emits one
    edge per such v; there are (n-1) * n! / 2 edges in all.
    """
    nodes = all_patterns(n)
    index = {p.ranks: i for i, p in enumerate(nodes)}
    hasse = []
    for i, p in enumerate(nodes):
        position = sorted(range(n), key=p.ranks.__getitem__)
        for v in range(n - 1):
            left, right = position[v + 1], position[v]
            if left < right:
                upper = list(p.ranks)
                upper[left], upper[right] = v, v + 1
                hasse.append((i, index[tuple(upper)]))
    hasse.sort()
    return PatternPoset(n=n, nodes=nodes, hasse=tuple(hasse))


@dataclass(frozen=True)
class Chain:
    """A sequence of patterns strictly increasing under eo_leq."""

    patterns: tuple[OrderPattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise ValueError("empty chain")
        for a, b in zip(self.patterns, self.patterns[1:]):
            if a == b or not eo_leq(a, b):
                raise ValueError(f"consecutive patterns {a.ranks} and {b.ranks} not strictly related")


@dataclass(frozen=True)
class Antichain:
    """Pairwise eo-incomparable patterns, each held once and sorted by ranks;
    ``stats`` counts the search that found it, if any."""

    patterns: tuple[OrderPattern, ...]
    stats: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        patterns = tuple(sorted(set(self.patterns), key=lambda p: p.ranks))
        object.__setattr__(self, "patterns", patterns)
        if not patterns:
            raise ValueError("empty antichain")
        for a_i, a in enumerate(patterns):
            for b in patterns[a_i + 1 :]:
                if eo_leq(a, b) or eo_leq(b, a):
                    raise ValueError(f"patterns {a.ranks} and {b.ranks} are comparable")


def max_chain(n: int) -> Chain:
    """A longest chain from the reversal to the identity.

    Each step removes exactly one inversion by swapping a pair of
    adjacent values that are out of order, so the chain has
    n(n-1)/2 + 1 patterns and every step is a cover edge.  Tie-break:
    always fix the leftmost descent, i.e. the first position whose value
    has its predecessor sitting further right.
    """
    _check_n(n)
    current = list(range(n - 1, -1, -1))
    chain = [OrderPattern(tuple(current))]
    target = list(range(n))
    while current != target:
        position = {v: i for i, v in enumerate(current)}
        for i, v in enumerate(current):
            if v >= 1 and position[v - 1] > i:
                j = position[v - 1]
                current[i], current[j] = current[j], current[i]
                break
        chain.append(OrderPattern(tuple(current)))
    return Chain(tuple(chain))


def _width(n: int) -> int:
    """The size of the largest antichain among length-n patterns.  The weak
    order is Sperner (Gaetz & Gao), so that is its largest inversion-count
    level: the largest coefficient of (1)(1+q)...(1+q+...+q^(n-1))."""
    levels = [1]
    for i in range(2, n + 1):
        levels = [sum(levels[max(0, k - i + 1) : k + 1]) for k in range(len(levels) + i - 1)]
    return max(levels)


_BINARY = bytes.maketrans(b"\0\1", b"01")


def _comparability(perms: list[tuple[int, ...]]):
    """A function giving, for node index a, the bits of the nodes comparable
    to ``perms[a]`` (itself included).  Column (i, j) holds bit b iff
    perms[b][i] < perms[b][j]; the nodes above p ascend at every ascent of
    p, and those below it descend at every inversion of p."""
    pos = list(zip(*reversed(perms)))  # int(..., 2) reads the last node's bit first
    pairs = [(i, j) for i in range(len(pos)) for j in range(i + 1, len(pos))]
    columns = [int(bytes(map(lt, pos[i], pos[j])).translate(_BINARY), 2) for i, j in pairs]
    full = (1 << len(perms)) - 1

    def comparable(a: int) -> int:
        p = perms[a]
        up = down = full
        for (i, j), column in zip(pairs, columns):
            if p[i] < p[j]:
                up &= column
            else:
                down &= ~column
        return up | down

    return comparable


def sample_antichain(n: int, size: int) -> Antichain:
    """The lexicographically least antichain of the requested size.

    Depth-first scan in lexicographic node order with backtracking, so
    an antichain is found whenever one exists; raises NoAntichainError
    otherwise, at once when ``size`` exceeds the poset's width (e.g.
    n <= 2, where the poset is a chain).  A branch stops once fewer
    allowed candidates remain than are still needed.  ``stats`` counts
    the comparability masks built and the branches (candidates) tried.
    """
    _check_n(n)
    if size < 2:
        raise InputError(f"antichain size must be >= 2, got {clip(size)}")
    if size > _width(n):
        raise NoAntichainError(f"no antichain of size {clip(size)} among length-{n} patterns")
    perms = list(permutations(range(n)))
    comparable = functools.cache(_comparability(perms))
    branches = 0

    def extend(allowed: int, need: int) -> list[int] | None:
        # ``allowed``: bits of the later nodes incomparable with every chosen one.
        nonlocal branches
        if need == 0:
            return []
        while allowed.bit_count() >= need:
            branches += 1
            lowest = allowed & -allowed
            allowed ^= lowest
            idx = lowest.bit_length() - 1
            found = extend(allowed & ~comparable(idx), need - 1)
            if found is not None:
                return [idx] + found
        return None

    found = extend((1 << len(perms)) - 1, size)
    if found is None:
        raise NoAntichainError(f"no antichain of size {clip(size)} among length-{n} patterns")
    stats = {"comparabilityMasks": comparable.cache_info().currsize, "branches": branches}
    return Antichain(tuple(OrderPattern(perms[i]) for i in found), stats=stats)


def export(result: PatternPoset | Chain | Antichain, format: str) -> str:
    """Render a poset, a chain or an antichain as text, DOT or JSON;
    byte-stable for a fixed input.  A chain's DOT edges join each pattern
    to the next; an antichain has none."""
    if isinstance(result, PatternPoset):
        graph, patterns, edges = "poset", result.nodes, result.hasse
    elif isinstance(result, Chain):
        graph, patterns = "chain", result.patterns
        edges = [(i, i + 1) for i in range(len(patterns) - 1)]
    else:
        graph, patterns, edges = "antichain", result.patterns, ()
    if format == "text" and graph != "poset":
        return "".join(",".join(map(str, p.ranks)) + "\n" for p in patterns)
    if format in ("text", "dot"):
        labels = ["".join(map(str, p.ranks)) for p in patterns]
        if format == "text":
            lines = [
                f"n: {result.n}",
                f"nodes ({len(labels)}): " + ", ".join(labels),
                f"cover edges ({len(edges)}):",
            ]
            lines.extend(f"  {labels[a]} -> {labels[b]}" for a, b in edges)
            lines.append(f"scope: {POSET_SCOPE_NOTE}")
        else:
            lines = [f"digraph pattern_{graph} {{", f'  label="{POSET_SCOPE_NOTE}";']
            lines.extend(f'  "{label}";' for label in labels)
            lines.extend(f'  "{labels[a]}" -> "{labels[b]}";' for a, b in edges)
            lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        import json

        nodes = [list(p.ranks) for p in patterns]
        if graph == "poset":
            doc = {"n": result.n, "nodes": nodes, "hasse": [[a, b] for a, b in edges]}
        else:
            doc = {"n": len(patterns[0].ranks), graph: nodes}
        doc["scope"] = POSET_SCOPE_NOTE
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    raise InputError(f"unknown export format {clip(repr(format))} (expected 'text', 'dot' or 'json')")
