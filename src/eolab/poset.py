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
import re
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .errors import InputError, NoAntichainError, clip
from .patterns import PREFIX_SCOPE_NOTE, OrderPattern, eo_leq

#: Largest pattern length build_poset will attempt.
HARD_CAP = 8

#: Scope note attached to every export.
POSET_SCOPE_NOTE = "finite-prefix analogue of the class order; " + PREFIX_SCOPE_NOTE


def _check_n(n: int) -> None:
    if n < 1 or n > HARD_CAP:
        raise InputError(f"pattern length {clip(n)} outside 1..{HARD_CAP}")


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


@functools.lru_cache(maxsize=8)
def _below(n: int):
    """The scan's nodes, the length-n patterns in reverse lexicographic order,
    and for node index a the bits of the nodes strictly below ``perms[a]``: they
    descend at every inversion of it and have lower indices.  Column (i, j) holds
    bit b iff perms[b][i] < perms[b][j], i.e. some v has perms[b][i] < v <= perms[b][j]."""
    perms = tuple(permutations(range(n - 1, -1, -1)))
    tables = [bytes.maketrans(bytes(range(n)), b"0" * v + b"1" * (n - v)) for v in range(1, n)]
    # at_least[i][v - 1]: the nodes whose value at position i is at least v;
    # int(..., 2) reads the last node's bit first.
    at_least = [[int(values.translate(t), 2) for t in tables]
                for values in map(bytes, zip(*reversed(perms)))]
    columns = []
    for i, j in combinations(range(n), 2):
        column = 0
        for at_i, at_j in zip(at_least[i], at_least[j]):
            column |= at_j & ~at_i
        columns.append((i, j, column))

    def below(a: int) -> int:
        p, ascending = perms[a], 0
        for i, j, column in columns:
            if p[i] > p[j]:
                ascending |= column
        return ((1 << a) - 1) & ~ascending

    return perms, below


@functools.lru_cache(maxsize=8)
def _levels(n: int) -> tuple[int, ...]:
    """The inversion-count levels of the length-n patterns as node bit
    masks, level l at index l.  Each level is an antichain, and the weak
    order is Sperner (Gaetz & Gao), so the largest level gives the width.
    The patterns starting with c are a block of (n-1)! nodes in
    lexicographic order, each with c inversions there plus those of the
    length-(n-1) pattern of the rest."""
    levels, block = [1], 1
    for i in range(2, n + 1):
        longer = [0] * (len(levels) + i - 1)
        for c in range(i):
            for l, level in enumerate(levels):
                longer[l + c] |= level << c * block
        levels, block = longer, block * i
    return tuple(levels)


def _matching_exceeds(s: int, limit: int, below) -> bool:
    """Whether strict comparability inside the nodes ``s`` (left node u to
    right node v for v < u) has a matching of more than ``limit`` edges.
    A greedy pass, top node first, matches each node to the highest free
    node below it; passes of augmenting paths then grow the matching,
    each searching once from every free left node, breadth first on bit
    masks, and sharing the right nodes reached across its searches.  A
    pass that grows nothing proves the matching maximum."""
    mate: dict[int, int] = {}  # left node -> right node
    taken = 0  # the matched right nodes
    free = []
    top = s.bit_length() - 1
    for u in [top - digit.start() for digit in re.finditer("1", bin(s)[2:])]:  # s, top down
        end = below(u) & s & ~taken
        if end:
            v = end.bit_length() - 1
            taken |= 1 << v
            mate[u] = v
            if len(mate) > limit:
                return True
        else:
            free.append(u)
    right = {v: u for u, v in mate.items()}
    seen = 0

    def augment(start: int) -> bool:
        nonlocal seen, taken
        parent, layer = {}, [start]
        while layer:
            next_layer = []
            for x in layer:
                reach = below(x) & s & ~seen
                seen |= reach
                end = reach & ~taken
                if end:  # flip the path from start to a free right node
                    end &= -end
                    taken |= end
                    v = end.bit_length() - 1
                    while x is not None:
                        mate[x], right[v], v = v, x, mate.get(x)
                        x = parent.get(v)
                    return True
                while reach:
                    low = reach & -reach
                    reach ^= low
                    v = low.bit_length() - 1
                    parent[v] = x
                    next_layer.append(right[v])
            layer = next_layer
        return False

    # Any growth past limit has returned True already, so no size test here.
    grown = True
    while grown:
        grown, seen = False, 0
        for u in free:
            if augment(u):
                grown = True
                if len(mate) > limit:
                    return True
        free = [u for u in free if u not in mate]
    return False


def sample_antichain(n: int, size: int) -> Antichain:
    """The lexicographically least antichain of the requested size.

    One scan in lexicographic node order keeps a node exactly when the
    later allowed nodes incomparable to it still hold an antichain of the
    remaining size, so the scan never backtracks.  Lexicographic order
    extends the weak order, so with nodes numbered from its end each
    strict down-set lies below the node's own bit, and the scan pops the
    top bit and needs only that down-set; raises
    NoAntichainError at once when ``size`` exceeds the poset's width
    (e.g. n <= 2, where the poset is a chain).  Whether a node set S holds
    an antichain of k nodes is decided by the first of these that
    settles it: |S| < k; an inversion-count level holds k nodes of S;
    else, by Dilworth's theorem, |S| minus a maximum matching on strict
    comparability inside S (the width of S) is at least k.  ``stats``
    counts the down-set masks built, the feasibility tests and the tests
    that needed a matching.
    """
    _check_n(n)
    if size < 2:
        raise InputError(f"antichain size must be >= 2, got {clip(size)}")
    levels = _levels(n)  # in the scan's numbering, level l is levels[-1 - l]
    if size > max(map(int.bit_count, levels)):
        raise NoAntichainError(f"no antichain of size {clip(size)} among length-{n} patterns")
    perms, below = _below(n)
    below = functools.cache(below)  # per call, so that stats count this scan's masks
    tests = matchings = 0
    found: list[int] = []
    allowed = (1 << len(perms)) - 1  # later nodes incomparable with every kept one
    while allowed and len(found) < size:
        node = allowed.bit_length() - 1
        allowed ^= 1 << node
        rest, k = allowed & ~below(node), size - len(found) - 1
        tests += 1
        if rest.bit_count() < k:
            continue
        if not any((rest & level).bit_count() >= k for level in levels):
            matchings += 1
            if _matching_exceeds(rest, rest.bit_count() - k, below):
                continue
        found.append(node)
        allowed = rest
    if len(found) < size:  # the width check passed, so the scan must reach size
        raise ValueError(f"antichain scan kept {len(found)} of {size} nodes at n={n}")
    stats = {"comparabilityMasks": below.cache_info().currsize,
             "feasibilityTests": tests, "matchings": matchings}
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
