"""Bounded witness search for the set-level relations.

The set-level relation asks for *some* pair of listings whose order
patterns are related; that existential is undecidable in general.  Here
it is restricted to a finite, exhaustible family: every window-w
explicit reordering of each program's native enumeration, compared on
k-element prefixes.  Within that family the search is complete — it
either produces a replayable witness, refutes the whole (k, w) space, or
runs out of node budget, and the three outcomes are never conflated.
``witness(prog_a, prog_b, budget, relation)`` runs it for either
relation: "eo_leq", or "uniform", which strengthens it to equal patterns.

The search explores the joint choice vector, A's k choices and then B's
k choices, each tried in increasing order, so the first witness found is
the lexicographically least joint choice vector, which is also what the
brute-force oracle returns.  ``nodesExplored`` counts the candidates that
literal depth-first walk tries, on either side; hitting max_nodes stops
the search, since an inconclusive run must never look like a refutation.
The search reports exactly that walk's outcome and count without walking
B once per complete A prefix.  It rests on these facts:

- At output t the window buffer holds exactly the unused native indices
  below min(t + w, k), in increasing order, so every node at depth t has
  c_t = min(t + w, k) - t candidates, and on A's side every candidate is
  taken.  A choice is the rank of the picked index among them.
- B's value x at output t keeps the relation with every earlier output
  exactly when lo < x < hi.  Here lo is the largest earlier B value whose
  A partner lies below A's output t, and hi (uniform only; infinite for
  eo_leq) is the smallest earlier B value whose A partner lies above it.
  Only A's first t + 1 outputs enter that test.
- So the walk is a depth-first walk over A's choice trie alone.  An A
  node at depth t carries B's frontier F_t, the B prefixes of length t
  still valid against A's first t outputs; sibling A nodes share it, and
  the literal walk spends sum over t of |F_t| * c_t B nodes on each leaf.
- F_{t+1} depends only on F_t and on the earlier outputs that bound B's
  output t, which A's first t + 1 values select.  Each complete frontier
  is interned under its parent's id and those bounds, so A prefixes that
  select the same bounds chain (different picks in the same relative
  order, say) share it, and its B nodes are charged, not tested again.
  Below the deepest shared level, frontiers are filled depth-first along
  A's first choices, one B candidate at a time, in the order the literal
  walk of that leaf tests them.
- Each B prefix kept records the B tests that walk makes at shallower
  depths before it reaches the prefix: its parent's count, plus c_t for
  each prefix before the parent in its frontier, plus its own rank, plus
  one.  So a fill always knows the literal count, and stops at the leaf
  that decides the search: at the witness, with its exact count and B's
  values read up the parent chain, ranked as A's picks are, or before the
  test that would pass max_nodes.
- Each B prefix kept comes from one B test of a fill.  A fill tests only
  what the literal walk of its own leaf tests within max_nodes, and no two
  fills share a leaf, so the fills test, and the frontiers hold, at most
  max_nodes in all.
- Once a frontier is empty, no leaf below holds a witness and each costs
  the same B nodes; the subtree's A nodes and leaves depend on its depth
  only, so it is counted in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, InsufficientEnumerationError, clip
from .patterns import ListingPrefix, OrderPattern, _first_violation, pattern_of, uniform
from .vm import DovetailTrace, EnumeratorProgram, Scheduler, dovetail, schedule

#: Most nodes a search may explore.  B's frontiers keep at most one
#: prefix per node, so this bounds their memory too (see the README).
MAX_NODES = 10**7

#: Fixed restriction statement carried by every report.
RESTRICTION_NOTE = (
    "witnesses range over window-w explicit reorderings of each program's "
    "native enumeration, compared on k-element prefixes; prefix-level "
    "evidence only, never a verdict on the unrestricted relation"
)


@dataclass(frozen=True)
class SearchBudget:
    """Bounds making the existential search finite."""

    k: int
    window: int
    max_nodes: int = 100_000
    round_cap: int = 1_000

    def __post_init__(self):
        if self.k < 1:
            raise InputError(f"k must be >= 1, got {clip(self.k)}")
        if self.window < 1:
            raise InputError(f"window must be >= 1, got {clip(self.window)}")
        if not 1 <= self.max_nodes <= MAX_NODES:
            raise InputError(f"max_nodes must be in 1..{MAX_NODES}, got {clip(self.max_nodes)}")
        if self.round_cap < 1:
            raise InputError(f"round_cap must be >= 1, got {clip(self.round_cap)}")


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a bounded witness search."""

    status: str  # witness_found | space_exhausted | budget_exceeded
    relation: str  # eo_leq | uniform
    k: int
    window: int
    nodes_explored: int
    choices_a: tuple[int, ...] | None = None
    choices_b: tuple[int, ...] | None = None
    prefix_a: ListingPrefix | None = None
    prefix_b: ListingPrefix | None = None
    pattern_a: OrderPattern | None = None
    pattern_b: OrderPattern | None = None
    #: Deterministic counters of the walk (see ``_walk``); not part of
    #: the outcome, so left out of equality and of ``to_json``.
    stats: dict | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "relation": self.relation,
            "k": self.k,
            "w": self.window,
            "choicesA": list(self.choices_a) if self.choices_a is not None else None,
            "choicesB": list(self.choices_b) if self.choices_b is not None else None,
            "prefixA": list(self.prefix_a.elements) if self.prefix_a else None,
            "prefixB": list(self.prefix_b.elements) if self.prefix_b else None,
            "patternA": list(self.pattern_a.ranks) if self.pattern_a else None,
            "patternB": list(self.pattern_b.ranks) if self.pattern_b else None,
            "nodesExplored": self.nodes_explored,
            "restriction": RESTRICTION_NOTE,
        }


def native_traces(
    prog_a: EnumeratorProgram, prog_b: EnumeratorProgram, k: int, round_cap: int
) -> tuple[DovetailTrace, DovetailTrace]:
    """Dovetail both programs; error if either fails to reach k values."""
    trace_a = dovetail(prog_a, k, round_cap)
    trace_b = dovetail(prog_b, k, round_cap)
    truncated = tuple(t.program for t in (trace_a, trace_b) if t.truncated)
    if truncated:
        raise InsufficientEnumerationError(truncated, k, round_cap)
    return trace_a, trace_b


def _walk(
    native_a: tuple[int, ...],
    native_b: tuple[int, ...],
    budget: SearchBudget,
    relation: str,
) -> tuple[str, int, tuple[tuple[int, ...], tuple[int, ...]] | None, dict]:
    """Depth-first walk over A's choice trie, carrying B's frontier.

    Returns the status, the nodes the joint walk explores (A's candidates
    and, for every complete A prefix, B's), A's and B's choices with a
    witness or None, and the counters: ``aNodes``, the A nodes placed one
    by one; ``bTests``, the B candidates tested while filling frontiers,
    at most max_nodes; ``frontierHits``, the frontier levels read from the
    interned ones; and ``closedFormSubtrees``, the A subtrees (single
    leaves included) counted in closed form.  B's native values must be
    distinct, as ``dovetail``'s are: a witness maps them back to indices.
    """
    k, max_nodes = budget.k, budget.max_nodes
    limits = [min(t + budget.window, k) for t in range(k)]
    widths = [limit - t for t, limit in enumerate(limits)]
    # Nodes and leaves of the A subtree below each depth, saturated one
    # above the budget, past which only "too many" matters.
    cap = max_nodes + 1
    below, leaves = [0] * (k + 1), [1] * (k + 1)
    for t in range(k - 1, -1, -1):
        below[t] = min(cap, widths[t] * (1 + below[t + 1]))
        leaves[t] = min(cap, widths[t] * leaves[t + 1])
    incoming = [(native_b[limit],) if limit < k else () for limit in limits]
    top = max(native_a + native_b) + 1  # above every value
    # A frontier element is (B's buffer at its depth, B's last value, parent,
    # the literal walk's B tests at shallower depths before it reaches the
    # element).  Slot k stays empty: no B prefix is kept past the last output.
    frontiers = [[(tuple(native_b[: limits[0]]), None, None, 0)]] + [[] for _ in range(k)]
    # Complete frontiers by the bounds chain that selects them, keyed flat
    # by bounds(u)'s high and lows: (id of F_u, high, *lows) -> (id of
    # F_{u+1}, F_{u+1}); F_0 has id 0.
    interned: dict = {}
    ids = [0] * (k + 1)  # ids of the frontiers along A's current path
    partial = [0] * (k + 1)  # B nodes each leaf below a depth spends above it
    pick, value, used = [-1] * k, [0] * k, bytearray(k)
    # B values above the element being expanded; slots k and k + 1 hold
    # -1 and top, so a missing bound is one more index.
    bvalue = [0] * k + [-1, top]
    lo_at, hi_at = [0] * k, [0] * k  # B's bounds at each depth of the fill's path
    at, nxt = [0] * k, [0] * k  # the fill's cursors, one per depth (see fill)
    tally = dict(aNodes=0, bTests=0, frontierHits=0, closedFormSubtrees=0)

    def bounds(u: int) -> tuple[tuple[int, ...], int, int]:
        # The earlier outputs whose B values bound B's output u: the
        # largest of the first group from below, the second from above;
        # then the earliest output they reach back to.
        a_u = value[u]
        if relation == "eo_leq":
            # Each s with a_s < a_u, less those with a later s' and
            # a_s < a_s' < a_u: a valid B prefix already has b_s < b_s'.
            lows, best = [], -1
            for s in range(u - 1, -1, -1):
                if best < value[s] < a_u:
                    lows.append(s)
                    best = value[s]
            return tuple(lows) or (k,), k + 1, lows[-1] if lows else k
        # uniform: B's prefix is ordered like A's, so A's value
        # neighbours of a_u carry both bounds.
        pred, succ, lo, hi = k, k + 1, -1, top
        for s in range(u):
            if lo < value[s] < a_u:
                lo, pred = value[s], s
            elif a_u < value[s] < hi:
                hi, succ = value[s], s
        return (pred,), succ, min(pred, succ)

    def reach(u: int) -> tuple[tuple[int, ...], int, int]:
        # Place A's first choice at depth u, the lowest unused index, once
        # a fill gets there; then bound B's output u.
        j = used.find(0, 0, limits[u])
        pick[u], used[j], value[u] = j, 1, native_a[j]
        return bounds(u)

    def fill(d: int, room: int) -> int | tuple:
        # Refill frontiers d+1.. along A's first choices below depth d:
        # first those interned for this bounds chain, then depth-first,
        # testing B's candidates in the order the literal walk of that
        # leaf tests them; it may test ``room`` B nodes within max_nodes.
        # Returns the shallowest depth whose frontier is empty or, when
        # that leaf decides the search, the walk's result.  A's picks are
        # placed down to the deepest depth the fill reaches, no further.
        marks = [None] * k
        marks[d] = bounds(d)
        while True:
            lows, high, _ = marks[d]
            hit = interned.get((ids[d], high, *lows))
            if hit is None:
                break
            tally["frontierHits"] += 1
            ids[d + 1], frontiers[d + 1] = hit
            partial[d + 1] = partial[d] + len(frontiers[d]) * widths[d]
            d += 1
            if not frontiers[d]:
                return d
            marks[d] = reach(d)
        for u in range(d + 1, k):
            frontiers[u] = []
        # The fill's path is one B prefix e at depth u and its parents up to
        # depth d, one per depth t: it is at[t] in frontier t and, above e,
        # resumes at candidate nxt[t].  Only kept prefixes are allocated.
        # base is the shallower tests of the current depth-d prefix, so the
        # literal walk is at node max_nodes - room + base + spent.
        spent = 0
        try:
            for n, e in enumerate(frontiers[d]):
                # B's values above depth d come from e's parents, on demand.
                node, s, base, u, i, at[d] = e, d - 1, e[3], d, 0, n
                while True:
                    buf = e[0]
                    if i == 0:  # first visit: bound B's output u
                        lows, high, need = marks[u]
                        while s >= need:
                            bvalue[s], node, s = node[1], node[2], s - 1
                        lo_at[u], hi_at[u] = max(map(bvalue.__getitem__, lows)), bvalue[high]
                    low, high = lo_at[u], hi_at[u]
                    for i in range(i, len(buf)):
                        if base + spent >= room:
                            return "budget_exceeded", max_nodes, None
                        spent += 1
                        y = buf[i]
                        if low < y < high:
                            break
                    else:  # e is done: back to its parent's next candidate
                        if u == d:
                            break
                        e, u = e[2], u - 1
                        i = nxt[u]
                        continue
                    if u + 1 == k:  # one candidate left, and it completes a witness
                        values = [y]  # B's values, last first, up the parent chain
                        while e[2] is not None:
                            values.append(e[1])
                            e = e[2]
                        index = {x: j for j, x in enumerate(native_b)}
                        choices = _ranks(pick, limits), _ranks([index[x] for x in reversed(values)], limits)
                        return "witness_found", max_nodes - room + base + spent, choices
                    kids = frontiers[u + 1]
                    e = (buf[:i] + buf[i + 1 :] + incoming[u], y, e, e[3] + at[u] * widths[u] + i + 1)
                    nxt[u], bvalue[u], u, i = i + 1, y, u + 1, 0
                    at[u] = len(kids)
                    kids.append(e)
                    if marks[u] is None:
                        marks[u] = reach(u)
            for empty in range(d + 1, k + 1):
                partial[empty] = partial[empty - 1] + len(frontiers[empty - 1]) * widths[empty - 1]
                ids[empty] = len(interned) + 1
                lows, high, _ = marks[empty - 1]
                interned[(ids[empty - 1], high, *lows)] = ids[empty], frontiers[empty]
                if not frontiers[empty]:
                    return empty
        finally:
            tally["bTests"] += spent

    count, d = 0, 0
    while d >= 0:
        j = pick[d]
        if j >= 0:
            used[j] = 0
        j = used.find(0, j + 1, limits[d])
        if j < 0:
            pick[d] = -1
            d -= 1
            continue
        if count == max_nodes:
            return "budget_exceeded", count, None, tally
        count += 1
        pick[d], used[j], value[d] = j, 1, native_a[j]
        s = fill(d, max_nodes - count - (k - d - 1))
        if isinstance(s, tuple):  # the first leaf below decides the search
            tally["aNodes"] += k - d
            return (*s, tally)
        # The path's A nodes down to depth s, then s's subtree, every
        # leaf of which spends partial[s] B nodes and finds nothing.
        added = s - d - 1 + below[s] + leaves[s] * partial[s]
        if count + added > max_nodes:
            return "budget_exceeded", max_nodes, None, tally
        count += added
        tally["aNodes"] += s - d
        tally["closedFormSubtrees"] += 1
        d = s - 1
    return "space_exhausted", count, None, tally


def _ranks(picks: list[int], limits: list[int]) -> tuple[int, ...]:
    # A choice is the pick j's rank among the unused indices: j less the
    # t used ones, plus those used between j and the limit (fewer than w).
    taken, choices = bytearray(len(picks)), []
    for t, j in enumerate(picks):
        taken[j] = 1
        choices.append(j - t + sum(taken[j + 1 : limits[t]]))
    return tuple(choices)


def witness(
    prog_a: EnumeratorProgram,
    prog_b: EnumeratorProgram,
    budget: SearchBudget,
    relation: str,
) -> WitnessReport:
    """Search the (k, w) strategy space for listings whose patterns are
    related: ``relation`` is "eo_leq", or "uniform" for pattern equality."""
    if relation not in ("eo_leq", "uniform"):
        raise InputError(f"unknown relation {clip(repr(relation))}")
    trace_a, trace_b = native_traces(prog_a, prog_b, budget.k, budget.round_cap)
    status, nodes, found, stats = _walk(trace_a.emitted, trace_b.emitted, budget, relation)
    stats["nodesExplored"] = nodes
    fields = {}
    if found is not None:
        # Replay through the scheduler and re-check through the pattern
        # relations, so every emitted witness is certificate-sound.
        choices_a, choices_b = found
        prefix_a, prefix_b = (
            schedule(trace.emitted, Scheduler("explicit", window=budget.window, choices=c), budget.k)
            for trace, c in ((trace_a, choices_a), (trace_b, choices_b))
        )
        pat_a, pat_b = pattern_of(prefix_a), pattern_of(prefix_b)
        holds = _first_violation(pat_a, pat_b) is None if relation == "eo_leq" else uniform(pat_a, pat_b)
        if not holds:
            raise AssertionError("witness failed replay validation")
        fields = dict(
            choices_a=choices_a,
            choices_b=choices_b,
            prefix_a=prefix_a,
            prefix_b=prefix_b,
            pattern_a=pat_a,
            pattern_b=pat_b,
        )
    return WitnessReport(status, relation, budget.k, budget.window, nodes, **fields, stats=stats)
