"""Bounded witness search for the set-level relations.

The set-level relation asks for *some* pair of listings whose order
patterns are related; that existential is undecidable in general.  Here
it is restricted to a finite, exhaustible family: every window-w
explicit reordering of each program's native enumeration, compared on
k-element prefixes.  Within that family the search is complete — it
either produces a replayable witness, refutes the whole (k, w) space, or
runs out of node budget, and the three outcomes are never conflated.

The search is one iterative depth-first walk over the joint choice
vector: A's k choices, then B's k choices, each tried in increasing
order, so the first witness found is the lexicographically least joint
choice vector, which is also what the brute-force oracle returns.  A
node is one candidate tried, on either side; hitting max_nodes stops the
walk, since an inconclusive run must never look like a refutation.  The
walk rests on two facts:

- At output t the window buffer holds exactly the unused native indices
  below min(t + w, k), in increasing order.  A choice is therefore the
  rank of the picked index among them, and the walk keeps only a ``used``
  array per side, never a buffer.
- B's value x at output t keeps the relation with every earlier output
  exactly when lo < x < hi.  Here lo is the largest earlier B value whose
  A partner lies below A's output t, and hi (uniform only; infinite for
  eo_leq) is the smallest earlier B value whose A partner lies above it.
  The walk computes both once when it enters a depth, so each candidate
  costs one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import ListingPrefix, OrderPattern, eo_leq, pattern_of, uniform
from .vm import DovetailTrace, EnumeratorProgram, Scheduler, dovetail, schedule

RELATIONS = ("eo_leq", "uniform")

#: Fixed restriction statement carried by every report.
RESTRICTION_NOTE = (
    "witnesses range over window-w explicit reorderings of each program's "
    "native enumeration, compared on k-element prefixes; prefix-level "
    "evidence only, never a verdict on the unrestricted relation"
)


class InsufficientEnumerationError(RuntimeError):
    """A native enumeration did not reach k values within round_cap."""

    def __init__(self, programs: tuple[str, ...], k: int, round_cap: int):
        self.programs = programs
        super().__init__(
            f"insufficient enumeration: {', '.join(programs)} did not emit "
            f"{k} values within {round_cap} rounds"
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
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.round_cap < 1:
            raise ValueError(f"round_cap must be >= 1, got {self.round_cap}")


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

    def witness_schedulers(self) -> tuple[Scheduler, Scheduler]:
        if self.status != "witness_found":
            raise ValueError(f"no witness in a report with status {self.status!r}")
        return (
            Scheduler("explicit", window=self.window, choices=self.choices_a),
            Scheduler("explicit", window=self.window, choices=self.choices_b),
        )

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "relation": self.relation,
            "k": self.k,
            "w": self.window,
            "choicesA": list(self.choices_a) if self.choices_a is not None else None,
            "choicesB": list(self.choices_b) if self.choices_b is not None else None,
            "prefixA": self.prefix_a.to_json() if self.prefix_a else None,
            "prefixB": self.prefix_b.to_json() if self.prefix_b else None,
            "patternA": self.pattern_a.to_json() if self.pattern_a else None,
            "patternB": self.pattern_b.to_json() if self.pattern_b else None,
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
    native_a: tuple[int, ...], native_b: tuple[int, ...], budget: SearchBudget, relation: str
) -> tuple[str, int, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Depth-first walk over the joint choice vector: depth d < k places A's
    output d, depth k + t places B's output t.  Returns the status, the
    nodes explored and, with a witness, A's and B's choices."""
    k, window, end = budget.k, budget.window, 2 * budget.k
    # Per depth: the side's natives, its one array of used flags, and the
    # bound on the native indices its buffer holds.
    natives = [native_a] * k + [native_b] * k
    used = [bytearray(k)] * k + [bytearray(k)] * k
    limits = [min(t + window, k) for t in range(k)] * 2
    pick = [-1] * end  # native index placed at each depth; -1 until entered
    value = [0] * end
    top = max(native_a + native_b) + 1  # above every value, where math.inf is slower
    lo, hi = [-1] * end, [top] * end  # open interval per depth; A's stay open
    max_nodes, nodes, d = budget.max_nodes, 0, 0
    while 0 <= d < end:
        native, taken, j = natives[d], used[d], pick[d]
        if j >= 0:
            taken[j] = 0
        elif d >= k:
            t = d - k
            a_t, low, high = value[t], -1, top
            for a, b in zip(value[:t], value[k:d]):
                if a < a_t:
                    if b > low:
                        low = b
                elif b < high and relation == "uniform":
                    high = b
            lo[d], hi[d] = low, high
        # Candidates are the unused native indices below the limit, in order.
        low, high, limit = lo[d], hi[d], limits[d]
        j += 1
        while j < limit:
            if not taken[j]:
                if nodes == max_nodes:
                    return "budget_exceeded", nodes, None
                nodes += 1
                if low < native[j] < high:
                    break
            j += 1
        else:
            pick[d] = -1
            d -= 1
            continue
        pick[d], taken[j], value[d] = j, 1, native[j]
        d += 1
    if d < 0:
        return "space_exhausted", nodes, None
    # A choice is the pick j's rank among the unused indices: j less the t
    # used ones, plus those used between j and the limit (fewer than w).
    choices = []
    for picks in (pick[:k], pick[k:]):
        taken = bytearray(k)
        for t, j in enumerate(picks):
            taken[j] = 1
            choices.append(j - t + sum(taken[j + 1 : limits[t]]))
    return "witness_found", nodes, (tuple(choices[:k]), tuple(choices[k:]))


def _search(
    prog_a: EnumeratorProgram,
    prog_b: EnumeratorProgram,
    budget: SearchBudget,
    relation: str,
) -> WitnessReport:
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    trace_a, trace_b = native_traces(prog_a, prog_b, budget.k, budget.round_cap)
    status, nodes, found = _walk(trace_a.emitted, trace_b.emitted, budget, relation)
    witness = {}
    if found is not None:
        # Replay through the scheduler and re-check through the pattern
        # relations, so every emitted witness is certificate-sound.
        choices_a, choices_b = found
        prefix_a, prefix_b = (
            schedule(trace.emitted, Scheduler("explicit", window=budget.window, choices=c), budget.k)
            for trace, c in ((trace_a, choices_a), (trace_b, choices_b))
        )
        pat_a, pat_b = pattern_of(prefix_a), pattern_of(prefix_b)
        holds = eo_leq(pat_a, pat_b) if relation == "eo_leq" else uniform(pat_a, pat_b)
        assert holds, "witness failed replay validation"
        witness = dict(
            choices_a=choices_a,
            choices_b=choices_b,
            prefix_a=prefix_a,
            prefix_b=prefix_b,
            pattern_a=pat_a,
            pattern_b=pat_b,
        )
    return WitnessReport(status, relation, budget.k, budget.window, nodes, **witness)


def search_eo_witness(
    prog_a: EnumeratorProgram, prog_b: EnumeratorProgram, budget: SearchBudget
) -> WitnessReport:
    """Search the (k, w) strategy space for listings with related patterns."""
    return _search(prog_a, prog_b, budget, "eo_leq")


def search_uniform_witness(
    prog_a: EnumeratorProgram, prog_b: EnumeratorProgram, budget: SearchBudget
) -> WitnessReport:
    """Same search with the constraint strengthened to pattern equality."""
    return _search(prog_a, prog_b, budget, "uniform")
