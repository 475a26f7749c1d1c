"""Bounded witness search for the set-level relations.

The set-level relation asks for *some* pair of listings whose order
patterns are related; that existential is undecidable in general.  Here
it is restricted to a finite, exhaustible family: every window-w
explicit reordering of each program's native enumeration, compared on
k-element prefixes.  Within that family the search is complete — it
either produces a replayable witness, refutes the whole (k, w) space, or
runs out of node budget, and the three outcomes are never conflated.

The searcher assigns the k choices for listing A depth-first in
increasing order, and for each complete A-prefix assigns B's choices the
same way, pruning as soon as some index pair violates the relation on
the partial prefixes.  The first witness found is therefore the
lexicographically least joint choice vector (A's choices first, then
B's), which is also what the brute-force oracle returns.
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
class NativeComparison:
    """Relation verdicts between two native enumeration prefixes."""

    status: str  # ok | insufficient_enumeration
    k: int
    program_a: str
    program_b: str
    truncated_programs: tuple[str, ...] = ()
    pattern_a: OrderPattern | None = None
    pattern_b: OrderPattern | None = None
    leq_ab: bool | None = None
    leq_ba: bool | None = None
    uniform_ab: bool | None = None
    violation_ab: tuple[int, int] | None = None
    violation_ba: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "k": self.k,
            "programA": self.program_a,
            "programB": self.program_b,
            "truncated": list(self.truncated_programs),
            "patternA": self.pattern_a.to_json() if self.pattern_a else None,
            "patternB": self.pattern_b.to_json() if self.pattern_b else None,
            "leqAB": self.leq_ab,
            "leqBA": self.leq_ba,
            "uniform": self.uniform_ab,
            "violationAB": list(self.violation_ab) if self.violation_ab else None,
            "violationBA": list(self.violation_ba) if self.violation_ba else None,
        }


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


def _first_violation(p: OrderPattern, q: OrderPattern) -> tuple[int, int] | None:
    """Least index pair that is an ascent of p but an inversion of q."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p.ranks[i] < p.ranks[j] and not (q.ranks[i] < q.ranks[j]):
                return (i, j)
    return None


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


def compare_native(
    prog_a: EnumeratorProgram, prog_b: EnumeratorProgram, k: int, round_cap: int
) -> NativeComparison:
    """Compare the two native listings on their first k values.

    Truncation yields an in-band "insufficient_enumeration" outcome
    rather than a relation verdict.
    """
    try:
        trace_a, trace_b = native_traces(prog_a, prog_b, k, round_cap)
    except InsufficientEnumerationError as exc:
        return NativeComparison(
            status="insufficient_enumeration",
            k=k,
            program_a=prog_a.name,
            program_b=prog_b.name,
            truncated_programs=exc.programs,
        )
    pat_a = pattern_of(trace_a.as_prefix())
    pat_b = pattern_of(trace_b.as_prefix())
    return NativeComparison(
        status="ok",
        k=k,
        program_a=prog_a.name,
        program_b=prog_b.name,
        pattern_a=pat_a,
        pattern_b=pat_b,
        leq_ab=eo_leq(pat_a, pat_b),
        leq_ba=eo_leq(pat_b, pat_a),
        uniform_ab=uniform(pat_a, pat_b),
        violation_ab=_first_violation(pat_a, pat_b),
        violation_ba=_first_violation(pat_b, pat_a),
    )


class _BudgetHit(Exception):
    pass


class _Searcher:
    """Depth-first assignment of explicit scheduler choices.

    One node = one placed choice (on either side).  Hitting max_nodes
    aborts the whole search; an inconclusive run must never look like a
    refutation.
    """

    def __init__(self, native_a, native_b, budget: SearchBudget, relation: str):
        self.native_a = native_a
        self.native_b = native_b
        self.budget = budget
        self.relation = relation
        self.nodes = 0

    def _tick(self) -> None:
        if self.nodes >= self.budget.max_nodes:
            raise _BudgetHit
        self.nodes += 1

    def _ok_so_far(self, prefix_a, prefix_b) -> bool:
        t = len(prefix_b) - 1
        b_t = prefix_b[t]
        a_t = prefix_a[t]
        if self.relation == "eo_leq":
            for i in range(t):
                if prefix_a[i] < a_t and not (prefix_b[i] < b_t):
                    return False
        else:
            for i in range(t):
                if (prefix_a[i] < a_t) != (prefix_b[i] < b_t):
                    return False
        return True

    def _b_dfs(self, prefix_a, buffer, consumed, prefix_b, choices_b):
        if len(prefix_b) == self.budget.k:
            return tuple(choices_b)
        refill = list(buffer)
        used = consumed
        while len(refill) < self.budget.window and used < len(self.native_b):
            refill.append(self.native_b[used])
            used += 1
        for choice in range(len(refill)):
            self._tick()
            element = refill[choice]
            prefix_b.append(element)
            choices_b.append(choice)
            if self._ok_so_far(prefix_a, prefix_b):
                rest = refill[:choice] + refill[choice + 1 :]
                found = self._b_dfs(prefix_a, rest, used, prefix_b, choices_b)
                if found is not None:
                    return found
            prefix_b.pop()
            choices_b.pop()
        return None

    def _a_dfs(self, buffer, consumed, prefix_a, choices_a):
        if len(prefix_a) == self.budget.k:
            found_b = self._b_dfs(prefix_a, [], 0, [], [])
            if found_b is not None:
                return tuple(choices_a), found_b
            return None
        refill = list(buffer)
        used = consumed
        while len(refill) < self.budget.window and used < len(self.native_a):
            refill.append(self.native_a[used])
            used += 1
        for choice in range(len(refill)):
            self._tick()
            prefix_a.append(refill[choice])
            choices_a.append(choice)
            rest = refill[:choice] + refill[choice + 1 :]
            found = self._a_dfs(rest, used, prefix_a, choices_a)
            if found is not None:
                return found
            prefix_a.pop()
            choices_a.pop()
        return None

    def run(self):
        try:
            return self._a_dfs([], 0, [], []), False
        except _BudgetHit:
            return None, True


def _search(
    prog_a: EnumeratorProgram,
    prog_b: EnumeratorProgram,
    budget: SearchBudget,
    relation: str,
) -> WitnessReport:
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    trace_a, trace_b = native_traces(prog_a, prog_b, budget.k, budget.round_cap)
    searcher = _Searcher(trace_a.emitted, trace_b.emitted, budget, relation)
    found, budget_hit = searcher.run()
    if budget_hit:
        return WitnessReport(
            status="budget_exceeded",
            relation=relation,
            k=budget.k,
            window=budget.window,
            nodes_explored=searcher.nodes,
        )
    if found is None:
        return WitnessReport(
            status="space_exhausted",
            relation=relation,
            k=budget.k,
            window=budget.window,
            nodes_explored=searcher.nodes,
        )
    choices_a, choices_b = found
    # Replay through the scheduler and re-check through the pattern
    # relations, so every emitted witness is certificate-sound.
    sched_a = Scheduler("explicit", window=budget.window, choices=choices_a)
    sched_b = Scheduler("explicit", window=budget.window, choices=choices_b)
    prefix_a = schedule(trace_a.emitted, sched_a, budget.k)
    prefix_b = schedule(trace_b.emitted, sched_b, budget.k)
    pat_a, pat_b = pattern_of(prefix_a), pattern_of(prefix_b)
    holds = eo_leq(pat_a, pat_b) if relation == "eo_leq" else uniform(pat_a, pat_b)
    assert holds, "witness failed replay validation"
    return WitnessReport(
        status="witness_found",
        relation=relation,
        k=budget.k,
        window=budget.window,
        nodes_explored=searcher.nodes,
        choices_a=choices_a,
        choices_b=choices_b,
        prefix_a=prefix_a,
        prefix_b=prefix_b,
        pattern_a=pat_a,
        pattern_b=pat_b,
    )


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
