"""Brute-force ground truth for every relation and structure.

Everything in this module recomputes its answer from the rawest form of
the definitions — quantified double loops over index pairs, unpruned
cross products — and shares no relation code with the modules it
validates.  Agreement between an oracle suite and the corresponding fast
path is what the acceptance tests certify.  The pattern-pair suites
evaluate the relation once per ordered pair with the direct loop, keep
the verdicts as bit rows (row p holds bit q iff p <= q), and read the
laws off the rows; a report's ``checked`` counts cases decided, not loop
iterations.  The literal loops walk one index-pair table per length.
The witness search has two references: ``brute_force_witness`` scans
the joint choice space unpruned, and ``_literal_walk`` walks it depth
first, one node per candidate tried, as the search counts them.

Suites are exhaustive, so each has a hard size cap stated in its
precondition and enforced with an error; silent truncation would make a
passing report meaningless.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import patterns as fast
from .errors import EvaluationError, InputError, InsufficientPrefixError, NoAntichainError, clip
from .expressions import MAX_VALUE, _Binary, _Nat, _Node, _Var
from .poset import build_poset
from .search import SearchBudget, WitnessReport, native_traces
from .vm import DovetailTrace, EnumeratorProgram, Scheduler


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one exhaustive suite: empty failures means it passed.
    ``relation_tests`` (not in the JSON) counts direct-loop evaluations."""

    suite: str
    params: dict
    checked: int
    failures: tuple[dict, ...]
    relation_tests: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checked": self.checked,
            "failures": list(self.failures),
        }


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    # Every index pair i < j of a length-n sequence, in lexicographic order.
    return tuple(itertools.combinations(range(n), 2))


def _direct_leq(p, q) -> bool:
    # The relation, literally: every ascending index pair of p must
    # ascend in q.
    for i, j in _pairs(len(p)):
        if p[i] < p[j] and not (q[i] < q[j]):
            return False
    return True


def _direct_uniform(p, q) -> bool:
    # Positionwise biconditional, literally.
    for i, j in _pairs(len(p)):
        if (p[i] < p[j]) != (q[i] < q[j]):
            return False
    return True


def brute_force_pair_sets(p) -> tuple[frozenset, frozenset]:
    """Ascents and inversions of p, literally: the ascending index pairs
    among all of them, and the inversions as their complement."""
    pairs = frozenset(itertools.combinations(range(len(p)), 2))
    up = frozenset((i, j) for i, j in pairs if p[i] < p[j])
    return up, pairs - up


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _row(relation, p, others) -> int:
    # Bit b set iff relation(p, others[b]): one call per pair, in order.
    return sum(1 << b for b, q in enumerate(others) if relation(p, q))


def _leq_rows(perms) -> list[int]:
    # Row a holds bit b iff perms[a] <= perms[b] by the direct loop: one
    # literal evaluation per ordered pair, kept only for this call.
    return [_row(_direct_leq, p, perms) for p in perms]


def _bits(mask: int):
    # The set bits of mask, ascending.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_preorder_laws(n: int) -> OracleReport:
    """Reflexivity, transitivity, antisymmetry of the direct relation.

    The laws are read off the relation's bit rows: the transitivity
    failures (p, q, r) for p <= q are the patterns r in q's row but not in
    p's.  ``checked`` counts the cases decided, m + m**3 + m**2 for
    m = n!, not loop iterations.  Cap n <= 5.
    """
    _require(1 <= n <= 5, f"preorder suite takes n in 1..5, got {clip(n)}")
    perms = list(itertools.permutations(range(n)))
    m = len(perms)
    rows = _leq_rows(perms)
    failures: list[dict] = []

    for a in range(m):
        if not rows[a] >> a & 1:
            failures.append({"law": "reflexivity", "p": list(perms[a])})

    for a in range(m):
        for b in _bits(rows[a]):
            for c in _bits(rows[b] & ~rows[a]):
                failures.append({"law": "transitivity", "p": list(perms[a]),
                                 "q": list(perms[b]), "r": list(perms[c])})

    for a in range(m):
        for b in _bits(rows[a]):
            if rows[b] >> a & 1 and a != b:
                failures.append(
                    {"law": "antisymmetry", "p": list(perms[a]), "q": list(perms[b])}
                )

    return OracleReport("preorder", {"n": n}, m + m**3 + m**2, tuple(failures), relation_tests=m * m)


def check_inversion_equiv(n: int) -> OracleReport:
    """Direct double loop vs the containment-based fast path, all pairs.

    Each pattern's row of direct verdicts, read off the bit rows, is
    compared with its row of fast-path verdicts; the failures are the
    bits where they differ.  Cap n <= 6 (518,400 ordered pairs).
    """
    _require(1 <= n <= 6, f"inversion suite takes n in 1..6, got {clip(n)}")
    perms = list(itertools.permutations(range(n)))
    objects = [fast.OrderPattern(p) for p in perms]
    failures = []
    for p, po, direct in zip(perms, objects, _leq_rows(perms)):
        contained = _row(fast.eo_leq, po, objects)
        for b in _bits(direct ^ contained):
            failures.append({"p": list(p), "q": list(perms[b]), "direct": bool(direct >> b & 1),
                             "containment": bool(contained >> b & 1)})
    m = len(perms)
    return OracleReport("inversion", {"n": n}, m * m, tuple(failures), relation_tests=m * m)


def check_theorem10(n: int) -> OracleReport:
    """Two-sided reducibility, uniformity, and equality must coincide.

    All five available computations of the equivalence — direct loops
    both ways (read off the bit rows), the direct biconditional, the
    module's eo_equiv and uniform — are compared against plain pattern
    equality, for every ordered pair: each gives p one row of verdicts,
    which must be p's own bit alone.  Only a row that is not gets its
    pairs walked, to report them.  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"theorem10 suite takes n in 1..6, got {clip(n)}")
    perms = list(itertools.permutations(range(n)))
    m = len(perms)
    objects = [fast.OrderPattern(p) for p in perms]
    rows = _leq_rows(perms)
    names = ("direct_two_sided", "direct_uniform", "module_eo_equiv", "module_uniform")
    failures = []
    for a, (p, po, row) in enumerate(zip(perms, objects, rows)):
        verdicts = [
            sum(1 << b for b in _bits(row) if rows[b] >> a & 1),
            _row(_direct_uniform, p, perms),
            _row(fast.eo_equiv, po, objects),
            _row(fast.uniform, po, objects),
        ]
        if verdicts == [1 << a] * 4:
            continue
        for b, q in enumerate(perms):
            holds = [bool(verdict >> b & 1) for verdict in verdicts]
            if holds != [a == b] * 4:
                failures.append({"p": list(p), "q": list(q), "equal": a == b, **dict(zip(names, holds))})
    return OracleReport("theorem10", {"n": n}, m * m, tuple(failures), relation_tests=2 * m * m)


def check_theorem3_finite(n: int, support: Iterable[int]) -> OracleReport:
    """Every pattern is constructively realized over any same-size support.

    For each of the n! patterns, the arrangement of ``support`` built by
    apply_pattern must be positionwise order-isomorphic to the pattern
    itself (checked by the direct biconditional loop).  The support is
    checked as a ``ListingPrefix``, so a repeated or out-of-range value
    raises at its position in the support.  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"theorem3 suite takes n in 1..6, got {clip(n)}")
    prefix = fast.ListingPrefix(tuple(support))
    support_values = sorted(prefix.elements)
    _require(
        len(support_values) == n,
        f"support must hold exactly {n} distinct naturals, got {clip(support_values)}",
    )
    failures = []
    for p in itertools.permutations(range(n)):
        realized = fast.apply_pattern(fast.OrderPattern(p), prefix)
        if not _direct_uniform(p, realized):
            failures.append({"pattern": list(p), "realized": list(realized)})
    m = math.factorial(n)
    params = {"n": n, "support": support_values}
    return OracleReport("theorem3", params, m, tuple(failures), relation_tests=m)


def check_hasse(n: int) -> OracleReport:
    """Poset cover edges vs the transitive reduction of the direct relation.

    On the relation's bit rows with the diagonal cleared, the oracle keeps
    an edge (p, q) iff q is in p's row and in no row of a pattern in p's
    row; the poset module's hasse must match exactly, and the edge count
    must equal (n-1) * n! / 2.  ``checked`` counts the ordered pairs
    decided plus the count check.  Cap n <= 5.
    """
    _require(1 <= n <= 5, f"hasse suite takes n in 1..5, got {clip(n)}")
    perms = list(itertools.permutations(range(n)))
    m = len(perms)
    strict = [row & ~(1 << a) for a, row in enumerate(_leq_rows(perms))]
    reduction = set()
    for a, above in enumerate(strict):
        beyond = 0
        for r in _bits(above):
            beyond |= strict[r]
        reduction.update((perms[a], perms[b]) for b in _bits(above & ~beyond))

    poset = build_poset(n)
    module_edges = {
        (poset.nodes[a].ranks, poset.nodes[b].ranks) for a, b in poset.hasse
    }

    failures = []
    for p, q in sorted(reduction - module_edges):
        failures.append({"edge": [list(p), list(q)], "missing_from": "module"})
    for p, q in sorted(module_edges - reduction):
        failures.append({"edge": [list(p), list(q)], "missing_from": "oracle"})
    expected_count = (n - 1) * math.factorial(n) // 2
    if len(module_edges) != expected_count:
        failures.append(
            {
                "check": "cover_count",
                "expected": expected_count,
                "actual": len(module_edges),
            }
        )
    return OracleReport("hasse", {"n": n}, m * m + 1, tuple(failures), relation_tests=m * m)


def brute_force_antichain(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least antichain of ``size`` length-n patterns,
    by plain backtracking over the direct loop; ranks in lexicographic
    order, or NoAntichainError.  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"antichain brute force takes n in 1..6, got {clip(n)}")
    perms = list(itertools.permutations(range(n)))

    def extend(start: int, chosen: tuple) -> tuple | None:
        if len(chosen) == size:
            return chosen
        for idx in range(start, len(perms)):
            p = perms[idx]
            if not any(_direct_leq(p, q) or _direct_leq(q, p) for q in chosen):
                found = extend(idx + 1, chosen + (p,))
                if found is not None:
                    return found
        return None

    found = extend(0, ())
    if found is None:
        raise NoAntichainError(f"no antichain of size {size} among length-{n} patterns")
    return found


# The tree-walking evaluator: the reference for the closures that
# ``expressions`` compiles each expression into.


def _eval_arith(node: _Node, i: int, source: str) -> int:
    if isinstance(node, _Nat):
        return node.value
    if isinstance(node, _Var):
        return i
    left = _eval_arith(node.left, i, source)
    right = _eval_arith(node.right, i, source)
    if node.op == "+":
        result = left + right
    elif node.op == "-":
        result = left - right if left > right else 0
    elif node.op == "*":
        result = left * right
    else:  # mod
        if right == 0:
            raise EvaluationError("mod by zero", source, i)
        result = left % right
    if result > MAX_VALUE:
        raise EvaluationError("overflow beyond 64 bits", source, i)
    return result


def _eval_bool(node: _Binary, i: int, source: str) -> bool:
    if node.op == "and":
        return _eval_bool(node.left, i, source) and _eval_bool(node.right, i, source)
    if node.op == "or":
        return _eval_bool(node.left, i, source) or _eval_bool(node.right, i, source)
    left = _eval_arith(node.left, i, source)
    right = _eval_arith(node.right, i, source)
    if node.op == "==":
        return left == right
    if node.op == "!=":
        return left != right
    if node.op == "<":
        return left < right
    return left <= right


def brute_force_dovetail(prog: EnumeratorProgram, k: int, round_cap: int) -> DovetailTrace:
    """The dovetailer, literally: every round r retries each pending input
    i <= r in increasing order, charging min(cost, r) (r if the guard
    fails) per attempt, until k values are emitted or round_cap is hit.
    O(round_cap**2) attempts; the reference for ``vm.dovetail``.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {clip(k)}")
    if round_cap < 1:
        raise InputError(f"round_cap must be >= 1, got {clip(round_cap)}")

    guard_memo: dict[int, bool] = {}
    cost_memo: dict[int, int] = {}
    halted: set[int] = set()
    diverging: set[int] = set()
    emitted: list[int] = []
    seen: set[int] = set()
    steps = 0

    def guard_holds(i: int) -> bool:
        if i not in guard_memo:
            guard_memo[i] = (
                prog.guard is None or _eval_bool(prog.guard.root, i, prog.guard.source)
            )
        return guard_memo[i]

    def cost_of(i: int) -> int:
        if i not in cost_memo:
            cost = _eval_arith(prog.cost.root, i, prog.cost.source)
            if cost < 1:
                raise EvaluationError("cost must be >= 1", prog.cost.source, i)
            cost_memo[i] = cost
        return cost_memo[i]

    def trace(rounds: int) -> DovetailTrace:
        return DovetailTrace(
            program=prog.name,
            rounds=rounds,
            emitted=tuple(emitted),
            halted_inputs=frozenset(halted),
            steps_charged=steps,
            truncated=len(emitted) < k,
            inputs_tried=len(guard_memo),
            pending=len(cost_memo) - len(halted),
        )

    for r in range(1, round_cap + 1):
        for i in range(r + 1):
            if i in halted or i in diverging:
                continue
            if not guard_holds(i):
                diverging.add(i)
                steps += r
                continue
            cost = cost_of(i)
            steps += min(cost, r)
            if cost <= r:
                halted.add(i)
                value = _eval_arith(prog.value.root, i, prog.value.source)
                if value not in seen:
                    seen.add(value)
                    emitted.append(value)
                    if len(emitted) == k:
                        return trace(r)
    return trace(round_cap)


def brute_force_schedule(native: Sequence[int], sched: Scheduler, k: int) -> fast.ListingPrefix:
    """The window scheduler on the native listing ``native``, literally:
    refill the buffer to the window in arrival order, then pop the head,
    the first minimum, the first maximum or the chosen slot.  O(k * w);
    the reference for ``vm.schedule``.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {clip(k)}")
    if k > len(native):
        raise InsufficientPrefixError(
            f"native prefix has {len(native)} elements, cannot supply {clip(k)} outputs"
        )
    buffer: list[int] = []
    consumed = 0
    out: list[int] = []
    for t in range(1, k + 1):
        while len(buffer) < sched.window and consumed < len(native):
            buffer.append(native[consumed])
            consumed += 1
        if sched.kind == "native":
            idx = 0
        elif sched.kind == "min_first":
            idx = buffer.index(min(buffer))
        elif sched.kind == "max_first":
            idx = buffer.index(max(buffer))
        else:
            if t - 1 >= len(sched.choices):
                raise InputError(f"step {t}: no choice supplied")
            idx = sched.choices[t - 1]
            if idx >= len(buffer):
                raise InputError(f"step {t}: choice {idx} out of range for buffer of size {len(buffer)}")
        out.append(buffer.pop(idx))
    return fast.ListingPrefix(tuple(out))


def _replay(native: tuple[int, ...], window: int, choices: tuple[int, ...]) -> tuple[int, ...]:
    sched = Scheduler("explicit", window=window, choices=choices)
    return brute_force_schedule(native, sched, len(choices)).elements


def _report(status, relation, k, w, nodes, natives=(), found=None) -> WitnessReport:
    # With ``found`` (both choice vectors), the witness's prefixes and
    # patterns are replayed from the natives.
    if found is None:
        return WitnessReport(status, relation, k, w, nodes)
    prefix_a, prefix_b = (
        fast.ListingPrefix(_replay(native, w, choices)) for native, choices in zip(natives, found)
    )
    return WitnessReport(
        status,
        relation,
        k,
        w,
        nodes,
        choices_a=found[0],
        choices_b=found[1],
        prefix_a=prefix_a,
        prefix_b=prefix_b,
        pattern_a=fast.pattern_of(prefix_a),
        pattern_b=fast.pattern_of(prefix_b),
    )


def brute_force_witness(
    prog_a: EnumeratorProgram,
    prog_b: EnumeratorProgram,
    k: int,
    w: int,
    relation: str,
    round_cap: int = 1_000,
) -> WitnessReport:
    """Unpruned scan of the whole joint choice space, in the same order
    as the pruned search (A's choices outermost, everything ascending).

    Caps k <= 6 and w <= 3 keep the joint space at or below 3**12.
    """
    _require(1 <= k <= 6, f"brute force takes k in 1..6, got {clip(k)}")
    _require(1 <= w <= 3, f"brute force takes w in 1..3, got {clip(w)}")
    if relation not in ("eo_leq", "uniform"):
        raise InputError(f"unknown relation {clip(repr(relation))}")

    trace_a, trace_b = native_traces(prog_a, prog_b, k, round_cap)
    step_ranges = [range(min(w, k - t)) for t in range(k)]
    side_a = [
        (choices, _replay(trace_a.emitted, w, choices))
        for choices in itertools.product(*step_ranges)
    ]
    side_b = [
        (choices, _replay(trace_b.emitted, w, choices))
        for choices in itertools.product(*step_ranges)
    ]
    holds = _direct_leq if relation == "eo_leq" else _direct_uniform

    examined = 0
    for choices_a, prefix_a in side_a:
        for choices_b, prefix_b in side_b:
            examined += 1
            if holds(prefix_a, prefix_b):
                natives, found = (trace_a.emitted, trace_b.emitted), (choices_a, choices_b)
                return _report("witness_found", relation, k, w, examined, natives, found)
    return _report("space_exhausted", relation, k, w, examined)


class _BudgetHit(Exception):
    pass


def _literal_walk(
    native_a: tuple[int, ...], native_b: tuple[int, ...], budget: SearchBudget, relation: str
) -> tuple[str, int, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """The witness search, literally: one depth-first walk over the joint
    choice vector, A's k choices and then B's, each window buffer rebuilt
    from its native listing and its candidates tried in increasing order.
    Every candidate tried, on either side, is one node, and reaching
    max_nodes aborts the walk.  A B candidate is kept only if B's prefix
    with it stands in the relation, by the direct loop, to A's prefix of
    the same length.  Returns ``search._walk``'s (status, nodes, both
    choice vectors or None).  Recursion 2k deep.
    """
    k, w, max_nodes = budget.k, budget.window, budget.max_nodes
    holds = _direct_leq if relation == "eo_leq" else _direct_uniform
    nodes = 0

    def walk(native, buffer, prefix, choices, a):
        # ``a`` is A's complete (prefix, choices) on B's side, else None.
        nonlocal nodes
        t = len(prefix)
        if t == k:
            return (a[1], choices) if a else walk(native_b, (), (), (), (prefix, choices))
        buffer += native[t + len(buffer) : t + w]
        for choice, x in enumerate(buffer):
            if nodes == max_nodes:
                raise _BudgetHit
            nodes += 1
            longer = prefix + (x,)
            if a and not holds(a[0][: t + 1], longer):
                continue
            found = walk(native, buffer[:choice] + buffer[choice + 1 :], longer, choices + (choice,), a)
            if found:
                return found
        return None

    try:
        found = walk(native_a, (), (), (), None)
    except _BudgetHit:
        return "budget_exceeded", nodes, None
    return "witness_found" if found else "space_exhausted", nodes, found


def recursive_witness_search(
    prog_a: EnumeratorProgram,
    prog_b: EnumeratorProgram,
    budget: SearchBudget,
    relation: str,
) -> WitnessReport:
    """The witness search as ``_literal_walk``; the node-count reference
    for ``search._walk``.  Its report matches the search's field for
    field, ``nodes_explored`` included.  Cap k <= 200, which keeps the
    recursion well below Python's limit.
    """
    _require(1 <= budget.k <= 200, f"recursive witness search takes k in 1..200, got {clip(budget.k)}")
    if relation not in ("eo_leq", "uniform"):
        raise InputError(f"unknown relation {clip(repr(relation))}")
    trace_a, trace_b = native_traces(prog_a, prog_b, budget.k, budget.round_cap)
    natives = (trace_a.emitted, trace_b.emitted)
    status, nodes, found = _literal_walk(*natives, budget, relation)
    return _report(status, relation, budget.k, budget.window, nodes, natives, found)
