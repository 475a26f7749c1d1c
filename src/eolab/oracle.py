"""Brute-force ground truth for every relation and structure.

Everything in this module recomputes its answer from the rawest form of
the definitions — quantified double loops over index pairs, reachability
scans, unpruned cross products — and shares no relation code with the
modules it validates.  Agreement between an oracle suite and the
corresponding fast path is what the acceptance tests certify.

Suites are exhaustive, so each has a hard size cap stated in its
precondition and enforced with an error; silent truncation would make a
passing report meaningless.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from . import patterns as fast
from .expressions import EvaluationError
from .poset import NoAntichainError, build_poset
from .search import WitnessReport, native_traces
from .vm import DovetailTrace, EnumeratorProgram


class OracleCapError(ValueError):
    """A suite was asked to exceed its stated size cap."""


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one exhaustive suite: empty failures means it passed."""

    suite: str
    params: dict
    checked: int
    failures: tuple[dict, ...]

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


def _direct_leq(p, q) -> bool:
    # The relation, literally: every ascending index pair of p must
    # ascend in q.
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] < p[j] and not (q[i] < q[j]):
                return False
    return True


def _direct_uniform(p, q) -> bool:
    # Positionwise biconditional, literally.
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if (p[i] < p[j]) != (q[i] < q[j]):
                return False
    return True


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleCapError(message)


def check_preorder_laws(n: int) -> OracleReport:
    """Reflexivity, transitivity, antisymmetry of the direct relation.

    Cap n <= 5: the transitivity scan is a full n!**3 triple loop.
    """
    _require(1 <= n <= 5, f"preorder suite caps at n=5, got {n}")
    perms = list(itertools.permutations(range(n)))
    m = len(perms)
    table = [[_direct_leq(p, q) for q in perms] for p in perms]
    failures: list[dict] = []

    for a in range(m):
        if not table[a][a]:
            failures.append({"law": "reflexivity", "p": list(perms[a])})

    for a in range(m):
        row_a = table[a]
        for b in range(m):
            ab = row_a[b]
            row_b = table[b]
            for c in range(m):
                if ab and row_b[c] and not row_a[c]:
                    failures.append(
                        {
                            "law": "transitivity",
                            "p": list(perms[a]),
                            "q": list(perms[b]),
                            "r": list(perms[c]),
                        }
                    )

    for a in range(m):
        for b in range(m):
            if table[a][b] and table[b][a] and a != b:
                failures.append(
                    {"law": "antisymmetry", "p": list(perms[a]), "q": list(perms[b])}
                )

    return OracleReport(
        suite="preorder",
        params={"n": n},
        checked=m + m**3 + m**2,
        failures=tuple(failures),
    )


def check_inversion_equiv(n: int) -> OracleReport:
    """Direct double loop vs the containment-based fast path, all pairs.

    Cap n <= 6 (518,400 ordered pairs).
    """
    _require(1 <= n <= 6, f"inversion suite caps at n=6, got {n}")
    perms = list(itertools.permutations(range(n)))
    objects = [fast.OrderPattern(p) for p in perms]
    failures = []
    for (p, po), (q, qo) in itertools.product(zip(perms, objects), repeat=2):
        direct = _direct_leq(p, q)
        contained = fast.eo_leq(po, qo)
        if direct != contained:
            failures.append(
                {"p": list(p), "q": list(q), "direct": direct, "containment": contained}
            )
    return OracleReport(
        suite="inversion",
        params={"n": n},
        checked=len(perms) ** 2,
        failures=tuple(failures),
    )


def check_theorem10(n: int) -> OracleReport:
    """Two-sided reducibility, uniformity, and equality must coincide.

    All five available computations of the equivalence — direct loops
    both ways, the direct biconditional, the module's eo_equiv and
    uniform — are compared against plain pattern equality, for every
    ordered pair.  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"theorem10 suite caps at n=6, got {n}")
    perms = list(itertools.permutations(range(n)))
    objects = [fast.OrderPattern(p) for p in perms]
    failures = []
    for (p, po), (q, qo) in itertools.product(zip(perms, objects), repeat=2):
        equal = p == q
        verdicts = {
            "direct_two_sided": _direct_leq(p, q) and _direct_leq(q, p),
            "direct_uniform": _direct_uniform(p, q),
            "module_eo_equiv": fast.eo_equiv(po, qo),
            "module_uniform": fast.uniform(po, qo),
        }
        if any(v != equal for v in verdicts.values()):
            failures.append({"p": list(p), "q": list(q), "equal": equal, **verdicts})
    return OracleReport(
        suite="theorem10",
        params={"n": n},
        checked=len(perms) ** 2,
        failures=tuple(failures),
    )


def check_theorem3_finite(n: int, support: Iterable[int]) -> OracleReport:
    """Every pattern is constructively realized over any same-size support.

    For each of the n! patterns, the arrangement of ``support`` built by
    apply_pattern must be positionwise order-isomorphic to the pattern
    itself (checked by the direct biconditional loop).  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"theorem3 suite caps at n=6, got {n}")
    support_values = sorted(set(support))
    _require(
        len(support_values) == n,
        f"support must hold exactly {n} distinct naturals, got {support_values}",
    )
    failures = []
    for p in itertools.permutations(range(n)):
        realized = fast.apply_pattern(fast.OrderPattern(p), support_values)
        if not _direct_uniform(p, realized.elements):
            failures.append({"pattern": list(p), "realized": realized.to_json()})
    return OracleReport(
        suite="theorem3",
        params={"n": n, "support": support_values},
        checked=math.factorial(n),
        failures=tuple(failures),
    )


def check_hasse(n: int) -> OracleReport:
    """Poset cover edges vs a reachability-based transitive reduction.

    The oracle recomputes the relation with the direct loop and keeps an
    edge (p, q) iff nothing lies strictly between; the poset module's
    hasse must match exactly, and the edge count must equal
    (n-1) * n! / 2.  Cap n <= 5.
    """
    _require(1 <= n <= 5, f"hasse suite caps at n=5, got {n}")
    perms = list(itertools.permutations(range(n)))
    strict = {
        (p, q)
        for p in perms
        for q in perms
        if p != q and _direct_leq(p, q)
    }
    reduction = {
        (p, q)
        for (p, q) in strict
        if not any((p, r) in strict and (r, q) in strict for r in perms)
    }

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
    return OracleReport(
        suite="hasse",
        params={"n": n},
        checked=len(perms) ** 2 + 1,
        failures=tuple(failures),
    )


def brute_force_antichain(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least antichain of ``size`` length-n patterns,
    by plain backtracking over the direct loop; ranks in lexicographic
    order, or NoAntichainError.  Cap n <= 6.
    """
    _require(1 <= n <= 6, f"antichain brute force caps at n=6, got {n}")
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


def brute_force_dovetail(prog: EnumeratorProgram, k: int, round_cap: int) -> DovetailTrace:
    """The dovetailer, literally: every round r retries each pending input
    i <= r in increasing order, charging min(cost, r) (r if the guard
    fails) per attempt, until k values are emitted or round_cap is hit.
    O(round_cap**2) attempts; the reference for ``vm.dovetail``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if round_cap < 1:
        raise ValueError(f"round_cap must be >= 1, got {round_cap}")

    guard_memo: dict[int, bool] = {}
    cost_memo: dict[int, int] = {}
    halted: set[int] = set()
    diverging: set[int] = set()
    emitted: list[int] = []
    seen: set[int] = set()
    steps = 0

    def guard_holds(i: int) -> bool:
        if i not in guard_memo:
            guard_memo[i] = prog.guard.evaluate(i) if prog.guard is not None else True
        return guard_memo[i]

    def cost_of(i: int) -> int:
        if i not in cost_memo:
            cost = prog.cost.evaluate(i)
            if cost < 1:
                raise EvaluationError("cost must be >= 1", prog.cost.source, i)
            cost_memo[i] = cost
        return cost_memo[i]

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
                value = prog.value.evaluate(i)
                if value not in seen:
                    seen.add(value)
                    emitted.append(value)
                    if len(emitted) == k:
                        return DovetailTrace(
                            program=prog.name,
                            rounds=r,
                            emitted=tuple(emitted),
                            halted_inputs=frozenset(halted),
                            steps_charged=steps,
                            truncated=False,
                        )
    return DovetailTrace(
        program=prog.name,
        rounds=round_cap,
        emitted=tuple(emitted),
        halted_inputs=frozenset(halted),
        steps_charged=steps,
        truncated=True,
    )


def _replay(native: tuple[int, ...], window: int, choices: tuple[int, ...]) -> tuple[int, ...]:
    # Minimal re-statement of the window scheduler, kept local so the
    # oracle does not lean on the module it validates.
    buffer: list[int] = []
    used = 0
    out: list[int] = []
    for choice in choices:
        while len(buffer) < window and used < len(native):
            buffer.append(native[used])
            used += 1
        out.append(buffer.pop(choice))
    return tuple(out)


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
    _require(1 <= k <= 6, f"brute force caps at k=6, got {k}")
    _require(1 <= w <= 3, f"brute force caps at w=3, got {w}")
    if relation not in ("eo_leq", "uniform"):
        raise ValueError(f"unknown relation {relation!r}")

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
                return WitnessReport(
                    status="witness_found",
                    relation=relation,
                    k=k,
                    window=w,
                    nodes_explored=examined,
                    choices_a=choices_a,
                    choices_b=choices_b,
                    prefix_a=fast.ListingPrefix(prefix_a),
                    prefix_b=fast.ListingPrefix(prefix_b),
                    pattern_a=fast.pattern_of(prefix_a),
                    pattern_b=fast.pattern_of(prefix_b),
                )
    return WitnessReport(
        status="space_exhausted",
        relation=relation,
        k=k,
        window=w,
        nodes_explored=examined,
    )
