"""Toy enumerator VM: programs with simulated halting costs.

A program denotes a partial function on the naturals: ``value`` gives the
output for input i, ``cost`` the number of simulated steps before input i
halts, and an optional ``guard`` marks inputs that never halt.  The
dovetailer runs rounds r = 1, 2, ...; input i is first tried in round
max(1, i) and, if its guard holds, halts in round H(i) = max(i, cost(i)).
The native listing is the halting inputs' values in (H(i), i) order, each
kept at its first emission, so the order depends on halting times rather
than on value magnitude, which is the whole point of the model.

Schedulers derive alternative listings of the same emitted set by
buffering up to ``window`` elements of the native order and choosing
which buffered element to emit next.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

from .errors import EvaluationError, InputError, InsufficientPrefixError, clip
from .expressions import Expression, parse_arith, parse_guard
from .patterns import ListingPrefix

SCHEDULER_KINDS = ("native", "min_first", "max_first", "explicit")
MAX_ROUND_CAP = 10**6  # dovetail takes time and memory linear in its round cap


@dataclass(frozen=True)
class EnumeratorProgram:
    """A named partial function with explicit halting costs."""

    name: str
    value: Expression
    cost: Expression
    guard: Expression | None = None


def parse_program(source: str) -> EnumeratorProgram:
    """Parse and validate a JSON program document.

    Required keys: "name", "value", "cost"; optional "guard" (string or
    null).  Expression fields must parse in the grammar of
    :mod:`eolab.expressions`, with only ``i`` bound.
    """
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply")
    except ValueError:  # an integer of more digits than int() converts
        raise InputError("invalid JSON: number has too many digits")
    if not isinstance(doc, dict):
        raise InputError("program document must be a JSON object")
    unknown = set(doc) - {"name", "value", "cost", "guard"}
    if unknown:
        raise InputError(f"unknown keys: {clip(', '.join(sorted(unknown)))}")
    for key in ("name", "value", "cost"):
        if key not in doc:
            raise InputError(f"missing key: {key}")
        if not isinstance(doc[key], str):
            raise InputError(f"key {key!r} must be a string")
    name = doc["name"]
    if not name or not name.replace("_", "").isalnum():
        raise InputError(f"name {clip(repr(name))} is not an identifier")
    guard_src = doc.get("guard")
    if guard_src is not None and not isinstance(guard_src, str):
        raise InputError("key 'guard' must be a string or null")
    return EnumeratorProgram(
        name=name,
        value=parse_arith(doc["value"]),
        cost=parse_arith(doc["cost"]),
        guard=parse_guard(guard_src) if guard_src is not None else None,
    )


@dataclass(frozen=True)
class DovetailTrace:
    """Result of dovetailing a program.

    ``emitted`` is the deduplicated value sequence in emission order (a
    prefix of the program's native listing); it is a plain tuple because
    a truncated trace may hold no emissions at all.  ``steps_charged``
    totals the simulated steps: every round-r attempt at a pending input
    charges min(cost, r) when the guard holds and r when it does not: in
    all, s if i diverges, T(s, H(i) - 1) + cost(i) if it halted and T(s, L)
    if pending, with s = max(1, i), T(a, b) = a + ... + b and L the final
    round (the one before it for inputs above that of the k-th emission).
    ``inputs_tried`` counts the inputs tried at least once and ``pending``
    those whose guard held but which had not halted when the run stopped.
    """

    program: str
    rounds: int
    emitted: tuple[int, ...]
    halted_inputs: frozenset[int]
    steps_charged: int
    truncated: bool
    inputs_tried: int
    pending: int


def _span(a: int, b: int) -> int:
    """a + (a+1) + ... + b; 0 when b = a - 1."""
    return (a + b) * (b - a + 1) // 2


def dovetail(prog: EnumeratorProgram, k: int, round_cap: int) -> DovetailTrace:
    """Run the dovetailer until k values are emitted or round_cap is hit.

    One sweep over the inputs n: round r = max(1, n) halts the inputs due
    in it in increasing order, then tries input n, filing it under H(n)
    unless it halts at once.  A round's bucket is dropped once all of it
    has halted, so an unfinished one is still there for the final charge.
    Expressions are evaluated in the order of the literal round loop,
    ``oracle.brute_force_dovetail``, through the closures compiled at
    parse time.  Hitting round_cap yields a trace flagged truncated, not
    an error.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {clip(k)}")
    if not 1 <= round_cap <= MAX_ROUND_CAP:
        raise InputError(f"round_cap must be in 1..{MAX_ROUND_CAP}, got {clip(round_cap)}")

    guard = prog.guard.evaluate if prog.guard is not None else None
    cost_of, value_of = prog.cost.evaluate, prog.value.evaluate
    due: defaultdict[int, list[int]] = defaultdict(list)  # halting round -> inputs, increasing
    halted: set[int] = set()
    emitted: dict[int, None] = {}  # values in first-emission order
    steps = 0

    for n in range(round_cap + 1):
        r = n or 1  # round 1 tries inputs 0 and 1; no input is ever due in it
        if due and (bucket := due.get(r)) is not None:  # due empties once r passes every cost
            for i in bucket:  # filed in an earlier round, so its cost is r
                steps += _span(max(1, i), r)
                halted.add(i)
                emitted[value_of(i)] = None
                if len(emitted) == k:
                    break
            if len(emitted) == k:
                break
            del due[r]
        i = n
        if guard is not None and not guard(i):
            steps += r
            continue
        cost = cost_of(i)
        if cost > r:
            due[cost].append(i)
            continue
        if cost < 1:
            raise EvaluationError("cost must be >= 1", prog.cost.source, i)
        steps += cost
        halted.add(i)
        emitted[value_of(i)] = None
        if len(emitted) == k:
            break

    # Pending inputs above i, the last tried in round r, last ran in round r - 1.
    pending = [j for bucket in due.values() for j in bucket if j not in halted]
    steps += sum(_span(max(1, j), r - (j > i)) for j in pending)
    return DovetailTrace(
        program=prog.name,
        rounds=r,
        emitted=tuple(emitted),
        halted_inputs=frozenset(halted),
        steps_charged=steps,
        truncated=len(emitted) < k,
        inputs_tried=max(r, i + 1),  # every input below r, and r if it was tried
        pending=len(pending),
    )


@dataclass(frozen=True)
class Scheduler:
    """Reordering policy over a native enumeration.

    The buffer is kept filled to ``window`` elements in arrival order;
    each step one buffered element is emitted: the oldest (native), the
    smallest (min_first), the largest (max_first), or the one at
    ``choices[t]`` (explicit).  window=1 always reproduces native order.
    """

    kind: str
    window: int = 1
    choices: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))
        if self.kind not in SCHEDULER_KINDS:
            raise InputError(f"unknown scheduler kind {self.kind!r}")
        if self.window < 1:
            raise InputError(f"window must be >= 1, got {clip(self.window)}")
        if self.choices and self.kind != "explicit":
            raise InputError(f"choices are only valid for the explicit kind, not {self.kind!r}")
        if any(c < 0 for c in self.choices):
            raise InputError("choices must be naturals")


def schedule(native: Sequence[int], sched: Scheduler, k: int) -> ListingPrefix:
    """The first k elements of the native listing ``native`` (a trace's
    ``emitted``, say) as rescheduled by ``sched``.

    min_first and max_first keep the buffer as a heap of the values,
    resp. of their negations, and run in O(k log w).  Tied values are
    equal, so which of them goes first does not change the output.  The
    literal buffer loop is ``oracle.brute_force_schedule``.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {clip(k)}")
    if k > len(native):
        raise InsufficientPrefixError(
            f"native prefix has {len(native)} elements, cannot supply {clip(k)} outputs"
        )
    window = sched.window
    if sched.kind == "native":
        return ListingPrefix(native[:k])
    if sched.kind != "explicit":
        sign = 1 if sched.kind == "min_first" else -1
        heap = [sign * v for v in native[:window]]
        heapq.heapify(heap)
        out = []
        for i in range(window, window + k):
            if i < len(native):
                out.append(sign * heapq.heapreplace(heap, sign * native[i]))
            else:
                out.append(sign * heapq.heappop(heap))
        return ListingPrefix(tuple(out))
    buffer = list(native[:window])
    out = []
    for t, idx in enumerate(sched.choices[:k], start=1):
        if idx >= len(buffer):
            raise InputError(f"step {t}: choice {idx} out of range for buffer of size {len(buffer)}")
        out.append(buffer.pop(idx))
        if t + window <= len(native):
            buffer.append(native[t + window - 1])
    if len(out) < k:
        raise InputError(f"step {len(out) + 1}: no choice supplied")
    return ListingPrefix(tuple(out))
