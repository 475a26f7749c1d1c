"""Reference answers for every job the benchmark runs, and the checker.

Nothing here calls the code paths it checks.  Expressions are parsed by a
shunting-yard parser and evaluated by this module; the dovetailer is the
closed form "input i halts in round max(i, 1, cost(i))", replayed in
round order so that evaluation errors surface where the literal round loop
would meet them; patterns, pair sets and relations are direct double
loops.  The only calls into eolab are constants (scope notes) and
``oracle.brute_force_witness`` on programs read by ``vm.parse_program``:
the repository's own unpruned search, used at k <= 6 and w <= 3.

``check(job, code, stdout, sources)`` returns None when the output is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import re
import sys
from contextlib import contextmanager

MAX_VALUE = 2**64 - 1
EXIT_OK, EXIT_SUITE, EXIT_USAGE, EXIT_UNAVAILABLE, EXIT_ENUMERATION, EXIT_BUDGET = range(6)

# --- expressions -------------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, "<=": 3,
               "+": 4, "-": 4, "*": 5, "mod": 5}
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|==|!=|<=|<|[-+*()])")


class EvalError(Exception):
    """Evaluation failed at one input (the CLI exits 4)."""


def parse(source: str):
    """Parse an arithmetic or guard expression into nested tuples.

    Iterative (shunting-yard), so nesting depth is unbounded.  Input is
    assumed well formed: it is either generated by the benchmark or a
    committed fixture.
    """
    output: list = []
    ops: list[str] = []

    def reduce_top() -> None:
        op = ops.pop()
        right = output.pop()
        output.append((op, output.pop(), right))

    pos = 0
    source = source.rstrip()
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ValueError(f"cannot tokenize {source[pos:pos + 10]!r}")
        tok = match.group(1)
        pos = match.end()
        if tok.isdigit():
            output.append(int(tok))
        elif tok == "i":
            output.append("i")
        elif tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops[-1] != "(":
                reduce_top()
            ops.pop()
        else:
            while ops and ops[-1] != "(" and _PRECEDENCE[ops[-1]] >= _PRECEDENCE[tok]:
                reduce_top()
            ops.append(tok)
    while ops:
        reduce_top()
    (root,) = output
    return root


def evaluate(node, i: int):
    """Checked unsigned 64-bit evaluation with short-circuit and/or."""
    if isinstance(node, int):
        return node
    if node == "i":
        return i
    op, left, right = node
    if op == "and":
        return evaluate(left, i) and evaluate(right, i)
    if op == "or":
        return evaluate(left, i) or evaluate(right, i)
    a, b = evaluate(left, i), evaluate(right, i)
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b if a > b else 0
    elif op == "*":
        result = a * b
    else:
        if b == 0:
            raise EvalError("mod by zero")
        result = a % b
    if result > MAX_VALUE:
        raise EvalError("overflow")
    return result


@contextmanager
def deep_recursion(limit: int = 50_000):
    """Let the tree evaluator walk left-deep sums of thousands of terms."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# --- enumeration -----------------------------------------------------------


def dovetail(doc: dict, k: int, round_cap: int):
    """(emitted, rounds, truncated) of a program document, or EvalError.

    Round r first finishes pending inputs due at r, then visits input r
    (and input 0 in round 1); both in increasing input order, as the
    literal loop does.  Guard and cost are evaluated at an input's first
    visit, its value when it halts.
    """
    value, cost = parse(doc["value"]), parse(doc["cost"])
    guard = parse(doc["guard"]) if doc.get("guard") else None
    due: list[tuple[int, int]] = []  # (halting round, input)
    emitted: list[int] = []
    seen: set[int] = set()

    def halt(i: int) -> bool:
        v = evaluate(value, i)
        if v not in seen:
            seen.add(v)
            emitted.append(v)
        return len(emitted) == k

    for r in range(1, round_cap + 1):
        events = []
        while due and due[0][0] == r:
            events.append((heapq.heappop(due)[1], False))
        events.extend((i, True) for i in ((0, 1) if r == 1 else (r,)))
        for i, first_visit in sorted(events):
            if first_visit:
                if guard is not None and not evaluate(guard, i):
                    continue
                c = evaluate(cost, i)
                if c < 1:
                    raise EvalError("cost must be >= 1")
                if c > r:
                    heapq.heappush(due, (c, i))
                    continue
            if halt(i):
                return tuple(emitted), r, False
    return tuple(emitted), round_cap, True


def reschedule(native, kind: str, window: int, choices, k: int) -> tuple[int, ...]:
    """First k outputs of a window-w buffer over the native listing."""
    buffer: list[int] = []
    feed = iter(native)
    out = []
    for t in range(k):
        buffer.extend(itertools.islice(feed, window - len(buffer)))
        if kind == "native":
            idx = 0
        elif kind == "min_first":
            idx = buffer.index(min(buffer))
        elif kind == "max_first":
            idx = buffer.index(max(buffer))
        else:
            idx = choices[t]
        out.append(buffer.pop(idx))
    return tuple(out)


# --- patterns, by direct loops -------------------------------------------


def ranks(seq) -> tuple[int, ...]:
    return tuple(sum(1 for y in seq if y < x) for x in seq)


def sorted_ranks(seq) -> tuple[int, ...]:
    """Ranks by sorting, for listings too long for the double loop."""
    order = {v: r for r, v in enumerate(sorted(seq))}
    return tuple(order[v] for v in seq)


def pairs(seq, ascending: bool) -> list[tuple[int, int]]:
    n = len(seq)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if (seq[i] < seq[j]) == ascending]


def first_violation(p, q):
    """Least (i, j) ascending in p but not in q; None if p <=eo q."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] < p[j] and not q[i] < q[j]:
                return (i, j)
    return None


def holds(relation: str, p, q) -> bool:
    if relation == "uniform":
        return ranks(p) == ranks(q)
    return first_violation(p, q) is None


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _seq(values) -> str:
    return ",".join(map(str, values))


def _pair_text(found) -> str:
    return " ".join(f"({i},{j})" for i, j in found) if found else "none"


# --- expected outputs ------------------------------------------------------


def expect_run(spec: dict, sources: dict):
    doc = json.loads(sources[spec.get("ref", spec["program"])])
    k = spec["k"]
    try:
        with deep_recursion():
            emitted, rounds, truncated = dovetail(doc, k, spec["round_cap"])
    except EvalError:
        return EXIT_ENUMERATION, ""
    if spec.get("schedule"):
        if len(emitted) < k:
            return EXIT_ENUMERATION, ""
        emitted = reschedule(emitted, spec["schedule"], spec["window"], spec.get("choices"), k)
    pattern = sorted_ranks(emitted) if emitted else None
    if spec["format"] == "json":
        return EXIT_OK, dump_json({"emitted": list(emitted),
                                   "pattern": list(pattern) if pattern else None,
                                   "rounds": rounds, "truncated": truncated})
    return EXIT_OK, (f"emitted: {_seq(emitted) or 'none'}\n"
                     f"pattern: {_seq(pattern) if pattern else 'none'}\n"
                     f"rounds: {rounds}\ntruncated: {str(truncated).lower()}\n")


def expect_pattern(spec: dict):
    seq = spec["sequence"]
    if len(set(seq)) != len(seq):
        return EXIT_USAGE, ""
    up, down = pairs(seq, True), pairs(seq, False)
    if spec["format"] == "json":
        return EXIT_OK, dump_json({"pattern": list(ranks(seq)),
                                   "ascents": [list(p) for p in up],
                                   "inversions": [list(p) for p in down]})
    return EXIT_OK, (f"pattern: {_seq(ranks(seq))}\nascents: {_pair_text(up)}\n"
                     f"inversions: {_pair_text(down)}\n")


def _verdict(lr: bool, rl: bool) -> str:
    if lr and rl:
        return "equivalent (uniform)"
    if lr:
        return "left ≤eo right only"
    if rl:
        return "right ≤eo left only"
    return "incomparable"


def expect_cmp(spec: dict):
    from eolab.patterns import PREFIX_SCOPE_NOTE

    left, right = spec["left"], spec["right"]
    if len(set(left)) != len(left) or len(set(right)) != len(right) or len(left) != len(right):
        return EXIT_USAGE, ""
    p, q = ranks(left), ranks(right)
    vio_lr, vio_rl = first_violation(p, q), first_violation(q, p)
    lr, rl = vio_lr is None, vio_rl is None
    if spec["format"] == "json":
        return EXIT_OK, dump_json({
            "patternLeft": list(p), "patternRight": list(q),
            "leftLeqRight": lr, "rightLeqLeft": rl,
            "violationLeftRight": list(vio_lr) if vio_lr else None,
            "violationRightLeft": list(vio_rl) if vio_rl else None,
            "verdict": _verdict(lr, rl), "scope": PREFIX_SCOPE_NOTE})
    note = lambda v: f" (least violation ({v[0]},{v[1]}))" if v else ""  # noqa: E731
    return EXIT_OK, (f"left pattern: {_seq(p)}\nright pattern: {_seq(q)}\n"
                     f"left ≤eo right: {str(lr).lower()}{note(vio_lr)}\n"
                     f"right ≤eo left: {str(rl).lower()}{note(vio_rl)}\n"
                     f"verdict: {_verdict(lr, rl)}\nscope: {PREFIX_SCOPE_NOTE}\n")


def weak_order(n: int):
    """Nodes in lexicographic order and the cover edges of the weak order.

    A cover swaps values v and v+1 when v+1 sits left of v, removing one
    inversion; edges are (lower, upper) node indices, sorted.
    """
    nodes = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(nodes)}
    edges = []
    for p in nodes:
        where = {v: pos for pos, v in enumerate(p)}
        for v in range(n - 1):
            if where[v + 1] < where[v]:
                q = list(p)
                q[where[v]], q[where[v + 1]] = v + 1, v
                edges.append((index[p], index[tuple(q)]))
    edges.sort()
    assert len(edges) == (n - 1) * math.factorial(n) // 2
    return nodes, edges


def _label(p) -> str:
    return "".join(map(str, p))


def _render_patterns(patterns, n: int, key: str, fmt: str, note: str) -> str:
    if fmt == "json":
        return dump_json({"n": n, key: [list(p) for p in patterns], "scope": note})
    if fmt == "dot":
        lines = [f"digraph pattern_{key} {{", f'  label="{note}";']
        lines += [f'  "{_label(p)}";' for p in patterns]
        if key == "chain":
            lines += [f'  "{_label(a)}" -> "{_label(b)}";' for a, b in zip(patterns, patterns[1:])]
        return "\n".join(lines + ["}"]) + "\n"
    return "".join(f"{_seq(p)}\n" for p in patterns)


def _parse_patterns(stdout: str, key: str, fmt: str):
    if fmt == "json":
        return [tuple(p) for p in json.loads(stdout)[key]]
    if fmt == "dot":
        return [tuple(map(int, m)) for m in re.findall(r'^  "(\d+)";$', stdout, re.M)]
    return [tuple(map(int, line.split(","))) for line in stdout.splitlines()]


def _is_cover(lower, upper) -> bool:
    """upper is lower with adjacent values v+1 (left) and v (right) swapped."""
    diff = [pos for pos in range(len(lower)) if lower[pos] != upper[pos]]
    if len(diff) != 2:
        return False
    a, b = diff
    return lower[a] == lower[b] + 1 and (upper[a], upper[b]) == (lower[b], lower[a])


def check_poset(spec: dict, code: int, stdout: str):
    from eolab.poset import POSET_SCOPE_NOTE

    n, fmt, mode = spec["n"], spec["format"], spec["mode"]
    if mode == "antichain" and n <= 3 and spec["size"] > n - 1:
        # The weak order on S_n, n <= 3, has width n - 1.
        return None if (code, stdout) == (EXIT_UNAVAILABLE, "") else "expected exit 3"
    if code != EXIT_OK:
        return f"exit {code}"
    if mode == "poset":
        nodes, edges = weak_order(n)
        if fmt == "json":
            want = dump_json({"n": n, "nodes": [list(p) for p in nodes],
                              "hasse": [list(e) for e in edges], "scope": POSET_SCOPE_NOTE})
        elif fmt == "dot":
            lines = ["digraph pattern_poset {", f'  label="{POSET_SCOPE_NOTE}";']
            lines += [f'  "{_label(p)}";' for p in nodes]
            lines += [f'  "{_label(nodes[a])}" -> "{_label(nodes[b])}";' for a, b in edges]
            want = "\n".join(lines + ["}"]) + "\n"
        else:
            lines = [f"n: {n}", f"nodes ({len(nodes)}): " + ", ".join(map(_label, nodes)),
                     f"cover edges ({len(edges)}):"]
            lines += [f"  {_label(nodes[a])} -> {_label(nodes[b])}" for a, b in edges]
            want = "\n".join(lines + [f"scope: {POSET_SCOPE_NOTE}"]) + "\n"
        return None if stdout == want else "poset output differs from the weak order"
    try:
        found = _parse_patterns(stdout, mode, fmt)
    except (ValueError, KeyError):
        return "unparsable output"
    if stdout != _render_patterns(found, n, mode, fmt, POSET_SCOPE_NOTE):
        return "output format"
    perms = set(itertools.permutations(range(n)))
    if not found or any(p not in perms for p in found):
        return "not length-n patterns"
    if mode == "chain":
        if found[0] != tuple(range(n - 1, -1, -1)) or found[-1] != tuple(range(n)):
            return "chain does not run from reversal to identity"
        if len(found) != n * (n - 1) // 2 + 1:
            return "chain is not maximum"
        if not all(_is_cover(a, b) for a, b in zip(found, found[1:])):
            return "chain step is not a cover"
        return None
    if len(found) != spec["size"] or found != sorted(set(found)):
        return "antichain size or order"
    for a, b in itertools.combinations(found, 2):
        if first_violation(a, b) is None or first_violation(b, a) is None:
            return f"comparable patterns {a} {b}"
    return None


def expect_check(spec: dict):
    suite, n = spec["suite"], spec["n"]
    m = math.factorial(n)
    checked = {"preorder": m + m**3 + m**2, "inversion": m**2, "theorem10": m**2,
               "theorem3": m, "hasse": m**2 + 1}[suite]
    params = {"n": n}
    if suite == "theorem3":
        params["support"] = sorted(set(spec["support"]))
    if spec["format"] == "json":
        return EXIT_OK, dump_json({"suite": suite, "params": params,
                                   "checked": checked, "failures": []})
    text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return EXIT_OK, f"suite: {suite}\nparams: {text}\nchecked: {checked}\nfailures: 0\n"


SEARCH_KEYS = ("status", "relation", "k", "w", "choicesA", "choicesB", "prefixA",
               "prefixB", "patternA", "patternB", "nodesExplored", "restriction")
_SEARCH_EXIT = {"witness_found": EXIT_OK, "space_exhausted": EXIT_UNAVAILABLE,
                "budget_exceeded": EXIT_BUDGET}


def _parse_search(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(stdout)
    doc = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if key in ("k", "w", "nodesExplored"):
            doc[key] = int(value)
        elif key.startswith(("choices", "prefix", "pattern")):
            doc[key] = None if value == "none" else [int(v) for v in value.split(",")]
        else:
            doc[key] = value
    return doc


def brute_force(spec: dict, sources: dict):
    """(status, choicesA, choicesB) from the repository's unpruned oracle."""
    from eolab.oracle import brute_force_witness
    from eolab.vm import parse_program

    progs = [parse_program(sources[spec.get(f"ref_{side}", spec[side])]) for side in "ab"]
    report = brute_force_witness(*progs, spec["k"], spec["w"], _relation(spec), spec["round_cap"])
    return report.status, report.choices_a, report.choices_b


def _relation(spec: dict) -> str:
    return "eo_leq" if spec["relation"] == "eo" else "uniform"


def check_search(spec: dict, code: int, stdout: str, sources: dict):
    from eolab.search import RESTRICTION_NOTE

    k, w = spec["k"], spec["w"]
    natives = []
    for side in "ab":
        doc = json.loads(sources[spec.get(f"ref_{side}", spec[side])])
        try:
            with deep_recursion():
                emitted, _, truncated = dovetail(doc, k, spec["round_cap"])
        except EvalError:
            truncated = True
        natives.append(emitted if not truncated else None)
    if None in natives:
        return None if (code, stdout) == (EXIT_ENUMERATION, "") else "expected exit 4"
    try:
        doc = _parse_search(stdout, spec["format"])
    except ValueError:
        return "unparsable output"
    if set(doc) != set(SEARCH_KEYS):
        return "report keys"
    status = doc["status"]
    if _SEARCH_EXIT.get(status) != code:
        return f"status {status} with exit {code}"
    if (doc["relation"], doc["k"], doc["w"], doc["restriction"]) != (
            _relation(spec), k, w, RESTRICTION_NOTE):
        return "report header"
    fields = ("choicesA", "choicesB", "prefixA", "prefixB", "patternA", "patternB")
    if status != "witness_found":
        if any(doc[f] is not None for f in fields):
            return "witness fields on a non-witness report"
    else:
        for side, native in zip("AB", natives):
            choices = doc[f"choices{side}"]
            if choices is None or len(choices) != k or any(
                    not 0 <= c < min(w, k - t) for t, c in enumerate(choices)):
                return f"choices{side} out of range"
            prefix = reschedule(native, "explicit", w, choices, k)
            if doc[f"prefix{side}"] != list(prefix) or doc[f"pattern{side}"] != list(ranks(prefix)):
                return f"witness {side} does not replay"
        if not holds(_relation(spec), doc["prefixA"], doc["prefixB"]):
            return "witness prefixes are not related"
    if status != "budget_exceeded" and k <= 6 and w <= 3:
        want = brute_force(spec, sources)
        got = (status, doc["choicesA"], doc["choicesB"])
        want = (want[0], list(want[1]) if want[1] else None, list(want[2]) if want[2] else None)
        if got != want:
            return f"brute force says {want[0]} {want[1]} {want[2]}"
    return None


def check(job: dict, code: int, stdout: str, sources: dict):
    """None if (code, stdout) is a correct answer to the job, else why not."""
    spec = job["spec"]
    command = job["argv"][0]
    if spec.get("deep") and (code, stdout) == (EXIT_USAGE, ""):
        return None  # a documented depth limit is a correct answer
    if command == "poset":
        return check_poset(spec, code, stdout)
    if command == "search":
        return check_search(spec, code, stdout, sources)
    want = {"run": lambda: expect_run(spec, sources),
            "pattern": lambda: expect_pattern(spec),
            "cmp": lambda: expect_cmp(spec),
            "check": lambda: expect_check(spec)}[command]()
    if (code, stdout) == want:
        return None
    if code != want[0]:
        return f"exit {code}, expected {want[0]}"
    return "stdout differs from the reference"
