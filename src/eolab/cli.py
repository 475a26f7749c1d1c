"""Command-line frontend with stable text/JSON output.

Exit codes: 0 success or witness found, 1 oracle suite failure, 2 input
error, 3 space exhausted / antichain unavailable, 4 enumeration
insufficient or arithmetic overflow, 5 node budget exceeded, 6 internal
error (a bug, failed re-checks included), 7 stdout could not take the
output (a pipe whose reader quit, a full device or a closed fd 1).
Output goes to stdout, diagnostics to stderr; identical invocations
produce byte-identical output.

``main`` may be called any number of times in one process.  The argument
parser is built on the first call and reused by every later one; each call
looks its subcommand's handler up by name.  This module imports no layer:
each handler imports the layers it runs, so a launch loads only those.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence
from itertools import compress

from .errors import (
    EvaluationError,
    InputError,
    InsufficientEnumerationError,
    InsufficientPrefixError,
    NoAntichainError,
    clip,
)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNAVAILABLE = 3
EXIT_ENUMERATION = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6
EXIT_CLOSED_STDOUT = 7

_SEARCH_EXITS = {
    "witness_found": EXIT_OK,
    "space_exhausted": EXIT_UNAVAILABLE,
    "budget_exceeded": EXIT_BUDGET,
}

_EXITS = (
    (InputError, EXIT_USAGE),
    (NoAntichainError, EXIT_UNAVAILABLE),
    ((EvaluationError, InsufficientPrefixError, InsufficientEnumerationError), EXIT_ENUMERATION),
)


#: ``pattern`` prints all n(n-1)/2 index pairs, about 92 MB of text at this length.
MAX_PATTERN_LENGTH = 4000

#: Most digits an element may have, leading zeros aside (``patterns.MAX_ELEMENT``'s).
_MAX_ELEMENT_DIGITS = 20


def _parse_naturals(text: str, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    for part in parts:
        # int() rejects digits such as '²', and strings of over 4,300 digits.
        if not part.isdecimal() or len(part.lstrip("0")) > _MAX_ELEMENT_DIGITS:
            raise InputError(f"{what}: expected comma-separated naturals, got {clip(repr(part))}")
    return tuple(map(int, parts))


def _int(text: str) -> int:
    """``type=int`` for argparse, with the rejected text clipped in the message."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(repr(text))}") from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with the rejected value clipped in ``invalid choice``."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {clip(repr(value))} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _fmt_seq(values) -> str:
    return ",".join(map(str, values))


def _text(doc: dict) -> str:
    """``key: value`` lines: a list comma-joined, None or an empty list as
    ``none``, a bool in lower case.  The pieces are joined once, so a long
    value, such as ``pattern``'s 46 MB rows, is copied only into the result."""
    pieces = []
    for key, value in doc.items():
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, list):
            value = _fmt_seq(value) or "none"
        elif value is None:
            value = "none"
        pieces += (key, ": ", str(value), "\n")
    return "".join(pieces)


def _join_pairs(p, opening: str, closing: str, sep: str) -> tuple[str, str]:
    """The ascents and the inversions of the pattern ``p``, each index pair (i, j)
    as ``{opening}{i},{j}{closing}``, joined by ``sep`` in lexicographic order.
    Each row is selected in C by the digits of ``p.ascent_mask``, never compared."""
    from .patterns import _ascent_rows
    tokens = [f"{j}{closing}" for j in range(len(p.ranks))]
    up, down = [], []
    picks = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"01", b"\1\0")  # up keeps 1s, down 0s
    for i, digits in enumerate(_ascent_rows(p)):
        head, later = f"{opening}{i},", tokens[i + 1 :]
        for rows, pick in zip((up, down), picks):
            if body := (sep + head).join(compress(later, digits.translate(pick))):
                rows.append(head + body)
    return sep.join(up), sep.join(down)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {clip(repr(path))}: {exc.strerror or exc}")
    except ValueError as exc:  # a file that is not UTF-8, or a NUL in the path
        raise InputError(f"cannot read {clip(repr(path))}: {exc}")


# --- subcommand handlers ----------------------------------------------------


def _cmd_pattern(args) -> tuple[int, str]:
    from . import patterns

    sequence = _parse_naturals(args.sequence, "sequence")
    if len(sequence) > MAX_PATTERN_LENGTH:
        raise InputError(f"sequence: at most {MAX_PATTERN_LENGTH} elements, got {len(sequence)}")
    p = patterns.pattern_of(sequence)
    opening, closing, sep = ("[", "]", ",") if args.format == "json" else ("(", ")", " ")
    up, down = _join_pairs(p, opening, closing, sep)
    if args.format == "json":
        # What _dump_json gives for {"pattern", "ascents", "inversions"}.
        doc = f'{{"ascents":[{up}],"inversions":[{down}],"pattern":[{_fmt_seq(p.ranks)}]}}'
        return EXIT_OK, doc + "\n"
    return EXIT_OK, _text({"pattern": list(p.ranks), "ascents": up or None, "inversions": down or None})


_VERDICTS = {
    (True, True): "equivalent (uniform)",
    (True, False): "left ≤eo right only",
    (False, True): "right ≤eo left only",
    (False, False): "incomparable",
}


def _cmd_cmp(args) -> tuple[int, str]:
    from . import patterns

    left = patterns.pattern_of(_parse_naturals(args.left, "--left"))
    right = patterns.pattern_of(_parse_naturals(args.right, "--right"))
    vio_lr = patterns._first_violation(left, right)
    vio_rl = patterns._first_violation(right, left)
    lr, rl = vio_lr is None, vio_rl is None
    if args.format == "json":
        doc = {
            "patternLeft": list(left.ranks),
            "patternRight": list(right.ranks),
            "leftLeqRight": lr,
            "rightLeqLeft": rl,
            "violationLeftRight": list(vio_lr) if vio_lr else None,
            "violationRightLeft": list(vio_rl) if vio_rl else None,
            "verdict": _VERDICTS[lr, rl],
            "scope": patterns.PREFIX_SCOPE_NOTE,
        }
        return EXIT_OK, _dump_json(doc)
    doc = {
        "left pattern": list(left.ranks),
        "right pattern": list(right.ranks),
        "left ≤eo right": lr or f"false (least violation ({vio_lr[0]},{vio_lr[1]}))",
        "right ≤eo left": rl or f"false (least violation ({vio_rl[0]},{vio_rl[1]}))",
        "verdict": _VERDICTS[lr, rl],
        "scope": patterns.PREFIX_SCOPE_NOTE,
    }
    return EXIT_OK, _text(doc)


def _cmd_poset(args) -> tuple[int, str]:
    from . import poset

    if args.chain:
        result = poset.max_chain(args.n)
        stats = {"nodes": len(result.patterns), "coverEdges": len(result.patterns) - 1}
    elif args.antichain is not None:
        result = poset.sample_antichain(args.n, args.antichain)
        stats = {"nodes": len(result.patterns), "coverEdges": 0, **result.stats}
    else:
        result = poset.build_poset(args.n)
        stats = {"nodes": len(result.nodes), "coverEdges": len(result.hasse)}
    if args.stats:
        sys.stderr.write(_dump_json(stats))
    return EXIT_OK, poset.export(result, args.format)


def _run_stats(prog, trace) -> dict:
    """The sweep's counters, read off its trace: every input tried evaluates
    the guard once, every one whose guard held the cost once, and every
    halted one the value once."""
    halted = len(trace.halted_inputs)
    return {
        "rounds": trace.rounds,
        "inputsTried": trace.inputs_tried,
        "guardEvals": trace.inputs_tried if prog.guard is not None else 0,
        "costEvals": halted + trace.pending,
        "valueEvals": halted,
        "stepsCharged": trace.steps_charged,
        "halted": halted,
        "pending": trace.pending,
    }


def _cmd_run(args) -> tuple[int, str]:
    from . import patterns, vm

    for option, value in (("--window", args.window), ("--choices", args.choices)):
        if value is not None and args.schedule is None:
            raise InputError(f"{option} is only valid with --schedule")
    prog = vm.parse_program(_read_file(args.program))
    trace = vm.dovetail(prog, args.k, args.round_cap)
    if args.stats:
        sys.stderr.write(_dump_json(_run_stats(prog, trace)))
    emitted, prefix = trace.emitted, None
    if args.schedule is not None:
        choices = _parse_naturals(args.choices, "--choices") if args.choices else ()
        window = 1 if args.window is None else args.window
        sched = vm.Scheduler(args.schedule, window=window, choices=choices)
        prefix = vm.schedule(trace.emitted, sched, args.k)  # pattern_of does not check it again
        emitted = prefix.elements
    doc = {
        "emitted": list(emitted),
        "pattern": list(patterns.pattern_of(prefix or emitted).ranks) if emitted else None,
        "rounds": trace.rounds,
        "truncated": trace.truncated,
    }
    return EXIT_OK, _dump_json(doc) if args.format == "json" else _text(doc)


def _cmd_search(args) -> tuple[int, str]:
    from . import search, vm

    prog_a = vm.parse_program(_read_file(args.a))
    prog_b = vm.parse_program(_read_file(args.b))
    budget = search.SearchBudget(
        k=args.k,
        window=args.window,
        max_nodes=args.max_nodes,
        round_cap=args.round_cap,
    )
    report = search.witness(prog_a, prog_b, budget, "eo_leq" if args.relation == "eo" else "uniform")
    if args.stats:
        sys.stderr.write(_dump_json(report.stats))
    doc = report.to_json()
    return _SEARCH_EXITS[report.status], _dump_json(doc) if args.format == "json" else _text(doc)


def _suite_report(args):
    from . import oracle  # only `check` needs it, and it is slow to import

    if args.suite == "theorem3":
        if args.support is None:
            raise InputError("--suite theorem3 requires --support")
        return oracle.check_theorem3_finite(args.n, _parse_naturals(args.support, "--support"))
    if args.support is not None:
        raise InputError(f"--support is only valid with --suite theorem3, not {args.suite}")
    runners = {
        "preorder": oracle.check_preorder_laws,
        "inversion": oracle.check_inversion_equiv,
        "theorem10": oracle.check_theorem10,
        "hasse": oracle.check_hasse,
    }
    return runners[args.suite](args.n)


def _cmd_check(args) -> tuple[int, str]:
    import json

    report = _suite_report(args)
    if args.stats:
        stats = {
            "checked": report.checked,
            "failures": len(report.failures),
            "relationTests": report.relation_tests,
        }
        sys.stderr.write(_dump_json(stats))
    code = EXIT_OK if report.passed else EXIT_SUITE_FAILURE
    if args.format == "json":
        return code, _dump_json(report.to_json())
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    doc = {"suite": report.suite, "params": params, "checked": report.checked,
           "failures": len(report.failures)}
    shown = [f"  {json.dumps(failure, sort_keys=True)}\n" for failure in report.failures[:20]]
    if len(report.failures) > 20:
        shown.append(f"  (+{len(report.failures) - 20} more)\n")
    return code, _text(doc) + "".join(shown)


# --- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: do not modify it."""
    parser = _Parser(
        prog="eolab",
        description="Workbench for enumeration-order relations on finite listing prefixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")

    p_pattern = sub.add_parser(
        "pattern", parents=[fmt], help="pattern, ascents and inversions of a sequence"
    )
    p_pattern.add_argument("sequence", help="comma-separated distinct naturals")

    p_cmp = sub.add_parser("cmp", parents=[fmt], help="compare two equal-length sequences")
    p_cmp.add_argument("--left", required=True)
    p_cmp.add_argument("--right", required=True)

    p_poset = sub.add_parser("poset", help="pattern poset, chains and antichains")
    p_poset.add_argument("--n", type=_int, required=True)
    p_poset.add_argument("--format", choices=["text", "json", "dot"], default="text")
    group = p_poset.add_mutually_exclusive_group()
    group.add_argument("--chain", action="store_true", help="emit a maximum chain")
    group.add_argument("--antichain", type=_int, metavar="SIZE")

    p_run = sub.add_parser("run", parents=[fmt], help="dovetail a program, optionally rescheduled")
    p_run.add_argument("--program", required=True, help="program JSON file")
    p_run.add_argument("--k", type=_int, required=True)
    p_run.add_argument("--round-cap", type=_int, default=1000, dest="round_cap")
    p_run.add_argument("--schedule", choices=["native", "min_first", "max_first", "explicit"])
    p_run.add_argument("--window", type=_int, help="buffer size (default 1)")
    p_run.add_argument("--choices", help="comma-separated buffer choices (explicit)")

    p_search = sub.add_parser(
        "search", parents=[fmt], help="bounded witness search between two programs"
    )
    p_search.add_argument("--a", required=True, help="program JSON file")
    p_search.add_argument("--b", required=True, help="program JSON file")
    p_search.add_argument("--k", type=_int, required=True)
    p_search.add_argument("--window", type=_int, required=True)
    p_search.add_argument("--relation", choices=["eo", "uniform"], default="eo")
    p_search.add_argument("--max-nodes", type=_int, default=100_000, dest="max_nodes")
    p_search.add_argument("--round-cap", type=_int, default=1000, dest="round_cap")

    p_check = sub.add_parser("check", parents=[fmt], help="run an exhaustive oracle suite")
    p_check.add_argument(
        "--suite",
        required=True,
        choices=["preorder", "inversion", "theorem10", "theorem3", "hasse"],
    )
    p_check.add_argument("--n", type=_int, required=True)
    p_check.add_argument("--support", help="comma-separated naturals (theorem3 only)")

    for p_sub, counts in (
        (p_poset, "node, edge and search counts"),
        (p_run, "the dovetailer's counters"),
        (p_search, "the search's counters"),
        (p_check, "the suite's counts"),
    ):
        p_sub.add_argument("--stats", action="store_true", help=f"print {counts} as JSON on stderr")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = globals()[f"_cmd_{args.command}"](args)
    except Exception as exc:  # outside _EXITS, a bug; never exit 1, which means a suite failed
        code = next((c for family, c in _EXITS if isinstance(exc, family)), EXIT_INTERNAL)
        message = f"internal error: {type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else exc
        print(f"error: {message}", file=sys.stderr)
        return code
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_CLOSED_STDOUT
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone, so there is no one to tell
        return EXIT_CLOSED_STDOUT
    except OSError as exc:
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_CLOSED_STDOUT
    return code


def run() -> None:
    code = main()
    # Leave the interpreter's last flush nothing to fail on; a closed fd 1
    # gave no stdout to flush, nor a fileno() to replace.
    if code == EXIT_CLOSED_STDOUT and sys.stdout is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
