"""Generated argv for all six subcommands, run through ``cli.main`` in-process.

Each argv mixes valid tokens with near-valid ones: negative, zero, huge and
non-numeric numbers, empty and duplicate lists, digits such as '²', missing
files, directories, non-UTF-8 files and programs that fail to parse or to
evaluate.  Every knob stays small (k <= 8, --round-cap <= 64, --window <= 4,
--max-nodes <= 10,000, poset --n <= 6, check --n <= 4, at most 12 values per
list), so each example takes milliseconds.  Whatever the argv, the exit code
is one the subcommand documents, never 6 (a bug) and 1 only from ``check``;
an error leaves stdout empty; ``--stats`` leaves stdout alone; and the same
argv gives the same bytes twice.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from eolab.cli import main

from conftest import PROGRAMS

#: The exit codes each subcommand documents (README's exit-code table).
EXITS = {
    "pattern": {0, 2},
    "cmp": {0, 2},
    "poset": {0, 2, 3},
    "run": {0, 2, 4},
    "search": {0, 2, 3, 4, 5},
    "check": {0, 1, 2},
}

#: Program files the argv may name, as "@name": fixtures that run, files
#: that do not parse, and programs that parse but fail to evaluate.
DOCUMENTS = {
    "bad_json": "{",
    "not_object": "[1]",
    "empty": "",
    "unknown_key": '{"name": "x", "value": "i", "cost": "1", "extra": "1"}',
    "missing_key": '{"name": "x", "value": "i"}',
    "bad_name": '{"name": "a b", "value": "i", "cost": "1"}',
    "big_number": '{"name": "x", "value": "i", "cost": ' + "1" * 5_000 + "}",
    "deep": '{"name": "x", "value": "' + "(" * 200 + "i" + ")" * 200 + '", "cost": "1"}',
    "unknown_identifier": '{"name": "x", "value": "j", "cost": "1"}',
    "guard_not_bool": '{"name": "x", "value": "i", "cost": "1", "guard": "i"}',
    "guarded": '{"name": "x", "value": "3*i", "cost": "i", "guard": "i mod 2 == 0"}',
    "overflow": '{"name": "x", "value": "i*18446744073709551615 + 18446744073709551615", "cost": "1"}',
    "mod_zero": '{"name": "x", "value": "i mod 0", "cost": "1"}',
    "cost_zero": '{"name": "x", "value": "i", "cost": "0"}',
}
FIXTURES = ["evens", "countdown", "alternating", "jumpy", "slow_pairs"]
ODD_FILES = ["missing", "directory", "not_utf8"]

ODD_NUMBERS = ["-1", "0", "-0", "00", "+2", " 3", "1_0", "9" * 30, "-" + "9" * 30,
               "", "x", "1.5", "1e3", "²", "٣"]
ODD_LISTS = ["", ",", "1,", ",1", "1,,2", "-1", "x", "²", "٣,1", "1;2", " 1 , 2 ", "9" * 21,
             "0" * 30 + "7,1", "99999999999999999999,0"]


def mostly(valid, odd):
    """``valid`` about four times in five, else ``odd``.  Hypothesis draws the
    ends of an integer range more often than its middle, so here and in
    ``options`` a rare branch is keyed to a middle value."""
    return st.integers(0, 4).flatmap(lambda i: odd if i == 2 else valid)


def number(high: int):
    return mostly(st.integers(1, high).map(str), st.sampled_from(ODD_NUMBERS))


def joined(values) -> str:
    return ",".join(map(str, values))


def naturals(high: int = 20, size: int | None = None):
    """Comma-joined lists of 1..12 distinct values (``size`` of them, if
    given), else empty lists, duplicates or odd text."""
    distinct = st.lists(st.integers(0, high), unique=True, min_size=size or 1,
                        max_size=size or 12)
    odd = st.one_of(st.lists(st.integers(0, high), max_size=12), st.sampled_from(ODD_LISTS))
    return mostly(distinct.map(joined), odd.map(lambda v: v if isinstance(v, str) else joined(v)))


def choose(*names):
    return st.sampled_from(names)


@st.composite
def options(draw, required: dict, optional: dict = {}, rare: dict = {}) -> list[str]:
    """The required options (each left out once in 50), each optional one half
    the time and each rare one once in 10, in a drawn order and each with a
    value drawn from its strategy (None for a flag); one option may repeat."""
    chosen = [name for name in required if draw(st.integers(0, 49)) != 25]
    chosen += [name for name in optional if draw(st.booleans())]
    chosen += [name for name in rare if draw(st.integers(0, 9)) == 5]
    if chosen and draw(st.integers(0, 9)) == 5:
        chosen.append(draw(st.sampled_from(chosen)))
    argv = []
    for name in draw(st.permutations(chosen)):
        value = {**required, **optional, **rare}[name]
        argv += [name] if value is None else [name, draw(value)]
    return argv


FORMATS = mostly(choose("text", "json"), choose("dot", "xml", ""))
POSET_FORMATS = mostly(choose("text", "json", "dot"), choose("xml", ""))


@st.composite
def cmp_options(draw):
    same = naturals(size=draw(st.integers(1, 12)))  # equal lengths, mostly
    return draw(options({"--left": mostly(same, naturals()), "--right": mostly(same, naturals())},
                        {"--format": FORMATS}))


@st.composite
def theorem3_options(draw):
    n = draw(st.integers(1, 4))  # the support holds n values, mostly
    return draw(options({"--suite": choose("theorem3"), "--n": mostly(st.just(str(n)), number(4)),
                         "--support": mostly(naturals(size=n), naturals())},
                        {"--format": FORMATS}))


SIZE = mostly(st.integers(2, 12).map(str), st.sampled_from(ODD_NUMBERS))
PROGRAM = mostly(choose(*FIXTURES), choose(*DOCUMENTS, *ODD_FILES)).map("@".__add__)
RUN = {"--program": PROGRAM, "--k": number(8), "--round-cap": number(64)}
SEARCH = {"--a": PROGRAM, "--b": PROGRAM, "--k": number(8), "--window": number(4),
          "--round-cap": number(64)}
SUITES = mostly(choose("preorder", "inversion", "theorem10", "hasse"), choose("theorem3", "nope"))

ARGV = {
    "pattern": st.tuples(naturals(), options({}, {"--format": FORMATS})).map(
        lambda drawn: [drawn[0], *drawn[1]]),
    "cmp": cmp_options(),
    "poset": st.one_of(
        options({"--n": number(6)}, {"--format": POSET_FORMATS}),
        options({"--n": number(6), "--chain": None}, {"--format": POSET_FORMATS}),
        options({"--n": number(6), "--antichain": SIZE}, {"--format": POSET_FORMATS},
                {"--chain": None}),
    ),
    "run": st.one_of(
        options(RUN, {"--format": FORMATS}, {"--window": number(4), "--choices": naturals(3)}),
        options({**RUN, "--schedule": choose("native", "min_first", "max_first", "fifo")},
                {"--format": FORMATS, "--window": number(4)}, {"--choices": naturals(3)}),
        options({**RUN, "--schedule": choose("explicit"), "--choices": naturals(3)},
                {"--format": FORMATS, "--window": number(4)}),
    ),
    "search": options(SEARCH, {"--format": FORMATS, "--max-nodes": number(10_000),
                               "--relation": mostly(choose("eo", "uniform"), choose("eo_leq", ""))}),
    "check": st.one_of(
        options({"--suite": SUITES, "--n": number(4)}, {"--format": FORMATS},
                {"--support": naturals()}),
        theorem3_options(),
    ),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("argv")
    found = {f"@{name}": str(PROGRAMS / f"{name}.json") for name in FIXTURES}
    for name, text in DOCUMENTS.items():
        (root / f"{name}.json").write_text(text, encoding="utf-8")
        found[f"@{name}"] = str(root / f"{name}.json")
    (root / "not_utf8.json").write_bytes(b'{"name": "\xff\xfe"}')
    found["@not_utf8"] = str(root / "not_utf8.json")
    found["@missing"] = str(root / "missing.json")
    found["@directory"] = str(root)
    return found


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def is_usage_error(err: str) -> bool:
    lines = err.splitlines()
    return err.startswith("usage: eolab") and lines[-1].startswith("eolab") and ": error: " in lines[-1]


def is_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", list(ARGV))
@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_generated_argv(paths, command, data):
    argv = [command, *(paths.get(token, token) for token in data.draw(ARGV[command]))]
    code, out, err = invoke(argv)
    assert code in EXITS[command], (argv, code, err)
    assert invoke(argv) == (code, out, err), argv
    if code == 0:
        assert err == "", (argv, err)
    elif command == "search" and code in (3, 5) or command == "check" and code == 1:
        # By design: space exhausted, budget exceeded or a failed suite is a
        # report on stdout, not an error.
        assert out and err == "", (argv, code, err)
    else:
        assert out == "", (argv, code, out)
        assert is_error_line(err) or is_usage_error(err), (argv, code, err)
    if command in ("poset", "run", "search", "check"):
        with_stats = invoke([command, "--stats", *argv[1:]])
        assert with_stats[:2] == (code, out), argv
        stderr = with_stats[2].splitlines(keepends=True)
        if code == 0 or out:
            assert len(stderr) == 1 and stderr[0].startswith("{"), (argv, with_stats)
        elif command == "run" and len(stderr) == 2 and stderr[0].startswith("{"):
            # By design: a run that fails after dovetailing (say, rescheduled
            # with --schedule explicit and no --choices) prints the sweep's
            # counters before its error line.
            assert is_error_line(stderr[1]), (argv, with_stats)
        else:
            assert with_stats[2] == err, (argv, with_stats)
