"""CLI tests: subcommands, exit codes, output determinism."""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import eolab
from eolab.cli import (
    _COMMANDS,
    _EXITS,
    _MAX_ELEMENT_DIGITS,
    MAX_PATTERN_LENGTH,
    _command_parser,
    build_parser,
    main,
)
from eolab.expressions import MAX_LENGTH
from eolab.oracle import brute_force_pair_sets
from eolab.patterns import MAX_ELEMENT, OrderPattern, pattern_of
from eolab.poset import Chain, _below
from eolab.search import MAX_NODES

from conftest import PROGRAMS


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(name: str) -> str:
    return str(PROGRAMS / f"{name}.json")


# --- pattern ---------------------------------------------------------------


def test_pattern_text(capsys):
    code, out, _ = invoke(capsys, "pattern", "5,2,9")
    assert code == 0
    assert out.splitlines()[0] == "pattern: 1,0,2"
    assert "ascents: (0,2) (1,2)" in out
    assert "inversions: (0,1)" in out


def test_pattern_json(capsys):
    code, out, _ = invoke(capsys, "pattern", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"pattern": [0], "ascents": [], "inversions": []}


def test_pattern_duplicate_exit_2(capsys):
    code, out, err = invoke(capsys, "pattern", "5,5")
    assert code == 2
    assert out == ""
    assert "duplicate element 5" in err


def test_pattern_garbage_exit_2(capsys):
    code, _, err = invoke(capsys, "pattern", "5,x,9")
    assert code == 2
    assert "naturals" in err


@pytest.mark.parametrize("element", ["²", "1" * 5000])
def test_pattern_non_natural_message(capsys, element):
    # int() rejects both: '²' is a digit but not a decimal, and 5,000
    # digits exceed its 4,300-digit limit on string conversions.
    # A long element is echoed as its head and its length.
    shown = {"²": "'²'", "1" * 5000: "'" + "1" * 79 + "... (5002 characters)"}[element]
    code, out, err = invoke(capsys, "pattern", f"{element},1")
    assert (code, out) == (2, "")
    assert err == f"error: sequence: expected comma-separated naturals, got {shown}\n"


def test_element_digit_bound_matches_max_element():
    # cli keeps its own copy so as not to import patterns at startup.
    assert _MAX_ELEMENT_DIGITS == len(str(MAX_ELEMENT))


#: A number of 4,000 digits, which argparse's ``int`` still accepts.
_HUGE = "9" * 4000


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "7" * 200_000],
        ["pattern", "1,x" + "y" * 200_000],
        ["check", "--suite", "theorem3", "--n", "3", "--support",
         ",".join(map(str, range(100_000)))],
        ["cmp", "--left", "1,2", "--right", "0," + "9" * 100_000],
        ["check", "--suite", "preorder", "--n", _HUGE],
        ["poset", "--n", _HUGE],
        ["poset", "--n", "3", "--antichain", "-" + _HUGE],
        ["run", "--program", prog("evens"), "--k", "-" + _HUGE],
        ["run", "--program", prog("evens"), "--k", "3", "--round-cap", _HUGE],
        ["run", "--program", "/" + "p" * 130_000, "--k", "3"],
        ["search", "--a", prog("evens"), "--b", prog("evens"), "--k", "2",
         "--window", "1", "--max-nodes", "-" + _HUGE],
    ],
    ids=["long_element", "long_garbage", "long_support", "long_cmp_element",
         "huge_suite_n", "huge_poset_n", "huge_antichain", "huge_k", "huge_round_cap",
         "long_path", "huge_max_nodes"],
)
def test_error_echo_is_capped(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "doc",
    [
        {"value": "1" * 100_000},
        {"value": "i + " + "a" * 100_000},
        {"value": "i " + "b" * 100_000},
        {"guard": "i " + "c" * 100_000},
        {"name": "bad name" * 10_000},
        {"k" * 100_000: 1},
        {"value": "i" + " " * 100_000 + "* 18446744073709551615 * 2"},
    ],
    ids=["literal", "identifier", "trailing", "guard", "name", "unknown_key", "overflow"],
)
def test_program_error_echo_is_capped(capsys, tmp_path, doc):
    program = tmp_path / "long.json"
    program.write_text(json.dumps({"name": "p", "value": "i", "cost": "1", **doc}))
    code, out, err = invoke(capsys, "run", "--program", str(program), "--k", "3")
    assert code in (2, 4) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "--n", "3", "--antichain", _HUGE],
        ["run", "--program", prog("evens"), "--k", _HUGE, "--round-cap", "5",
         "--schedule", "min_first"],
        ["search", "--a", prog("evens"), "--b", prog("evens"), "--k", _HUGE,
         "--window", "1", "--round-cap", "3"],
    ],
    ids=["antichain", "schedule", "search"],
)
def test_huge_size_echo_is_capped(capsys, argv):
    # Sizes that pass the range checks and fail later, for want of patterns or elements.
    code, out, err = invoke(capsys, *argv)
    assert code in (3, 4) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024


def test_bad_int_echo_is_capped(capsys):
    code, out, err = invoke(capsys, "poset", "--n", "x" * 100_000)
    assert (code, out) == (2, "")
    assert "error: argument --n: invalid int value: 'xxx" in err
    assert len(err.encode()) < 1024
    _, _, short = invoke(capsys, "poset", "--n", "x")
    assert short.endswith("error: argument --n: invalid int value: 'x'\n")


@pytest.mark.parametrize(
    "argv",
    [["z" * 5_000], ["check", "--suite", "z" * 5_000, "--n", "3"],
     ["pattern", "1,2", "--format", "z" * 5_000]],
    ids=["subcommand", "suite", "format"],
)
def test_invalid_choice_echo_is_capped(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid choice: 'zzz" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("max_nodes,code", [(MAX_NODES, 0), (MAX_NODES + 1, 2)])
def test_max_nodes_ceiling(capsys, max_nodes, code):
    got, _, err = invoke(capsys, "search", "--a", prog("evens"), "--b", prog("evens"),
                         "--k", "2", "--window", "1", "--max-nodes", str(max_nodes))
    assert got == code
    assert (err == "") == (code == 0)


def test_long_program_name_echo_is_capped(capsys, tmp_path):
    # A name may be any length; the insufficient-enumeration error quotes it.
    program = tmp_path / "long.json"
    program.write_text(json.dumps({"name": "p" * 100_000, "value": "i", "cost": "1",
                                   "guard": "i == 0"}))
    argv = ["search", "--a", str(program), "--b", str(program), "--k", "3",
            "--window", "1", "--round-cap", "5"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024


def test_pattern_length_ceiling(capsys, monkeypatch):
    code, out, err = invoke(capsys, "pattern", ",".join(map(str, range(MAX_PATTERN_LENGTH + 1))))
    assert (code, out) == (2, "")
    assert err == (
        f"error: sequence: at most {MAX_PATTERN_LENGTH} elements, got {MAX_PATTERN_LENGTH + 1}\n"
    )
    # At the ceiling itself the command runs; a small ceiling keeps that cheap.
    monkeypatch.setattr("eolab.cli.MAX_PATTERN_LENGTH", 3)
    assert invoke(capsys, "pattern", "5,2,9")[0] == 0
    assert invoke(capsys, "pattern", "5,2,9,1")[:2] == (2, "")


def _reference_pattern_output(sequence, fmt):
    """The pattern output, from the oracle's pair sets, formatted pair by pair."""
    ranks = pattern_of(sequence).ranks
    up, down = brute_force_pair_sets(ranks)
    if fmt == "json":
        doc = {"pattern": list(ranks), "ascents": sorted(up), "inversions": sorted(down)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    pairs = [" ".join(f"({i},{j})" for i, j in sorted(s)) or "none" for s in (up, down)]
    return "pattern: {}\nascents: {}\ninversions: {}\n".format(
        ",".join(map(str, ranks)), *pairs
    )


def _pattern_stdout(sequence, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["pattern", ",".join(map(str, sequence)), "--format", fmt]) == 0
    return out.getvalue()


# Few examples: the literal reference is the slow path being replaced.
@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 400).flatmap(lambda n: st.permutations(range(n))),
    st.sampled_from(["text", "json"]),
)
def test_pattern_output_matches_literal_reference(ranks, fmt):
    sequence = [7 * r + 3 for r in ranks]
    assert _pattern_stdout(sequence, fmt) == _reference_pattern_output(sequence, fmt)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pattern_output_at_mask_byte_boundaries(n, fmt):
    # Each mask row is padded to whole bytes, and the reversal's mask is 0,
    # so every one of its digits is a leading zero that ``format`` drops.
    shuffled = random.Random(n).sample(range(n), n)
    for ranks in (range(n), range(n - 1, -1, -1), shuffled):
        sequence = [7 * r + 3 for r in ranks]
        assert _pattern_stdout(sequence, fmt) == _reference_pattern_output(sequence, fmt)


@pytest.mark.parametrize(
    "sequence, text, json_doc",
    [
        ([7], "ascents: none\ninversions: none", '"ascents":[],"inversions":[]'),
        (
            [1, 4, 9],
            "ascents: (0,1) (0,2) (1,2)\ninversions: none",
            '"ascents":[[0,1],[0,2],[1,2]],"inversions":[]',
        ),
        (
            [9, 4, 1],
            "ascents: none\ninversions: (0,1) (0,2) (1,2)",
            '"ascents":[],"inversions":[[0,1],[0,2],[1,2]]',
        ),
    ],
    ids=["length-1", "identity", "reversal"],
)
def test_pattern_pinned_cases(sequence, text, json_doc):
    ranks = ",".join(map(str, pattern_of(sequence).ranks))
    assert _pattern_stdout(sequence, "text") == f"pattern: {ranks}\n{text}\n"
    assert _pattern_stdout(sequence, "json") == f'{{{json_doc},"pattern":[{ranks}]}}\n'


# --- cmp ---------------------------------------------------------------------


def test_cmp_equivalent(capsys):
    code, out, _ = invoke(capsys, "cmp", "--left", "3,1,4", "--right", "30,10,40")
    assert code == 0
    assert "verdict: equivalent (uniform)" in out


def test_cmp_right_only(capsys):
    code, out, _ = invoke(capsys, "cmp", "--left", "1,2", "--right", "2,1")
    assert code == 0
    assert "verdict: right ≤eo left only" in out
    assert "least violation (0,1)" in out


def test_cmp_incomparable(capsys):
    code, out, _ = invoke(capsys, "cmp", "--left", "0,2,1", "--right", "1,0,2")
    assert code == 0
    assert "verdict: incomparable" in out


_CMP_SCOPE = "scope: finite-prefix verdict: necessary but not sufficient for the relation on infinite listings\n"


@pytest.mark.parametrize("left, right, lines", [
    ("0,2,1", "1,0,2", ["left pattern: 0,2,1", "right pattern: 1,0,2",
                        "left ≤eo right: false (least violation (0,1))",
                        "right ≤eo left: false (least violation (1,2))", "verdict: incomparable"]),
    ("1,2", "2,1", ["left pattern: 0,1", "right pattern: 1,0",
                    "left ≤eo right: false (least violation (0,1))", "right ≤eo left: true",
                    "verdict: right ≤eo left only"]),
    ("2,1", "1,2", ["left pattern: 1,0", "right pattern: 0,1", "left ≤eo right: true",
                    "right ≤eo left: false (least violation (0,1))", "verdict: left ≤eo right only"]),
    ("3,1,4", "30,10,40", ["left pattern: 1,0,2", "right pattern: 1,0,2", "left ≤eo right: true",
                           "right ≤eo left: true", "verdict: equivalent (uniform)"]),
])
def test_cmp_text_exact(capsys, left, right, lines):
    assert invoke(capsys, "cmp", "--left", left, "--right", right) == (
        0, "".join(line + "\n" for line in lines) + _CMP_SCOPE, "")


def test_cmp_length_mismatch_exit_2(capsys):
    code, _, err = invoke(capsys, "cmp", "--left", "1,2", "--right", "1,2,3")
    assert code == 2
    assert "length mismatch" in err


def test_cmp_json_keys(capsys):
    code, out, _ = invoke(capsys, "cmp", "--left", "1,2", "--right", "2,1", "--format", "json")
    doc = json.loads(out)
    assert doc["leftLeqRight"] is False
    assert doc["rightLeqLeft"] is True
    assert doc["violationLeftRight"] == [0, 1]
    assert doc["violationRightLeft"] is None
    assert "scope" in doc


# --- poset -------------------------------------------------------------------


def test_poset_json_n3(capsys):
    code, out, _ = invoke(capsys, "poset", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 6
    assert len(doc["hasse"]) == 6


def test_poset_dot_n2(capsys):
    code, out, _ = invoke(capsys, "poset", "--n", "2", "--format", "dot")
    assert code == 0
    assert '"10" -> "01";' in out


def test_poset_chain_n3(capsys):
    code, out, _ = invoke(capsys, "poset", "--n", "3", "--chain")
    assert code == 0
    assert out.splitlines() == ["2,1,0", "1,2,0", "0,2,1", "0,1,2"]


def test_poset_antichain_n3(capsys):
    code, out, _ = invoke(capsys, "poset", "--n", "3", "--antichain", "2")
    assert code == 0
    assert out.splitlines() == ["0,2,1", "1,0,2"]


def test_poset_antichain_unavailable_exit_3(capsys):
    code, _, err = invoke(capsys, "poset", "--n", "2", "--antichain", "2")
    assert code == 3
    assert "no antichain" in err


@pytest.mark.parametrize("n,size", [(5, 23), (6, 102)])
def test_poset_antichain_above_width_exit_3_fast(n, size):
    # One above the width: a search would take minutes before exiting 3.
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "eolab", "poset", "--n", str(n),
                           "--antichain", str(size)], capture_output=True, text=True)
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: no antichain of size {size} among length-{n} patterns\n"


def test_poset_over_cap_exit_2(capsys):
    code, out, err = invoke(capsys, "poset", "--n", "9")
    assert (code, out) == (2, "")
    assert err == "error: pattern length 9 outside 1..8\n"
    code, _, err = invoke(capsys, "poset", "--n", "3", "--cap", "6")
    assert code == 2
    assert "unrecognized arguments: --cap" in err


def test_poset_antichain_size_one_exit_2(capsys):
    code, _, err = invoke(capsys, "poset", "--n", "3", "--antichain", "1")
    assert code == 2
    assert ">= 2" in err


def test_poset_chain_json(capsys):
    code, out, _ = invoke(capsys, "poset", "--n", "4", "--chain", "--format", "json")
    doc = json.loads(out)
    assert len(doc["chain"]) == 7
    assert doc["n"] == 4


@pytest.mark.parametrize(
    "mode,stats",
    [
        ([], {"nodes": 24, "coverEdges": 36}),
        (["--chain"], {"nodes": 7, "coverEdges": 6}),
        (["--antichain", "5"],
         {"nodes": 5, "coverEdges": 0, "comparabilityMasks": 15, "feasibilityTests": 9,
          "matchings": 2}),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_poset_stats_leave_stdout_alone(capsys, mode, stats, fmt):
    argv = ["poset", "--n", "4", *mode, "--format", fmt]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    code_stats, out_stats, err_stats = invoke(capsys, *argv, "--stats")
    assert (code_stats, out_stats) == (code, out)
    assert err_stats.count("\n") == 1 and json.loads(err_stats) == stats


# --- run ----------------------------------------------------------------------


def test_run_evens(capsys):
    code, out, _ = invoke(capsys, "run", "--program", prog("evens"), "--k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "emitted: 0,2,4,6,8"
    assert lines[1] == "pattern: 0,1,2,3,4"
    assert lines[3] == "truncated: false"


def test_run_odds_fast(capsys):
    code, out, _ = invoke(
        capsys, "run", "--program", prog("odds_fast"), "--k", "6", "--round-cap", "200"
    )
    assert code == 0
    assert out.splitlines()[0] == "emitted: 1,3,5,7,9,11"


def test_run_scheduled(capsys):
    code, out, _ = invoke(
        capsys,
        "run",
        "--program",
        prog("alternating"),
        "--k",
        "4",
        "--schedule",
        "min_first",
        "--window",
        "2",
    )
    assert code == 0
    assert out.splitlines()[0] == "emitted: 0,1,2,3"


def test_run_explicit_schedule(capsys):
    code, out, _ = invoke(
        capsys,
        "run",
        "--program",
        prog("alternating"),  # native prefix 1,0,2,3
        "--k",
        "4",
        "--schedule",
        "explicit",
        "--window",
        "2",
        "--choices",
        "1,1,1,0",
    )
    assert code == 0
    assert out.splitlines()[0] == "emitted: 0,2,3,1"


def test_run_choices_rejected_without_explicit(capsys):
    code, _, err = invoke(
        capsys,
        "run",
        "--program",
        prog("evens"),
        "--k",
        "3",
        "--schedule",
        "min_first",
        "--window",
        "2",
        "--choices",
        "0,0,0",
    )
    assert code == 2
    assert "explicit" in err


@pytest.mark.parametrize("option", [["--choices", "0,0,0"], ["--window", "4"], ["--window", "0"]])
def test_run_schedule_options_need_a_schedule(capsys, option):
    code, out, err = invoke(capsys, "run", "--program", prog("evens"), "--k", "3", *option)
    assert (code, out) == (2, "")
    assert err == f"error: {option[0]} is only valid with --schedule\n"


def test_run_window_zero_with_schedule_exit_2(capsys):
    code, out, err = invoke(capsys, "run", "--program", prog("evens"), "--k", "3",
                            "--schedule", "min_first", "--window", "0")
    assert (code, out) == (2, "")
    assert err == "error: window must be >= 1, got 0\n"


# Worked by hand, as in test_vm.py's steps_charged cases.  Staggered: odd
# inputs cost 1, even ones 10; at k=10 round 10 halts 0, 2, 4, 6 and 8 and
# stops before trying input 10; at k=7 it stops after input 2, leaving 4, 6
# and 8 pending; at round cap 5 the evens 0, 2 and 4 are pending.
# Evens-only: the guard fails at each odd input, tried once; the 4th value
# is input 6's, in round 6.
@pytest.mark.parametrize(
    "name,k,round_cap,stats",
    [
        ("staggered", 10, 50, (10, 10, 0, 10, 10, 230, 10, 0)),
        ("staggered", 7, 50, (10, 10, 0, 10, 7, 200, 7, 3)),
        ("staggered", 10, 5, (5, 6, 0, 6, 3, 41, 3, 3)),
        ("evens_only", 4, 100, (6, 7, 7, 4, 4, 13, 4, 0)),
        ("evens_only", 5, 3, (3, 4, 4, 2, 2, 6, 2, 0)),
    ],
)
def test_run_stats_by_hand(capsys, name, k, round_cap, stats):
    _, _, err = invoke(capsys, "run", "--program", prog(name), "--k", str(k),
                       "--round-cap", str(round_cap), "--stats")
    keys = ("rounds", "inputsTried", "guardEvals", "costEvals", "valueEvals",
            "stepsCharged", "halted", "pending")
    assert json.loads(err) == dict(zip(keys, stats))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_run_stats_leave_stdout_alone(capsys, fmt):
    argv = ["run", "--program", prog("odds_fast"), "--k", "8", "--schedule", "min_first",
            "--window", "3", "--format", fmt]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    code_stats, out_stats, err_stats = invoke(capsys, *argv, "--stats")
    assert (code_stats, out_stats) == (code, out)
    assert err_stats.count("\n") == 1 and json.loads(err_stats)["valueEvals"] == 8


def test_run_round_cap_ceiling(capsys):
    code, out, _ = invoke(
        capsys, "run", "--program", prog("evens"), "--k", "1", "--round-cap", "1000000"
    )
    assert (code, out.splitlines()[0]) == (0, "emitted: 0")
    code, out, err = invoke(
        capsys, "run", "--program", prog("evens"), "--k", "1", "--round-cap", "1000001"
    )
    assert (code, out) == (2, "")
    assert err == "error: round_cap must be in 1..1000000, got 1000001\n"


def test_search_round_cap_ceiling(capsys):
    code, out, err = invoke(
        capsys, "search", "--a", prog("evens"), "--b", prog("evens"),
        "--k", "2", "--window", "1", "--round-cap", "1000001",
    )
    assert (code, out) == (2, "")
    assert err == "error: round_cap must be in 1..1000000, got 1000001\n"


def test_run_bad_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code, _, err = invoke(capsys, "run", "--program", str(bad), "--k", "2")
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize(
    "source",
    [
        json.dumps({"name": "deep", "value": "(" * 3000 + "i" + ")" * 3000, "cost": "1"}),
        json.dumps({"name": "long", "value": "+".join(["i"] * 5000), "cost": "1"}),
        "[" * 100_000,
    ],
    ids=["nested_parens", "long_sum", "nested_json"],
)
def test_run_deep_input_exit_2(capsys, tmp_path, source):
    deep = tmp_path / "deep.json"
    deep.write_text(source, encoding="utf-8")
    code, out, err = invoke(capsys, "run", "--program", str(deep), "--k", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_run_missing_file_exit_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "run", "--program", str(tmp_path / "nope.json"), "--k", "2")
    assert code == 2


def test_run_file_not_utf8_exit_2(capsys, tmp_path):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff")
    code, out, err = invoke(capsys, "run", "--program", str(latin1), "--k", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read {str(latin1)!r}: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


def test_run_path_with_nul_exit_2(capsys):
    code, out, err = invoke(capsys, "run", "--program", "a\0b.json", "--k", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot read 'a\\x00b.json': embedded null byte\n"


def test_run_path_with_escape_sequence_is_echoed_escaped(capsys, tmp_path):
    # An escape sequence in a path must not reach the terminal raw.
    path = str(tmp_path / "\x1b[31mred.json")
    code, out, err = invoke(capsys, "run", "--program", path, "--k", "2")
    assert (code, out) == (2, "")
    assert "\x1b" not in err and "\\x1b[31mred.json" in err


@pytest.mark.parametrize("length,code", [(MAX_LENGTH, 0), (MAX_LENGTH + 1, 2)])
def test_run_expression_length_ceiling(capsys, tmp_path, length, code):
    # The ceiling counts characters, blanks included; it is checked before scanning.
    program = tmp_path / "long.json"
    program.write_text(json.dumps({"name": "long", "value": "i".ljust(length), "cost": "1"}),
                       encoding="utf-8")
    got, out, err = invoke(capsys, "run", "--program", str(program), "--k", "2")
    assert got == code
    if code:
        assert out == ""
        assert err == (f"error: expression of {length} characters exceeds {MAX_LENGTH} "
                       f"(at position {MAX_LENGTH + 1})\n")


def test_run_overflow_exit_4(capsys, tmp_path):
    boom = tmp_path / "boom.json"
    boom.write_text(
        '{"name":"boom","value":"(i+1)*18446744073709551615","cost":"1"}',
        encoding="utf-8",
    )
    code, _, err = invoke(capsys, "run", "--program", str(boom), "--k", "2")
    assert code == 4
    assert "overflow" in err


def test_run_truncated_schedule_exit_4(capsys):
    code, _, err = invoke(
        capsys,
        "run",
        "--program",
        prog("evens_only"),
        "--k",
        "8",
        "--round-cap",
        "4",
        "--schedule",
        "min_first",
        "--window",
        "2",
    )
    assert code == 4


def test_run_truncated_without_schedule_is_flagged(capsys):
    code, out, _ = invoke(
        capsys, "run", "--program", prog("evens_only"), "--k", "8", "--round-cap", "4"
    )
    assert code == 0
    assert "truncated: true" in out


# --- search ---------------------------------------------------------------------


def test_search_same_program_exit_0(capsys):
    code, out, _ = invoke(
        capsys,
        "search",
        "--a",
        prog("evens"),
        "--b",
        prog("evens"),
        "--k",
        "3",
        "--window",
        "2",
    )
    assert code == 0
    assert "status: witness_found" in out
    assert "choicesA: 0,0,0" in out


def test_search_window_geq_k_exit_0(capsys):
    code, out, _ = invoke(
        capsys,
        "search",
        "--a",
        prog("evens"),
        "--b",
        prog("countdown"),
        "--k",
        "3",
        "--window",
        "3",
        "--relation",
        "uniform",
    )
    assert code == 0


def test_search_exhausted_exit_3(capsys):
    code, out, _ = invoke(
        capsys,
        "search",
        "--a",
        prog("evens"),
        "--b",
        prog("alternating"),
        "--k",
        "2",
        "--window",
        "1",
    )
    assert code == 3
    assert "status: space_exhausted" in out


def test_search_budget_exit_5(capsys):
    code, out, _ = invoke(
        capsys,
        "search",
        "--a",
        prog("evens"),
        "--b",
        prog("alternating"),
        "--k",
        "4",
        "--window",
        "2",
        "--max-nodes",
        "3",
    )
    assert code == 5
    assert "status: budget_exceeded" in out


def test_search_truncated_exit_4(capsys):
    code, _, err = invoke(
        capsys,
        "search",
        "--a",
        prog("evens_only"),
        "--b",
        prog("evens"),
        "--k",
        "8",
        "--window",
        "2",
        "--round-cap",
        "4",
    )
    assert code == 4
    assert "insufficient enumeration" in err


def test_search_json_schema(capsys):
    code, out, _ = invoke(
        capsys,
        "search",
        "--a",
        prog("evens"),
        "--b",
        prog("evens"),
        "--k",
        "2",
        "--window",
        "1",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc["status"] == "witness_found"
    assert doc["choicesA"] == [0, 0]
    assert doc["restriction"]


@pytest.mark.parametrize("relation", ["eo", "uniform"])
def test_search_deep_k_no_recursion_limit(capsys, relation):
    # 2k = 1,200 depths: deeper than the default recursion limit.
    code, out, err = invoke(
        capsys, "search", "--a", prog("evens"), "--b", prog("evens"), "--k", "600",
        "--window", "1", "--relation", relation, "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["status"] == "witness_found"
    assert doc["nodesExplored"] == 1200


# --- check -----------------------------------------------------------------------


def test_check_theorem10_n4(capsys):
    code, out, _ = invoke(capsys, "check", "--suite", "theorem10", "--n", "4")
    assert code == 0
    assert "failures: 0" in out


def test_check_preorder_over_cap_exit_2(capsys):
    # Either side of the range: the message names the range, not a cap.
    for n in (6, 0):
        assert invoke(capsys, "check", "--suite", "preorder", "--n", str(n)) == (
            2, "", f"error: preorder suite takes n in 1..5, got {n}\n")


def test_check_text_exact(capsys):
    assert invoke(capsys, "check", "--suite", "theorem3", "--n", "3", "--support", "5,1,9") == (
        0, "suite: theorem3\nparams: n=3 support=[1, 5, 9]\nchecked: 6\nfailures: 0\n", "")


def test_check_theorem3_with_support(capsys):
    code, out, _ = invoke(
        capsys, "check", "--suite", "theorem3", "--n", "3", "--support", "4,8,15"
    )
    assert code == 0


@pytest.mark.parametrize(
    "support,message",
    [("1,1,2,3", "duplicate element 1 at positions 0 and 1"),
     ("5,7,9,7", "duplicate element 7 at positions 1 and 3"),
     ("4,8,4", "duplicate element 4 at positions 0 and 2")],
)
def test_check_theorem3_duplicate_support_exit_2(capsys, support, message):
    code, out, err = invoke(capsys, "check", "--suite", "theorem3", "--n", "3",
                            "--support", support)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_theorem3_out_of_range_support_names_its_position(capsys):
    code, out, err = invoke(capsys, "check", "--suite", "theorem3", "--n", "2",
                            "--support", "18446744073709551616,0")
    assert (code, out) == (2, "")
    assert err == (f"error: element 18446744073709551616 at position 0 outside "
                   f"0..{MAX_ELEMENT}\n")


def test_check_theorem3_requires_support(capsys):
    code, _, err = invoke(capsys, "check", "--suite", "theorem3", "--n", "3")
    assert code == 2


def test_check_support_rejected_elsewhere(capsys):
    code, _, err = invoke(
        capsys, "check", "--suite", "preorder", "--n", "3", "--support", "1,2,3"
    )
    assert code == 2


def test_check_json(capsys):
    code, out, _ = invoke(capsys, "check", "--suite", "hasse", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["suite"] == "hasse"
    assert doc["checked"] == 37
    assert doc["failures"] == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_stats_leave_stdout_alone(capsys, fmt):
    argv = ["check", "--suite", "hasse", "--n", "3", "--format", fmt]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    code_stats, out_stats, err_stats = invoke(capsys, *argv, "--stats")
    assert (code_stats, out_stats) == (code, out)
    assert err_stats == '{"checked":37,"failures":0,"relationTests":36}\n'


@pytest.mark.parametrize(
    "suite,n,relation_tests",
    [("preorder", 4, 24**2), ("inversion", 4, 24**2), ("theorem10", 4, 2 * 24**2),
     ("theorem3", 4, 24), ("hasse", 4, 24**2)],
)
def test_check_stats_relation_tests(capsys, suite, n, relation_tests):
    support = ["--support", "1,2,3,4"] if suite == "theorem3" else []
    _, _, err = invoke(capsys, "check", "--suite", suite, "--n", str(n), *support, "--stats")
    assert json.loads(err)["relationTests"] == relation_tests


def test_check_failure_exit_1(capsys, monkeypatch):
    """A suite that finds failures exits 1 and lists them on stdout."""
    monkeypatch.setattr("eolab.oracle._direct_leq", lambda p, q: True)
    code, out, err = invoke(capsys, "check", "--suite", "preorder", "--n", "2")
    assert (code, err) == (1, "")
    assert out == (
        "suite: preorder\nparams: n=2\nchecked: 14\nfailures: 2\n"
        '  {"law": "antisymmetry", "p": [0, 1], "q": [1, 0]}\n'
        '  {"law": "antisymmetry", "p": [1, 0], "q": [0, 1]}\n'
    )
    code, out, _ = invoke(capsys, "check", "--suite", "preorder", "--n", "2", "--format", "json")
    assert code == 1
    assert [f["law"] for f in json.loads(out)["failures"]] == ["antisymmetry"] * 2


def test_check_failure_list_truncated(capsys, monkeypatch):
    monkeypatch.setattr("eolab.patterns.uniform", lambda p, q: True)
    code, out, _ = invoke(capsys, "check", "--suite", "theorem10", "--n", "3")
    lines = out.splitlines()
    assert code == 1
    assert lines[3] == "failures: 30" and len(lines) == 4 + 20 + 1
    assert lines[-1] == "  (+10 more)"


# --- protocol-level behavior --------------------------------------------------------


def test_unknown_flag_exit_2(capsys):
    assert main(["pattern", "1,2", "--bogus"]) == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_stats_leave_stdout_alone(capsys, fmt):
    argv = ["search", "--a", prog("evens"), "--b", prog("countdown"), "--k", "7",
            "--window", "3", "--max-nodes", "1000000", "--format", fmt]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (3, "")
    code_stats, out_stats, err_stats = invoke(capsys, *argv, "--stats")
    assert (code_stats, out_stats) == (code, out)
    assert err_stats.count("\n") == 1
    assert json.loads(err_stats) == {
        "nodesExplored": 24_595,
        "bTests": 1_013,
        "frontierHits": 234,
        "aNodes": 317,
        "closedFormSubtrees": 202,
    }


def test_search_stats_witness_leaf_tests_are_literal(capsys):
    # The witness leaf's B nodes are tested once, in the literal walk's order.
    _, _, err = invoke(capsys, "search", "--a", prog("evens"), "--b", prog("evens"),
                       "--k", "4", "--window", "2", "--stats")
    stats = json.loads(err)
    assert (stats["nodesExplored"], stats["bTests"]) == (8, 4)


def test_unexpected_exception_exit_6(capsys, monkeypatch):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr("eolab.cli._cmd_pattern", broken)
    code, out, err = invoke(capsys, "pattern", "5,2,9")
    assert (code, out) == (6, "")
    assert err == "error: internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize(
    "target,broken,argv,message",
    [
        ("eolab.poset._below", lambda n: (_below(n)[0], lambda a: 0),
         ["poset", "--n", "4", "--antichain", "3"],
         "patterns (0, 1, 2, 3) and (0, 1, 3, 2) are comparable"),
        ("eolab.poset.max_chain", lambda n: Chain((OrderPattern((0, 2, 1)), OrderPattern((1, 0, 2)))),
         ["poset", "--n", "3", "--chain"],
         "consecutive patterns (0, 2, 1) and (1, 0, 2) not strictly related"),
        ("eolab.patterns.pattern_of", lambda values: OrderPattern((0, 0)),
         ["pattern", "1,2"],
         "ranks (0, 0) are not a permutation of 0..1"),
        ("eolab.poset._matching_exceeds", lambda s, limit, below: False,
         ["poset", "--n", "4", "--antichain", "5"],
         "antichain scan kept 2 of 5 nodes at n=4"),
    ],
    ids=["comparability", "max_chain", "pattern_of", "antichain_shortfall"],
)
def test_failed_certificate_exit_6(capsys, monkeypatch, target, broken, argv, message):
    # A fast path whose answer fails its own re-check is a bug, not bad input.
    monkeypatch.setattr(target, broken)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (6, "")
    assert err == f"error: internal error: ValueError: {message}\n"


def test_every_exception_has_an_exit_code():
    """errors.py defines every exception class a layer raises, and _EXITS maps
    each of them to one exit code; a check raising any other class exits 6."""
    defined = {}
    for info in pkgutil.iter_modules(eolab.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(f"eolab.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__):
                defined[f"{info.name}.{cls.__name__}"] = cls
    outside = {name for name in defined if not name.startswith("errors.")}
    assert outside == {"oracle._BudgetHit"}  # private: the search catches it
    mapped = set()
    for families, _ in _EXITS:
        mapped.update(families if isinstance(families, tuple) else (families,))
    assert {cls for name, cls in defined.items() if name.startswith("errors.")} == mapped


def test_witness_replay_check_survives_optimize():
    # ``python -O`` strips assert statements; the replay check must still
    # stop a walk whose B choices do not reproduce its witness.
    script = (
        "import sys\n"
        "from eolab import cli, search\n"
        "walk = search._walk\n"
        "def broken(*args, **kwargs):\n"
        "    status, nodes, (choices_a, choices_b), counters = walk(*args, **kwargs)\n"
        "    return status, nodes, (choices_a, (0,) * len(choices_b)), counters\n"
        "search._walk = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["search", "--a", prog("evens"), "--b", prog("countdown"), "--k", "4", "--window", "3"]
    proc = subprocess.run([sys.executable, "-O", "-c", script, *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (6, "")
    assert proc.stderr == "error: internal error: AssertionError: witness failed replay validation\n"


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_shared_parser_leaks_no_state(capsys):
    """Calls through the cached parsers answer as freshly built ones do, in
    any order."""
    assert build_parser() is build_parser()
    assert _command_parser("poset") is _command_parser("poset")
    search = ["search", "--a", prog("evens"), "--b", prog("countdown"), "--k", "3",
              "--window", "2"]
    argvs = [
        ["pattern", "5,2,9"],
        ["pattern", "5,2,9", "--format", "json"],
        ["cmp", "--left", "0,2,1", "--right", "1,0,2"],
        ["cmp", "--left", "0,2,1", "--right", "1,0,2", "--format", "json"],
        ["poset", "--n", "3", "--chain"],
        ["poset", "--n", "3", "--antichain", "2", "--format", "json", "--stats"],
        ["poset", "--n", "3", "--format", "dot"],
        ["poset", "--n", "3", "--chain", "--antichain", "2"],
        ["run", "--program", prog("evens"), "--k", "4", "--stats"],
        ["run", "--program", prog("odds_fast"), "--k", "4", "--schedule", "min_first",
         "--window", "2", "--format", "json"],
        [*search, "--stats"],
        [*search, "--relation", "uniform", "--format", "json"],
        ["check", "--suite", "hasse", "--n", "3", "--stats"],
        ["check", "--suite", "theorem3", "--n", "3", "--format", "json"],
        ["run", "--k", "4"],
        ["pattern", "1,2", "--bogus"],
        ["frobnicate"],
        [],
        ["--help"],
        *([command, "--help"] for command in ("pattern", "cmp", "poset", "run", "search", "check")),
    ]

    def answer(argv):
        return (main(list(argv)), *capsys.readouterr())

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        _command_parser.cache_clear()
        fresh.append(answer(argv))
    assert {code for code, _, _ in fresh} == {0, 2}
    assert [answer(argv) for argv in argvs] == fresh
    assert [answer(argv) for argv in reversed(argvs)] == fresh[::-1]


def test_a_call_builds_only_its_own_parser(capsys):
    build_parser.cache_clear()
    _command_parser.cache_clear()
    assert main(["poset", "--n", "2"]) == 0
    assert (_command_parser.cache_info().currsize, build_parser.cache_info().currsize) == (1, 0)
    assert main(["frobnicate"]) == 2
    assert build_parser.cache_info().currsize == 1


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_parser_help_matches_the_full_parser(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert _command_parser(command).format_help() == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["cmp", "--left", "0,1"],  # a required option left out
        ["poset", "--n", "two"],  # a bad int
        ["check", "--suite", "x" * 200, "--n", "2"],  # a bad choice, clipped
        ["poset", "--n", "3", "--chain", "--antichain", "2"],  # mutually exclusive
        ["poset", "--n", "2", "--", "--chain"],
        ["pattern", "--", "--format", "json"],
        ["poset", "--n", "3", "--ch", "--anti", "2"],  # abbreviated
        ["search", "--r", "1"],  # an ambiguous abbreviation
        ["poset", "--n", "2", "--bogus"],  # leftovers
        ["pattern", "1,2", "3,4"],
        ["--format", "json", "poset", "--n", "2"],  # an option before the subcommand
        [],
        ["frobnicate"],
        ["--help"],
        ["-h", "poset"],
        ["poset", "-h", "--bogus"],
    ],
)
def test_main_answers_as_the_full_parser_does(argv, monkeypatch, capsys):
    """Whichever parser ``main`` uses, the exit code, help, usage and error
    text are the full parser's."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = (exc.value.code, *capsys.readouterr())
    assert invoke(capsys, *argv) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "5,2,9"],
        ["pattern", "5,2,9", "--format", "json"],
        ["cmp", "--left", "0,2,1", "--right", "1,0,2", "--format", "json"],
        ["poset", "--n", "3", "--format", "dot"],
        ["poset", "--n", "3", "--format", "json"],
        ["check", "--suite", "inversion", "--n", "3", "--format", "json"],
    ],
)
def test_byte_identical_output(argv):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "eolab", *argv],
            capture_output=True,
            check=True,
        )
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_7(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["pattern", "5,2,9"]) == 7
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [3, 300])
def test_closed_pipe_leaves_no_traceback(n):
    # The pipe's reader is gone before eolab starts.  Without
    # PYTHONUNBUFFERED stdout is block-buffered: 3 elements fail at main's
    # flush and stay buffered, so the interpreter's own flush at exit must
    # not fail on them; 300 overflow the buffer and fail at the write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eolab", "pattern", ",".join(map(str, range(n)))],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (7, b"")


def _assert_unwritable_stdout(proc):
    assert proc.returncode == 7
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


def test_closed_fd_1_exits_7():
    # With fd 1 closed at startup the interpreter sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "eolab", "pattern", "1,2"],
        stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
    )
    _assert_unwritable_stdout(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("n", [2, 300])
def test_full_stdout_exits_7(n):
    # Every write to /dev/full fails with ENOSPC, at main's write or flush.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "eolab", "pattern", ",".join(map(str, range(n)))],
            stdout=full, stderr=subprocess.PIPE,
        )
    _assert_unwritable_stdout(proc)
