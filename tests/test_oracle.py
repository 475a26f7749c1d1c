"""Oracle suite tests: case counts, pass/fail reporting, caps."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from eolab.expressions import EvaluationError
from eolab.oracle import (
    OracleCapError,
    brute_force_dovetail,
    brute_force_witness,
    check_hasse,
    check_inversion_equiv,
    check_preorder_laws,
    check_theorem3_finite,
    check_theorem10,
)
from eolab.search import InsufficientEnumerationError
from eolab.vm import dovetail, parse_program

from conftest import PROGRAMS, load_program


@pytest.mark.parametrize("n", [1, 3, 4])
def test_preorder_laws_pass(n):
    report = check_preorder_laws(n)
    m = math.factorial(n)
    assert report.passed
    assert report.checked == m + m**3 + m**2
    assert report.suite == "preorder"


def test_preorder_cap():
    with pytest.raises(OracleCapError):
        check_preorder_laws(6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inversion_equiv_pass(n):
    report = check_inversion_equiv(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2


def test_inversion_cap():
    with pytest.raises(OracleCapError):
        check_inversion_equiv(7)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_theorem10_pass(n):
    report = check_theorem10(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2


def test_theorem3_pass():
    report = check_theorem3_finite(3, {4, 8, 15})
    assert report.passed
    assert report.checked == 6
    report = check_theorem3_finite(5, {2, 3, 5, 7, 11})
    assert report.passed
    assert report.checked == 120


def test_theorem3_support_size_enforced():
    with pytest.raises(OracleCapError):
        check_theorem3_finite(3, {1, 2})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hasse_pass(n):
    report = check_hasse(n)
    assert report.passed
    assert report.checked == math.factorial(n) ** 2 + 1


def test_hasse_cap():
    with pytest.raises(OracleCapError):
        check_hasse(6)


def test_report_json_shape():
    doc = check_theorem10(2).to_json()
    assert set(doc) == {"suite", "params", "checked", "failures"}
    assert doc["failures"] == []
    assert doc["params"] == {"n": 2}


def test_brute_force_identical_programs():
    evens = load_program("evens")
    report = brute_force_witness(evens, evens, k=3, w=2, relation="eo_leq")
    assert report.status == "witness_found"
    assert report.choices_a == (0, 0, 0)
    assert report.choices_b == (0, 0, 0)
    assert report.nodes_explored == 1


def test_brute_force_window_one_refutation():
    report = brute_force_witness(
        load_program("evens"), load_program("alternating"), k=2, w=1, relation="eo_leq"
    )
    assert report.status == "space_exhausted"
    assert report.nodes_explored == 1


def test_brute_force_caps():
    evens = load_program("evens")
    with pytest.raises(OracleCapError):
        brute_force_witness(evens, evens, k=7, w=2, relation="eo_leq")
    with pytest.raises(OracleCapError):
        brute_force_witness(evens, evens, k=2, w=4, relation="eo_leq")


def test_brute_force_truncation():
    guarded = load_program("evens_only")
    with pytest.raises(InsufficientEnumerationError):
        brute_force_witness(guarded, guarded, k=6, w=2, relation="uniform", round_cap=4)


def test_determinism():
    assert check_theorem10(3) == check_theorem10(3)
    assert check_hasse(3) == check_hasse(3)


def _outcome(run, prog, k, round_cap):
    try:
        return run(prog, k, round_cap)
    except EvaluationError as exc:
        return type(exc), str(exc)


def _assert_dovetail_agrees(prog, k, round_cap):
    # Whole traces (emitted, rounds, halted_inputs, steps_charged,
    # truncated) must match, or the first error's type and message.
    assert _outcome(dovetail, prog, k, round_cap) == _outcome(
        brute_force_dovetail, prog, k, round_cap
    )


@pytest.mark.parametrize("name", sorted(p.stem for p in PROGRAMS.glob("*.json")))
@pytest.mark.parametrize("round_cap", [1, 5, 40, 300])
def test_dovetail_agrees_with_round_loop_on_fixtures(name, round_cap):
    prog = load_program(name)
    for k in (1, 3, 10, 40):
        _assert_dovetail_agrees(prog, k, round_cap)


_arith = st.recursive(
    st.just("i") | st.integers(0, 12).map(str),
    lambda inner: st.builds(
        lambda a, op, b: f"({a} {op} {b})", inner, st.sampled_from(["+", "-", "*", "mod"]), inner
    ),
    max_leaves=5,
)
# Costs such as c - i reach 0 at some input: the first error must come
# from the same input, in the same round, in both dovetailers.
_cost = _arith | st.builds(lambda c, e: f"{c} - {e}", st.integers(1, 40), _arith)
_guard = st.none() | st.builds(
    lambda a, op, b: f"{a} {op} {b}", _arith, st.sampled_from(["==", "!=", "<", "<="]), _arith
)


@settings(max_examples=150, deadline=None)
@given(_arith, _cost, _guard, st.sampled_from([1, 3, 10, 40]), st.sampled_from([1, 5, 40, 300]))
def test_dovetail_agrees_with_round_loop_on_generated(value, cost, guard, k, round_cap):
    doc = {"name": "generated", "value": value, "cost": cost, "guard": guard}
    _assert_dovetail_agrees(parse_program(json.dumps(doc)), k, round_cap)
