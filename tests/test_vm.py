"""Enumerator VM tests: expression language, dovetailer, schedulers."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from eolab.errors import InputError
from eolab.expressions import MAX_DEPTH, MAX_VALUE, EvaluationError, parse_arith, parse_guard
from eolab.oracle import _eval_arith, _eval_bool, brute_force_schedule
from eolab.patterns import pattern_of
from eolab.vm import InsufficientPrefixError, Scheduler, dovetail, parse_program, schedule

EVENS = '{"name":"evens","value":"2*i","cost":"1"}'
ODDS_FAST = '{"name":"odds_fast","value":"i","cost":"1 + 99*(1 - (i mod 2))","guard":null}'
STAGGERED = '{"name":"staggered","value":"i","cost":"1 + 9*(1 - (i mod 2))"}'
GUARDED = '{"name":"evens_only","value":"i","cost":"1","guard":"i mod 2 == 0"}'


# --- expressions ----------------------------------------------------------


@pytest.mark.parametrize(
    "source,i,expected",
    [
        ("2*i", 5, 10),
        ("1 + 99*(1 - (i mod 2))", 4, 100),
        ("1 + 99*(1 - (i mod 2))", 7, 1),
        ("10 - 3", 0, 7),
        ("3 - 10", 0, 0),  # natural subtraction truncates
        ("(i + 1) * (i + 2)", 3, 20),
        ("i mod 7", 23, 2),
    ],
)
def test_arith_evaluation(source, i, expected):
    assert parse_arith(source).evaluate(i) == expected


@pytest.mark.parametrize(
    "source,i,expected",
    [
        ("i mod 2 == 0", 4, True),
        ("i mod 2 == 0", 5, False),
        ("i < 3 or i == 7", 7, True),
        ("i < 3 and i != 1", 1, False),
        ("1 <= i and i <= 5 or i == 9", 9, True),
    ],
)
def test_guard_evaluation(source, i, expected):
    assert parse_guard(source).evaluate(i) is expected


def _input_error(parse, source: str) -> str:
    with pytest.raises(InputError) as exc:
        parse(source)
    return str(exc.value)


def test_unknown_identifier_reports_name_and_position():
    assert _input_error(parse_arith, "2*j") == "unknown identifier 'j' (at position 3); only 'i' is bound"


def test_syntax_error_carries_position():
    assert _input_error(parse_arith, "1 + + 2") == (
        "expected a natural, 'i' or '(' but found '+' (at position 5)")
    assert _input_error(parse_arith, "(1 + 2") == "expected ')' (at position 7)"
    assert _input_error(parse_arith, "1 ? 2") == "unexpected character '?' (at position 3)"


def test_arith_rejects_boolean_syntax():
    assert _input_error(parse_arith, "i < 2") == "unexpected trailing '<' (at position 3)"


def test_guard_requires_comparison():
    message = "guard requires a comparison (==, !=, <, <=) but found 'end of input' at position {}"
    assert _input_error(parse_guard, "i + 1") == message.format(6)
    assert _input_error(parse_guard, "i == 1 and i") == message.format(13)


def test_overflow_is_loud_and_contextual():
    expr = parse_arith("i * i")
    ok = expr.evaluate(2**32 - 1)
    assert ok == (2**32 - 1) ** 2
    with pytest.raises(EvaluationError) as exc:
        expr.evaluate(2**33)
    assert str(exc.value) == "overflow beyond 64 bits while evaluating 'i * i' at i=8589934592"
    assert exc.value.input_value == 2**33
    assert exc.value.expression == "i * i"


def test_mod_by_zero():
    with pytest.raises(EvaluationError):
        parse_arith("i mod (i - i)").evaluate(3)


def test_oversized_literal_rejected():
    assert _input_error(parse_arith, str(2**64)) == (
        "literal 18446744073709551616 exceeds 64 bits (at position 1)")


def test_depth_limit_boundary():
    nested = "(" * MAX_DEPTH + "i" + ")" * MAX_DEPTH
    assert parse_arith(nested).evaluate(3) == 3
    assert parse_arith("+".join(["i"] * MAX_DEPTH)).evaluate(2) == 2 * MAX_DEPTH
    assert parse_guard(" or ".join(["i == 1"] * (MAX_DEPTH - 1))).evaluate(1)
    deepest = [
        parse_arith("*".join(["i"] * MAX_DEPTH)),
        parse_arith(" - ".join(["i mod 0"] + ["i"] * (MAX_DEPTH - 2))),
        parse_guard(" and ".join(["i < 2"] * (MAX_DEPTH - 1))),
        parse_guard(" or ".join(["i mod (i - i) == 0"] * (MAX_DEPTH - 3))),
    ]
    for expr in deepest:
        for i in (0, 1, 2, 2**32):
            assert _evaluation(expr.evaluate, i) == _evaluation(_tree_walk(expr), i)
    too_deep = f"expression nests deeper than {MAX_DEPTH} levels (at position 1)"
    assert _input_error(parse_arith, "(" + nested + ")") == (
        f"parentheses nest deeper than {MAX_DEPTH} (at position {MAX_DEPTH + 1})")
    assert _input_error(parse_arith, "+".join(["i"] * (MAX_DEPTH + 1))) == too_deep
    assert _input_error(parse_guard, " or ".join(["i == 1"] * MAX_DEPTH)) == too_deep


def test_depth_error_precedes_later_syntax_errors():
    """The parser stops at the first node over MAX_DEPTH, so text after it,
    however malformed, is never read, not even a bad character."""
    too_deep = "+".join(["i"] * (MAX_DEPTH + 1))
    message = f"expression nests deeper than {MAX_DEPTH} levels (at position 1)"
    for parse, source in ((parse_arith, too_deep + " )"), (parse_arith, too_deep + " + j"),
                          (parse_arith, too_deep + " $"),
                          (parse_arith, "i + " + "*".join(["i"] * MAX_DEPTH) + " $"),
                          (parse_guard, " or ".join(["i == 1"] * MAX_DEPTH) + " or")):
        assert _input_error(parse, source) == message
    assert _input_error(parse_arith, "(" * (MAX_DEPTH + 1) + "$") == (
        f"parentheses nest deeper than {MAX_DEPTH} (at position {MAX_DEPTH + 1})")


def test_first_fault_in_reading_order_is_reported():
    """Tokens are scanned as the parser reads them, so a bad character
    after the first fault is never reached."""
    assert _input_error(parse_guard, "i i $") == (
        "guard requires a comparison (==, !=, <, <=) but found 'i' at position 3")
    assert _input_error(parse_arith, "i ) $") == "unexpected trailing ')' (at position 3)"
    assert _input_error(parse_arith, "mod $") == "unexpected keyword 'mod' (at position 1)"
    # A comparison's operands have MAX_DEPTH - 1 levels of room, so this one
    # is too deep at its last '+', before the missing comparison is reached.
    assert _input_error(parse_guard, "+".join(["i"] * MAX_DEPTH) + " $") == (
        f"expression nests deeper than {MAX_DEPTH} levels (at position 1)")


def _evaluation(evaluate, i):
    try:
        return evaluate(i)
    except EvaluationError as exc:
        return type(exc), str(exc)


def _tree_walk(expr):
    walk = _eval_bool if getattr(expr.root, "op", None) in ("==", "!=", "<", "<=", "and", "or") else _eval_arith
    return lambda i: walk(expr.root, i, expr.source)


# Literals near the edges of 64 bits, so that sums and products overflow.
_literal = st.sampled_from([0, 1, 2, 3, 7, 2**32 - 1, 2**32, 2**63, MAX_VALUE])
_literal |= st.integers(0, MAX_VALUE)
_expr = st.recursive(
    st.just("i") | _literal.map(str),
    lambda inner: st.builds(
        "({} {} {})".format, inner, st.sampled_from(["+", "-", "*", "mod"]), inner
    ),
    max_leaves=10,
)
_comparison = st.builds(
    "{} {} {}".format, _expr, st.sampled_from(["==", "!=", "<", "<="]), _expr
)
_guard = st.builds(
    lambda first, rest: first + "".join(f" {op} {cmp}" for op, cmp in rest),
    _comparison,
    st.lists(st.tuples(st.sampled_from(["and", "or"]), _comparison), max_size=4),
)
# Inputs at the 32- and 64-bit edges; i above 64 bits is never dovetailed,
# but the compiled form must still raise where the tree walk does.
_input = st.sampled_from([0, 1, 2, 2**32 - 1, 2**32, 2**33, MAX_VALUE, 2**64, 2**65])
_input |= st.integers(0, 2**33)




def _in_place_examples(test):
    """An example for each shape whose closure reads a bare ``i`` in place,
    at inputs below, at and above the 64-bit edge."""
    shapes = [parse_arith(s) for s in ("5 + i", "i + 5", "3 * i", "i * 3", "7 - i", "i - 7")]
    shapes += [parse_guard(f"i {op} 7") for op in ("<", "<=", "==", "!=")]
    for expr in shapes:
        for i in (7, MAX_VALUE, 2**64, 2**65):
            test = example(expr, i)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(st.one_of(_expr.map(parse_arith), _guard.map(parse_guard)), _input)
@example(parse_guard("i < 5 or i mod 0 == 1"), 3)  # the right side would raise
@example(parse_guard("i < 5 or i mod 0 == 1"), 7)
@example(parse_guard("i == 3 and i * i * i * i * i == 0"), 2**33)
@example(parse_guard("i == 2 and i * i * i * i * i == 0"), 2**33)
@example(parse_guard("i <= 7 and i == 7 and i != 8"), 7)  # literal right operands at equality
@example(parse_guard("i < 7 or i != 7"), 7)
@example(parse_arith("i * i"), 2**32 - 1)
@example(parse_arith("i * i"), 2**32)
@example(parse_arith("i - 1"), 2**64 + 1)
@example(parse_arith("i*10000000000000000000 + i*10000000000000000000"), 1)  # two computed addends
@example(parse_arith("i - (i mod 2)"), 2**65)  # a bare i minus a computed operand
@example(parse_arith("(i mod 0) + (i * i * i)"), 2**33)  # both operands raise
@example(parse_arith("(i * i * i) + (i mod 0)"), 2**33)
@example(parse_arith("(i * i * i) - (i mod 0)"), 2**33)
@example(parse_arith("(i * i * i) mod (i mod 0)"), 2**33)
@_in_place_examples
def test_compiled_agrees_with_tree_walk(expr, i):
    # Same value, or the same exception type and message (and so the same
    # expression and the same i=).
    assert _evaluation(expr.evaluate, i) == _evaluation(_tree_walk(expr), i)


# --- parse_program --------------------------------------------------------


def test_parse_program_valid():
    prog = parse_program(EVENS)
    assert prog.name == "evens"
    assert prog.value.evaluate(3) == 6
    assert prog.guard is None


def test_parse_program_guard_null_is_absent():
    prog = parse_program(ODDS_FAST)
    assert prog.guard is None
    assert prog.cost.evaluate(0) == 100
    assert prog.cost.evaluate(1) == 1


def test_parse_program_unknown_identifier():
    assert _input_error(parse_program, '{"name":"bad","value":"2*j","cost":"1"}') == (
        "unknown identifier 'j' (at position 3); only 'i' is bound")


MALFORMED = {
    "not json at all": "invalid JSON: Expecting value (line 1, column 1)",
    "[1, 2]": "program document must be a JSON object",
    '{"name":"x","value":"i"}': "missing key: cost",
    '{"value":"i","cost":"1"}': "missing key: name",
    '{"name":"x","value":"i","cost":"1","extra":true}': "unknown keys: extra",
    '{"name":"x","value":42,"cost":"1"}': "key 'value' must be a string",
    '{"name":"","value":"i","cost":"1"}': "name '' is not an identifier",
    '{"name":"x","value":"i","cost":"1","guard":7}': "key 'guard' must be a string or null",
}


@pytest.mark.parametrize("source", list(MALFORMED))
def test_parse_program_rejects_malformed(source):
    assert _input_error(parse_program, source) == MALFORMED[source]


# --- fuzzing: only documented errors ---------------------------------------

_TOKENS = ["i", "0", "7", "18446744073709551616", "+", "-", "*", "mod", "(", ")", "==",
           "!=", "<", "<=", "=", "!", "and", "or", "j", "_", "²", " "]
_sources = st.text(max_size=60) | st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _sources,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_documents = st.dictionaries(
    st.sampled_from(["name", "value", "cost", "guard", "extra"]), _json, max_size=5
) | st.fixed_dictionaries(
    {"name": st.sampled_from(["p", "x_1", "", "a b"]), "value": _sources, "cost": _sources},
    optional={"guard": st.none() | _sources},
)


@settings(max_examples=400, deadline=None)
@given(_sources)
@example("²")
@example("1" * 5000)
@example("0" * 5000 + "1")
def test_expression_parsers_raise_only_expression_errors(source):
    for parse in (parse_arith, parse_guard):
        try:
            parse(source)
        except InputError:
            pass


def test_parse_trees_equal_only_when_alike():
    # The tree nodes compare as plain tuples: no two node kinds may compare
    # equal, so trees are equal exactly when their reprs, which name each
    # node's kind, are.
    trees = [parse_arith(s).root for s in
             ("i", "0", "1", "i + 1", "i - 1", "i * 1", "i mod 1", "(i)", "1 + i", "i + i")]
    trees += [parse_guard(s).root for s in
              ("i < 1", "i <= 1", "i == 1", "i != 1", "i < 1 and i < 1", "i < 1 or i < 1")]
    for a in trees:
        for b in trees:
            assert (a == b) == (repr(a) == repr(b))


@settings(max_examples=250, deadline=None)
@given(st.text(max_size=80) | _json.map(json.dumps) | _documents.map(json.dumps))
@example("1" * 5000)
@example('{"name":"x","value":"i","cost":"2 * ²"}')
def test_parse_program_raises_only_documented_errors(source):
    try:
        parse_program(source)
    except InputError:
        pass


# --- dovetail -------------------------------------------------------------


def test_dovetail_evens():
    trace = dovetail(parse_program(EVENS), k=5, round_cap=100)
    assert trace.emitted == (0, 2, 4, 6, 8)
    assert pattern_of(trace.emitted).ranks == (0, 1, 2, 3, 4)
    assert not trace.truncated
    assert trace.rounds == 4


def test_dovetail_odds_before_evens():
    trace = dovetail(parse_program(ODDS_FAST), k=6, round_cap=200)
    assert trace.emitted == (1, 3, 5, 7, 9, 11)
    assert not trace.truncated


def test_dovetail_staggered_interleaves():
    # Odd inputs cost 1, even inputs cost 10: at round 10 the evens all
    # catch up at once, after five odds are already out.
    trace = dovetail(parse_program(STAGGERED), k=10, round_cap=50)
    assert trace.emitted == (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
    positions = {v: t for t, v in enumerate(trace.emitted)}
    assert max(positions[v] for v in trace.emitted if v % 2 == 1) < min(
        positions[v] for v in trace.emitted if v % 2 == 0
    )


def test_dovetail_guard_divergence():
    trace = dovetail(parse_program(GUARDED), k=4, round_cap=100)
    assert trace.emitted == (0, 2, 4, 6)
    assert all(i % 2 == 0 for i in trace.halted_inputs)


def test_dovetail_truncation_flagged():
    trace = dovetail(parse_program(GUARDED), k=5, round_cap=3)
    assert trace.truncated
    assert trace.rounds == 3
    assert trace.emitted == (0, 2)


def test_dovetail_all_diverging_emits_nothing():
    prog = parse_program('{"name":"never","value":"i","cost":"1","guard":"i < 0"}')
    trace = dovetail(prog, k=1, round_cap=10)
    assert trace.truncated and trace.emitted == ()


@pytest.mark.parametrize(
    "source,k,round_cap,halted,steps",
    [
        # Odd inputs cost 1 and halt when first tried.  Even input i is
        # charged every round from max(1, i) to its halting round 10.
        (STAGGERED, 10, 50, set(range(10)), 5 + 55 + 54 + 49 + 40 + 27),
        # Round 10 stops after input 2: pending inputs 4, 6 and 8 last ran
        # in round 9, so each is charged T(i, 9).
        (STAGGERED, 7, 50, {0, 1, 2, 3, 5, 7, 9}, 5 + 55 + 54 + 39 + 30 + 17),
        # Truncated: pending evens charged T(max(1, i), 5).
        (STAGGERED, 10, 5, {1, 3, 5}, 3 + 15 + 14 + 9),
        # Each odd input diverges when first tried, charged its round.
        (GUARDED, 4, 100, {0, 2, 4, 6}, 4 + 1 + 3 + 5),
        (GUARDED, 5, 3, {0, 2}, 2 + 1 + 3),
    ],
)
def test_dovetail_steps_charged_by_hand(source, k, round_cap, halted, steps):
    trace = dovetail(parse_program(source), k=k, round_cap=round_cap)
    assert trace.halted_inputs == halted
    assert trace.steps_charged == steps


def test_dovetail_determinism():
    a = dovetail(parse_program(STAGGERED), k=8, round_cap=100)
    b = dovetail(parse_program(STAGGERED), k=8, round_cap=100)
    assert a == b
    assert (a.emitted, a.rounds, a.truncated) == (b.emitted, b.rounds, b.truncated)


@pytest.mark.parametrize("k_small,k_big", [(1, 4), (3, 8), (5, 10)])
def test_dovetail_monotone_refinement(k_small, k_big):
    prog = parse_program(STAGGERED)
    small = dovetail(prog, k=k_small, round_cap=100)
    big = dovetail(prog, k=k_big, round_cap=100)
    assert not small.truncated and not big.truncated
    assert big.emitted[: len(small.emitted)] == small.emitted


def test_dovetail_cost_below_one_rejected():
    prog = parse_program('{"name":"zero_cost","value":"i","cost":"i"}')
    with pytest.raises(EvaluationError):
        dovetail(prog, k=2, round_cap=10)


def test_dovetail_overflow_reports_input():
    prog = parse_program('{"name":"boom","value":"(i+1)*18446744073709551615","cost":"1"}')
    with pytest.raises(EvaluationError) as exc:
        dovetail(prog, k=2, round_cap=10)
    assert str(exc.value) == "overflow beyond 64 bits while evaluating '(i+1)*18446744073709551615' at i=1"
    assert exc.value.input_value == 1


def test_dovetail_parameter_validation():
    prog = parse_program(EVENS)
    with pytest.raises(ValueError):
        dovetail(prog, k=0, round_cap=10)
    with pytest.raises(ValueError):
        dovetail(prog, k=1, round_cap=0)


# --- schedulers -----------------------------------------------------------


def test_schedule_min_first_hand_simulated():
    out = schedule([4, 1, 3, 2], Scheduler("min_first", window=2), k=4)
    assert out.elements == (1, 3, 2, 4)


def test_schedule_window_one_is_native():
    for kind in ("native", "min_first", "max_first"):
        out = schedule([4, 1, 3, 2], Scheduler(kind, window=1), k=4)
        assert out.elements == (4, 1, 3, 2)


def test_schedule_explicit_head_choices():
    out = schedule([0, 1, 2], Scheduler("explicit", window=3, choices=(0, 0, 0)), k=3)
    assert out.elements == (0, 1, 2)


def test_schedule_explicit_nontrivial():
    out = schedule([4, 1, 3, 2], Scheduler("explicit", window=2, choices=(1, 1, 1, 0)), k=4)
    assert out.elements == (1, 3, 2, 4)


def test_schedule_max_first():
    out = schedule([4, 1, 3, 2], Scheduler("max_first", window=2), k=4)
    assert out.elements == (4, 3, 2, 1)


def test_schedule_choice_out_of_range_reports_step():
    with pytest.raises(InputError) as exc:
        schedule([0, 1, 2], Scheduler("explicit", window=2, choices=(0, 5, 0)), k=3)
    assert str(exc.value) == "step 2: choice 5 out of range for buffer of size 2"


def test_schedule_missing_choice_reports_step():
    with pytest.raises(InputError) as exc:
        schedule([0, 1, 2], Scheduler("explicit", window=2, choices=(0,)), k=3)
    assert str(exc.value) == "step 2: no choice supplied"


def test_schedule_insufficient_prefix():
    with pytest.raises(InsufficientPrefixError):
        schedule([1, 2], Scheduler("native", window=1), k=3)


def test_scheduler_validation():
    with pytest.raises(ValueError):
        Scheduler("fifo", window=1)
    with pytest.raises(ValueError):
        Scheduler("native", window=0)
    with pytest.raises(ValueError):
        Scheduler("min_first", window=2, choices=(0,))
    with pytest.raises(InputError) as exc:
        Scheduler("explicit", window=2, choices=(0, -1))
    assert str(exc.value) == "choices must be naturals"


@pytest.mark.parametrize("k", [0, -3])
def test_schedule_rejects_k_below_one(k):
    with pytest.raises(InputError) as exc:
        schedule([0, 1, 2], Scheduler("native"), k=k)
    assert str(exc.value) == f"k must be >= 1, got {k}"


def test_schedule_min_first_full_window_sorts():
    native = [9, 2, 7, 5, 1]
    out = schedule(native, Scheduler("min_first", window=5), k=5)
    assert out.elements == tuple(sorted(native))


natives = st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True)


@given(natives, st.integers(1, 6), st.sampled_from(["native", "min_first", "max_first"]))
def test_schedule_window_locality_and_set_preservation(native, window, kind):
    out = schedule(native, Scheduler(kind, window=window), k=len(native))
    assert set(out.elements) == set(native)
    for t, value in enumerate(out.elements, start=1):
        assert value in native[: t + window - 1]


def _outcome(fn, *args):
    try:
        return fn(*args).elements
    except ValueError as exc:  # the scheduling errors, and a repeated value emitted
        return type(exc), str(exc)


@st.composite
def schedule_cases(draw):
    # Values from a small range repeat, so min/max ties are common.
    values = st.integers(0, 5) if draw(st.booleans()) else st.integers(0, 10**6)
    native = draw(st.lists(values, min_size=1, max_size=12))
    kind = draw(st.sampled_from(["native", "min_first", "max_first", "explicit"]))
    k = draw(st.integers(1, len(native) + 1))
    choices = draw(st.lists(st.integers(0, 4), max_size=k)) if kind == "explicit" else ()
    return native, Scheduler(kind, window=draw(st.integers(1, 14)), choices=choices), k


@settings(max_examples=400)
@given(schedule_cases())
@example(([3, 1, 3, 1, 2], Scheduler("min_first", window=4), 3))
@example(([3, 1, 3, 1, 2], Scheduler("max_first", window=4), 2))
def test_schedule_agrees_with_literal_loop(case):
    native, sched, k = case
    assert _outcome(schedule, native, sched, k) == _outcome(brute_force_schedule, native, sched, k)
