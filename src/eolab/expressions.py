"""Tiny expression language for enumerator programs.

Arithmetic grammar (value and cost fields)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "mod") factor)*
    factor := natural | "i" | "(" expr ")"

Guards add comparisons and boolean connectives on top::

    guard := conj ("or" conj)*
    conj  := cmp ("and" cmp)*
    cmp   := expr ("==" | "!=" | "<" | "<=") expr

The only bound variable is ``i``.  Arithmetic is checked unsigned
64-bit: subtraction truncates at zero, anything exceeding 2**64 - 1
raises instead of wrapping.  Each expression is scanned into plain
``(kind, text, position)`` tuples, parsed, and compiled once, at parse
time, into nested closures that read literals and a bare ``i`` in place
rather than calling them.  Parentheses may nest, and the syntax tree
may grow, at most ``MAX_DEPTH`` levels deep, so that parsing, compiling
and the compiled closures' calls stay well inside the default recursion
limit.  Text over ``MAX_LENGTH`` characters is rejected before scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Union

from .errors import EvaluationError, InputError, clip

MAX_VALUE = 2**64 - 1
MAX_DEPTH = 100
MAX_LENGTH = 16_384

_KEYWORDS = {"mod", "and", "or"}
_CMP_OPS = {"==", "!=", "<", "<="}


def _syntax_error(message: str, position: int) -> InputError:
    return InputError(f"{message} (at position {position})")


# --- AST ------------------------------------------------------------------
#
# NamedTuples, which compare as plain tuples, and differ in length.  One
# binary node serves arithmetic, comparisons and connectives alike: its op
# says which.  Tokens are plain tuples, which are cheaper to build.


class _Nat(NamedTuple):
    value: int


class _Var(NamedTuple):
    pass


class _Binary(NamedTuple):
    op: str  # + - * mod, == != < <=, and or
    left: "_Node"
    right: "_Node"


_Node = Union[_Nat, _Var, _Binary]


# --- tokenizer ------------------------------------------------------------


def _tokenize(source: str) -> Iterator[tuple[str, str, int]]:
    """Scan ``source`` one token at a time, as the parser asks, each a plain
    ``(kind, text, position)`` tuple: kind is nat, ident, op or end, and
    position is 1-based.  The last token is ``end``."""
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        end = pos + 1
        if ch.isspace():
            pos = end
            continue
        if ch.isdecimal():  # not isdigit: int() rejects digits such as '²'
            kind = "nat"
            while end < n and source[end].isdecimal():
                end += 1
        elif ch.isalpha() or ch == "_":
            kind = "ident"
            while end < n and (source[end].isalnum() or source[end] == "_"):
                end += 1
        elif source[pos:end + 1] in ("==", "!=", "<="):
            kind, end = "op", end + 1
        elif ch in "+-*()<":
            kind = "op"
        else:
            raise _syntax_error(f"unexpected character {ch!r}", pos + 1)
        yield kind, source[pos:end], pos + 1
        pos = end
    yield "end", "", n + 1


# --- parser ---------------------------------------------------------------


class _Parser:
    """Recursive descent over one token of lookahead.  Each method parses a
    subtree at most ``room`` levels high and returns ``(node, height)``.
    Every check on a token, room included, runs before the next token is
    scanned, so parsing stops at the first fault in reading order.  Tokens
    are told apart by text, which no two kinds share; only ``factor`` reads
    ``kind``, to tell a natural from a name."""

    def __init__(self, source: str):
        if len(source) > MAX_LENGTH:
            raise _syntax_error(f"expression of {len(source)} characters exceeds {MAX_LENGTH}", MAX_LENGTH + 1)
        self.tokens = _tokenize(source)
        self.advance()
        self.nesting = 0

    def advance(self) -> None:
        self.kind, self.text, self.position = next(self.tokens)

    def chain(self, operand: Callable[[int], tuple], ops: tuple[str, ...], room: int) -> tuple:
        """``operand (op operand)*`` for ``op`` in ``ops``, joined to the left."""
        left = operand(room)
        while (op := self.text) in ops:
            if left[1] == room:
                raise _syntax_error(f"expression nests deeper than {MAX_DEPTH} levels", 1)
            self.advance()
            right = operand(room - 1)
            left = _Binary(op, left[0], right[0]), max(left[1], right[1]) + 1
        return left

    def factor(self, room: int) -> tuple[_Node, int]:
        text = self.text
        if text == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                raise _syntax_error(f"parentheses nest deeper than {MAX_DEPTH}", self.position)
            self.advance()
            inner = self.expr(room)
            self.nesting -= 1
            if self.text != ")":
                raise _syntax_error("expected ')'", self.position)
            self.advance()
            return inner
        if self.kind == "nat":
            # Length first: int() refuses strings of more than 4,300 digits.
            digits = text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_VALUE)) or int(digits) > MAX_VALUE:
                raise _syntax_error(f"literal {clip(text)} exceeds 64 bits", self.position)
            node = _Nat(int(digits))
        elif text == "i":
            node = _Var()
        elif text in _KEYWORDS:
            raise _syntax_error(f"unexpected keyword {text!r}", self.position)
        elif self.kind == "ident":
            raise InputError(f"unknown identifier {clip(repr(text))} (at position {self.position}); only 'i' is bound")
        else:
            raise _syntax_error(f"expected a natural, 'i' or '(' but found {text or 'end of input'!r}", self.position)
        self.advance()
        return node, 1

    def term(self, room: int) -> tuple[_Node, int]:
        return self.chain(self.factor, ("*", "mod"), room)

    def expr(self, room: int) -> tuple[_Node, int]:
        return self.chain(self.term, ("+", "-"), room)

    def comparison(self, room: int) -> tuple[_Binary, int]:
        left, left_height = self.expr(room - 1)
        op = self.text
        if op not in _CMP_OPS:
            raise InputError(
                f"guard requires a comparison (==, !=, <, <=) but found "
                f"{clip(repr(op or 'end of input'))} at position {self.position}"
            )
        self.advance()
        right, right_height = self.expr(room - 1)
        return _Binary(op, left, right), max(left_height, right_height) + 1

    def conj(self, room: int) -> tuple[_Binary, int]:
        return self.chain(self.comparison, ("and",), room)

    def guard(self, room: int) -> tuple[_Binary, int]:
        return self.chain(self.conj, ("or",), room)

    def expect_end(self) -> None:
        if self.text:
            raise _syntax_error(f"unexpected trailing {clip(repr(self.text))}", self.position)


# --- compilation ----------------------------------------------------------
#
# Each tree is compiled once, at parse time, into nested closures, so that
# evaluation dispatches on nothing.  A literal operand is folded into its
# parent's closure instead of being called, and so is a bare ``i`` beside a
# literal: ``c + i``, ``c * i`` and ``c - i`` read ``i`` in place, either way
# round, and ``i`` compared with or taken mod a literal is the literal's
# reflected method (``i < c`` is ``c.__gt__``, ``i mod c`` is
# ``c.__rmod__``).  Operands are evaluated left to right and every error is
# raised as by the tree-walking references, ``oracle._eval_arith`` and
# ``_eval_bool``; the literal and ``i``, which raise nothing, are the only
# operands whose place may change.

_OVERFLOW = "overflow beyond 64 bits"


def _identity(i: int) -> int:  # a bare ``i``, which the closures below look for
    return i


def _constant(value: int) -> Callable[[int], int]:
    return lambda i: value


def _operand(node: _Node, source: str) -> Union[int, Callable[[int], int]]:
    return node.value if isinstance(node, _Nat) else _compile_arith(node, source)


def _add(left, right, source: str) -> Callable[[int], int]:
    if type(right) is int:
        left, right = right, left
    if type(left) is int and right is _identity:
        def add(i):
            result = left + i
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    elif type(left) is int:
        def add(i):
            result = left + right(i)
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    else:
        def add(i):
            result = left(i) + right(i)
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    return add


def _mul(left, right, source: str) -> Callable[[int], int]:
    if type(right) is int:
        left, right = right, left
    if type(left) is int and right is _identity:
        def mul(i):
            result = left * i
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    elif type(left) is int:
        def mul(i):
            result = left * right(i)
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    else:
        def mul(i):
            result = left(i) * right(i)
            if result > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return result
    return mul


# A difference is at most its minuend and a remainder at most its dividend
# and below its divisor; of all the operands, only ``i`` itself can exceed
# 64 bits unchecked.  So a literal minus anything, a computed operand other
# than ``i`` minus a literal, and any remainder, need no overflow check.


def _sub(left, right, source: str) -> Callable[[int], int]:
    if type(left) is int and right is _identity:
        def sub(i):
            return left - i if left > i else 0
    elif type(left) is int:
        def sub(i):
            b = right(i)
            return left - b if left > b else 0
    elif type(right) is int and left is _identity:
        def sub(i):
            if i <= right:
                return 0
            if i - right > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return i - right
    elif type(right) is int:
        def sub(i):
            a = left(i)
            return a - right if a > right else 0
    else:
        def sub(i):
            a = left(i)
            b = right(i)
            if a <= b:
                return 0
            if a - b > MAX_VALUE:
                raise EvaluationError(_OVERFLOW, source, i)
            return a - b
    return sub


def _mod(left, right, source: str) -> Callable[[int], int]:
    if type(right) is int and right:
        if left is _identity:
            return right.__rmod__
        return lambda i: left(i) % right
    if type(left) is int:
        left = _constant(left)
    if type(right) is int:
        right = _constant(right)

    def mod(i):
        a = left(i)
        b = right(i)
        if b == 0:
            raise EvaluationError("mod by zero", source, i)
        return a % b

    return mod


_ARITH = {"+": _add, "-": _sub, "*": _mul, "mod": _mod}


def _compile_arith(node: _Node, source: str) -> Callable[[int], int]:
    if isinstance(node, _Nat):
        return _constant(node.value)
    if isinstance(node, _Var):
        return _identity
    left, right = _operand(node.left, source), _operand(node.right, source)
    if type(left) is int and type(right) is int:
        right = _constant(right)
    return _ARITH[node.op](left, right, source)


# Comparisons by operator: one closure for two computed operands, one for a
# literal right operand, and the literal's reflected method for ``i`` against
# a literal (``i < c`` is ``c > i``).  A literal left operand is computed.
_COMPARE = {
    "==": (lambda a, b: lambda i: a(i) == b(i), lambda a, c: lambda i: a(i) == c, "__eq__"),
    "!=": (lambda a, b: lambda i: a(i) != b(i), lambda a, c: lambda i: a(i) != c, "__ne__"),
    "<": (lambda a, b: lambda i: a(i) < b(i), lambda a, c: lambda i: a(i) < c, "__gt__"),
    "<=": (lambda a, b: lambda i: a(i) <= b(i), lambda a, c: lambda i: a(i) <= c, "__ge__"),
}


def _compile_bool(node: _Binary, source: str) -> Callable[[int], bool]:
    if node.op in _COMPARE:
        left = _compile_arith(node.left, source)
        right = _operand(node.right, source)
        computed, literal, reflected = _COMPARE[node.op]
        if type(right) is not int:
            return computed(left, right)
        return getattr(right, reflected) if left is _identity else literal(left, right)
    left, right = _compile_bool(node.left, source), _compile_bool(node.right, source)
    if node.op == "and":
        return lambda i: left(i) and right(i)
    return lambda i: left(i) or right(i)


@dataclass(frozen=True)
class Expression:
    """A parsed expression over the variable i: arithmetic from
    ``parse_arith``, boolean from ``parse_guard``.

    ``evaluate(i)`` runs the closure compiled from it at parse time.
    """

    source: str
    root: _Node
    evaluate: Callable[[int], int] = field(compare=False, repr=False)


def parse_arith(source: str) -> Expression:
    parser = _Parser(source)
    root, _ = parser.expr(MAX_DEPTH)
    parser.expect_end()
    return Expression(source, root, _compile_arith(root, source))


def parse_guard(source: str) -> Expression:
    parser = _Parser(source)
    root, _ = parser.guard(MAX_DEPTH)
    parser.expect_end()
    return Expression(source, root, _compile_bool(root, source))
