"""Every exception class eolab defines for a layer to raise: five families,
each of which ``eolab.cli`` maps to one exit code (any other exception is a
bug, exit 6), and ``clip`` for what error messages echo.  It imports nothing, so
the CLI maps them without loading a layer; each layer re-exports the
exceptions it raises.
"""


def clip(value: object) -> str:
    """``str(value)`` as an error message may echo it: whole up to 80
    characters, else its first 80 and its length, however long the input."""
    if isinstance(value, int) and value.bit_length() > 2000:
        # str() of an int this long is slow or refused; divide down to 80-81 digits.
        shift = int(value.bit_length() * 0.30103) - 80  # 0.30103: log10(2)
        text = "-" * (value < 0) + str(abs(value) // 10**shift)
        return f"{text[:80]}... ({shift + len(text)} characters)"
    text = str(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


class InputError(ValueError):
    """Something the user supplied (argv, a file or a program) is invalid."""


class EvaluationError(ArithmeticError):
    """Expression evaluation failed for a specific input."""

    def __init__(self, message: str, expression: str, input_value: int):
        self.expression = expression
        self.input_value = input_value
        super().__init__(f"{message} while evaluating {clip(repr(expression))} at i={input_value}")


class InsufficientPrefixError(ValueError):
    """The native prefix is too short to supply the requested outputs."""


class InsufficientEnumerationError(RuntimeError):
    """A native enumeration did not reach k values within round_cap."""

    def __init__(self, programs: tuple[str, ...], k: int, round_cap: int):
        self.programs = programs
        super().__init__(
            f"insufficient enumeration: {clip(', '.join(programs))} did not emit "
            f"{clip(k)} values within {round_cap} rounds"
        )


class NoAntichainError(LookupError):
    """No antichain of the requested size exists at this length."""
