"""Exception types shared across the engine, and the clipping of outside
text that their messages repeat."""

import sys

ECHO_CHARS = 80  # longest text from outside that an error message repeats


def clip(text: str, size: int | None = None) -> str:
    """text, past ECHO_CHARS characters cut to a prefix and its size."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text) if size is None else size} characters)"


def echo(value) -> str:
    """repr(value) clipped; a string's size is its own length."""
    shown = repr(value)
    return clip(shown, len(value) if isinstance(value, str) else None)


class EngineError(Exception):
    """Domain-level failure; the CLI maps these to exit code 1."""


class FactorMismatchError(EngineError):
    """Cross-factor product or automorphism application."""


class SystemMismatchError(EngineError):
    """Operands belong to different factor systems."""


class OracleUnavailableError(EngineError):
    """Finite enumeration requested but an infinite factor is present."""


class AlreadyBaseError(EngineError):
    """Reduction step requested at the minimal volume."""


class NonSplittingError(EngineError):
    """The conjugated factors do not generate the whole group."""


class NotAStabilizerError(EngineError):
    """Automorphism does not stabilize the requested vertex class."""

    def __init__(self, slot: int):
        self.slot = slot
        super().__init__(f"not a stabilizer: slot {slot} obstructs")


class UnprintableAnswerError(EngineError):
    """An answer holds an integer past CPython's int-to-string digit limit."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"answer holds an integer of more than {limit} digits; it cannot be printed")


class SchemaError(Exception):
    """Malformed external input; the CLI maps these to exit code 2."""
