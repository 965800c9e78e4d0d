"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: usage/parameter problems
exit 1, data problems exit 2, numeric failures exit 3.
"""


class RefselError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(RefselError):
    """Bad command line, unknown flag, or missing config key."""

    exit_code = 1


class ParameterError(RefselError, ValueError):
    """A parameter value outside its documented domain."""

    exit_code = 1


class DataError(RefselError, ValueError):
    """Input data violates a precondition (shape, classes, content)."""

    exit_code = 2


class ShapeError(DataError):
    """Array dimensions do not match what the operation requires."""


class ParseError(DataError):
    """A file could not be parsed; message carries the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatError(DataError):
    """A binary file does not match its expected format."""


class NumericError(RefselError, ArithmeticError):
    """Non-finite values appeared where finite numbers are required."""

    exit_code = 3


class ComponentError(RefselError):
    """An ensemble component failed; wraps the original error."""

    def __init__(self, component_index, cause):
        super().__init__(f"component {component_index}: {cause}")
        self.component_index = component_index
        self.__cause__ = cause

    def __reduce__(self):  # pickled with its index and cause, as a worker process sends it
        return type(self), (self.component_index, self.__cause__)

    @property
    def exit_code(self):
        if isinstance(self.__cause__, RefselError):
            return self.__cause__.exit_code
        return 3
