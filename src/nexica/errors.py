"""Exception hierarchy shared across the package."""


class NexicaError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(NexicaError):
    """An input value violates a format requirement (e.g. timestamp grid)."""


class ParseError(FormatError):
    """A file could not be parsed; the message names the file and line."""


class ValidationError(NexicaError):
    """A loaded structure violates one of its invariants."""


class ConsistencyError(NexicaError):
    """Two inputs that must agree (series/metadata/matrix) do not."""


class ParameterError(NexicaError):
    """An argument is outside its documented range."""


class DomainError(NexicaError):
    """A value is outside the mathematical domain of an operation."""


class TrainingError(NexicaError):
    """A classifier could not be trained on the given data."""


class StageError(NexicaError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
