"""Exception hierarchy.

Every error raised by the library derives from :class:`FrvError`, so callers
(including the CLI) can distinguish domain errors from genuine bugs.
"""


class FrvError(Exception):
    """Base class for all library errors."""


class NotAPmf(FrvError):
    """A mapping claimed to be a probability mass function is not one."""


class DomainMismatch(FrvError):
    """Two objects that must live on the same sample space do not."""


class AlphabetMismatch(FrvError):
    """An alphabet-level precondition failed (wrong labels, not total, ...)."""


class InvalidBase(FrvError):
    """Logarithm base must be a real number strictly greater than 1."""


class DocumentError(FrvError):
    """An instance document failed to parse or validate.

    ``path`` locates the offending field, e.g. ``space.weights.w1``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)
