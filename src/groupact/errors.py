"""Exception types shared across the package.

Everything raised on purpose derives from GroupActError so callers (and the
CLI) can catch one base class and turn it into a clean exit.
"""


class GroupActError(Exception):
    pass


class ShapeError(GroupActError):
    """An operand has the wrong rank or incompatible dimensions."""


class ConfigError(GroupActError):
    """A configuration value is out of range, unknown, or inconsistent."""


class DataError(GroupActError):
    """Input data violates a documented precondition (bad label, bad coords)."""


class EmptySetError(GroupActError):
    """A set-pooling op received zero actors."""


class UsageError(GroupActError):
    """An API was called in a way that cannot be serviced (wrong mode, missing rng)."""


class NumericsError(GroupActError):
    """A produced value is NaN or infinite."""


class ParseError(GroupActError):
    """A file could not be parsed; carries path and line number."""

    def __init__(self, path, line_no, msg):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.path = str(path)
        self.line_no = line_no


class TrainingDiverged(GroupActError):
    """Training produced non-finite logits, loss or gradients; message includes the iteration."""
