"""Exception types shared across the package."""


class FactorizationError(ValueError):
    """Raised when an integer cannot be factored within the work bound."""


class UnsupportedScopeError(ValueError):
    """A request falls outside what the analytic machinery can answer.

    Typical causes: correction ratios relative to an index-one density of
    zero, nontrivial congruence conditions passed to analytic routines, or
    membership-only set descriptors handed to symbolic operations.
    """


class InconclusiveError(RuntimeError):
    """A sampling run did not collect enough evidence to commit to a value.

    Raised only by the Chebotarev sampling oracle; carries its raw counts.
    """

    def __init__(self, message, *, hits=None, total=None):
        super().__init__(message)
        self.hits = hits
        self.total = total


class ConfigError(ValueError):
    """Bad run configuration (unknown keys, malformed values, bad ranges)."""


class SizeLimitError(ValueError):
    """An exact computation was asked for more terms than its budget."""
