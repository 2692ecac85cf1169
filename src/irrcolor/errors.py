"""Exception types shared across the package, and the oracle's default size
cap, which the CLI's ``--oracle-cap`` reads without loading the oracle."""


class LoopError(ValueError):
    """An edge endpoint pairs a vertex with itself."""


class FormatError(ValueError):
    """Malformed input in a graph serialization format."""


class UnsupportedSizeError(ValueError):
    """Graph too large for the requested encoding."""


class ParameterError(ValueError):
    """Operation parameters outside their documented range."""


class PreconditionError(ValueError):
    """Call violates a documented precondition."""


class SizeCapError(RuntimeError):
    """Input exceeds a configured size cap."""


DEFAULT_SIZE_CAP = 8  # the oracle's, re-exported as oracle.DEFAULT_SIZE_CAP


class SearchCancelled(RuntimeError):
    """A cooperative cancellation token expired mid-search."""
