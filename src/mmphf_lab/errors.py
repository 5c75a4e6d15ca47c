"""Exception types shared across the package."""

from .serialize import int_str


class MmphfLabError(Exception):
    """Base class for all package-specific errors."""


class EnumerationCapExceeded(MmphfLabError):
    """An exhaustive enumeration would exceed a configured cap.

    Caps exist because the constructions scale to astronomically large
    parameters; exceeding a cap is always a loud error, never a silent
    truncation.
    """

    def __init__(self, cap_name: str, required, limit):
        self.cap_name = cap_name
        self.required = required
        self.limit = limit
        shown = int_str(required) if isinstance(required, int) else f"at least {required}"
        super().__init__(
            f"enumeration cap exceeded: {cap_name} (required {shown} > limit {limit})"
        )


class InvalidVertexError(MmphfLabError, ValueError):
    """A vertex does not belong to the graph it was used with."""


class CorruptIndexError(MmphfLabError):
    """A rank index returned answers inconsistent with any valid input."""


class SchemeViolationError(MmphfLabError):
    """An index scheme assigned equal payloads to two conflicting inputs."""
