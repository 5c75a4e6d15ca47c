"""Enumeration caps.

Every exhaustive enumeration in the package (graph vertices, label
functions, distribution outcomes) is guarded by a cap from this module.
The true parameters of the constructions are astronomically large and
must be rejected loudly rather than truncated: `EnumerationCaps.check`
is the one place that compares a required count with its cap and raises
`EnumerationCapExceeded` naming the cap.
"""

from dataclasses import dataclass

from .errors import EnumerationCapExceeded


@dataclass(frozen=True)
class EnumerationCaps:
    max_vertices: int = 10**6
    max_label_functions: int = 3**10
    max_outcomes: int = 10**7

    def __post_init__(self):
        for name in ("max_vertices", "max_label_functions", "max_outcomes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def check(self, name: str, required: int) -> None:
        """Raise EnumerationCapExceeded if required exceeds the cap called name."""
        limit = getattr(self, name)
        if required > limit:
            raise EnumerationCapExceeded(name, required, limit)


DEFAULT_CAPS = EnumerationCaps()
