"""Enumeration caps.

Every exhaustive enumeration in the package (graph vertices, label
functions, distribution outcomes, the nodes of the chromatic-number
search) is guarded by a cap from this module, and so is the one exact
integer too wide to build, the exponent of `mmphf.parameterize`'s u'.
A built graph's memory is bounded too: `max_adjacency_bits` caps n² for
n vertices.  A graph holds n bitmasks of n bits and an edge list of
about 70 bytes per edge; building a complete graph on 3,000 vertices
peaked at 36 bytes per adjacency bit.  So the default, 52·10⁶
(n ≤ 7,211), keeps every graph it admits under 1.9 GB, inside a 2 GiB
address space, and it admits shift(2,120) (7,140 vertices).
The true parameters of the constructions are astronomically large and
must be rejected loudly rather than truncated: `EnumerationCaps.check`
is the one place that compares a required count with its cap and raises
`EnumerationCapExceeded` naming the cap.
"""

from dataclasses import dataclass, fields

from .errors import EnumerationCapExceeded
from .tower import TowerInt, tower_cmp


@dataclass(frozen=True)
class EnumerationCaps:
    max_vertices: int = 10**6
    max_label_functions: int = 3**10
    max_outcomes: int = 10**7
    max_search_nodes: int = 10**6
    max_exponent_bits: int = 10**6
    max_adjacency_bits: int = 52 * 10**6

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")

    def check(self, name: str, required: TowerInt) -> None:
        """Raise EnumerationCapExceeded if required exceeds the cap called name.

        `required` may be a `tower.Pow2` lower bound on a count too large to build.
        """
        limit = getattr(self, name)
        if tower_cmp(required, limit) > 0:
            raise EnumerationCapExceeded(name, required, limit)


DEFAULT_CAPS = EnumerationCaps()
