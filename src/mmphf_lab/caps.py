"""Enumeration caps.

Every exhaustive enumeration in the package (graph vertices, label
functions, distribution outcomes, the nodes of the chromatic-number
search) is guarded by a cap from this module, and so is the one exact
integer too wide to build, the exponent of `mmphf.parameterize`'s u'.
A built graph's memory is bounded too: `max_adjacency_bits` caps n² for
n vertices.  A graph is n bitmasks of n bits and no edge list.  The
default, 52·10⁶ (n ≤ 7,211), is kept from when it also held one, so it
admits shift(2,120) (7,140 vertices) and refuses shift(2,1000) as before.
It bounds what an export writes: the complete graph on 7,211 vertices
peaked at 25 MB RSS in a fresh `graph` run, and at 607 MB with its
DIMACS text; the JSON export, a list per edge, is not bounded this way.
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
