"""Enumeration caps.

Every exhaustive enumeration in the package (graph vertices, label
functions, distribution outcomes, the nodes of the chromatic-number
search) is guarded by a cap from this module, and so are the exact
integers too wide to build: `max_exponent_bits` bounds the exponent of
`mmphf.parameterize`'s u' and the canonical hard-law exponent s0 of
`harddist.SamplerParams.canonical`.
A built graph's memory is bounded too: `max_adjacency_bits` caps n² for
n vertices.  A graph is n bitmasks of n bits and no edge list.  The
default, 52·10⁶ (n ≤ 7,211), is kept from when it also held one, so it
admits shift(2,120) (7,140 vertices) and refuses shift(2,1000) as before.
It bounds what an export writes: the complete graph on 7,211 vertices
peaked at 25 MB RSS in a fresh `graph` run, and at 607 MB with its
DIMACS text; the JSON export, a list per edge, is not bounded this way.
The maximal independent sets that Bron-Kerbosch lists are the one
enumeration capped elsewhere: their number is not known before the
search, so `graphs.MAX_COLUMNS`, a constant no caller sets, is checked
as they are produced.
The true parameters of the constructions are astronomically large and
must be rejected loudly rather than truncated: `check_cap` is the one
place that compares a required count with a cap and raises
`EnumerationCapExceeded` naming it, for `EnumerationCaps.check` and for
`MAX_COLUMNS`.
"""

from collections import namedtuple

from .errors import EnumerationCapExceeded
from .tower import TowerInt, tower_cmp


class EnumerationCaps(
    namedtuple(
        "EnumerationCaps",
        "max_vertices max_label_functions max_outcomes max_search_nodes"
        " max_exponent_bits max_adjacency_bits",
        defaults=(10**6, 3**10, 10**7, 10**6, 10**6, 52 * 10**6),
    )
):
    __slots__ = ()
    max_vertices: int
    max_label_functions: int
    max_outcomes: int
    max_search_nodes: int
    max_exponent_bits: int
    max_adjacency_bits: int

    def __new__(cls, *args, **kwargs):
        caps = super().__new__(cls, *args, **kwargs)
        for name, value in zip(caps._fields, caps):
            if value < 1:
                raise ValueError(f"{name} must be positive")
        return caps

    def check(self, name: str, required: TowerInt) -> None:
        """Raise EnumerationCapExceeded if required exceeds the cap called name.

        `required` may be a `tower.Pow2` lower bound on a count too large to build.
        """
        check_cap(name, required, getattr(self, name))


def check_cap(name: str, required: TowerInt, limit: int) -> None:
    """Raise EnumerationCapExceeded, naming the cap, if required exceeds limit."""
    if tower_cmp(required, limit) > 0:
        raise EnumerationCapExceeded(name, required, limit)


DEFAULT_CAPS = EnumerationCaps()
