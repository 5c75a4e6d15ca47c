"""Enumeration caps: every exhaustive enumeration in the package, and every
exact integer too wide to build, is guarded by a named limit.

A user sets three, the fields of `EnumerationCaps`, by the CLI's
`--max-*` flags.  No caller sets the others, so each is a constant
beside what it bounds and never enters an artifact's `meta.config`:
`MAX_EXPONENT_BITS` here (read from this module by `mmphf.parameterize`
and `harddist.SamplerParams.canonical`), `graphs.MAX_ADJACENCY_BITS`,
`graphs.MAX_COLUMNS`, `coloring.MAX_SEARCH_NODES` and
`cli.MAX_JSON_EDGES`.  `check_cap` is the one place that compares a
required count with a limit and raises `EnumerationCapExceeded` naming
it, by the field's name or the constant's in lower case: parameters too
large are refused loudly, never truncated.
"""

from collections import namedtuple

from .errors import EnumerationCapExceeded
from .tower import TowerInt, tower_cmp

MAX_EXPONENT_BITS = 10**6


class EnumerationCaps(
    namedtuple(
        "EnumerationCaps",
        "max_vertices max_label_functions max_outcomes",
        defaults=(10**6, 3**10, 10**7),
    )
):
    __slots__ = ()
    max_vertices: int
    max_label_functions: int
    max_outcomes: int

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
