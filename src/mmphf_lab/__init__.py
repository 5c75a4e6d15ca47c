"""Desk-scale laboratory for monotone minimal perfect hashing lower bounds.

Exact, certificate-carrying implementations of the constructions behind
the space lower bound for monotone minimal perfect hashing: conflict /
shift / product graphs, rational fractional-coloring LPs with primal and
dual certificates, the hard input distribution with its window trees and
pruning, and concrete rank-index schemes with bit-exact size accounting.

Importing the package loads `harddist` and the modules it imports
(`caps`, `errors`, `graphs`, `rng`, `serialize`, `tower`).  `harddist`
stays eager because the benchmark's `import.harddist_s` layer reads it
from `python -X importtime -c "import mmphf_lab"`.  `coloring`, `lp`,
`mmphf` and `windowtree` load on first attribute access (PEP 562) or
import, so a fresh process compiles only what its subcommand runs:
`mmphf-lab --version` and `graph` load none of the four.  No module
imports `dataclasses`, so no fresh process loads it or `inspect`: the
records are `typing.NamedTuple`s, or `collections.namedtuple`
subclasses where `__new__` checks the fields or an instance holds a
cache, and `graphs.Graph` is a plain class with `__slots__`.
"""

__version__ = "0.1.0"

import importlib

from . import caps, graphs, harddist, rng, tower  # noqa: F401

_LAZY = ("coloring", "lp", "mmphf", "windowtree")


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
