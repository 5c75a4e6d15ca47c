"""Graph families over increasing integer tuples.

Four constructions share one vertex vocabulary:

* conflict graphs: vertices are the size-m subsets of an (optionally
  offset) universe, written as strictly increasing tuples; two vertices
  conflict when they share an element at two different positions, i.e.
  when no single rank index can answer for both.
* shift graphs: vertices are n-subsets of [u] with edges between
  (a1,...,an) and (a2,...,an+1); a subgraph of the conflict graph on the
  same parameters.
* or-products: vertices are pairs, adjacent when either coordinate is;
  `or_product` builds one from its two built factors.
* explicit graphs: arbitrary vertex and edge lists, used for small test
  inputs and cross-checks.

The pairwise predicate `adjacent` covers the two tuple families only.

Maximal independent sets of a conflict graph are in bijection with label
functions f mapping each universe element to a position in [m]: the set
I(f) collects every vertex whose elements all sit at their labelled
positions.  Both that route and a generic Bron-Kerbosch enumerator are
provided so they can verify each other.  Label functions have their one
home here: `label_getter`, the predicate `consistent` and the capped
enumerator `iter_label_functions` also serve the hard distribution and
the window trees.

All values are immutable after construction and all operations are pure.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, product as iter_product
from typing import Callable, Iterable, Iterator, Mapping, Union

from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import InvalidVertexError

Vertex = tuple
LabelFn = Union[Mapping[int, int], Callable[[int], int]]


@dataclass(frozen=True)
class ConflictSpec:
    """Size-m subsets of the universe [offset+1, offset+M], conflict edges."""

    m: int
    M: int
    offset: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("tuple size m must be >= 1")
        if self.M < self.m:
            raise ValueError("universe width M must be >= m")

    @property
    def universe(self) -> range:
        return range(self.offset + 1, self.offset + self.M + 1)


@dataclass(frozen=True)
class ShiftSpec:
    """n-subsets of [u] with successor-shift edges."""

    n: int
    u: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tuple size n must be >= 1")
        if self.u < self.n:
            raise ValueError("universe size u must be >= n")

    @property
    def universe(self) -> range:
        return range(1, self.u + 1)


@dataclass(frozen=True)
class ProductSpec:
    """Or-product: vertices V1 x V2, edge iff edge in either coordinate."""

    left: "GraphSpec"
    right: "GraphSpec"


@dataclass(frozen=True)
class ExplicitSpec:
    """An explicit vertex list plus edge list."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices in explicit graph")
        for (a, b) in self.edges:
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise ValueError("self-loops are not allowed")


GraphSpec = Union[ConflictSpec, ShiftSpec, ProductSpec, ExplicitSpec]


def product(g1: GraphSpec, g2: GraphSpec) -> ProductSpec:
    """Or-product of two graph specs."""
    return ProductSpec(g1, g2)


def vertex_count(spec: GraphSpec) -> int:
    if isinstance(spec, ConflictSpec):
        return math.comb(spec.M, spec.m)
    if isinstance(spec, ShiftSpec):
        return math.comb(spec.u, spec.n)
    if isinstance(spec, ProductSpec):
        return vertex_count(spec.left) * vertex_count(spec.right)
    return len(spec.vertices)


def validate_vertex(spec: ConflictSpec | ShiftSpec, v) -> None:
    """Raise InvalidVertexError unless v is a vertex of spec."""
    size = spec.m if isinstance(spec, ConflictSpec) else spec.n
    if not isinstance(v, tuple) or len(v) != size:
        raise InvalidVertexError(f"expected a {size}-tuple, got {v!r}")
    lo, hi = spec.universe.start, spec.universe.stop - 1
    prev = None
    for e in v:
        if not (lo <= e <= hi):
            raise InvalidVertexError(f"element {e} outside universe [{lo}, {hi}]")
        if prev is not None and e <= prev:
            raise InvalidVertexError(f"tuple {v!r} is not strictly increasing")
        prev = e


def adjacent(spec: ConflictSpec | ShiftSpec, v, w) -> bool:
    """Adjacency predicate of a tuple family; symmetric and irreflexive."""
    validate_vertex(spec, v)
    validate_vertex(spec, w)
    if v == w:
        return False
    if isinstance(spec, ConflictSpec):
        return _conflict_adjacent(v, w)
    return v[1:] == w[:-1] or w[1:] == v[:-1]


def _conflict_adjacent(v: tuple, w: tuple) -> bool:
    # shared element at two different positions
    pos = {e: i for i, e in enumerate(v)}
    for j, e in enumerate(w):
        i = pos.get(e)
        if i is not None and i != j:
            return True
    return False


def iter_vertices(spec: GraphSpec) -> Iterator:
    """Vertices in canonical order (lexicographic on element tuples)."""
    if isinstance(spec, ConflictSpec):
        yield from combinations(spec.universe, spec.m)
    elif isinstance(spec, ShiftSpec):
        yield from combinations(spec.universe, spec.n)
    elif isinstance(spec, ProductSpec):
        yield from iter_product(iter_vertices(spec.left), iter_vertices(spec.right))
    else:
        yield from spec.vertices


def product_index(i1: int, i2: int, n2: int) -> int:
    """Canonical index of or-product vertex (i1, i2): the order of iter_vertices."""
    return i1 * n2 + i2


@dataclass
class Graph:
    """An explicitly enumerated graph: canonical vertex list plus adjacency.

    `adj_bits[i]` is the neighbourhood of vertex i as a bitmask, which keeps
    the set arithmetic used by the enumerators exact and fast.  `edges` is
    derived from it: the (i, j) index pairs with i < j, in increasing order.
    """

    spec: GraphSpec
    vertices: list
    adj_bits: list = field(repr=False)
    edges: list = field(init=False)

    def __post_init__(self):
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = [
            (i, j) for i, mask in enumerate(self.adj_bits) for j in bit_indices(mask) if j > i
        ]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return self.adj_bits[i].bit_count()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj_bits[i] >> j & 1)


def build_graph(spec: GraphSpec, caps: EnumerationCaps = DEFAULT_CAPS) -> Graph:
    """Enumerate a spec into an explicit graph, respecting the vertex cap."""
    caps.check("max_vertices", vertex_count(spec))
    if isinstance(spec, ProductSpec):
        return or_product(build_graph(spec.left, caps), build_graph(spec.right, caps))
    vertices = list(iter_vertices(spec))
    if isinstance(spec, ExplicitSpec):
        index = {v: i for i, v in enumerate(vertices)}
        pairs = ((index[a], index[b]) for a, b in spec.edges)
    else:
        pairs = (
            (i, j) for i, j in combinations(range(len(vertices)), 2)
            if adjacent(spec, vertices[i], vertices[j])
        )
    adj_bits = [0] * len(vertices)
    for i, j in pairs:
        adj_bits[i] |= 1 << j
        adj_bits[j] |= 1 << i
    return Graph(spec=spec, vertices=vertices, adj_bits=adj_bits)


def or_product(g1: Graph, g2: Graph) -> Graph:
    """The or-product of two built graphs: (i1, i2) ~ (j1, j2) iff i1 ~ j1 or i2 ~ j2."""
    n1, n2 = g1.n, g2.n
    full2 = (1 << n2) - 1
    # in block j1 the neighbours of (i1, i2) are the whole block when i1 ~ j1
    # and the neighbourhood of i2 otherwise; the blocks are disjoint, so sum is or
    adj_bits = [
        sum((full2 if g1.has_edge(i1, j1) else a2) << product_index(j1, 0, n2) for j1 in range(n1))
        for i1 in range(n1)
        for a2 in g2.adj_bits
    ]
    vertices = list(iter_product(g1.vertices, g2.vertices))
    return Graph(spec=ProductSpec(g1.spec, g2.spec), vertices=vertices, adj_bits=adj_bits)


def explicit_graph(vertices: Iterable, edges: Iterable) -> Graph:
    """Build a Graph directly from vertex/edge lists."""
    return build_graph(ExplicitSpec(tuple(vertices), tuple(tuple(e) for e in edges)))


# ---------------------------------------------------------------------------
# label functions and independent sets
# ---------------------------------------------------------------------------


def label_getter(f: LabelFn) -> Callable[[int], int]:
    """f as an element-wise callable; a mapping is read by key."""
    return f if callable(f) else f.__getitem__


def consistent(get: Callable[[int], int], t: tuple) -> bool:
    """True iff every t_i carries label i (1-based), i.e. t lies in I(f)."""
    return all(get(e) == i for i, e in enumerate(t, 1))


def iter_label_functions(
    elements: Iterable[int], m: int, caps: EnumerationCaps = DEFAULT_CAPS
) -> Iterator[dict]:
    """All maps from the elements to [m], as dicts, in lexicographic order."""
    elements = list(elements)
    caps.check("max_label_functions", m ** len(elements))
    for values in iter_product(range(1, m + 1), repeat=len(elements)):
        yield dict(zip(elements, values))


def independent_set_of(
    f: LabelFn, spec: ConflictSpec, caps: EnumerationCaps = DEFAULT_CAPS
) -> frozenset:
    """I(f): all vertices v with f(v_i) = i for every position i (1-based).

    Always an independent set: two members sharing an element agree on its
    position, so no conflict edge can join them.
    """
    caps.check("max_vertices", vertex_count(spec))
    get = label_getter(f)
    return frozenset(v for v in iter_vertices(spec) if consistent(get, v))


def maximal_independent_sets(
    spec: GraphSpec, caps: EnumerationCaps = DEFAULT_CAPS
) -> list[frozenset]:
    """All maximal independent sets, as frozensets of vertices.

    Conflict graphs go through the label-function bijection; every other
    family is enumerated generically (Bron-Kerbosch on the complement).
    """
    if isinstance(spec, ConflictSpec):
        graph = build_graph(spec, caps)
        seen = set()
        out = []
        for f in iter_label_functions(spec.universe, spec.m, caps):
            iset = independent_set_of(f, spec, caps)
            if iset and iset not in seen and _is_maximal(graph, iset):
                seen.add(iset)
                out.append(iset)
        return out
    graph = spec if isinstance(spec, Graph) else build_graph(spec, caps)
    return [
        frozenset(graph.vertices[i] for i in bit_indices(mask))
        for mask in bron_kerbosch_maximal_sets(graph.adj_bits)
    ]


def _is_maximal(graph: Graph, iset: frozenset) -> bool:
    mask = 0
    for v in iset:
        mask |= 1 << graph.index[v]
    for i in range(graph.n):
        if not (mask >> i & 1) and graph.adj_bits[i] & mask == 0:
            return False
    return True


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bron_kerbosch_maximal_sets(adj_bits: list) -> list[int]:
    """Maximal independent sets of a graph given by adjacency bitmasks.

    Runs pivoted Bron-Kerbosch on the complement graph (maximal cliques of
    the complement are exactly the maximal independent sets) and returns
    vertex bitmasks in a deterministic order.
    """
    n = len(adj_bits)
    if n == 0:
        return []
    full = (1 << n) - 1
    comp = [(~adj_bits[v]) & full & ~(1 << v) for v in range(n)]
    out = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot on the vertex covering most of p
        best, pivot = -1, -1
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            c = (p & comp[u]).bit_count()
            if c > best:
                best, pivot = c, u
        cand = p & ~comp[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            expand(r | bit, p & comp[v], x & comp[v])
            p &= ~bit
            x |= bit

    expand(0, full, 0)
    return sorted(out)


def is_independent_set(graph: Graph, members: Iterable) -> bool:
    idx = [graph.index[v] for v in members]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if graph.has_edge(idx[a], idx[b]):
                return False
    return True


def product_set(a: int, b: int, n2: int) -> int:
    """The bitmask of I1 x I2 in the or-product's indexing `product_index`.

    a and b are vertex bitmasks of the factors; n2 is the right factor's size.
    """
    # the blocks b << product_index(i1, 0, n2) are disjoint, so sum is or
    return sum(b << product_index(i1, 0, n2) for i1 in bit_indices(a))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def to_dimacs(graph: Graph, comment: str | None = None) -> str:
    """DIMACS edge format with 1-based vertex ids in canonical order."""
    lines = []
    if comment:
        lines.append(f"c {comment}")
    lines.append(f"p edge {graph.n} {len(graph.edges)}")
    for (i, j) in graph.edges:
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"
