"""Graph families over increasing integer tuples.

A built `Graph` is its canonical vertex list and one adjacency bitmask
per vertex; `Graph.edges()` reads the edges off the masks.  Each kind of
graph has one builder, and `build_graph` and `or_product` check the
`max_vertices` cap and then `MAX_ADJACENCY_BITS` (n² for n vertices)
before they enumerate; `explicit_graph` checks `max_vertices`:

* `build_graph` builds the two tuple families of a `GraphSpec`, which
  share one vertex vocabulary, from their structure, without testing
  vertex pairs:
  - conflict graphs: vertices are the size-m subsets of an (optionally
    offset) universe, written as strictly increasing tuples; two vertices
    conflict when they share an element at two different positions, i.e.
    when no single rank index can answer for both.
  - shift graphs: vertices are n-subsets of [u] with edges between
    (a1,...,an) and (a2,...,an+1); a subgraph of the conflict graph on
    the same parameters.
* `or_product` builds the or-product of two built graphs: vertices are
  pairs, adjacent when either coordinate is.
* `explicit_graph` builds a graph from arbitrary vertex and edge lists,
  used for small test inputs and cross-checks.

The pairwise predicate `adjacent` covers the two tuple families only;
`build_graph` does not call it, and the tests check the builder against
a scan of all vertex pairs with it.

Maximal independent sets of a conflict graph are in bijection with label
functions f mapping each universe element to a position in [m]: the set
I(f) collects every vertex whose elements all sit at their labelled
positions, and `independent_set_of` builds it.  The maximal sets of any
built graph come from one enumerator, Bron-Kerbosch on the adjacency
bitmasks (`bron_kerbosch_maximal_sets`), capped at `MAX_COLUMNS` sets;
the tests keep the label route to them as their reference.  Label
functions have their one home here:
`label_getter`, the predicate `consistent` and the capped enumerator
`iter_label_functions` also serve the hard distribution and the window
trees.

All values are immutable after construction and all operations are pure.
"""

import math
from collections import defaultdict, namedtuple
from itertools import combinations, compress, islice, product as iter_product, repeat
from typing import Callable, Iterable, Iterator, Mapping, Union

from .caps import DEFAULT_CAPS, EnumerationCaps, check_cap
from .errors import InvalidVertexError

LabelFn = Union[Mapping[int, int], Callable[[int], int]]


class ConflictSpec(namedtuple("ConflictSpec", "m M offset")):
    """Size-m subsets of the universe [offset+1, offset+M], conflict edges."""

    __slots__ = ()
    m: int
    M: int
    offset: int

    def __new__(cls, m: int, M: int, offset: int = 0):
        if m < 1:
            raise ValueError("tuple size m must be >= 1")
        if M < m:
            raise ValueError("universe width M must be >= m")
        return super().__new__(cls, m, M, offset)

    @property
    def universe(self) -> range:
        return range(self.offset + 1, self.offset + self.M + 1)


class ShiftSpec(namedtuple("ShiftSpec", "n u")):
    """n-subsets of [u] with successor-shift edges."""

    __slots__ = ()
    n: int
    u: int

    def __new__(cls, n: int, u: int):
        if n < 1:
            raise ValueError("tuple size n must be >= 1")
        if u < n:
            raise ValueError("universe size u must be >= n")
        return super().__new__(cls, n, u)

    @property
    def universe(self) -> range:
        return range(1, self.u + 1)


GraphSpec = Union[ConflictSpec, ShiftSpec]


def _tuple_size(spec: GraphSpec) -> int:
    """The length of the spec's vertex tuples."""
    return spec.m if isinstance(spec, ConflictSpec) else spec.n


def vertex_count(spec: GraphSpec) -> int:
    return math.comb(len(spec.universe), _tuple_size(spec))


def validate_vertex(spec: GraphSpec, v) -> None:
    """Raise InvalidVertexError unless v is a vertex of spec."""
    size = _tuple_size(spec)
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


def adjacent(spec: GraphSpec, v, w) -> bool:
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
    return combinations(spec.universe, _tuple_size(spec))


def product_index(i1: int, i2: int, n2: int) -> int:
    """Canonical index of or-product vertex (i1, i2): the order of `or_product`'s vertices."""
    return i1 * n2 + i2


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class Graph:
    """An explicitly enumerated graph: canonical vertex list plus adjacency.

    `adj_bits[i]` is the neighbourhood of vertex i as a bitmask.  The masks
    are the whole graph: no edge is stored, and `edges()` reads them off.
    """

    __slots__ = ("vertices", "adj_bits")
    vertices: list
    adj_bits: list

    def __init__(self, vertices: list, adj_bits: list):
        self.vertices = vertices
        self.adj_bits = adj_bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.adj_bits == other.adj_bits

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple]:
        """The (i, j) index pairs with i < j, in increasing order."""
        # row i's bits above i become a 0/1 byte string selecting j from one
        # shared id list: a dense row is read in C, and no edge makes a new int
        ids = list(range(len(self.adj_bits)))
        for i, mask in zip(ids, self.adj_bits):
            above = bin(mask >> i + 1 << i + 1)[:1:-1].encode().translate(_BIT_BYTES)
            yield from zip(repeat(i), compress(ids, above))

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj_bits) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj_bits[i] >> j & 1)


def build_graph(spec: GraphSpec, caps: EnumerationCaps = DEFAULT_CAPS) -> Graph:
    """Enumerate a tuple family into an explicit graph from its structure.

    `max_vertices` and then `MAX_ADJACENCY_BITS` (n² for n vertices) are
    checked before anything is enumerated.  No vertex pair is tested:
    each vertex is filed under the keys its neighbours are found by, and a
    neighbourhood is an OR of those files' bitmasks.

    * conflict: w ~ v when w holds an element e of v at a position other
      than e's position p in v, so adj[v] is the OR over v's (e, p) of
      holders[e] & ~holders_at[p, e];
    * shift: the successors of v are the vertices whose first n-1 elements
      are v[1:], and its predecessors those whose last n-1 elements are
      v[:-1]; v itself is removed, which matters only for n = 1, where
      every prefix is () and the graph is complete.

    The result equals the pair scan with `adjacent`, the tests' reference.
    """
    n = vertex_count(spec)
    caps.check("max_vertices", n)
    check_cap("max_adjacency_bits", n * n, MAX_ADJACENCY_BITS)
    vertices = list(iter_vertices(spec))
    if isinstance(spec, ConflictSpec):
        holders_at = defaultdict(int)  # (p, e) -> vertices holding e at position p
        for i, v in enumerate(vertices):
            bit = 1 << i
            for key in enumerate(v):
                holders_at[key] |= bit
        holders = defaultdict(int)
        for (_, e), mask in holders_at.items():
            holders[e] |= mask
        elsewhere = {(p, e): holders[e] & ~mask for (p, e), mask in holders_at.items()}
        adj_bits = [0] * n
        for i, v in enumerate(vertices):
            for key in enumerate(v):
                adj_bits[i] |= elsewhere[key]
    else:
        prefix, suffix = defaultdict(int), defaultdict(int)
        for i, v in enumerate(vertices):
            prefix[v[:-1]] |= 1 << i
            suffix[v[1:]] |= 1 << i
        adj_bits = [
            (prefix[v[1:]] | suffix[v[:-1]]) & ~(1 << i) for i, v in enumerate(vertices)
        ]
    return Graph(vertices=vertices, adj_bits=adj_bits)


def or_product(g1: Graph, g2: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> Graph:
    """The or-product of two built graphs: (i1, i2) ~ (j1, j2) iff i1 ~ j1 or i2 ~ j2."""
    n1, n2 = g1.n, g2.n
    caps.check("max_vertices", n1 * n2)
    check_cap("max_adjacency_bits", (n1 * n2) ** 2, MAX_ADJACENCY_BITS)
    full2 = (1 << n2) - 1
    # in block j1 the neighbours of (i1, i2) are the whole block when i1 ~ j1
    # and the neighbourhood of i2 otherwise; the blocks are disjoint, so sum is or
    adj_bits = [
        sum((full2 if g1.has_edge(i1, j1) else a2) << product_index(j1, 0, n2) for j1 in range(n1))
        for i1 in range(n1)
        for a2 in g2.adj_bits
    ]
    return Graph(vertices=list(iter_product(g1.vertices, g2.vertices)), adj_bits=adj_bits)


def explicit_graph(vertices: Iterable, edges: Iterable) -> Graph:
    """A graph from vertex and edge lists; an edge may repeat or come reversed."""
    vertices = list(vertices)
    DEFAULT_CAPS.check("max_vertices", len(vertices))
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertices in explicit graph")
    adj_bits = [0] * len(vertices)
    for a, b in edges:
        if a not in index or b not in index:
            raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
        if a == b:
            raise ValueError("self-loops are not allowed")
        i, j = index[a], index[b]
        adj_bits[i] |= 1 << j
        adj_bits[j] |= 1 << i
    return Graph(vertices=vertices, adj_bits=adj_bits)


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


def bit_indices(mask: int) -> list[int]:
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Bits n² of the adjacency masks of n vertices: n ≤ 7,211 admits shift(2,120)
# and refuses shift(2,1000); K_7211 peaked at 25 MB RSS in a fresh `graph` run.
MAX_ADJACENCY_BITS = 52 * 10**6

# Maximal sets one enumeration may list: shift(2,16) has 16,384, and
# shift(2,30)'s 2^28 are refused after a few seconds instead of hours.
MAX_COLUMNS = 1 << 16


def bron_kerbosch_maximal_sets(adj_bits: list) -> list[int]:
    """Maximal independent sets of a graph given by adjacency bitmasks.

    Runs pivoted Bron-Kerbosch on the complement graph (maximal cliques of
    the complement are exactly the maximal independent sets) and returns
    vertex bitmasks in a deterministic order.  Their number is not known
    before the search, so they are counted as they are found, and one set
    past `MAX_COLUMNS` raises EnumerationCapExceeded naming `max_columns`.
    """
    n = len(adj_bits)
    if n == 0:
        return []
    full = (1 << n) - 1
    comp = [(~adj_bits[v]) & full & ~(1 << v) for v in range(n)]
    out = []
    limit = MAX_COLUMNS

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(out) == limit:
                check_cap("max_columns", limit + 1, limit)
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
    """True iff no two members are adjacent; an unknown member raises KeyError."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    idx = [index[v] for v in members]
    mask = sum(1 << i for i in set(idx))
    return not any(graph.adj_bits[i] & mask for i in idx)


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
    chunks = [f"c {comment}\n" if comment else "", f"p edge {graph.n} {graph.edge_count()}\n"]
    # edge lines are joined a block at a time, so only the text is held whole
    edges = graph.edges()
    while block := "".join([f"e {i + 1} {j + 1}\n" for (i, j) in islice(edges, 1 << 16)]):
        chunks.append(block)
    return "".join(chunks)
