"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's solver paths: the LP oracle
enumerates basic solutions of the covering polytope by exact Gaussian
elimination, adjacency is recounted pairwise from first principles, and
maximal independent sets can be cross-checked through networkx cliques
on the complement graph; the rank-map placement loop is kept in its
original form, with its 4·n² probe range, as the reference for the
bounded one; and the covering LP's revised simplex is kept in its
`Fraction` form as the reference for the integer-preserving one; the
explicit-set codec is kept in its original walk over every universe
element as the reference for the hockey-stick one; DSATUR is kept in its
rescan-every-vertex form, trying every colour of a domain, as the
reference for the bucketed one; and shift graphs get the Erdős–Hajnal
colouring as a chromatic-number bound that does not search; the dual
check's largest independent-set mass is kept as a sum over every maximal
set of the whole graph, as the reference for the one over the support;
the hard law is kept as its recursion over every (Y, Z) draw, with the
outcome count walked by a second recursion, as the reference for the
one pass per exponent ladder; a sample trace's JSON record is kept
with every field converted by itself through `int_str`, as the reference
for the one that prints each X_i from the Decimal sum X_{i-1} + Y_i; the
label route to a conflict graph's maximal sets is kept with one
`independent_set_of` per label function and maximality recounted
pairwise, as the reference for Bron-Kerbosch on conflict graphs; the tuple
families' adjacency is kept as the scan of every vertex pair with
`graphs.adjacent`, as the reference for the builder that reads it off
their structure; and first-fit colouring gives chromatic searches an
upper bound that does not search.
"""

import math
from fractions import Fraction
from itertools import combinations, count

import networkx as nx

from mmphf_lab.caps import DEFAULT_CAPS
from mmphf_lab.graphs import adjacent, bit_indices, independent_set_of, iter_label_functions
from mmphf_lab.graphs import iter_vertices
from mmphf_lab.harddist import ExplicitTupleDistribution
from mmphf_lab.rng import GENERATOR_NAME, hash64
from mmphf_lab.serialize import int_str

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_square(rows, rhs):
    """Exact solution of a square rational system, or None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_lp_chi_f(num_vertices, sets):
    """Optimal value of the covering LP by basic-solution enumeration.

    min sum(x) subject to, for every vertex v, sum of x over sets
    containing v >= 1, and x >= 0.  Every vertex of the feasible region is
    the solution of some square subsystem of tight constraints, so the
    optimum is the best objective among feasible basic solutions.
    """
    nvars = len(sets)
    rows = []
    rhs = []
    for v in range(num_vertices):
        rows.append([ONE if v in s else ZERO for s in sets])
        rhs.append(ONE)
    for j in range(nvars):
        rows.append([ONE if jj == j else ZERO for jj in range(nvars)])
        rhs.append(ZERO)
    best = None
    for combo in combinations(range(len(rows)), nvars):
        x = solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is None or any(v < 0 for v in x):
            continue
        if any(
            sum(row[j] * x[j] for j in range(nvars)) < r for row, r in zip(rows, rhs)
        ):
            continue
        val = sum(x, ZERO)
        if best is None or val < best:
            best = val
    return best


def _conflict(a, b):
    """Shared element at different slots."""
    pos = {e: i for i, e in enumerate(a)}
    return any(pos.get(e, j) != j for j, e in enumerate(b))


def reference_adj_bits(spec):
    """`graphs.build_graph`'s adjacency bitmasks before it was built from structure:
    every vertex pair tested with the public predicate `adjacent`."""
    vertices = list(iter_vertices(spec))
    adj_bits = [0] * len(vertices)
    for i, j in combinations(range(len(vertices)), 2):
        if adjacent(spec, vertices[i], vertices[j]):
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
    return adj_bits


def count_conflict_edges(vertices):
    """Pairwise recount of conflict adjacency: shared element, different slot."""
    return sum(1 for a, b in combinations(vertices, 2) if _conflict(a, b))


def reference_maximal_independent_sets(spec):
    """Each nonempty, maximal I(f) of a conflict graph once, in the order of
    the first label function f giving it; I(f) from `independent_set_of`,
    maximality recounted pairwise on the vertex tuples."""
    vertices = list(combinations(spec.universe, spec.m))
    out = []
    for f in iter_label_functions(spec.universe, spec.m):
        iset = independent_set_of(f, spec)
        if iset and iset not in out and all(
            v in iset or any(_conflict(v, w) for w in iset) for v in vertices
        ):
            out.append(iset)
    return out


def first_fit_coloring(graph):
    """Each vertex in canonical order takes the smallest colour no earlier
    neighbour uses; an upper bound on chi."""
    colors = []
    for v in range(graph.n):
        used = {colors[w] for w in bit_indices(graph.adj_bits[v]) if w < v}
        colors.append(next(c for c in count() if c not in used))
    return colors


def is_acyclic(num_vertices, edges):
    """Union-find cycle check."""
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def is_bipartite(num_vertices, edges):
    color = [-1] * num_vertices
    adj = [[] for _ in range(num_vertices)]
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    for s in range(num_vertices):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def networkx_maximal_independent_sets(num_vertices, edges):
    """Maximal ISs as frozensets of indices, via cliques of the complement."""
    g = nx.Graph()
    g.add_nodes_from(range(num_vertices))
    g.add_edges_from(edges)
    comp = nx.complement(g)
    return {frozenset(c) for c in nx.find_cliques(comp)} if num_vertices else set()


def reference_max_mass(graph, weights):
    """Largest weight on a maximal independent set of the whole graph.

    The rule the dual check used while it summed over the full list of
    maximal sets; here the list comes from networkx.
    """
    return max(
        (
            sum((weights.get(v, ZERO) for v in s), ZERO)
            for s in networkx_maximal_independent_sets(graph.n, graph.edges())
        ),
        default=ZERO,
    )


def reference_try_place(keys, seed, attempt):
    """Rank-map placement probing 4·n² displacements per bucket (`mmphf._try_place` before
    its probe range was cut to n): (displacements, slots), or None when a bucket never fits."""
    n = keys.n
    salt = seed ^ (attempt * 0x9E3779B97F4A7C15)
    buckets: list = [[] for _ in range(n)]
    for rank, e in enumerate(keys.elements):
        buckets[hash64(e, salt, salt=1) % n].append((e, rank))
    order = sorted(range(n), key=lambda b: (-len(buckets[b]), b))
    used = [False] * n
    slots = [0] * n
    displacements = [0] * n
    limit = 4 * n * n
    for b in order:
        if not buckets[b]:
            continue
        for d in range(limit):
            positions = [(hash64(e, salt, salt=2) + d) % n for e, _ in buckets[b]]
            if len(set(positions)) == len(positions) and not any(used[p] for p in positions):
                displacements[b] = d
                for (e, rank), p in zip(buckets[b], positions):
                    used[p] = True
                    slots[p] = rank
                break
        else:
            return None
    return displacements, slots


def reference_subset_rank(elements, u):
    """`mmphf._subset_rank` before the hockey-stick identity: one binomial per skipped
    universe element."""
    n = len(elements)
    rank = 0
    prev = 0
    for j, e in enumerate(elements):
        for v in range(prev + 1, e):
            rank += math.comb(u - v, n - j - 1)
        prev = e
    return rank


def reference_subset_unrank(rank, n, u):
    """`mmphf._subset_unrank` before galloping search: one binomial per universe element
    up to the last member."""
    out = []
    prev = 0
    for j in range(n):
        v = prev + 1
        while True:
            block = math.comb(u - v, n - j - 1)
            if rank < block:
                break
            rank -= block
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def shift_graph_coloring(vertices):
    """Erdős–Hajnal colouring of shift(2,u): (a, b) gets msb((a-1) xor (b-1)).

    At that bit a-1 has a 0 and b-1 a 1, so (a, b) and (b, c) never share a
    colour, and the colours are the ceil(log2 u) bit positions below u.
    """
    return [((a - 1) ^ (b - 1)).bit_length() - 1 for a, b in vertices]


def reference_covering_lp(num_rows, columns):
    """The covering LP solved over a dense `Fraction` basis inverse (`lp._RevisedSimplex`
    before it kept B^-1 as an integer matrix over one determinant), for valid inputs
    with num_rows > 0: (value, primal, dual, pivots)."""
    solver = _FractionRevisedSimplex(num_rows, columns)
    solver.solve()
    return (*solver.extract(), solver.pivots)


class _FractionRevisedSimplex:
    """Revised simplex on  A x - s = 1  with an explicit `Fraction` basis inverse.

    Column ids: 0..nc-1 structural (cost 1, includes the greedy warm-start
    pieces appended after the caller's columns), nc..nc+n-1 surplus
    (cost 0, column -e_r).
    """

    def __init__(self, n: int, columns: list[int]):
        self.n = n
        self.col_rows = [bit_indices(mask) for mask in columns]
        self._init_basis(columns)
        self.nc = len(self.col_rows)
        self.pivots = 0

    def _init_basis(self, columns):
        # Carve a disjoint cover out of the columns: each uncovered chunk of
        # a column becomes a unit-cost piece.  Pieces partition the rows, so
        # {pieces} + {surplus for non-representatives} is a feasible basis
        # whose inverse is explicit.  Representatives are the smallest row of
        # each piece, which keeps every basis row lexicographically positive.
        n = self.n
        full = (1 << n) - 1
        uncovered = full
        pieces = []
        order = sorted(range(len(columns)), key=lambda j: (-(columns[j]).bit_count(), j))
        for j in order:
            piece = columns[j] & uncovered
            if piece:
                pieces.append(piece)
                uncovered &= ~piece
            if not uncovered:
                break
        piece_ids = []
        for mask in pieces:
            piece_ids.append(len(self.col_rows))
            self.col_rows.append(bit_indices(mask))

        self.basis = [0] * n
        self.binv = [None] * n
        self.xb = [ZERO] * n
        nc_later = len(self.col_rows)
        for pid, mask in zip(piece_ids, pieces):
            rows = bit_indices(mask)
            rep = rows[0]
            brow = [ZERO] * n
            brow[rep] = ONE
            self.binv[rep] = brow
            self.basis[rep] = pid
            self.xb[rep] = ONE
            for v in rows[1:]:
                brow = [ZERO] * n
                brow[rep] = ONE
                brow[v] = -ONE
                self.binv[v] = brow
                self.basis[v] = nc_later + v  # surplus of row v
                self.xb[v] = ZERO
        self.in_basis = set(self.basis)

    # -- column access ----------------------------------------------------

    def _col_entries(self, j):
        if j < self.nc:
            return [(r, ONE) for r in self.col_rows[j]]
        return [(j - self.nc, -ONE)]

    def _reduced_cost(self, j, y):
        if j < self.nc:
            return ONE - sum(y[r] for r in self.col_rows[j])
        return y[j - self.nc]

    # -- simplex core ------------------------------------------------------

    def solve(self):
        while True:
            y = self._prices()
            enter = self._entering(y)
            if enter is None:
                return
            leave_pos = self._ratio_test(enter)
            self._pivot(enter, leave_pos)

    def _prices(self):
        n = self.n
        y = [ZERO] * n
        for i, j in enumerate(self.basis):
            if j < self.nc:
                row = self.binv[i]
                for r in range(n):
                    if row[r] != ZERO:
                        y[r] += row[r]
        return y

    def _entering(self, y):
        # float pre-scan ranks candidates; exactness comes from re-checking
        yf = [float(v) for v in y]
        cand = []
        for j in range(self.nc):
            if j not in self.in_basis:
                rcf = 1.0 - sum(yf[r] for r in self.col_rows[j])
                if rcf < 1e-9:
                    cand.append((rcf, j))
        for r in range(self.n):
            j = self.nc + r
            if j not in self.in_basis and yf[r] < 1e-9:
                cand.append((yf[r], j))
        cand.sort()
        for _, j in cand[:16]:
            if self._reduced_cost(j, y) < 0:
                return j
        # certify optimality (or catch a float miss) with a full exact pass
        for j in range(self.nc + self.n):
            if j not in self.in_basis and self._reduced_cost(j, y) < 0:
                return j
        return None

    def _ratio_test(self, enter):
        # lexicographic rule: minimize (xb_i, binv_i) / d_i among d_i > 0
        n = self.n
        d = [ZERO] * n
        for (r, a) in self._col_entries(enter):
            for i in range(n):
                if self.binv[i][r] != ZERO:
                    d[i] += self.binv[i][r] * a
        self._direction = d
        best = None
        best_ratio = None
        for i in range(n):
            if d[i] > 0:
                ratio = self.xb[i] / d[i]
                if best is None or ratio < best_ratio:
                    best, best_ratio = i, ratio
                elif ratio == best_ratio and self._lex_less(i, best):
                    best = i
        if best is None:
            raise RuntimeError("covering LP unbounded; this cannot happen")
        return best

    def _lex_less(self, i, k):
        di, dk = self._direction[i], self._direction[k]
        bi, bk = self.binv[i], self.binv[k]
        for r in range(self.n):
            lhs = bi[r] * dk
            rhs = bk[r] * di
            if lhs != rhs:
                return lhs < rhs
        raise RuntimeError("identical basis rows; basis is singular")

    def _pivot(self, enter, pos):
        n = self.n
        d = self._direction
        piv = d[pos]
        self.binv[pos] = [v / piv for v in self.binv[pos]]
        self.xb[pos] = self.xb[pos] / piv
        prow = self.binv[pos]
        pxb = self.xb[pos]
        for i in range(n):
            if i != pos and d[i] != ZERO:
                f = d[i]
                row = self.binv[i]
                for r in range(n):
                    if prow[r] != ZERO:
                        row[r] -= f * prow[r]
                self.xb[i] -= f * pxb
        self.in_basis.discard(self.basis[pos])
        self.basis[pos] = enter
        self.in_basis.add(enter)
        self.pivots += 1

    # -- solution ----------------------------------------------------------

    def extract(self):
        primal = {}
        for i, j in enumerate(self.basis):
            if j < self.nc and self.xb[i] != ZERO:
                mask = 0
                for r in self.col_rows[j]:
                    mask |= 1 << r
                primal[mask] = primal.get(mask, ZERO) + self.xb[i]
        y = self._prices()
        value = sum((self.xb[i] for i, j in enumerate(self.basis) if j < self.nc), ZERO)
        return value, sorted(primal.items()), y


def reference_k_colorable(graph, k):
    """`coloring._k_coloring` before saturation buckets: peeling, then DSATUR
    that rescans every uncoloured vertex per node and tries every colour of
    the domain.  A proper k-colouring as a list, or None."""
    n = graph.n
    if k <= 0:
        return None if n else []
    alive = (1 << n) - 1
    peel_order = []
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if alive >> v & 1 and (graph.adj_bits[v] & alive).bit_count() < k:
                alive &= ~(1 << v)
                peel_order.append(v)
                changed = True
    colors = [-1] * n
    core = [v for v in range(n) if alive >> v & 1]
    if core and not _reference_color_core(graph, core, k, colors):
        return None
    for v in reversed(peel_order):
        used = 0
        for w in bit_indices(graph.adj_bits[v]):
            if colors[w] >= 0:
                used |= 1 << colors[w]
        c = 0
        while used >> c & 1:
            c += 1
        colors[v] = c
    return colors


def _reference_color_core(graph, core, k, colors):
    full = (1 << k) - 1
    domains = {v: full for v in core}
    nbrs = {v: [w for w in core if graph.adj_bits[v] >> w & 1] for v in core}
    uncolored = set(core)

    def choose():
        # max saturation, then max degree among uncolored, then canonical
        best, key = None, None
        for v in uncolored:
            cand = (k - domains[v].bit_count(), len(nbrs[v]), -v)
            if key is None or cand > key:
                best, key = v, cand
        return best

    def assign(v, c):
        undo = []
        for w in nbrs[v]:
            if w in uncolored and domains[w] >> c & 1:
                domains[w] &= ~(1 << c)
                undo.append(w)
                if domains[w] == 0:
                    for u in undo:
                        domains[u] |= 1 << c
                    return None
        return undo

    def rec():
        if not uncolored:
            return True
        v = choose()
        uncolored.discard(v)
        d = domains[v]
        while d:
            c = (d & -d).bit_length() - 1
            d &= d - 1
            colors[v] = c
            undo = assign(v, c)
            if undo is not None:
                if rec():
                    return True
                for u in undo:
                    domains[u] |= 1 << c
            colors[v] = -1
        uncolored.add(v)
        return False

    return rec()


def reference_enumerate_distribution(params, caps=DEFAULT_CAPS):
    """Exact law of (X_1, ..., X_m) by exhausting every (Y, Z) outcome.

    `harddist.enumerate_distribution` as it was before the ladder pass.
    """
    caps.check("max_outcomes", _outcome_count(params, 1, params.s0))
    acc: dict = {}
    max_x = 0

    def rec(i: int, x: int, s: int, prob: Fraction, prefix: tuple):
        nonlocal max_x
        if i > params.m:
            acc[prefix] = acc.get(prefix, Fraction(0)) + prob
            max_x = max(max_x, x)
            return
        step = params.step(i)
        py = Fraction(1, 1 << s)
        pz = Fraction(1, params.k - 1)
        for z in range(1, params.k):
            s_next = s - step * z
            for y in range(1, (1 << s) + 1):
                rec(i + 1, x + y, s_next, prob * py * pz, prefix + (x + y,))

    rec(1, 0, params.s0, Fraction(1), ())
    outcomes = tuple(sorted(acc.items()))
    return ExplicitTupleDistribution(m=params.m, universe_size=max_x, outcomes=outcomes)


def _outcome_count(params, i: int, s: int) -> int:
    if i > params.m:
        return 1
    step = params.step(i)
    total = 0
    for z in range(1, params.k):
        total += (1 << s) * _outcome_count(params, i + 1, s - step * z)
    return total


def reference_trace_json(trace):
    """`harddist.SampleTrace.to_json_dict` as it was: `int_str` on every field."""
    return {
        "seed": trace.seed,
        "generator": GENERATOR_NAME,
        "params": {"m": trace.params.m, "k": trace.params.k, "s0": trace.params.s0},
        "iterations": [
            {
                "y": int_str(trace.ys[i]),
                "z": int_str(trace.zs[i]),
                "x": int_str(trace.xs[i]),
                "s": int_str(trace.ss[i]),
            }
            for i in range(trace.params.m)
        ],
    }
