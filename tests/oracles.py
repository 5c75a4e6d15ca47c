"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's solver paths: the LP oracle
enumerates basic solutions of the covering polytope by exact Gaussian
elimination, adjacency is recounted pairwise from first principles, and
maximal independent sets can be cross-checked through networkx cliques
on the complement graph; the rank-map placement loop is kept in its
original form, with its 4·n² probe range, as the reference for the
bounded one.
"""

from fractions import Fraction
from itertools import combinations

import networkx as nx

from mmphf_lab.rng import hash64

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


def count_conflict_edges(vertices):
    """Pairwise recount of conflict adjacency: shared element, different slot."""
    edges = 0
    for a, b in combinations(vertices, 2):
        pos = {e: i for i, e in enumerate(a)}
        if any(pos.get(e, j) != j for j, e in enumerate(b)):
            edges += 1
    return edges


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
