"""Exact chromatic and fractional chromatic numbers with certificates.

The fractional chromatic number is the optimum of the covering LP over
independent sets; it is solved here in exact rational arithmetic with the
maximal independent sets as columns, so the primal weighting, the dual
vertex prices and the optimal value agree as Fraction equalities (strong
duality, no floating point anywhere).  `fractional_chromatic_number`
checks every report it returns once, in `_verify_report`: independent,
covering primal sets, a dual whose largest mass on an independent set of
the graph is at most 1, equal values, and chi_f <= chi with a proper
coloring whose colors lie in range(chi).  The dual is checked against the
graph itself, on the subgraph its positive-weight vertices induce
(`max_mass`), never against the column list the LP was given, so a set
missing from that list shows up as an infeasible dual.  The LP solver
checks nothing of its own result.

The integral chromatic number comes from iterative deepening on the color
count; each k-colorability test peels vertices of degree < k (always
extendable afterwards) and then runs DSATUR backtracking with forward
checking on bitmasks: saturation buckets over one static degree order
pick the next vertex, and only one color never used on the path is tried
per node, since such colors are interchangeable.  Residual problems the
search has refuted are recorded, up to relabelling of the colors in use,
and skipped when met again; a state is recorded only once its failed
subtree owns REFUTE_MIN_NODES nodes no other recorded state owns, so at
most max_search_nodes // REFUTE_MIN_NODES states are kept.  A skipped
problem has no coloring, so the first coloring found is unchanged.
Tie-breaking follows the canonical vertex order, so results are
deterministic, and the search nodes of one `chromatic_number` call are
capped by max_search_nodes.

Dual witnesses double as vertex distributions: a distribution mu
certifies chi_f >= 1 / max_mass(graph, mu), and the optimal dual rescaled
by its total attains equality.  Certificates of or-products compose
coordinatewise and multiply in value; the composed pair is checked on the
or-product graph by the same `_verify_report`, with no list of the
product's maximal sets.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterable, Optional

from .caps import DEFAULT_CAPS, EnumerationCaps
from .graphs import Graph, bit_indices, bron_kerbosch_maximal_sets, or_product
from .graphs import product_index, product_set
from .lp import solve_covering_lp
from .serialize import frac_str

ZERO = Fraction(0)
ONE = Fraction(1)
# a failed search subtree records its state once it owns this many nodes
REFUTE_MIN_NODES = 64


@dataclass
class FractionalColoring:
    """Nonnegative weights on independent sets covering every vertex >= 1."""

    sets: list  # list of int vertex bitmasks
    weights: list  # list of Fraction, aligned with sets

    @property
    def value(self) -> Fraction:
        return sum(self.weights, ZERO)

    def to_json_dict(self) -> dict:
        return {
            "sets": [bit_indices(s) for s in self.sets],
            "weights": [frac_str(w) for w in self.weights],
            "value": frac_str(self.value),
        }


@dataclass
class DualWitness:
    """Nonnegative vertex weights with mass <= 1 on every independent set."""

    weights: dict  # vertex index -> Fraction

    @property
    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def as_distribution(self) -> dict:
        """Rescale to total mass 1; keeps the certificate exact."""
        total = self.value
        if total <= 0:
            raise ValueError("cannot normalize a zero witness")
        return {v: w / total for v, w in self.weights.items()}

    def to_json_dict(self) -> dict:
        return {
            "weights": {str(v): frac_str(w) for v, w in sorted(self.weights.items())},
            "value": frac_str(self.value),
        }


@dataclass
class ChiReport:
    """Exact coloring summary: chi_f with matching certificates, plus chi."""

    chi_f: Fraction
    primal: FractionalColoring
    dual: DualWitness
    chi: Optional[int] = None
    coloring: Optional[list] = None

    def to_json_dict(self) -> dict:
        out = {
            "chi_f": frac_str(self.chi_f),
            "primal": self.primal.to_json_dict(),
            "dual": self.dual.to_json_dict(),
        }
        if self.chi is not None:
            out["chi"] = self.chi
            out["coloring"] = list(self.coloring)
        return out


# ---------------------------------------------------------------------------
# exact chromatic number
# ---------------------------------------------------------------------------


def greedy_clique_lower_bound(graph: Graph) -> int:
    """Deterministic greedy clique; a cheap lower bound for chi."""
    if graph.n == 0:
        return 0
    best = 1
    for start in range(graph.n):
        clique = [start]
        cand = graph.adj_bits[start]
        while cand:
            # highest-degree candidate, canonical order breaking ties
            pick, key = -1, (-1, 0)
            m = cand
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                k = ((cand & graph.adj_bits[v]).bit_count(), -v)
                if k > key:
                    key, pick = k, v
            clique.append(pick)
            cand &= graph.adj_bits[pick]
        best = max(best, len(clique))
    return best


def _first_free_color(graph: Graph, v: int, colors: list) -> int:
    """Smallest color id that no colored neighbour of v uses."""
    used = 0
    for w in bit_indices(graph.adj_bits[v]):
        if colors[w] >= 0:
            used |= 1 << colors[w]
    c = 0
    while used >> c & 1:
        c += 1
    return c


def k_colorable(graph: Graph, k: int) -> Optional[list]:
    """A proper k-coloring as a list of color ids, or None if none exists.

    The search is bounded by the default max_search_nodes.
    """
    return _k_coloring(graph, k, DEFAULT_CAPS, 0)[0]


def _k_coloring(graph: Graph, k: int, caps: EnumerationCaps, spent: int) -> tuple:
    """(k-coloring or None, search nodes spent so far, this call included)."""
    n = graph.n
    if k <= 0:
        return (None if n else []), spent
    # peel vertices of degree < k; they can always be colored afterwards
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
    if alive:
        found, spent = _color_core(graph, alive, k, colors, caps, spent, {})
        if not found:
            return None, spent
    for v in reversed(peel_order):
        # degree < k at peel time guarantees a color below k
        colors[v] = _first_free_color(graph, v, colors)
    return colors, spent


def _color_core(
    graph: Graph, core: int, k: int, colors: list, caps: EnumerationCaps, spent: int,
    refuted: dict,
) -> tuple:
    """DSATUR with forward checking on the core bitmask: (found, nodes spent so far).

    The next vertex has the most colors barred by its colored neighbours,
    then the highest core degree, then the lowest id.  The last two keys
    are static, so vertices sit at positions sorted by them once, and
    bucket[s] holds the uncolored positions barred from s colors: the
    choice is the lowest bit of the highest non-empty bucket.  has[c]
    holds the positions whose domain still holds color c.  Colors from
    `used` up lie in every uncolored domain and are interchangeable, so
    only the first of them is tried; the subtrees skipped hold no coloring,
    and the first coloring found is the one plain ascending order finds.

    `refuted`, an empty dict from the caller, collects residual problems
    with no coloring (nogoods, after Dechter), mapping uncolored positions
    to a set of keys: a node's state is its uncolored positions and the
    domains `has[c] & uncolored` of the colors c < used, sorted so that
    states differing by a relabelling of those colors meet; colors from
    `used` up have full domains and need no entry.  The dict lookup on the
    uncolored positions comes first and the key is built only on a match;
    a node whose state is recorded returns False at once and is not
    counted.  A failed node records its state when its subtree spent at
    least REFUTE_MIN_NODES nodes that no state recorded inside it owns;
    those nodes become its own.  So at most max_search_nodes //
    REFUTE_MIN_NODES states are ever kept, with no count of their own, and
    the node count does not depend on the cap.  A skipped subtree holds no
    coloring, so the first coloring found is still the one the search
    without `refuted` finds.
    """
    adj = graph.adj_bits
    order = sorted(bit_indices(core), key=lambda v: (-(adj[v] & core).bit_count(), v))
    pos = {v: p for p, v in enumerate(order)}
    nbr = [sum(1 << pos[w] for w in bit_indices(adj[v] & core)) for v in order]
    everyone = (1 << len(order)) - 1
    has = [everyone] * k
    bucket = [everyone] + [0] * (k - 1)
    limit = caps.max_search_nodes
    top = k - 1
    charged = 0  # nodes owned by the states in refuted

    def state_key(uncolored: int, used: int) -> tuple:
        return tuple(sorted(has[c] & uncolored for c in range(used)))

    def rec(uncolored: int, used: int) -> bool:
        nonlocal spent, charged
        if not uncolored:
            return True
        keys = refuted.get(uncolored)
        if keys is not None and state_key(uncolored, used) in keys:
            return False
        entry, charged_at_entry, state = spent, charged, uncolored
        spent += 1
        if spent > limit:
            caps.check("max_search_nodes", spent)
        s = top
        while not bucket[s]:
            s -= 1
        low = bucket[s] & -bucket[s]
        bucket[s] ^= low
        p = low.bit_length() - 1
        uncolored ^= low
        near = nbr[p] & uncolored
        for c in range(min(used + 1, k)):
            if not has[c] & low:
                continue
            hit = near & has[c]
            if hit & bucket[top]:
                continue  # a neighbour would lose its last color
            saved = bucket[:]
            rest = hit
            t = top - 1
            while rest:
                moved = bucket[t] & rest
                if moved:
                    bucket[t] ^= moved
                    bucket[t + 1] |= moved
                    rest ^= moved
                t -= 1
            has[c] ^= hit
            colors[order[p]] = c
            if rec(uncolored, max(used, c + 1)):
                return True
            has[c] ^= hit
            bucket[:] = saved
        bucket[s] |= low
        free = spent - entry - (charged - charged_at_entry)
        if free >= REFUTE_MIN_NODES:
            charged += free
            refuted.setdefault(state, set()).add(state_key(state, used))
        return False

    return rec(everyone, 0), spent


def chromatic_number(graph: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> tuple:
    """Exact chi and a proper coloring using chi colors.

    Iterative deepening from a greedy clique lower bound; the first color
    count that admits a proper coloring is returned together with its
    witness.  The count needs no upper bound: at max degree + 1 every
    vertex peels, so that k always succeeds.  The search nodes of all
    color counts tried together are bounded by caps.max_search_nodes.
    """
    if graph.n == 0:
        raise ValueError("empty graph has no chromatic number")
    caps.check("max_vertices", graph.n)
    if not any(graph.adj_bits):
        return 1, [0] * graph.n
    spent = 0
    for k in count(max(2, greedy_clique_lower_bound(graph))):
        witness, spent = _k_coloring(graph, k, caps, spent)
        if witness is not None:
            return k, witness


def is_proper_coloring(graph: Graph, colors: Iterable) -> bool:
    cl = list(colors)
    return all(cl[i] != cl[j] for (i, j) in graph.edges())


# ---------------------------------------------------------------------------
# fractional chromatic number
# ---------------------------------------------------------------------------


def maximal_sets_bits(graph: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> list:
    """Maximal independent sets of an explicit graph, as vertex bitmasks."""
    caps.check("max_vertices", graph.n)
    return bron_kerbosch_maximal_sets(graph.adj_bits)


def fractional_chromatic_number(
    graph: Graph,
    caps: EnumerationCaps = DEFAULT_CAPS,
    include_chi: bool = True,
) -> ChiReport:
    """Exact chi_f with feasible primal and dual certificates of equal value.

    With include_chi the integral solver also runs and the report carries a
    proper coloring; skip it for graphs where only the relaxation matters.
    """
    if graph.n == 0:
        raise ValueError("empty graph has no fractional chromatic number")
    sol = solve_covering_lp(graph.n, maximal_sets_bits(graph, caps))
    primal = FractionalColoring(
        sets=[mask for mask, _ in sol.primal], weights=[w for _, w in sol.primal]
    )
    dual = DualWitness(weights={v: y for v, y in enumerate(sol.dual) if y != ZERO})
    report = ChiReport(chi_f=sol.value, primal=primal, dual=dual)
    if include_chi:
        report.chi, report.coloring = chromatic_number(graph, caps)
    _verify_report(graph, report)
    return report


def _verify_report(graph: Graph, report: ChiReport) -> None:
    """The one exact check of a chi_f report; any failure is a solver bug."""
    if not verify_primal(graph.n, report.primal):
        raise RuntimeError("primal certificate infeasible; solver bug")
    for s in report.primal.sets:
        if any(graph.adj_bits[v] & s for v in bit_indices(s)):
            raise RuntimeError("primal set not independent; solver bug")
    if not verify_dual(graph, report.dual):
        raise RuntimeError("dual certificate infeasible; solver bug")
    if report.primal.value != report.chi_f or report.dual.value != report.chi_f:
        raise RuntimeError("certificate values disagree; solver bug")
    if report.chi is not None:
        if report.chi_f > report.chi:
            raise RuntimeError("chi_f exceeded chi; solver bug")
        if len(report.coloring) != graph.n or any(
            c not in range(report.chi) for c in report.coloring
        ):
            raise RuntimeError("coloring witness uses colors outside range(chi); solver bug")
        if not is_proper_coloring(graph, report.coloring):
            raise RuntimeError("coloring witness improper; solver bug")


def verify_primal(num_vertices: int, primal: FractionalColoring) -> bool:
    """Feasibility of a fractional coloring: cover >= 1 at every vertex.

    A set naming a vertex outside [num_vertices] makes the coloring infeasible.
    """
    if any(w < 0 for w in primal.weights) or any(s >> num_vertices for s in primal.sets):
        return False
    cover = [ZERO] * num_vertices
    for s, w in zip(primal.sets, primal.weights):
        for v in bit_indices(s):
            cover[v] += w
    return all(c >= ONE for c in cover)


def verify_dual(graph: Graph, dual: DualWitness) -> bool:
    """Feasibility of a dual witness on the graph: mass <= 1 on every independent set.

    The weights must be nonnegative and name vertices of the graph; the mass
    bound is checked by `max_mass` on the positive-weight vertices.
    """
    if any(w < 0 for w in dual.weights.values()) or any(
        v not in range(graph.n) for v in dual.weights
    ):
        return False
    return max_mass(graph, dual.weights) <= ONE


def max_mass(graph: Graph, weights: dict) -> Fraction:
    """Largest total of nonnegative vertex weights on an independent set; 0 if none.

    Only vertices of positive weight add mass, so the maximum is taken over
    the maximal independent sets of the subgraph they induce.  Each of those
    extends to a maximal set of the graph that meets the support in exactly
    that set, so there are never more of them than maximal sets of the graph.
    Raises ValueError if a weight names a vertex outside range(graph.n).
    """
    if any(v not in range(graph.n) for v in weights):
        raise ValueError("weights name a vertex outside the graph")
    support = [v for v in sorted(weights) if weights[v] > 0]
    bits = sum(1 << v for v in support)
    pos = {v: i for i, v in enumerate(support)}
    sub_adj = [sum(1 << pos[w] for w in bit_indices(graph.adj_bits[v] & bits)) for v in support]
    return max(
        (
            sum((weights[support[i]] for i in bit_indices(s)), ZERO)
            for s in bron_kerbosch_maximal_sets(sub_adj)
        ),
        default=ZERO,
    )


def evaluate_dual_witness(graph: Graph, mu: dict) -> Fraction:
    """Certified lower bound on chi_f from a vertex distribution.

    mu must sum to exactly 1 over vertices of the graph; the bound is the
    reciprocal of the largest mass any independent set receives.
    """
    total = sum((Fraction(w) for w in mu.values()), ZERO)
    if total != ONE:
        raise ValueError(f"distribution must sum to 1, got {total}")
    if any(w < 0 for w in mu.values()):
        raise ValueError("distribution has negative mass")
    best = max_mass(graph, mu)
    if best == ZERO:
        raise RuntimeError("no independent set carries mass; impossible for mu summing to 1")
    return ONE / best


# ---------------------------------------------------------------------------
# product certificates
# ---------------------------------------------------------------------------


def compose_product_primal(
    x1: FractionalColoring, x2: FractionalColoring, n1: int, n2: int
) -> FractionalColoring:
    """Product coloring: weight of I1 x I2 is the product of weights."""
    if not verify_primal(n1, x1) or not verify_primal(n2, x2):
        raise ValueError("input fractional coloring is infeasible")
    sets = []
    weights = []
    for s1, w1 in zip(x1.sets, x1.weights):
        for s2, w2 in zip(x2.sets, x2.weights):
            sets.append(product_set(s1, s2, n2))
            weights.append(w1 * w2)
    return FractionalColoring(sets=sets, weights=weights)


def compose_product_dual(y1: DualWitness, y2: DualWitness, n2: int) -> DualWitness:
    """Product witness: weight of (u1, u2) is the product of weights.

    Feasibility needs the factor witnesses to be feasible; n2 is the size of
    the right factor, which fixes the product's vertex indexing.
    """
    if any(w < 0 for w in y1.weights.values()) or any(w < 0 for w in y2.weights.values()):
        raise ValueError("input dual witness has negative weights")
    weights = {}
    for u1, w1 in y1.weights.items():
        for u2, w2 in y2.weights.items():
            if w1 * w2 != ZERO:
                weights[product_index(u1, u2, n2)] = w1 * w2
    return DualWitness(weights=weights)


def product_multiplicativity_certificates(
    g1: Graph, g2: Graph, caps: EnumerationCaps = DEFAULT_CAPS
) -> tuple:
    """Prove chi_f(G1 v G2) = chi_f(G1) * chi_f(G2) by certificate squeeze.

    Solves each factor exactly and composes the certificates into a report
    of value chi_f(G1) * chi_f(G2).  `_verify_report` then checks it on the
    or-product graph like any other report: every composed set independent
    and covering, the dual's mass at most 1 on every independent set of the
    subgraph its positive-weight vertices induce, and both values equal.
    Matching values squeeze chi_f of the product to exactly the product of
    the factor values.  The product is built first, so its vertex count
    meets `max_vertices` before any LP runs.
    Returns (product_value, composed_primal, composed_dual).
    """
    product = or_product(g1, g2, caps)
    r1 = fractional_chromatic_number(g1, caps, include_chi=False)
    r2 = fractional_chromatic_number(g2, caps, include_chi=False)
    report = ChiReport(
        chi_f=r1.chi_f * r2.chi_f,
        primal=compose_product_primal(r1.primal, r2.primal, g1.n, g2.n),
        dual=compose_product_dual(r1.dual, r2.dual, g2.n),
    )
    _verify_report(product, report)
    return report.chi_f, report.primal, report.dual
