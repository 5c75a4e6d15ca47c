"""Exact chromatic and fractional chromatic numbers with certificates.

The fractional chromatic number is the optimum of the covering LP over
independent sets; it is solved here in exact rational arithmetic with the
maximal independent sets as columns, so the primal weighting, the dual
vertex prices and the optimal value agree as Fraction equalities (strong
duality, no floating point anywhere).  `fractional_chromatic_number`
checks every report it returns once, in `_verify_report`: independent,
covering primal sets, a dual feasible on every maximal set, equal values,
and chi_f <= chi with a proper coloring whose colors lie in range(chi).
The LP solver checks nothing of its own result.

The integral chromatic number comes from iterative deepening on the color
count; each k-colorability test peels vertices of degree < k (always
extendable afterwards) and then runs saturation-ordered backtracking with
forward checking.  Tie-breaking follows the canonical vertex order, so
results are deterministic.

Dual witnesses double as vertex distributions: a distribution mu
certifies chi_f >= 1 / (max independent-set mass), and the optimal dual
rescaled by its total attains equality.  Certificates of or-products
compose coordinatewise and multiply in value; the composed pair is checked
on the or-product by the same `_verify_report`.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .caps import DEFAULT_CAPS, EnumerationCaps
from .errors import EnumerationCapExceeded
from .graphs import Graph, bit_indices, bron_kerbosch_maximal_sets, or_product
from .graphs import product_index, product_maximal_sets_bits
from .lp import solve_covering_lp
from .serialize import frac_str

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class FractionalColoring:
    """Nonnegative weights on independent sets covering every vertex >= 1."""

    sets: list  # list of frozenset[int] (vertex indices)
    weights: list  # list of Fraction, aligned with sets

    @property
    def value(self) -> Fraction:
        return sum(self.weights, ZERO)

    def to_json_dict(self) -> dict:
        return {
            "sets": [sorted(s) for s in self.sets],
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


def greedy_coloring(graph: Graph) -> list:
    """First-fit coloring in canonical order; an upper bound witness."""
    colors = [-1] * graph.n
    for v in range(graph.n):
        colors[v] = _first_free_color(graph, v, colors)
    return colors


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
    """A proper k-coloring as a list of color ids, or None if none exists."""
    n = graph.n
    if k <= 0:
        return None if n else []
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
    core = [v for v in range(n) if alive >> v & 1]
    if core and not _color_core(graph, core, k, colors):
        return None
    for v in reversed(peel_order):
        # degree < k at peel time guarantees a color below k
        colors[v] = _first_free_color(graph, v, colors)
    return colors


def _color_core(graph: Graph, core: list, k: int, colors: list) -> bool:
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


def chromatic_number(graph: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> tuple:
    """Exact chi and a proper coloring using chi colors.

    Iterative deepening from a greedy clique lower bound; the first color
    count that admits a proper coloring is returned together with its
    witness.
    """
    if graph.n == 0:
        raise ValueError("empty graph has no chromatic number")
    if graph.n > caps.max_vertices:
        raise EnumerationCapExceeded("max_vertices", graph.n, caps.max_vertices)
    if not graph.edges:
        return 1, [0] * graph.n
    lo = max(2, greedy_clique_lower_bound(graph))
    hi = max(greedy_coloring(graph)) + 1
    for k in range(lo, hi + 1):
        witness = k_colorable(graph, k)
        if witness is not None:
            return k, witness
    raise RuntimeError("unreachable: greedy coloring bounds the search")


def is_proper_coloring(graph: Graph, colors: Iterable) -> bool:
    cl = list(colors)
    return all(cl[i] != cl[j] for (i, j) in graph.edges)


# ---------------------------------------------------------------------------
# fractional chromatic number
# ---------------------------------------------------------------------------


def maximal_sets_bits(graph: Graph, caps: EnumerationCaps = DEFAULT_CAPS) -> list:
    """Maximal independent sets of an explicit graph, as vertex bitmasks."""
    if graph.n > caps.max_vertices:
        raise EnumerationCapExceeded("max_vertices", graph.n, caps.max_vertices)
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
    mis = maximal_sets_bits(graph, caps)
    sol = solve_covering_lp(graph.n, mis)
    primal = FractionalColoring(
        sets=[frozenset(bit_indices(mask)) for mask, _ in sol.primal],
        weights=[w for _, w in sol.primal],
    )
    dual = DualWitness(weights={v: y for v, y in enumerate(sol.dual) if y != ZERO})
    report = ChiReport(chi_f=sol.value, primal=primal, dual=dual)
    if include_chi:
        report.chi, report.coloring = chromatic_number(graph, caps)
    _verify_report(graph, mis, report)
    return report


def _verify_report(graph: Graph, mis: list, report: ChiReport) -> None:
    """The one exact check of a chi_f report; any failure is a solver bug."""
    if not verify_primal(graph.n, report.primal):
        raise RuntimeError("primal certificate infeasible; solver bug")
    for s in report.primal.sets:
        mask = sum(1 << v for v in s)
        if any(graph.adj_bits[v] & mask for v in s):
            raise RuntimeError("primal set not independent; solver bug")
    if not verify_dual(mis, report.dual):
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
    """Feasibility of a fractional coloring: cover >= 1 at every vertex."""
    if any(w < 0 for w in primal.weights):
        return False
    cover = [ZERO] * num_vertices
    for s, w in zip(primal.sets, primal.weights):
        for v in s:
            cover[v] += w
    return all(c >= ONE for c in cover)


def verify_dual(maximal_sets: list, dual: DualWitness) -> bool:
    """Feasibility of a dual witness against the given maximal sets.

    Nonnegative weights whose mass on every maximal independent set is at
    most 1 are feasible on every independent set, since weights only drop
    when a set shrinks.
    """
    if any(w < 0 for w in dual.weights.values()):
        return False
    for mask in maximal_sets:
        s = sum((dual.weights.get(v, ZERO) for v in bit_indices(mask)), ZERO)
        if s > ONE:
            return False
    return True


def evaluate_dual_witness(
    graph: Graph, mu: dict, caps: EnumerationCaps = DEFAULT_CAPS
) -> Fraction:
    """Certified lower bound on chi_f from a vertex distribution.

    mu must sum to exactly 1; the bound is the reciprocal of the largest
    mass any (maximal) independent set receives.
    """
    total = sum((Fraction(w) for w in mu.values()), ZERO)
    if total != ONE:
        raise ValueError(f"distribution must sum to 1, got {total}")
    if any(w < 0 for w in mu.values()):
        raise ValueError("distribution has negative mass")
    best = ZERO
    for mask in maximal_sets_bits(graph, caps):
        mass = sum((mu.get(v, ZERO) for v in bit_indices(mask)), ZERO)
        best = max(best, mass)
    if best == ZERO:
        raise RuntimeError("no maximal set carries mass; impossible for mu summing to 1")
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
            sets.append(frozenset(product_index(a, b, n2) for a in s1 for b in s2))
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
    or-product against the product's maximal sets, like any other report:
    every composed set independent and covering, the dual feasible, and
    both values equal.  Matching values squeeze chi_f of the product to
    exactly the product of the factor values.
    Returns (product_value, composed_primal, composed_dual).
    """
    r1 = fractional_chromatic_number(g1, caps, include_chi=False)
    r2 = fractional_chromatic_number(g2, caps, include_chi=False)
    report = ChiReport(
        chi_f=r1.chi_f * r2.chi_f,
        primal=compose_product_primal(r1.primal, r2.primal, g1.n, g2.n),
        dual=compose_product_dual(r1.dual, r2.dual, g2.n),
    )
    mis = product_maximal_sets_bits(
        maximal_sets_bits(g1, caps), maximal_sets_bits(g2, caps), g2.n
    )
    _verify_report(or_product(g1, g2), mis, report)
    return report.chi_f, report.primal, report.dual
