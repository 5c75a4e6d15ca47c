from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mmphf_lab import coloring, graphs
from mmphf_lab.caps import EnumerationCaps
from mmphf_lab.coloring import (
    DualWitness,
    chromatic_number,
    compose_product_dual,
    compose_product_primal,
    evaluate_dual_witness,
    fractional_chromatic_number,
    greedy_clique_lower_bound,
    is_proper_coloring,
    max_mass,
    maximal_sets_bits,
    product_multiplicativity_certificates,
    verify_dual,
    verify_primal,
)
from mmphf_lab.graphs import (
    ConflictSpec,
    ShiftSpec,
    bit_indices,
    build_graph,
    explicit_graph,
    or_product,
)
from mmphf_lab.errors import EnumerationCapExceeded
from mmphf_lab.rng import BitSampler

from oracles import (
    brute_lp_chi_f,
    first_fit_coloring,
    is_acyclic,
    is_bipartite,
    networkx_maximal_independent_sets,
    reference_k_colorable,
    reference_max_mass,
    shift_graph_coloring,
)
from test_acceptance import product_pool


def complete(n):
    return explicit_graph(range(n), combinations(range(n), 2))


def cycle(n):
    return explicit_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def k_colorable(graph, k):
    """A k-coloring or None, from the search `chromatic_number` runs at each k."""
    return coloring._k_coloring(graph, k, 0)[0]


def sets_of(graph):
    return [
        frozenset(i for i in range(graph.n) if mask >> i & 1)
        for mask in maximal_sets_bits(graph)
    ]


class TestChromaticNumber:
    def test_k4(self):
        chi, wit = chromatic_number(complete(4))
        assert chi == 4 and is_proper_coloring(complete(4), wit)

    def test_c5(self):
        chi, wit = chromatic_number(cycle(5))
        assert chi == 3 and is_proper_coloring(cycle(5), wit)

    def test_conflict_2_4_bipartite(self):
        g = build_graph(ConflictSpec(2, 4))
        # oracle: the 4-edge graph is acyclic, hence bipartite with edges
        assert is_acyclic(g.n, g.edges()) and is_bipartite(g.n, g.edges())
        chi, wit = chromatic_number(g)
        assert chi == 2 and is_proper_coloring(g, wit)

    def test_exhaustion_certificate(self):
        for g in (complete(5), cycle(7), build_graph(ConflictSpec(2, 6))):
            chi, wit = chromatic_number(g)
            assert is_proper_coloring(g, wit)
            assert k_colorable(g, chi - 1) is None

    def test_edgeless(self):
        g = explicit_graph(range(3), [])
        assert chromatic_number(g) == (1, [0, 0, 0])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            chromatic_number(explicit_graph([], []))

    def test_deterministic(self):
        g = build_graph(ConflictSpec(2, 6))
        assert chromatic_number(g) == chromatic_number(g)

    def test_clique_bound(self):
        assert greedy_clique_lower_bound(complete(6)) == 6
        assert greedy_clique_lower_bound(cycle(5)) == 2

    @pytest.mark.parametrize("u", range(2, 13))
    def test_shift_2_against_erdos_hajnal(self, u):
        g = build_graph(ShiftSpec(2, u))
        assert g.vertices == list(combinations(range(1, u + 1), 2))
        colors = shift_graph_coloring(g.vertices)
        color_of = dict(zip(g.vertices, colors))
        # proper on the shift edges (a, b) ~ (b, c) counted from first principles
        for a, b, c in combinations(range(1, u + 1), 3):
            assert color_of[a, b] != color_of[b, c]
        ceil_log2_u = (u - 1).bit_length()
        assert is_proper_coloring(g, colors) and len(set(colors)) == ceil_log2_u
        assert chromatic_number(g)[0] == ceil_log2_u


def assert_matches_reference(g):
    """k_colorable equals the reference DSATUR for every k between the bounds."""
    lo = greedy_clique_lower_bound(g)
    hi = max(first_fit_coloring(g)) + 1
    for k in range(lo, hi + 1):
        assert k_colorable(g, k) == reference_k_colorable(g, k), k


def reference_chromatic_number(g):
    for k in range(max(2, greedy_clique_lower_bound(g)), max(first_fit_coloring(g)) + 2):
        witness = reference_k_colorable(g, k)
        if witness is not None:
            return k, witness


# search nodes chromatic_number spends on shift(2,15), the benchmark's chi input;
# the search without recorded refutations spends 47,335
SHIFT_2_15_NODES = 17430
SHIFT_2_15_PLAIN_NODES = 47335


class TestBucketDsatur:
    """The bucketed search finds the colouring the plain DSATUR finds."""

    @pytest.mark.parametrize(
        "spec",
        [ShiftSpec(2, u) for u in range(3, 15)]
        + [ConflictSpec(2, M) for M in range(4, 9)]
        + [ConflictSpec(3, M, offset) for M in range(3, 9) for offset in (4, 17)],
        ids=repr,
    )
    def test_matches_reference(self, spec):
        assert_matches_reference(build_graph(spec))

    def test_c5_or_c5_matches_reference(self):
        assert_matches_reference(or_product(cycle(5), cycle(5)))

    def test_shift_2_15_matches_reference(self):
        g = build_graph(ShiftSpec(2, 15))
        assert chromatic_number(g) == reference_chromatic_number(g)

    def test_node_cap_on_shift_2_15(self, monkeypatch):
        g = build_graph(ShiftSpec(2, 15))
        monkeypatch.setattr(coloring, "MAX_SEARCH_NODES", SHIFT_2_15_NODES)
        chi, _ = chromatic_number(g)
        assert chi == 4
        monkeypatch.setattr(coloring, "MAX_SEARCH_NODES", SHIFT_2_15_NODES - 1)
        with pytest.raises(EnumerationCapExceeded) as exc:
            chromatic_number(g)
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == (
            "max_search_nodes", SHIFT_2_15_NODES, SHIFT_2_15_NODES - 1,
        )


def plain_search(monkeypatch):
    """Make the search record no refutation, as it was before it recorded any."""
    monkeypatch.setattr(coloring, "REFUTE_MIN_NODES", 1 << 62)


def keep_refuted(monkeypatch):
    """The `refuted` dicts of every `_color_core` call from now on, as a list."""
    kept = []
    real = coloring._color_core

    def keeping(*args):
        kept.append(args[-1])
        return real(*args)

    monkeypatch.setattr(coloring, "_color_core", keeping)
    return kept


def stored(kept):
    return sum(len(keys) for refuted in kept for keys in refuted.values())


def random_graph(seed):
    """A seeded graph on 20 to 45 vertices with edge density 0.2 to 0.7."""
    rng = BitSampler(seed)
    n = 20 + rng.choice_index(26)
    tenths = 2 + rng.choice_index(6)
    return explicit_graph(
        range(n), [e for e in combinations(range(n), 2) if rng.choice_index(10) < tenths]
    )


class TestRefutedStates:
    """Recorded refutations save search nodes and change no colouring."""

    @staticmethod
    def states_stored(monkeypatch, g):
        """States the search on g stores; its colouring must be the plain search's."""
        with monkeypatch.context() as mp:
            kept = keep_refuted(mp)
            found = chromatic_number(g)
        with monkeypatch.context() as mp:
            plain_search(mp)
            assert chromatic_number(g) == found
        return stored(kept)

    @pytest.mark.parametrize(
        "spec",
        [ShiftSpec(2, u) for u in range(9, 17)]
        + [ConflictSpec(3, M, offset) for M in (9, 10) for offset in (0, 4, 17)]
        + [ConflictSpec(4, 9, 7)],
        ids=repr,
    )
    def test_tuple_families(self, monkeypatch, spec):
        assert self.states_stored(monkeypatch, build_graph(spec)) > 0

    def test_c5_or_c5(self, monkeypatch):
        assert self.states_stored(monkeypatch, or_product(cycle(5), cycle(5))) > 0

    def test_random_graphs(self, monkeypatch):
        used = [
            self.states_stored(monkeypatch, random_graph(seed)) > 0
            for seed in range(40)
        ]
        assert sum(used) >= 10

    def test_shift_2_16_matches_reference(self):
        g = build_graph(ShiftSpec(2, 16))
        assert chromatic_number(g) == reference_chromatic_number(g)

    def test_plain_search_spends_more_nodes_on_shift_2_15(self, monkeypatch):
        plain_search(monkeypatch)
        g = build_graph(ShiftSpec(2, 15))
        monkeypatch.setattr(coloring, "MAX_SEARCH_NODES", SHIFT_2_15_PLAIN_NODES)
        assert chromatic_number(g)[0] == 4
        monkeypatch.setattr(coloring, "MAX_SEARCH_NODES", SHIFT_2_15_PLAIN_NODES - 1)
        with pytest.raises(EnumerationCapExceeded) as exc:
            chromatic_number(g)
        assert exc.value.required == SHIFT_2_15_PLAIN_NODES > SHIFT_2_15_NODES

    @pytest.mark.parametrize("limit", [SHIFT_2_15_NODES, 5000, 640])
    def test_stored_states_bounded(self, monkeypatch, limit):
        kept = keep_refuted(monkeypatch)
        monkeypatch.setattr(coloring, "MAX_SEARCH_NODES", limit)
        g = build_graph(ShiftSpec(2, 15))
        try:
            chromatic_number(g)
        except EnumerationCapExceeded:
            assert limit < SHIFT_2_15_NODES
        assert 0 < stored(kept) <= limit // coloring.REFUTE_MIN_NODES


class TestFractionalChromaticNumber:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graphs(self, n):
        rep = fractional_chromatic_number(complete(n))
        assert rep.chi_f == n and rep.chi == n

    def test_c5_against_brute_oracle(self):
        g = cycle(5)
        oracle = brute_lp_chi_f(g.n, sets_of(g))
        assert oracle == Fraction(5, 2)
        rep = fractional_chromatic_number(g)
        assert rep.chi_f == oracle == Fraction(5, 2)
        assert rep.chi == 3

    def test_conflict_2_4_against_brute_oracle(self):
        g = build_graph(ConflictSpec(2, 4))
        oracle = brute_lp_chi_f(g.n, sets_of(g))
        rep = fractional_chromatic_number(g)
        assert rep.chi_f == oracle == 2
        assert rep.chi == 2

    def test_certificates_verify_and_match(self):
        for g in (cycle(5), cycle(7), complete(4), build_graph(ConflictSpec(2, 5))):
            rep = fractional_chromatic_number(g)
            assert verify_primal(g.n, rep.primal)
            assert verify_dual(g, rep.dual)
            assert rep.primal.value == rep.dual.value == rep.chi_f
            assert rep.chi_f <= rep.chi
            for s in rep.primal.sets:
                members = bit_indices(s)
                for a in range(len(members)):
                    for b in range(a + 1, len(members)):
                        assert not g.has_edge(members[a], members[b])

    def test_edgeless(self):
        g = explicit_graph(range(4), [])
        rep = fractional_chromatic_number(g)
        assert rep.chi_f == 1 and rep.chi == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fractional_chromatic_number(explicit_graph([], []))

    def test_json_serialization(self):
        rep = fractional_chromatic_number(cycle(5))
        data = rep.to_json_dict()
        assert data["chi_f"] == "5/2"
        assert data["chi"] == 3
        assert all(isinstance(w, str) and "/" in w for w in data["primal"]["weights"])


class TestOneVerifier:
    """fractional_chromatic_number checks whatever the LP solver returns."""

    @staticmethod
    def solve_with(monkeypatch, g, corrupt):
        real = coloring.solve_covering_lp

        def corrupted(num_rows, columns):
            sol = real(num_rows, columns)
            corrupt(g, sol)
            return sol

        monkeypatch.setattr(coloring, "solve_covering_lp", corrupted)
        return fractional_chromatic_number(g)

    def test_primal_set_gaining_a_neighbour_is_rejected(self, monkeypatch):
        def add_neighbour(g, sol):
            mask, w = sol.primal[0]
            v = (mask & -mask).bit_length() - 1
            nbrs = g.adj_bits[v]
            sol.primal[0] = (mask | (nbrs & -nbrs), w)

        with pytest.raises(RuntimeError, match="not independent"):
            self.solve_with(monkeypatch, cycle(5), add_neighbour)

    def test_raised_dual_weight_is_rejected(self, monkeypatch):
        def raise_dual(g, sol):
            sol.dual[0] += Fraction(1, 2)

        with pytest.raises(RuntimeError, match="dual"):
            self.solve_with(monkeypatch, cycle(5), raise_dual)

    def test_dependent_product_set_is_rejected(self, monkeypatch):
        # the widened set still covers every vertex with its weight, but it
        # contains edges of K2 v K2
        real = coloring.compose_product_primal

        def widened(x1, x2, n1, n2):
            x = real(x1, x2, n1, n2)
            x.sets[0] = (1 << n1 * n2) - 1
            return x

        monkeypatch.setattr(coloring, "compose_product_primal", widened)
        with pytest.raises(RuntimeError, match="not independent"):
            product_multiplicativity_certificates(complete(2), complete(2))

    def test_product_over_the_vertex_cap_is_refused(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            product_multiplicativity_certificates(
                cycle(5), cycle(5), EnumerationCaps(max_vertices=24)
            )
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == (
            "max_vertices", 25, 24
        )

    def test_dropped_column_is_rejected(self, monkeypatch):
        # without its last maximal set the LP of C5 has value 3, and its dual
        # puts mass above 1 on the missing set
        real = coloring.maximal_sets_bits
        monkeypatch.setattr(coloring, "maximal_sets_bits", lambda g, caps: real(g, caps)[:-1])
        with pytest.raises(RuntimeError, match="dual"):
            fractional_chromatic_number(cycle(5))

    def test_witness_with_more_colors_than_chi_is_rejected(self, monkeypatch):
        monkeypatch.setattr(coloring, "chromatic_number", lambda g, caps: (3, [0, 1, 2, 3, 4]))
        with pytest.raises(RuntimeError, match="range\\(chi\\)"):
            fractional_chromatic_number(cycle(5))


class TestDualWitness:
    def test_uniform_on_c5(self):
        mu = {i: Fraction(1, 5) for i in range(5)}
        assert evaluate_dual_witness(cycle(5), mu) == Fraction(5, 2)

    def test_uniform_on_k3(self):
        mu = {i: Fraction(1, 3) for i in range(3)}
        assert evaluate_dual_witness(complete(3), mu) == 3

    def test_point_mass(self):
        mu = {2: Fraction(1)}
        assert evaluate_dual_witness(cycle(5), mu) == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dual_witness(cycle(5), {0: Fraction(1, 2)})

    @pytest.mark.parametrize("outside", [5, -1])
    def test_mass_off_the_graph_rejected(self, outside):
        # half of mu off K1 would otherwise certify chi_f(K1) >= 2
        with pytest.raises(ValueError, match="outside"):
            evaluate_dual_witness(complete(1), {0: Fraction(1, 2), outside: Fraction(1, 2)})

    @pytest.mark.parametrize(
        "weights", [{0: 1, 1: 1, 2: 1}, {0: 1, -1: 1}, {0: 1, 2: 0}]
    )
    def test_dual_weight_off_the_graph_is_infeasible(self, weights):
        # {0: 1, 1: 1, 2: 1} would otherwise certify chi_f(K2) >= 3
        dual = DualWitness(weights={v: Fraction(w) for v, w in weights.items()})
        assert not verify_dual(complete(2), dual)

    @pytest.mark.parametrize(
        "make", [lambda: cycle(5), lambda: complete(4), lambda: build_graph(ConflictSpec(2, 5))]
    )
    def test_random_distributions_bounded_by_chi_f(self, make):
        g = make()
        rep = fractional_chromatic_number(g, include_chi=False)
        rng = BitSampler(12345)
        for _ in range(100):
            raw = [Fraction(1 + rng.choice_index(20)) for _ in range(g.n)]
            total = sum(raw)
            mu = {v: w / total for v, w in enumerate(raw)}
            assert evaluate_dual_witness(g, mu) <= rep.chi_f

    def test_optimal_dual_distribution_attains_chi_f(self):
        for g in (cycle(5), cycle(7), complete(4), build_graph(ConflictSpec(2, 5))):
            rep = fractional_chromatic_number(g, include_chi=False)
            total = rep.dual.value
            assert total > 0
            mu = {v: w / total for v, w in rep.dual.weights.items()}
            assert evaluate_dual_witness(g, mu) == rep.chi_f


class TestProductCertificates:
    def test_k3_k2_composed_value(self):
        r1 = fractional_chromatic_number(complete(3), include_chi=False)
        r2 = fractional_chromatic_number(complete(2), include_chi=False)
        x = compose_product_primal(r1.primal, r2.primal, 3, 2)
        assert x.value == 6
        y = compose_product_dual(r1.dual, r2.dual, 2)
        assert y.value == 6
        # K3 v K2 is K6: composed certificates are feasible there
        g = or_product(complete(3), complete(2))
        assert verify_primal(g.n, x)
        assert verify_dual(g, y)

    def test_unit_coloring_of_edgeless_product(self):
        r1 = fractional_chromatic_number(explicit_graph(range(2), []), include_chi=False)
        r2 = fractional_chromatic_number(explicit_graph(range(3), []), include_chi=False)
        x = compose_product_primal(r1.primal, r2.primal, 2, 3)
        assert x.value == 1

    def test_c5_k2_composed_primal_feasible(self):
        r1 = fractional_chromatic_number(cycle(5), include_chi=False)
        r2 = fractional_chromatic_number(complete(2), include_chi=False)
        x = compose_product_primal(r1.primal, r2.primal, 5, 2)
        assert x.value == 5
        g = or_product(cycle(5), complete(2))
        assert verify_primal(g.n, x)

    def test_single_unit_vertex_dual(self):
        y1 = DualWitness(weights={0: Fraction(1)})
        r2 = fractional_chromatic_number(cycle(5), include_chi=False)
        y = compose_product_dual(y1, r2.dual, 5)
        g = or_product(complete(2), cycle(5))
        assert verify_dual(g, y)

    def test_c5_c5_product_witness_matches_direct_lp(self):
        val, primal, dual = product_multiplicativity_certificates(cycle(5), cycle(5))
        assert val == Fraction(25, 4)
        direct = fractional_chromatic_number(or_product(cycle(5), cycle(5)), include_chi=False)
        assert direct.chi_f == Fraction(25, 4)

    def test_multiplicativity_on_named_pairs(self):
        graphs_ = {
            "K2": complete(2),
            "K3": complete(3),
            "C5": cycle(5),
            "conflict(2,4)": build_graph(ConflictSpec(2, 4)),
        }
        values = {
            name: fractional_chromatic_number(g, include_chi=False).chi_f
            for name, g in graphs_.items()
        }
        for n1, g1 in graphs_.items():
            for n2, g2 in graphs_.items():
                val, _, _ = product_multiplicativity_certificates(g1, g2)
                assert val == values[n1] * values[n2]

    def test_infeasible_input_rejected(self):
        from mmphf_lab.coloring import FractionalColoring

        bad = FractionalColoring(sets=[0b1], weights=[Fraction(1, 2)])
        good = fractional_chromatic_number(complete(2), include_chi=False).primal
        with pytest.raises(ValueError):
            compose_product_primal(bad, good, 1, 2)

    def test_set_outside_the_vertex_range_is_infeasible(self):
        from mmphf_lab.coloring import FractionalColoring

        assert not verify_primal(2, FractionalColoring(sets=[0b111], weights=[Fraction(1)]))

    def test_too_small_factor_size_rejected(self):
        k3 = fractional_chromatic_number(complete(3), include_chi=False).primal
        k2 = fractional_chromatic_number(complete(2), include_chi=False).primal
        with pytest.raises(ValueError, match="infeasible"):
            compose_product_primal(k3, k2, 2, 2)


def random_weights(n, rng):
    """Nonnegative Fraction weights on range(n), zero on about 4 in 9."""
    return {v: Fraction(max(0, rng.choice_index(9) - 4), 1 + rng.choice_index(6)) for v in range(n)}


class TestColumnCap:
    """`MAX_COLUMNS` stops both lists of maximal sets as they are produced."""

    def test_lp_columns(self, monkeypatch):
        # C5 has five maximal independent sets
        monkeypatch.setattr(graphs, "MAX_COLUMNS", 5)
        assert len(maximal_sets_bits(cycle(5))) == 5
        monkeypatch.setattr(graphs, "MAX_COLUMNS", 4)
        with pytest.raises(EnumerationCapExceeded) as exc:
            fractional_chromatic_number(cycle(5))
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == ("max_columns", 5, 4)

    def test_dual_support(self, monkeypatch):
        uniform = {v: Fraction(1, 5) for v in range(5)}
        monkeypatch.setattr(graphs, "MAX_COLUMNS", 5)
        assert max_mass(cycle(5), uniform) == Fraction(2, 5)
        monkeypatch.setattr(graphs, "MAX_COLUMNS", 4)
        with pytest.raises(EnumerationCapExceeded, match="max_columns"):
            max_mass(cycle(5), uniform)


class TestMaxMass:
    """max_mass over the support against the old sum over every maximal set."""

    @staticmethod
    def assert_matches_reference(g, draws=4, seed=7):
        rng = BitSampler(seed)
        assert max_mass(g, {}) == 0
        for _ in range(draws):
            weights = random_weights(g.n, rng)
            assert max_mass(g, weights) == reference_max_mass(g, weights)

    @pytest.mark.parametrize("u", range(3, 11))
    def test_shift(self, u):
        self.assert_matches_reference(build_graph(ShiftSpec(2, u)))

    @pytest.mark.parametrize("m,M", [(2, M) for M in range(4, 9)] + [(3, M) for M in range(3, 7)])
    def test_conflict(self, m, M):
        self.assert_matches_reference(build_graph(ConflictSpec(m, M)))

    def test_c5_c5(self):
        self.assert_matches_reference(or_product(cycle(5), cycle(5)))

    def test_product_pool(self):
        pool = product_pool()
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                g = or_product(pool[i], pool[j])
                self.assert_matches_reference(g, draws=2, seed=i * 16 + j)


@st.composite
def random_graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_chi_f_matches_highs(graph):
    """Exact chi_f against HiGHS over networkx's maximal independent sets."""
    from scipy.optimize import linprog

    n, edges = graph
    sets = sorted(networkx_maximal_independent_sets(n, edges), key=sorted)
    cover = [[-1 if v in s else 0 for s in sets] for v in range(n)]
    res = linprog([1] * len(sets), A_ub=cover, b_ub=[-1] * n, bounds=(0, None), method="highs")
    assert res.status == 0
    chi_f = fractional_chromatic_number(explicit_graph(range(n), edges), include_chi=False).chi_f
    assert abs(chi_f - res.fun) <= 1e-9


@given(random_graphs(max_n=14))
@settings(max_examples=80, deadline=None)
def test_k_colorable_matches_reference_on_random_graphs(graph):
    n, edges = graph
    assert_matches_reference(explicit_graph(range(n), edges))


@given(
    random_graphs(max_n=12),
    st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6), min_size=12, max_size=12),
)
@settings(max_examples=80, deadline=None)
def test_max_mass_matches_reference_on_random_graphs(graph, values):
    n, edges = graph
    g = explicit_graph(range(n), edges)
    weights = dict(zip(range(n), values))
    assert max_mass(g, weights) == reference_max_mass(g, weights)
