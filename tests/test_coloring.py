from fractions import Fraction
from itertools import combinations

import pytest

from mmphf_lab import coloring
from mmphf_lab.coloring import (
    DualWitness,
    chromatic_number,
    compose_product_dual,
    compose_product_primal,
    evaluate_dual_witness,
    fractional_chromatic_number,
    greedy_clique_lower_bound,
    is_proper_coloring,
    k_colorable,
    maximal_sets_bits,
    product_multiplicativity_certificates,
    verify_dual,
    verify_primal,
)
from mmphf_lab.graphs import (
    ConflictSpec,
    ExplicitSpec,
    build_graph,
    explicit_graph,
    product,
    product_maximal_sets_bits,
)
from mmphf_lab.rng import BitSampler

from oracles import brute_lp_chi_f, is_acyclic, is_bipartite


def complete(n):
    return explicit_graph(range(n), combinations(range(n), 2))


def cycle(n):
    return explicit_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


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
        assert is_acyclic(g.n, g.edges) and is_bipartite(g.n, g.edges)
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
            assert verify_dual(maximal_sets_bits(g), rep.dual)
            assert rep.primal.value == rep.dual.value == rep.chi_f
            assert rep.chi_f <= rep.chi
            for s in rep.primal.sets:
                members = sorted(s)
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
            x.sets[0] = frozenset(range(n1 * n2))
            return x

        monkeypatch.setattr(coloring, "compose_product_primal", widened)
        with pytest.raises(RuntimeError, match="not independent"):
            product_multiplicativity_certificates(complete(2), complete(2))

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
            mu = rep.dual.as_distribution()
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
        g = build_graph(product(_k_spec(3), _k_spec(2)))
        assert verify_primal(g.n, x)
        assert verify_dual(maximal_sets_bits(g), y)

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
        g = build_graph(product(_c5_spec(), _k_spec(2)))
        assert verify_primal(g.n, x)

    def test_single_unit_vertex_dual(self):
        y1 = DualWitness(weights={0: Fraction(1)})
        r2 = fractional_chromatic_number(cycle(5), include_chi=False)
        y = compose_product_dual(y1, r2.dual, 5)
        g = build_graph(product(ExplicitSpec((0, 1), ((0, 1),)), _c5_spec()))
        assert verify_dual(maximal_sets_bits(g), y)

    def test_c5_c5_product_witness_matches_direct_lp(self):
        val, primal, dual = product_multiplicativity_certificates(cycle(5), cycle(5))
        assert val == Fraction(25, 4)
        direct = fractional_chromatic_number(
            build_graph(product(_c5_spec(), _c5_spec())), include_chi=False
        )
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

        bad = FractionalColoring(sets=[frozenset({0})], weights=[Fraction(1, 2)])
        good = fractional_chromatic_number(complete(2), include_chi=False).primal
        with pytest.raises(ValueError):
            compose_product_primal(bad, good, 1, 2)


def _k_spec(n):
    return ExplicitSpec(
        tuple(range(n)), tuple((i, j) for i in range(n) for j in range(i + 1, n))
    )


def _c5_spec():
    return ExplicitSpec(tuple(range(5)), tuple((i, (i + 1) % 5) for i in range(5)))


class TestProductMaximalSetsHelper:
    def test_matches_direct_enumeration(self):
        g1, g2 = cycle(5), complete(3)
        composed = set(
            product_maximal_sets_bits(maximal_sets_bits(g1), maximal_sets_bits(g2), g2.n)
        )
        direct = set(maximal_sets_bits(build_graph(product(_c5_spec(), _k_spec(3)))))
        assert composed == direct
