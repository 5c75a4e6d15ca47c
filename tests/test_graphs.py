import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mmphf_lab.caps import EnumerationCaps
from mmphf_lab.errors import EnumerationCapExceeded, InvalidVertexError
from mmphf_lab.graphs import (
    ConflictSpec,
    ShiftSpec,
    adjacent,
    bron_kerbosch_maximal_sets,
    build_graph,
    explicit_graph,
    independent_set_of,
    is_independent_set,
    iter_label_functions,
    iter_vertices,
    maximal_independent_sets,
    or_product,
    to_dimacs,
    vertex_count,
)

from oracles import (
    count_conflict_edges,
    networkx_maximal_independent_sets,
    reference_adj_bits,
    reference_maximal_independent_sets,
)


def complete(n):
    return explicit_graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def c5():
    return explicit_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])


class TestAdjacency:
    def test_shared_element_different_slots(self):
        spec = ConflictSpec(2, 5)
        assert adjacent(spec, (1, 3), (3, 5))

    def test_shared_element_same_slot(self):
        spec = ConflictSpec(2, 5)
        assert not adjacent(spec, (1, 3), (1, 5))

    def test_disjoint_tuples(self):
        spec = ConflictSpec(2, 4)
        assert not adjacent(spec, (1, 2), (3, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidVertexError):
            adjacent(ConflictSpec(2, 4), (1, 2, 3), (1, 2))

    def test_not_increasing_rejected(self):
        with pytest.raises(InvalidVertexError):
            adjacent(ConflictSpec(2, 4), (3, 2), (1, 2))

    def test_outside_universe_rejected(self):
        with pytest.raises(InvalidVertexError):
            adjacent(ConflictSpec(2, 4, offset=4), (1, 2), (5, 6))

    def test_shift_successor(self):
        spec = ShiftSpec(2, 5)
        assert adjacent(spec, (1, 2), (2, 3))
        assert adjacent(spec, (2, 3), (1, 2))
        assert not adjacent(spec, (1, 2), (3, 4))

    @given(st.integers(2, 3), st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_irreflexive(self, m, i, j):
        spec = ConflictSpec(m, m + 3)
        verts = list(build_graph(spec).vertices)
        v, w = verts[i % len(verts)], verts[j % len(verts)]
        assert adjacent(spec, v, w) == adjacent(spec, w, v)
        assert not adjacent(spec, v, v)


class TestBuildGraph:
    def test_conflict_2_4_counts(self):
        g = build_graph(ConflictSpec(2, 4))
        # oracle: pairwise recount over all 15 pairs
        assert count_conflict_edges(g.vertices) == 4
        assert (g.n, g.edge_count()) == (6, 4)

    def test_shift_2_4_counts(self):
        g = build_graph(ShiftSpec(2, 4))
        assert g.n == 6
        # one edge per increasing triple a < b < c
        triples = [(a, b, c) for a in range(1, 5) for b in range(a + 1, 5) for c in range(b + 1, 5)]
        assert g.edge_count() == len(triples) == 4
        for (a, b, c) in triples:
            i, j = g.index[(a, b)], g.index[(b, c)]
            assert g.has_edge(i, j)

    def test_conflict_m1_edgeless(self):
        g = build_graph(ConflictSpec(1, 5))
        assert (g.n, g.edge_count()) == (5, 0)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            build_graph(ConflictSpec(4, 100))
        assert exc.value.cap_name == "max_vertices"

    def test_build_holds_no_edge_list(self):
        # conflict(6,13): 1,716 vertices and 1,188,577 edges in 0.35 MiB of bitmasks
        tracemalloc.start()
        try:
            g = build_graph(ConflictSpec(6, 13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert g.edge_count() == 1188577

    def test_offset_universe(self):
        g = build_graph(ConflictSpec(2, 3, offset=10))
        assert g.vertices[0] == (11, 12)
        assert g.vertices[-1] == (12, 13)

    @pytest.mark.parametrize(
        "spec",
        [ConflictSpec(m, M, offset) for m in range(1, 5) for M in range(m, 9) for offset in (0, 5)]
        + [ShiftSpec(n, u) for n in range(1, 5) for u in range(n, 11)],
        ids=repr,
    )
    def test_structure_matches_pair_scan(self, spec):
        g = build_graph(spec)
        assert g.vertices == list(iter_vertices(spec))
        assert g.adj_bits == reference_adj_bits(spec)

    def test_adjacency_cap_before_enumeration(self):
        # shift(2,1000) has 499,500 vertices, under max_vertices
        with pytest.raises(EnumerationCapExceeded) as exc:
            build_graph(ShiftSpec(2, 1000))
        assert (exc.value.cap_name, exc.value.required) == ("max_adjacency_bits", 499500**2)
        caps = EnumerationCaps(max_adjacency_bits=35**2)
        assert build_graph(ConflictSpec(3, 7), caps).n == 35
        with pytest.raises(EnumerationCapExceeded) as exc:
            build_graph(ConflictSpec(3, 7), EnumerationCaps(max_adjacency_bits=35**2 - 1))
        assert (exc.value.cap_name, exc.value.required) == ("max_adjacency_bits", 35**2)

    def test_shift_subgraph_of_conflict(self):
        for (n, u) in [(2, 6), (2, 8), (3, 6)]:
            shift = build_graph(ShiftSpec(n, u))
            conflict = ConflictSpec(n, u)
            for (i, j) in shift.edges():
                assert adjacent(conflict, shift.vertices[i], shift.vertices[j])


@st.composite
def vertex_and_edge_lists(draw, labels):
    n = draw(st.integers(1, 5))
    vertices = [f"{labels}{i}" for i in range(n)]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return vertices, edges


class TestProduct:
    @given(vertex_and_edge_lists("a"), vertex_and_edge_lists("b"))
    @settings(max_examples=60, deadline=None)
    def test_or_rule(self, a, b):
        (va, ea), (vb, eb) = a, b

        def edge(edges, x, y):
            return (x, y) in edges or (y, x) in edges

        verts = [(x, y) for x in va for y in vb]
        n = len(verts)
        adj = [
            [i != j and (edge(ea, v[0], w[0]) or edge(eb, v[1], w[1])) for j, w in enumerate(verts)]
            for i, v in enumerate(verts)
        ]
        g = or_product(explicit_graph(va, ea), explicit_graph(vb, eb))
        assert g.vertices == verts
        assert list(g.edges()) == [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i][j]]
        assert g.edge_count() == sum(map(sum, adj)) // 2
        assert g.adj_bits == [sum(1 << j for j in range(n) if adj[i][j]) for i in range(n)]

    def test_k3_k2_is_complete(self):
        g = or_product(complete(3), complete(2))
        assert g.n == 6
        assert g.edge_count() == 15

    def test_identity_factor(self):
        g1 = c5()
        g2 = or_product(g1, explicit_graph(["x"], []))
        assert g2.n == g1.n
        mapped = {(v, "x"): v for v in g1.vertices}
        for (i, j) in g2.edges():
            a, b = g2.vertices[i], g2.vertices[j]
            assert g1.has_edge(g1.index[mapped[a]], g1.index[mapped[b]])
        assert g2.edge_count() == g1.edge_count()

    def test_two_fold_conflict_matches_flat_adjacency(self):
        left, right = ConflictSpec(2, 4), ConflictSpec(2, 4, 4)
        g = or_product(build_graph(left), build_graph(right))
        assert g.n == vertex_count(left) * vertex_count(right) == 36
        flat = ConflictSpec(4, 8)  # concatenated tuples live in [1, 8]
        for i in range(g.n):
            for j in range(i + 1, g.n):
                v, w = g.vertices[i], g.vertices[j]
                assert g.has_edge(i, j) == adjacent(flat, v[0] + v[1], w[0] + w[1])

    def test_vertex_cap_at_the_boundary(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            or_product(c5(), c5(), EnumerationCaps(max_vertices=24))
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == (
            "max_vertices", 25, 24
        )
        assert or_product(c5(), c5(), EnumerationCaps(max_vertices=25)).n == 25

    def test_adjacency_cap_at_the_boundary(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            or_product(c5(), c5(), EnumerationCaps(max_adjacency_bits=624))
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == (
            "max_adjacency_bits", 625, 624
        )
        assert or_product(c5(), c5(), EnumerationCaps(max_adjacency_bits=625)).n == 25

    def test_independent_sets_have_independent_projections(self):
        g1, g2 = c5(), complete(2)
        pg = or_product(g1, g2)
        for mask in bron_kerbosch_maximal_sets(pg.adj_bits):
            members = [pg.vertices[i] for i in _bits(mask)]
            proj1 = {v[0] for v in members}
            proj2 = {v[1] for v in members}
            assert is_independent_set(g1, proj1)
            assert is_independent_set(g2, proj2)

    def test_is_independent_set_members(self):
        g = c5()
        assert is_independent_set(g, [0, 2, 0, 2])
        assert not is_independent_set(g, [0, 2, 3])
        assert is_independent_set(g, [])
        with pytest.raises(KeyError):
            is_independent_set(g, [0, 5])


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestLabelFunctions:
    def test_example_split_labelling(self):
        f = {1: 1, 2: 1, 3: 2, 4: 2}
        iset = independent_set_of(f, ConflictSpec(2, 4))
        assert iset == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

    def test_constant_one_m1(self):
        f = {e: 1 for e in range(1, 6)}
        assert independent_set_of(f, ConflictSpec(1, 5)) == frozenset(
            {(e,) for e in range(1, 6)}
        )

    def test_no_element_for_first_slot(self):
        f = {e: 2 for e in range(1, 5)}
        assert independent_set_of(f, ConflictSpec(2, 4)) == frozenset()

    @pytest.mark.parametrize("m,M", [(2, 4), (2, 6), (2, 8), (3, 4), (3, 5)])
    def test_every_label_set_is_independent(self, m, M):
        spec = ConflictSpec(m, M)
        g = build_graph(spec)
        for f in iter_label_functions(spec.universe, m):
            assert is_independent_set(g, independent_set_of(f, spec))

    def test_callable_label_function(self):
        iset = independent_set_of(lambda e: 1 if e <= 2 else 2, ConflictSpec(2, 4))
        assert iset == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

    def test_label_function_cap(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            list(iter_label_functions(ConflictSpec(2, 30).universe, 2))
        assert exc.value.cap_name == "max_label_functions"


class TestMaximalIndependentSets:
    @pytest.mark.parametrize("m,M", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5)])
    def test_label_route_matches_generic_enumerators(self, m, M):
        spec = ConflictSpec(m, M)
        g = build_graph(spec)
        via_labels = set(maximal_independent_sets(spec))
        via_bk = {
            frozenset(g.vertices[i] for i in _bits(mask))
            for mask in bron_kerbosch_maximal_sets(g.adj_bits)
        }
        via_nx = {
            frozenset(g.vertices[i] for i in s)
            for s in networkx_maximal_independent_sets(g.n, g.edges())
        }
        assert via_labels == via_bk == via_nx

    def test_conflict_3_7_reads_the_built_graph(self, monkeypatch):
        # the vertex cap is checked once, where the graph is built, not per label function
        names = []
        check = EnumerationCaps.check
        monkeypatch.setattr(
            EnumerationCaps, "check",
            lambda caps, name, required: names.append(name) or check(caps, name, required),
        )
        spec = ConflictSpec(3, 7)
        sets = maximal_independent_sets(spec)
        assert names.count("max_vertices") == 1
        monkeypatch.undo()
        assert sets == reference_maximal_independent_sets(spec)

    def test_conflict_1_3_single_set(self):
        sets = maximal_independent_sets(ConflictSpec(1, 3))
        assert sets == [frozenset({(1,), (2,), (3,)})]

    def test_maximality_and_independence(self):
        spec = ConflictSpec(2, 4)
        g = build_graph(spec)
        for iset in maximal_independent_sets(spec):
            assert is_independent_set(g, iset)
            for v in g.vertices:
                if v not in iset:
                    assert any(adjacent(spec, v, w) for w in iset)

    def test_explicit_graph_route(self):
        g = c5()
        sets = {
            frozenset(g.vertices[i] for i in _bits(mask))
            for mask in bron_kerbosch_maximal_sets(g.adj_bits)
        }
        assert sets == {frozenset({i, (i + 2) % 5}) for i in range(5)}


class TestExplicit:
    def test_edge_references_unknown_vertex(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 3\) references unknown vertex$"):
            explicit_graph((1, 2), [(1, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="^self-loops are not allowed$"):
            explicit_graph((1, 2), [(1, 1)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="^duplicate vertices in explicit graph$"):
            explicit_graph((1, 2, 1), [])

    def test_vertex_cap(self):
        with pytest.raises(EnumerationCapExceeded) as exc:
            explicit_graph(range(10**6 + 1), [])
        assert exc.value.cap_name == "max_vertices"

    def test_reversed_and_duplicated_edges(self):
        g = explicit_graph(range(4), [(2, 0), (0, 2), (3, 1), (1, 0), (1, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 3)]

    def test_explicit_graph_builder(self):
        g = explicit_graph("abc", [("a", "b")])
        assert g.n == 3 and g.edge_count() == 1


class TestDimacs:
    def test_format(self):
        g = build_graph(ConflictSpec(2, 4))
        text = to_dimacs(g, comment="demo")
        lines = text.strip().splitlines()
        assert lines[0] == "c demo"
        assert lines[1] == "p edge 6 4"
        assert len(lines) == 2 + 4
        for ln in lines[2:]:
            tag, a, b = ln.split()
            assert tag == "e" and 1 <= int(a) < int(b) <= 6

    def test_complete_graph_past_one_block(self):
        # K_400 has 79,800 edges, more than one block of edge lines
        edges = "".join(f"e {i} {j}\n" for i in range(1, 401) for j in range(i + 1, 401))
        assert to_dimacs(build_graph(ShiftSpec(1, 400))) == "p edge 400 79800\n" + edges


class TestValidation:
    def test_bad_conflict_spec(self):
        with pytest.raises(ValueError):
            ConflictSpec(0, 4)
        with pytest.raises(ValueError):
            ConflictSpec(3, 2)

    def test_caps_validation(self):
        for name in ("max_vertices", "max_label_functions", "max_outcomes", "max_search_nodes",
                     "max_exponent_bits", "max_adjacency_bits"):
            with pytest.raises(ValueError, match=name):
                EnumerationCaps(**{name: 0})

    def test_caps_check(self):
        caps = EnumerationCaps(max_outcomes=7)
        caps.check("max_outcomes", 7)
        with pytest.raises(EnumerationCapExceeded) as exc:
            caps.check("max_outcomes", 8)
        assert (exc.value.cap_name, exc.value.required, exc.value.limit) == ("max_outcomes", 8, 7)
        with pytest.raises(AttributeError):
            caps.check("max_bogus", 1)
