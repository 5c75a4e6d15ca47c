from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmphf_lab.coloring import maximal_sets_bits
from mmphf_lab.graphs import ConflictSpec, ShiftSpec, build_graph, explicit_graph, or_product
from mmphf_lab.lp import solve_covering_lp

from oracles import brute_lp_chi_f, reference_covering_lp


def assert_certificates(n, cols, sol):
    """Feasible primal and dual of the solution's value; the solver checks neither."""
    cover = [0] * n
    for mask, w in sol.primal:
        assert w > 0 and any(mask & ~c == 0 for c in cols)
        for r in range(n):
            if mask >> r & 1:
                cover[r] += w
    assert min(cover) >= 1 and sum(w for _, w in sol.primal) == sol.value
    assert min(sol.dual) >= 0 and sum(sol.dual) == sol.value
    for c in cols:
        assert sum(y for r, y in enumerate(sol.dual) if c >> r & 1) <= 1


def assert_same_as_reference(n, cols):
    """The integer solver makes the Fraction solver's pivots and returns its solution."""
    sol = solve_covering_lp(n, cols)
    value, primal, dual, pivots = reference_covering_lp(n, cols)
    assert (sol.value, sol.primal, sol.dual, sol.pivots) == (value, primal, dual, pivots)
    assert sol.value.denominator.bit_length() <= sol.max_det_bits
    return sol


def test_c5_cycle_cover():
    cols = [(1 << i) | (1 << ((i + 2) % 5)) for i in range(5)]
    sol = assert_same_as_reference(5, cols)
    assert sol.value == Fraction(5, 2) and sol.pivots > 0
    assert_certificates(5, cols, sol)


def test_empty_lp_makes_no_pivots():
    sol = solve_covering_lp(0, [])
    assert (sol.pivots, sol.max_det_bits) == (0, 0)


def test_singletons():
    sol = solve_covering_lp(4, [1 << i for i in range(4)])
    assert sol.value == 4
    assert sol.dual == [1, 1, 1, 1]


def test_single_full_column():
    sol = solve_covering_lp(3, [0b111])
    assert sol.value == 1


def test_uncoverable_row_is_internal_error():
    with pytest.raises(RuntimeError):
        solve_covering_lp(3, [0b011])


def test_bad_mask():
    with pytest.raises(ValueError):
        solve_covering_lp(2, [0b100])


def test_duplicate_and_dominated_columns():
    cols = [0b01, 0b01, 0b11, 0b10]
    sol = solve_covering_lp(2, cols)
    assert sol.value == 1


def test_certificates_agree():
    cols = [(1 << i) | (1 << ((i + 1) % 7)) for i in range(7)]
    sol = solve_covering_lp(7, cols)
    assert sum(sol.dual) == sol.value
    assert sum(w for _, w in sol.primal) == sol.value


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_matches_brute_force_on_random_instances(n, data):
    ncols = data.draw(st.integers(1, 5))
    cols = [
        data.draw(st.integers(1, (1 << n) - 1)) for _ in range(ncols)
    ]
    union = 0
    for c in cols:
        union |= c
    if union != (1 << n) - 1:
        cols.append((1 << n) - 1)
    sol = solve_covering_lp(n, cols)
    sets = [frozenset(i for i in range(n) if c >> i & 1) for c in cols]
    assert sol.value == brute_lp_chi_f(n, sets)
    assert_certificates(n, cols, sol)


@st.composite
def degenerate_instances(draw):
    """Up to 20 columns on n <= 12 rows, with duplicate and dominated columns forced in."""
    n = draw(st.integers(1, 12))
    cols = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=13))
    cols += draw(st.lists(st.sampled_from(cols), max_size=3))
    subsets = st.tuples(st.sampled_from(cols), st.integers(1, (1 << n) - 1))
    cols += [c & keep or c for c, keep in draw(st.lists(subsets, max_size=3))]
    union = 0
    for c in cols:
        union |= c
    if union != (1 << n) - 1:
        cols.append((1 << n) - 1 & ~union)
    return n, cols


@given(degenerate_instances())
@settings(max_examples=150, deadline=None)
def test_matches_fraction_solver_on_degenerate_instances(instance):
    n, cols = instance
    sol = assert_same_as_reference(n, cols)
    assert_certificates(n, cols, sol)


C5 = explicit_graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
MAXIMAL_SET_GRAPHS = {
    **{f"shift-2-{u}": build_graph(ShiftSpec(2, u)) for u in range(4, 11)},
    **{f"conflict-2-{M}": build_graph(ConflictSpec(2, M)) for M in range(4, 9)},
    **{f"conflict-3-{M}": build_graph(ConflictSpec(3, M)) for M in range(3, 9)},
    "c5-or-c5": or_product(C5, C5),
}


@pytest.mark.parametrize("name", MAXIMAL_SET_GRAPHS)
def test_matches_fraction_solver_on_maximal_sets(name):
    graph = MAXIMAL_SET_GRAPHS[name]
    assert_same_as_reference(graph.n, maximal_sets_bits(graph))
