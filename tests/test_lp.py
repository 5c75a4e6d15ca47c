from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmphf_lab.lp import solve_covering_lp

from oracles import brute_lp_chi_f


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


def test_c5_cycle_cover():
    cols = [(1 << i) | (1 << ((i + 2) % 5)) for i in range(5)]
    sol = solve_covering_lp(5, cols)
    assert sol.value == Fraction(5, 2)
    assert_certificates(5, cols, sol)


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
