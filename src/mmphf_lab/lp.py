"""Exact rational covering LPs by revised simplex.

Solves  min sum(x_j)  s.t.  A x >= 1,  x >= 0  where each column j is a
subset of the rows (here: an independent set covering the vertices it
contains).  The basis state, ratio tests and pivots all run over
`fractions.Fraction`, so the optimal value, the primal weights and the
dual row prices are bit-exact and satisfy strong duality as Fraction
equalities.

The solver warm-starts from a disjoint greedy cover carved out of the
input columns (pieces of independent sets are independent sets), so no
artificial variables or phase 1 are needed.  Leaving rows follow the
lexicographic ratio test, which rules out cycling under any entering
rule; entering columns are ranked by a float pre-scan but always
re-verified exactly, and optimality is only declared after a full exact
pricing pass.

This module checks its inputs but not its result: the certificates are
verified once, exactly, by `coloring.fractional_chromatic_number`, which
is the one verifier of every chi_f the lab reports.
"""

from dataclasses import dataclass
from fractions import Fraction

from .graphs import bit_indices

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class CoveringSolution:
    value: Fraction
    primal: list  # list of (row bitmask, positive Fraction weight)
    dual: list  # row index -> Fraction price, >= 0, feasible for every column


def solve_covering_lp(num_rows: int, columns: list[int]) -> CoveringSolution:
    """Minimum-weight fractional cover of the rows by the given columns.

    `columns[j]` is a bitmask of the rows column j covers.  Every row must
    be covered by at least one column, otherwise the LP is infeasible and
    a RuntimeError is raised (callers guarantee coverage, so infeasibility
    signals an internal error).  The primal support may include proper
    subsets of input columns; any subset of a covering column is itself a
    valid unit-cost column.
    """
    if num_rows == 0:
        return CoveringSolution(ZERO, [], [])
    full = (1 << num_rows) - 1
    union = 0
    for mask in columns:
        if mask <= 0 or mask >> num_rows:
            raise ValueError("column mask out of range")
        union |= mask
    if union != full:
        raise RuntimeError("covering LP infeasible: a row has no covering column")

    solver = _RevisedSimplex(num_rows, columns)
    solver.solve()
    return CoveringSolution(*solver.extract())


class _RevisedSimplex:
    """Revised simplex on  A x - s = 1  with an explicit basis inverse.

    Column ids: 0..nc-1 structural (cost 1, includes the greedy warm-start
    pieces appended after the caller's columns), nc..nc+n-1 surplus
    (cost 0, column -e_r).
    """

    def __init__(self, n: int, columns: list[int]):
        self.n = n
        self.col_rows = [bit_indices(mask) for mask in columns]
        self._init_basis(columns)
        self.nc = len(self.col_rows)

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
        self._ratio_d = d
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
        self._direction = d
        return best

    def _lex_less(self, i, k):
        di, dk = self._ratio_d[i], self._ratio_d[k]
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
