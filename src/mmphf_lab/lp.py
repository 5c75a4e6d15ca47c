"""Exact rational covering LPs by integer-preserving revised simplex.

Solves  min sum(x_j)  s.t.  A x >= 1,  x >= 0  where each column j is a
subset of the rows (here: an independent set covering the vertices it
contains).  The basis inverse is kept the integer-preserving way of
Edmonds ("Systems of distinct representatives and linear algebra",
J. Res. NBS 1967) and Bareiss ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 1968):
B^-1 = adj / det and x_B = xb / det, with `adj` an integer matrix, `xb`
an integer vector and `det` = |det(B)| > 0.  A pivot on p = det * d_pos
divides every updated entry by the old `det` exactly, because the result
is p * B'^-1 and |det(B')| = p, so it is (up to sign) the adjugate of
the new basis.  The loop does no rational arithmetic at all; the
optimal value, the primal weights and the dual row prices are formed as
`fractions.Fraction`s only at the end, and satisfy strong duality as
Fraction equalities.

The solver warm-starts from a disjoint greedy cover carved out of the
input columns (pieces of independent sets are independent sets), so no
artificial variables or phase 1 are needed; that basis has an inverse
with entries 0 and +-1, so it starts at det = 1.  Leaving rows follow
the lexicographic ratio test, which rules out cycling under any entering
rule; entering columns are ranked by a float pre-scan but always
re-verified exactly, and optimality is only declared after a full exact
pricing pass.  Every test compares the same rationals as a solver over
a `Fraction` basis inverse would (signs are those of the numerators
because det > 0, and ratios compare by cross-multiplying), and the
pre-scan's int true division rounds as `float(Fraction)` does, so the
pivot sequence, the final basis and the certificates are the same.

This module checks its inputs but not its result: the certificates are
verified once, exactly, by `coloring.fractional_chromatic_number`, which
is the one verifier of every chi_f the lab reports.
"""

from fractions import Fraction
from typing import NamedTuple

from .graphs import bit_indices


class CoveringSolution(NamedTuple):
    value: Fraction
    primal: list  # list of (row bitmask, positive Fraction weight)
    dual: list  # row index -> Fraction price, >= 0, feasible for every column
    pivots: int = 0  # simplex pivots made after the warm start
    max_det_bits: int = 0  # largest det.bit_length() over the run


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
        return CoveringSolution(Fraction(0), [], [])
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
    return solver.extract()


class _RevisedSimplex:
    """Revised simplex on  A x - s = 1  with B^-1 = adj / det over the ints.

    Column ids: 0..nc-1 structural (cost 1, includes the greedy warm-start
    pieces appended after the caller's columns), nc..nc+n-1 surplus
    (cost 0, column -e_r).  Row i of `adj` and entry i of `xb` belong to
    basis position i.
    """

    def __init__(self, n: int, columns: list[int]):
        self.n = n
        self.col_rows = [bit_indices(mask) for mask in columns]
        self._init_basis(columns)
        self.nc = len(self.col_rows)
        self.pivots = 0
        self.max_det_bits = self.det.bit_length()

    def _init_basis(self, columns):
        # Carve a disjoint cover out of the columns: each uncovered chunk of
        # a column becomes a unit-cost piece.  Pieces partition the rows, so
        # {pieces} + {surplus for non-representatives} is a feasible basis
        # whose inverse is explicit and integral.  Representatives are the
        # smallest row of each piece, which keeps every basis row
        # lexicographically positive.
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
        self.adj = [None] * n
        self.xb = [0] * n
        self.det = 1
        nc_later = len(self.col_rows)
        for pid, mask in zip(piece_ids, pieces):
            rows = bit_indices(mask)
            rep = rows[0]
            arow = [0] * n
            arow[rep] = 1
            self.adj[rep] = arow
            self.basis[rep] = pid
            self.xb[rep] = 1
            for v in rows[1:]:
                arow = [0] * n
                arow[rep] = 1
                arow[v] = -1
                self.adj[v] = arow
                self.basis[v] = nc_later + v  # surplus of row v
        self.in_basis = set(self.basis)

    # -- simplex core ------------------------------------------------------

    def solve(self):
        while True:
            y = self._prices()
            enter = self._entering(y)
            if enter is None:
                return
            leave_pos, d = self._ratio_test(enter)
            self._pivot(enter, leave_pos, d)

    def _prices(self):
        # duals y = Y / det: the column sums of the B^-1 rows at structural
        # positions (a feasible basis holds at least one structural column)
        nc = self.nc
        rows = [row for row, j in zip(self.adj, self.basis) if j < nc]
        return [sum(col) for col in zip(*rows)]

    def _reduced_cost(self, j, y):
        # det times the reduced cost, so it has the reduced cost's sign
        if j < self.nc:
            return self.det - sum(map(y.__getitem__, self.col_rows[j]))
        return y[j - self.nc]

    def _entering(self, y):
        # float pre-scan ranks candidates; exactness comes from re-checking
        det = self.det
        yf = [v / det for v in y]
        cand = []
        for j in range(self.nc):
            if j not in self.in_basis:
                rcf = 1.0 - sum(map(yf.__getitem__, self.col_rows[j]))
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
        # lexicographic rule: minimize (xb_i, adj_i) / d_i among d_i > 0,
        # where d = adj . a_enter is det times the entering direction
        if enter < self.nc:
            rows = self.col_rows[enter]
            d = [sum(map(arow.__getitem__, rows)) for arow in self.adj]
        else:
            r = enter - self.nc
            d = [-arow[r] for arow in self.adj]
        xb = self.xb
        best = None
        for i, di in enumerate(d):
            if di > 0:
                if best is None:
                    best = i
                    continue
                lhs, rhs = xb[i] * d[best], xb[best] * di
                if lhs < rhs or (lhs == rhs and self._lex_less(i, best, d)):
                    best = i
        if best is None:
            raise RuntimeError("covering LP unbounded; this cannot happen")
        return best, d

    def _lex_less(self, i, k, d):
        di, dk = d[i], d[k]
        for a, b in zip(self.adj[i], self.adj[k]):
            lhs = a * dk
            rhs = b * di
            if lhs != rhs:
                return lhs < rhs
        raise RuntimeError("identical basis rows; basis is singular")

    def _pivot(self, enter, pos, d):
        # row pos keeps its integers over the new det p; every other row
        # becomes (row * p - d_i * row_pos) / det, an exact division
        det, p = self.det, d[pos]
        adj, xb = self.adj, self.xb
        prow, pxb = adj[pos], xb[pos]
        for i, di in enumerate(d):
            if i == pos:
                continue
            if di:
                adj[i] = [(a * p - di * b) // det for a, b in zip(adj[i], prow)]
                xb[i] = (xb[i] * p - di * pxb) // det
            elif p != det:
                adj[i] = [a * p // det for a in adj[i]]
                xb[i] = xb[i] * p // det
        self.det = p
        self.pivots += 1
        self.max_det_bits = max(self.max_det_bits, p.bit_length())
        self.in_basis.discard(self.basis[pos])
        self.basis[pos] = enter
        self.in_basis.add(enter)

    # -- solution ----------------------------------------------------------

    def extract(self) -> CoveringSolution:
        det = self.det
        primal = {}
        for i, j in enumerate(self.basis):
            if j < self.nc and self.xb[i]:
                mask = 0
                for r in self.col_rows[j]:
                    mask |= 1 << r
                primal[mask] = primal.get(mask, 0) + self.xb[i]
        return CoveringSolution(
            value=Fraction(sum(primal.values()), det),
            primal=sorted((mask, Fraction(w, det)) for mask, w in primal.items()),
            dual=[Fraction(v, det) for v in self._prices()],
            pivots=self.pivots,
            max_det_bits=self.max_det_bits,
        )
