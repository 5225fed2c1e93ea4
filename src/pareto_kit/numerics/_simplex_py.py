"""Pure-Python fraction-free simplex tableau kernel over exact integers.

``linprog`` runs every pivot loop of its simplex on this tableau.
Conventions:

* the tableau is a dense (rows x cols) matrix whose last column is the
  right-hand side,
* cost rows hold reduced costs, with the negated objective value in the
  right-hand-side column, and are updated by the same elimination step as
  constraint rows,
* entering column: smallest index with a negative reduced cost (Bland),
* leaving row: smallest ratio rhs/pivot over positive pivot entries, ties
  broken by the smallest basic variable index (Bland).

Every row is stored as Python integers over one positive denominator
``den`` shared by the whole tableau (a cost row may carry a further
constant positive factor of its own, which no sign, ratio or pivot
depends on).  A pivot on the entry pv keeps the pivot row as it is and
replaces every other row by (pv * row - f * pivot_row) // den, f being
the row's entry in the pivot column; den then becomes pv.  Started from
integer rows over den = 1 whose basic columns form an identity, this is
integer-preserving Gauss-Jordan elimination (Edmonds 1967; Bareiss
1968): den is the determinant of the basis, every entry is den times
the entry of the rational tableau, a minor of the input, and every
division is exact.  A negative pivot is handled by negating the pivot
row first, which negates every row and keeps den positive.  The
tableau replaces a row list whenever it changes a row, never mutating
one in place, so callers may share row lists between tableaus.  Signs,
ratios and comparisons are decided on the integers.
"""

from __future__ import annotations


class Tableau:
    __slots__ = ("rows", "den", "ncols")

    def __init__(self, rows, den: int = 1):
        """Row ``i`` is ``rows[i]`` over the positive denominator ``den``."""
        self.rows = list(rows)
        self.den = den
        self.ncols = len(self.rows[0])

    def entering(self, cost_row: int, limit: int) -> int:
        row = self.rows[cost_row]
        for j in range(limit):
            if row[j] < 0:
                return j
        return -1

    def leaving(self, col: int, nrows: int, basis) -> int:
        # rhs/pivot is the same ratio of numerators, as both share the
        # denominator; ratios are compared by cross-multiplication over
        # positive pivots.
        rhs = self.ncols - 1
        best = -1
        best_rhs = best_a = 0
        best_var = -1
        for r in range(nrows):
            row = self.rows[r]
            a = row[col]
            if a > 0:
                lhs = row[rhs] * best_a
                other = best_rhs * a
                if (
                    best < 0
                    or lhs < other
                    or (lhs == other and basis[r] < best_var)
                ):
                    best, best_rhs, best_a, best_var = r, row[rhs], a, basis[r]
        return best

    def pivot(self, prow: int, pcol: int, nrows: int) -> None:
        rows, den = self.rows, self.den
        pivot_row = rows[prow]
        pv = pivot_row[pcol]
        if pv < 0:
            pivot_row = rows[prow] = [-x for x in pivot_row]
            pv = -pv
        for i in range(nrows):
            if i == prow:
                continue
            row = rows[i]
            f = row[pcol]
            if f:
                rows[i] = [(pv * x - f * y) // den for x, y in zip(row, pivot_row)]
            elif pv != den:
                rows[i] = [pv * x // den for x in row]
        self.den = pv

    def first_nonzero(self, row: int, limit: int) -> int:
        values = self.rows[row]
        for j in range(limit):
            if values[j] != 0:
                return j
        return -1
