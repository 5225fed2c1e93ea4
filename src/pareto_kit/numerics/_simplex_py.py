"""Pure-Python simplex tableau kernel over exact integers.

``linprog`` runs every pivot loop of its simplex on this tableau.
Conventions:

* the tableau is a dense (rows x cols) matrix of rationals whose last
  column is the right-hand side,
* cost rows hold reduced costs, with the negated objective value in the
  right-hand-side column, and are updated by the same elimination step as
  constraint rows,
* entering column: smallest index with a negative reduced cost (Bland),
* leaving row: smallest ratio rhs/pivot over positive pivot entries, ties
  broken by the smallest basic variable index (Bland).

Each row is stored as Python integers over one positive row
denominator, kept in lowest terms (the gcd of the numerators and the
denominator is 1), so the stored row is the unique such form of its
rational entries.  The tableau is built from rows already in that form
(``linprog`` standardizes straight into it) and replaces a row list
whenever it changes a row, never mutating one in place, so callers may
share row lists between tableaus.  Signs, ratios and comparisons are
decided on the integers; ``get`` hands an entry back as a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Tableau:
    __slots__ = ("nums", "dens", "ncols")

    def __init__(self, nums, dens):
        """Row ``i`` is ``nums[i]`` over ``dens[i]`` > 0, in lowest terms."""
        self.nums = list(nums)
        self.dens = list(dens)
        self.ncols = len(self.nums[0])

    def entering(self, cost_row: int, limit: int) -> int:
        row = self.nums[cost_row]
        for j in range(limit):
            if row[j] < 0:
                return j
        return -1

    def leaving(self, col: int, nrows: int, basis) -> int:
        # rhs/pivot is the same ratio of numerators, as both share the
        # row denominator; ratios are compared by cross-multiplication
        # over positive pivots.
        rhs = self.ncols - 1
        best = -1
        best_rhs = best_a = 0
        best_var = -1
        for r in range(nrows):
            row = self.nums[r]
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
        nums, dens = self.nums, self.dens
        # The pivot row divided by its pivot entry is nums[prow] over
        # nums[prow][pcol]; the row denominator cancels.
        pivot_row = nums[prow]
        pv = pivot_row[pcol]
        if pv < 0:
            pivot_row = [-x for x in pivot_row]
            pv = -pv
        g = gcd(pv, *pivot_row)
        if g > 1:
            pivot_row = [x // g for x in pivot_row]
            pv //= g
        nums[prow] = pivot_row
        dens[prow] = pv
        for i in range(nrows):
            if i == prow:
                continue
            row = nums[i]
            factor = row[pcol]
            if factor:
                # row/den - (factor/den) * pivot_row/pv, over den * pv
                new = [x * pv - factor * y for x, y in zip(row, pivot_row)]
                den = dens[i] * pv
                g = gcd(den, *new)
                if g > 1:
                    new = [x // g for x in new]
                    den //= g
                nums[i] = new
                dens[i] = den

    def first_nonzero(self, row: int, limit: int) -> int:
        values = self.nums[row]
        for j in range(limit):
            if values[j] != 0:
                return j
        return -1

    def get(self, row: int, col: int) -> Fraction:
        return Fraction(self.nums[row][col], self.dens[row])
