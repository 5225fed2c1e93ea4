"""Membership classifiers for the nondominated structure of a convex hull.

The analyzed set is conv(W) for a finite generator list W.  Each verdict is
decided by one exact LP:

* weak nondominance: maximize the common slack delta of a hull point
  sitting at least delta below the query in every coordinate; the query is
  weakly nondominated iff the optimum is <= 0.  A positive optimum also
  yields a strict dominator z = sum mu_i w_i, which is checked in integers
  (mu >= 0, sum mu = 1, z_j < y0_j for every j) before it is returned: its
  projection onto any objective subset strictly dominates the projected
  query, so a dominated query is neither nondominated nor properly
  nondominated in any subproblem,
* nondominance: minimize the coordinate sum over hull points below the
  query; the query is nondominated iff the optimum equals its own sum,
* proper nondominance: feasibility of weights lambda >= 1 with
  lambda . (w - y0) >= 0 for every generator w; the scaling lambda >= 1
  stands in for strict positivity, which the defining inequalities allow
  because they are positively homogeneous in lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, EmptySet, InternalInconsistency, NotInHull
from .numerics import EQ, GE, LE, OPTIMAL, linprog, lp_solve
from .numerics.rational import as_matrix, as_point, common_denominator

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class HullSet:
    """Generators W of the convex hull conv(W)."""

    generators: tuple[Point, ...]

    def __post_init__(self):
        if not self.generators:
            raise EmptySet("a hull needs at least one generator")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def hull(points) -> HullSet:
    return HullSet(as_matrix(points))


def _query(w: HullSet, y0) -> Point:
    point = as_point(y0)
    if len(point) != w.dim:
        raise DimensionMismatch(f"query dim {len(point)} vs hull dim {w.dim}")
    return point


def hull_contains(w: HullSet, y0) -> bool:
    """Does y0 admit convex weights over the generators?"""
    point = _query(w, y0)
    m = len(w.generators)
    rows = [([g[i] for g in w.generators], EQ, point[i]) for i in range(w.dim)]
    rows.append(([1] * m, EQ, 1))
    return lp_solve(linprog([0] * m, rows, lower=[0] * m)).status == OPTIMAL


def _gate(w: HullSet, y0) -> Point:
    point = _query(w, y0)
    if not hull_contains(w, point):
        raise NotInHull(f"query point {point} is outside the hull")
    return point


def _checked_dominator(w: HullSet, point: Point, mu) -> Point:
    """z = sum mu_i w_i, after checking in integers that mu is a convex
    weight vector and that z lies strictly below ``point`` everywhere."""
    mu_nums, mu_den = common_denominator(mu)
    if min(mu_nums) < 0 or sum(mu_nums) != mu_den:
        raise InternalInconsistency("dominator weights are not convex")
    p = w.dim
    nums, den = common_denominator([x for g in w.generators for x in g] + list(point))
    rows = [nums[k : k + p] for k in range(0, len(nums), p)]
    target = rows.pop()
    # mu_den * den * z_j, over integers
    scaled = [sum(a * row[j] for a, row in zip(mu_nums, rows)) for j in range(p)]
    if any(z >= mu_den * y for z, y in zip(scaled, target)):
        raise InternalInconsistency("dominator is not strictly below the query")
    return tuple(Fraction(z, mu_den * den) for z in scaled)


def _strict_dominator(w: HullSet, point: Point) -> Point | None:
    """A checked hull point strictly below ``point`` in every coordinate,
    or None when ``point`` is weakly nondominated."""
    m, p = len(w.generators), w.dim
    # variables: convex weights mu_1..mu_m, then the free slack delta
    rows = [([1] * m + [0], EQ, 1)]
    for j in range(p):
        rows.append(([g[j] for g in w.generators] + [1], LE, point[j]))
    lp = linprog([0] * m + [-1], rows, lower=[0] * m + [None])
    outcome = lp_solve(lp)
    if outcome.status != OPTIMAL:  # hull is compact, delta is capped
        raise InternalInconsistency("weak-nondominance LP is not optimal")
    if outcome.point[-1] <= 0:
        return None
    return _checked_dominator(w, point, outcome.point[:-1])


def hull_is_weakly_nondominated(w: HullSet, y0) -> bool:
    return _strict_dominator(w, _gate(w, y0)) is None


def _nondominated(w: HullSet, point: Point) -> bool:
    m, p = len(w.generators), w.dim
    rows = [([1] * m, EQ, 1)]
    for j in range(p):
        rows.append(([g[j] for g in w.generators], LE, point[j]))
    column_sums = [sum(g, Fraction(0)) for g in w.generators]
    outcome = lp_solve(linprog(column_sums, rows, lower=[0] * m))
    if outcome.status != OPTIMAL:  # y0 itself is feasible
        raise InternalInconsistency("nondominance LP is not optimal")
    return outcome.value == sum(point)


def hull_is_nondominated(w: HullSet, y0) -> bool:
    return _nondominated(w, _gate(w, y0))


@dataclass(frozen=True)
class ProperVerdict:
    verdict: bool
    witness: Point | None


def _properly_nondominated(w: HullSet, point: Point) -> ProperVerdict:
    p = w.dim
    rows = [
        ([g[j] - point[j] for j in range(p)], GE, 0) for g in w.generators
    ]
    outcome = lp_solve(linprog([0] * p, rows, lower=[1] * p))
    if outcome.status != OPTIMAL:
        return ProperVerdict(False, None)
    return ProperVerdict(True, outcome.point)


def hull_is_properly_nondominated(w: HullSet, y0) -> ProperVerdict:
    return _properly_nondominated(w, _gate(w, y0))
