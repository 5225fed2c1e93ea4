"""Membership classifiers for the nondominated structure of a convex hull.

The analyzed set is conv(W) for a finite generator list W.  Each call
scales W and the query y0 to integer rows G and y once.  Membership is
an objective: over convex weights mu (mu >= 0, sum mu = 1) with
z = sum_k mu_k G_k <= y, maximize the coordinate sum of z.  The query
lies in conv(W) exactly when the maximum is sum y: since z <= y, an
equal sum forces z = y, and the weights are checked to give y in
integers before a member is reported.  A smaller maximum, or no hull
point below the query at all (INFEASIBLE), puts it outside the hull.

A program may add a column delta >= 0 to the rows of a coordinate set D
(z + delta 1_D <= y) and maximize delta as the second objective of the
same batch (one template, one phase 1).  A positive optimum gives a hull
point z, checked in integers (mu >= 0, sum mu = 1, z <= y0, z_D < y0_D).
Every dominance verdict takes one route, ``_classify``:

1. D is every coordinate.  A non-member raises NotInHull.  A positive
   optimum gives a strict dominator, whose projection onto any objective
   subset strictly dominates the projected query.
2. Otherwise the query is weakly nondominated, and its weight cone
   Q = {lambda >= 0 : lambda . (w - y0) >= 0 for every generator w} is
   read from the checked double description of ``cones``.  Each ray is a
   weight at which y0 minimizes over conv(W); finding none raises.  The
   rays' sum over its gcd lies in Q.  Positive in every coordinate, it
   certifies y0 nondominated and properly nondominated (on a polytope the
   two coincide, Isermann 1974) and is the witness.
3. A sum that is 0 on the coordinates Z means no weight in Q is positive
   on Z.  By Motzkin's transposition theorem some hull point z <= y0 then
   has z_Z < y0_Z: D = Z has a positive optimum, whose checked z shows y0
   dominated.  An optimum of 0 gives, by LP duality, a weight in Q that is
   positive on Z, so the description missed a ray, and the run raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cones import _description, _ray_sum
from .errors import DimensionMismatch, EmptySet, InternalInconsistency, NotInHull
from .numerics import EQ, INFEASIBLE, LE, OPTIMAL, rational_format
from .numerics.linprog import lp_solve_batch
from .numerics.rational import as_matrix, as_point, scaled_rows

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


def _written(point: Point) -> str:
    return "(" + ", ".join(map(rational_format, point)) + ")"


def _convex_combination(gens, outcome) -> tuple[list[int], int]:
    """sum_k mu_k G_k over the integer rows ``gens``, mu being the first
    coordinates of the outcome's checked scaled point, as integer
    numerators over its denominator, after checking in integers that mu
    is a convex weight vector."""
    nums, den = outcome.scaled
    mu_nums = nums[: len(gens)]
    if min(mu_nums) < 0 or sum(mu_nums) != den:
        raise InternalInconsistency("hull weights are not convex")
    p = len(gens[0])
    return [sum(a * g[j] for a, g in zip(mu_nums, gens)) for j in range(p)], den


def _member(gens, target, outcome) -> bool:
    """Read the membership objective's outcome, as the module docstring
    sets out: is y in conv(G)?"""
    if outcome.status == INFEASIBLE:
        return False
    if outcome.status != OPTIMAL:  # the hull is compact
        raise InternalInconsistency("membership LP is neither optimal nor infeasible")
    if -outcome.value < sum(target):
        return False
    scaled, den = _convex_combination(gens, outcome)
    if any(z != den * y for z, y in zip(scaled, target)):
        raise InternalInconsistency("membership weights do not give the query")
    return True


def _program(w: HullSet, point: Point, delta: tuple[int, ...] = ()):
    """Solve the membership program of ``point`` with, unless ``delta`` is
    empty, the delta column on the rows of the coordinates in ``delta``
    (see the module docstring).  Returns (member, G, y, z): z is None
    unless a member has delta > 0 at the optimum, and then it is
    sum mu_k G_k as (numerators, denominator), checked in integers."""
    *gens, target = scaled_rows([*w.generators, point])
    m = len(gens)
    extra = 1 if delta else 0
    rows = [([1] * m + [0] * extra, EQ, 1)]
    rows += [
        ([g[j] for g in gens] + [int(j in delta)] * extra, LE, y)
        for j, y in enumerate(target)
    ]
    objectives = [[-sum(g) for g in gens] + [0] * extra]
    if delta:
        objectives.append([0] * m + [-1])
    outcomes = lp_solve_batch(objectives, rows, lower=[0] * (m + extra))
    member = _member(gens, target, outcomes[0])
    if not (member and delta):
        return member, gens, target, None
    if outcomes[1].status != OPTIMAL:  # y0 itself is feasible and the hull compact
        raise InternalInconsistency("delta LP is not optimal")
    if outcomes[1].scaled[0][-1] <= 0:
        return member, gens, target, None
    scaled, den = _convex_combination(gens, outcomes[1])
    for j, (z, y) in enumerate(zip(scaled, target)):
        if z > den * y or (z == den * y and j in delta):
            raise InternalInconsistency("dominator is not below the query")
    return member, gens, target, (scaled, den)


def hull_contains(w: HullSet, y0) -> bool:
    """Does y0 admit convex weights over the generators?"""
    return _program(w, _query(w, y0))[0]


def _weight_rays(gens, target) -> list[tuple[int, ...]]:
    """The checked extreme rays of the weight cone {lambda >= 0 : lambda .
    (g - y) >= 0 for every row g}, the polar of cone(e_1, ..., e_p, g - y)."""
    p = len(target)
    units = [tuple(int(i == j) for j in range(p)) for i in range(p)]
    rows = [tuple(a - y for a, y in zip(g, target)) for g in gens if g != target]
    lineality, rays = _description(units + rows)
    if lineality:  # the unit vectors span R^p
        raise InternalInconsistency("the weight cone holds a line")
    return rays


def _classify(w: HullSet, y0):
    """(strict dominator or None, weight-cone rays or None, witness or
    None) for the member y0, by the steps of the module docstring: rays
    for a weakly nondominated y0, a witness for a nondominated one."""
    point = _query(w, y0)
    member, gens, target, below = _program(w, point, tuple(range(len(point))))
    if not member:
        raise NotInHull(f"query point {_written(point)} is outside the hull")
    if below is not None:
        scaled, mu_den = below
        # the common denominator that scaled W and the query to ``gens``
        den = lcm(*(x.denominator for row in (*w.generators, point) for x in row))
        return tuple(Fraction(z, mu_den * den) for z in scaled), None, None
    rays = _weight_rays(gens, target)
    total = _ray_sum(rays)
    if rays and all(total):
        return None, rays, tuple(map(Fraction, total))
    zero = tuple(j for j, x in enumerate(total) if not x)
    if not rays or _program(w, point, zero)[3] is None:
        raise InternalInconsistency(f"the weight cone of {_written(point)} misses a ray")
    return None, rays, None


def hull_is_weakly_nondominated(w: HullSet, y0) -> bool:
    """Is no hull point strictly below the member y0?  Raises NotInHull
    for a non-member."""
    return _classify(w, y0)[0] is None


def hull_is_nondominated(w: HullSet, y0) -> bool:
    """Is no hull point below the member y0 and different from it?  On a
    polytope this is proper nondominance (Isermann 1974).  Raises
    NotInHull for a non-member."""
    return hull_is_properly_nondominated(w, y0).verdict


@dataclass(frozen=True)
class ProperVerdict:
    verdict: bool
    witness: Point | None


def hull_is_properly_nondominated(w: HullSet, y0) -> ProperVerdict:
    """Proper nondominance of the member y0; the witness is the weight
    cone's ray sum over its gcd, positive in every coordinate.  Raises
    NotInHull for a non-member."""
    witness = _classify(w, y0)[2]
    return ProperVerdict(witness is not None, witness)
