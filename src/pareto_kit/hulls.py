"""Membership classifiers for the nondominated structure of a convex hull.

The analyzed set is conv(W) for a finite generator list W.  Each call
scales W and the query y0 to integer rows G and y once.  Membership is
an objective: over convex weights mu (mu >= 0, sum mu = 1) with
z = sum_k mu_k G_k <= y, maximize the coordinate sum of z.  The query
lies in conv(W) exactly when the maximum is sum y: since z <= y, an
equal sum forces z = y, and the weights are checked to give y in
integers before a member is reported.  A smaller maximum, or no hull
point below the query at all (INFEASIBLE), puts it outside the hull.

A verdict that needs membership adds its own objective to that program,
over the same rows, and the two are solved as one batch: one template
and one phase 1.  The membership objective comes first, and a
non-member raises NotInHull.

* weak nondominance: a column delta >= 0 is added to every row
  (z + delta 1 <= y) and delta is maximized; the query is weakly
  nondominated iff the optimum is 0.  A positive optimum also yields a
  strict dominator z = sum mu_k w_k, which is checked in integers
  (mu >= 0, sum mu = 1, z_j < y0_j for every j) before it is returned:
  its projection onto any objective subset strictly dominates the
  projected query, so a dominated query is neither nondominated nor
  properly nondominated in any subproblem,
* nondominance: minimize the coordinate sum of z; the query is
  nondominated iff the optimum equals its own sum,
* proper nondominance: feasibility of weights lambda >= 1 with
  lambda . (w - y0) >= 0 for every generator w; the scaling lambda >= 1
  stands in for strict positivity, which the defining inequalities allow
  because they are positively homogeneous in lambda.  This LP has other
  variables and rows, so the membership program is solved alone in
  front of it (``_gate``), as it is for ``hull_contains``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, EmptySet, InternalInconsistency, NotInHull
from .numerics import EQ, GE, INFEASIBLE, LE, OPTIMAL, linprog, lp_solve
from .numerics.linprog import lp_solve_batch
from .numerics.rational import as_matrix, as_point, common_denominator, scaled_rows

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


def _convex_combination(gens, mu) -> tuple[list[int], int]:
    """sum_k mu_k G_k over the integer rows ``gens``, as integer numerators
    over mu's common denominator, after checking in integers that mu is a
    convex weight vector."""
    mu_nums, mu_den = common_denominator(mu)
    if min(mu_nums) < 0 or sum(mu_nums) != mu_den:
        raise InternalInconsistency("hull weights are not convex")
    p = len(gens[0])
    return [sum(a * g[j] for a, g in zip(mu_nums, gens)) for j in range(p)], mu_den


def _member(gens, target, outcome) -> bool:
    """Read the membership objective's outcome: is y in conv(G)?

    The objective maximizes the coordinate sum of z = sum mu_k G_k over
    z <= y, so y is a member exactly when that maximum is sum y, and
    then z = y: the weights mu are checked to give y in integers.  A
    smaller maximum, or no hull point below y at all (INFEASIBLE), puts
    y outside the hull.
    """
    if outcome.status == INFEASIBLE:
        return False
    if outcome.status != OPTIMAL:  # the hull is compact
        raise InternalInconsistency("membership LP is neither optimal nor infeasible")
    if -outcome.value < sum(target):
        return False
    scaled, den = _convex_combination(gens, outcome.point[: len(gens)])
    if any(z != den * y for z, y in zip(scaled, target)):
        raise InternalInconsistency("membership weights do not give the query")
    return True


_WEAK, _SUM = "weak", "sum"


def _program(w: HullSet, point: Point, verdict: str | None = None):
    """Solve the membership program of ``point`` (see the module
    docstring) and, as the second objective of the same batch, that of
    ``verdict``: ``_WEAK`` adds the column delta >= 0 to every row and
    maximizes it, ``_SUM`` minimizes the coordinate sum of z.  Returns
    (member, G, y, the verdict's outcome or None).
    """
    *gens, target = scaled_rows([*w.generators, point])
    m = len(gens)
    tail = [1] if verdict == _WEAK else []
    rows = [([1] * m + [0] * len(tail), EQ, 1)]
    rows += [([g[j] for g in gens] + tail, LE, y) for j, y in enumerate(target)]
    sums = [sum(g) for g in gens]
    objectives = [[-s for s in sums] + [0] * len(tail)]
    if verdict == _WEAK:
        objectives.append([0] * m + [-1])
    elif verdict == _SUM:
        objectives.append(sums)
    outcomes = lp_solve_batch(objectives, rows, lower=[0] * (m + len(tail)))
    verdict_outcome = outcomes[1] if verdict else None
    return _member(gens, target, outcomes[0]), gens, target, verdict_outcome


def hull_contains(w: HullSet, y0) -> bool:
    """Does y0 admit convex weights over the generators?"""
    return _program(w, _query(w, y0))[0]


def _gate(w: HullSet, y0) -> Point:
    point = _query(w, y0)
    if not hull_contains(w, point):
        raise NotInHull(f"query point {point} is outside the hull")
    return point


def _verdict(w: HullSet, y0, verdict: str):
    """The membership program of y0 with ``verdict``'s objective; raises
    NotInHull for a non-member, and unless the verdict is OPTIMAL."""
    point = _query(w, y0)
    member, gens, target, outcome = _program(w, point, verdict)
    if not member:
        raise NotInHull(f"query point {point} is outside the hull")
    if outcome.status != OPTIMAL:  # y0 itself is feasible and the hull compact
        raise InternalInconsistency(f"{verdict} LP is not optimal")
    return point, gens, target, outcome


def _checked_dominator(w: HullSet, point: Point, gens, target, mu) -> Point:
    """z = sum mu_k w_k, after checking in integers, over the rows ``gens``
    and ``target`` that W and ``point`` scale to, that mu is a convex
    weight vector and that z lies strictly below the query everywhere."""
    scaled, mu_den = _convex_combination(gens, mu)
    if any(z >= mu_den * y for z, y in zip(scaled, target)):
        raise InternalInconsistency("dominator is not strictly below the query")
    # the common denominator that scaled W and the query to ``gens``
    den = lcm(*(x.denominator for row in (*w.generators, point) for x in row))
    return tuple(Fraction(z, mu_den * den) for z in scaled)


def _strict_dominator(w: HullSet, y0) -> Point | None:
    """A checked hull point strictly below y0 in every coordinate, or None
    when y0 is weakly nondominated; raises NotInHull for a non-member."""
    point, gens, target, outcome = _verdict(w, y0, _WEAK)
    if outcome.point[-1] <= 0:
        return None
    return _checked_dominator(w, point, gens, target, outcome.point[:-1])


def hull_is_weakly_nondominated(w: HullSet, y0) -> bool:
    return _strict_dominator(w, y0) is None


def _nondominated(w: HullSet, y0) -> bool:
    """Is the member y0 nondominated: does no hull point below it have a
    smaller coordinate sum?  Raises NotInHull for a non-member."""
    _, _, target, outcome = _verdict(w, y0, _SUM)
    return outcome.value == sum(target)


def hull_is_nondominated(w: HullSet, y0) -> bool:
    return _nondominated(w, y0)


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
