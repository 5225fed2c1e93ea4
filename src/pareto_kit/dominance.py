"""Exact classification of finite point sets.

Nondominated, weakly nondominated, properly nondominated and
cone-nondominated subsets, stability certificates and reducibility
subproblems all come from one sort-filter scan over the distinct values
(duplicates of a surviving value are all reported; exact duplicates never
dominate each other).  The trade-off bound attached to each nondominated
point is the least constant that caps every improvement/deterioration
ratio against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le, lt, mul, sub

from .cones import PolyhedralCone, _cone_precedes, strictly_positive_direction
from .errors import (
    DimensionMismatch,
    EmptySet,
    InternalInconsistency,
    NotMember,
    NotNondominated,
)
from .numerics.rational import as_matrix, as_point, common_denominator, scaled_rows

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """A finite list of equal-dimension points, duplicates permitted."""

    points: tuple[Point, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.points:
            raise EmptySet("a point set needs at least one point")
        if self.labels is not None and len(self.labels) != len(self.points):
            raise DimensionMismatch("labels and points differ in count")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def duplicate_groups(self) -> list[list[int]]:
        """Index groups sharing an identical value (groups of size >= 2)."""
        seen: dict[Point, list[int]] = {}
        for i, point in enumerate(self.points):
            seen.setdefault(point, []).append(i)
        return [group for group in seen.values() if len(group) > 1]


def point_set(points, labels=None) -> PointSet:
    matrix = as_matrix(points)
    if not matrix:
        raise EmptySet("a point set needs at least one point")
    return PointSet(matrix, None if labels is None else tuple(labels))


def _checked(points) -> tuple[Point, ...]:
    if isinstance(points, PointSet):
        return points.points
    matrix = as_matrix(points)
    if not matrix:
        raise EmptySet("a point set needs at least one point")
    return matrix


def _unique_groups(rows):
    """The distinct rows, in order of first occurrence, and the indices
    holding each.  Callers pass rows scaled to integers where they can:
    a positive common factor keeps every equality, and an int hashes
    faster than a Fraction."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(row, []).append(i)
    values = list(groups)
    return values, groups


def _componentwise(scaled: list[tuple[int, ...]], strict: bool):
    """Scan keys (sum(y), y) and test of the componentwise order."""
    cmp = lt if strict else le
    keys = [(sum(y), y) for y in scaled]
    return keys, lambda j, k: all(map(cmp, scaled[j], scaled[k]))


def _cone_order(scaled: list[tuple[int, ...]], ordering: PolyhedralCone, direction: Point):
    """Scan keys (d . y, y) and test of the cone order, d positive on it.

    d . y is taken on d and the values, both scaled to integers: positive
    factors keep every comparison of the keys.
    """
    if ordering.dim != len(scaled[0]):
        raise DimensionMismatch(f"cone dim {ordering.dim} vs point dim {len(scaled[0])}")
    d = common_denominator(direction)[0]
    w = [sum(map(mul, d, y)) for y in scaled]
    precedes = _cone_precedes(ordering, scaled)
    return list(zip(w, scaled)), lambda j, k: w[j] < w[k] and precedes(j, k)


def _dominators(keys: list, below) -> list[int | None]:
    """For each distinct value, the index of a value dominating it, or None.

    Sort-filter scan (Chomicki et al. 2003, "Skyline with presorting"):
    values are visited in increasing key order and each is tested with
    ``below(j, k)`` ("j dominates k") only against the undominated values
    already kept.  This is exact for a strict partial order whose
    dominators have smaller keys.  Componentwise dominance between distinct
    values forces a smaller sum; cone dominance over a pointed cone forces
    a smaller d . y, since d is positive on every nonzero cone member.  By
    transitivity the least dominator in key order is itself undominated and
    is visited first, so it is kept: None marks exactly the undominated
    values, and a dominated value gets that least dominator, which is what
    ``find_dominator`` and ``find_dominator_cone`` return.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    out: list[int | None] = [None] * len(keys)
    kept: list[int] = []
    for k in order:
        for j in kept:
            if below(j, k):
                out[k] = j
                break
        else:
            kept.append(k)
    return out


def _survivors(found: list[int | None], groups: dict[tuple, list[int]]) -> list[int]:
    """The sorted indices of every value the scan left undominated."""
    out: list[int] = []
    for group, j in zip(groups.values(), found):
        if j is None:
            out.extend(group)
    return sorted(out)


def _surviving_indices(scaled: list[tuple[int, ...]], strict: bool) -> list[int]:
    """Indices of the rows, scaled to integers, that no row dominates."""
    values, groups = _unique_groups(scaled)
    return _survivors(_dominators(*_componentwise(values, strict)), groups)


def _frontier_bounds(groups, scaled) -> list[tuple[int, Fraction]]:
    """(index, trade-off bound) of every nondominated point, by value group.

    The bound of y0 is the least M capping (y0_i - y_i)/(y_j - y0_j) over
    every competitor y and coordinate i improving on y0, with the best
    compensating coordinate j; zero when no competitor improves anywhere.
    The best j has the largest loss y_j - y0_j whatever i is, so the worst
    ratio against y is its largest gain over its largest loss.

    The competitors are the nondominated values alone, which costs
    O(|N|^2 p) instead of O(|N| n p).  That is exact: if z dominates y and
    y has a positive gain against the nondominated y0, then z's gain is at
    least y's and z's loss at most y's.  z is not y0, which cannot
    dominate a value with a gain against it, and y0 is nondominated, so
    z's loss is positive and z's ratio is at least y's.  Every dominated
    value has a nondominated dominator (finite sets are externally
    stable), so the maximum ratio is unchanged.

    Each unordered pair of distinct nondominated values a, b forms
    d = y_a - y_b once: max(d) and -min(d) are a's gain and loss against
    b, and b's loss and gain against a.  Both are positive, or one value
    would dominate the other.  Ratios are compared by cross-multiplication,
    so values scaled by ``scaled_rows`` give the bounds of the rationals
    they scale.
    """
    found = _dominators(*_componentwise(scaled, strict=False))
    frontier = [k for k, j in enumerate(found) if j is None]
    num, den = [0] * len(scaled), [1] * len(scaled)
    for x, a in enumerate(frontier):
        for b in frontier[x + 1:]:
            d = list(map(sub, scaled[a], scaled[b]))
            gain, loss = max(d), -min(d)
            if gain <= 0 or loss <= 0:
                raise InternalInconsistency("dominated reference point")
            if gain * den[a] > num[a] * loss:
                num[a], den[a] = gain, loss
            if loss * den[b] > num[b] * gain:
                num[b], den[b] = loss, gain
    out: list[tuple[int, Fraction]] = []
    for k, (group, j) in enumerate(zip(groups.values(), found)):
        if j is None:
            bound = Fraction(num[k], den[k])
            out.extend((i, bound) for i in group)
    return out


def nondominated_set(points) -> list[int]:
    """Indices whose value no other value is <= to (and distinct from)."""
    return _surviving_indices(scaled_rows(_checked(points)), strict=False)


def weakly_nondominated_set(points) -> list[int]:
    """Indices whose value no other value beats strictly in every coordinate."""
    return _surviving_indices(scaled_rows(_checked(points)), strict=True)


def geoffrion_bound(points, y0) -> Fraction:
    """Least valid trade-off constant for a nondominated member y0."""
    pts = _checked(points)
    ref = as_point(y0)
    if len(ref) != len(pts[0]):
        raise DimensionMismatch("reference point dimension mismatch")
    if ref not in pts:
        raise NotMember("reference point is not in the set")
    values, groups = _unique_groups(pts)
    bounds = dict(_frontier_bounds(groups, scaled_rows(values)))
    i = pts.index(ref)
    if i not in bounds:
        raise NotNondominated("reference point is dominated")
    return bounds[i]


@dataclass(frozen=True)
class DominanceReport:
    nondominated: tuple[int, ...]
    weakly_nondominated: tuple[int, ...]
    properly_nondominated: tuple[int, ...]
    bounds: dict[int, Fraction]


def properly_nondominated_set(points) -> DominanceReport:
    """Full classification of a finite set.

    On finite sets every nondominated point is properly nondominated: the
    ratios range over a finite set, so their maximum is a finite bound.
    The report carries that bound per nondominated index.
    """
    values, groups = _unique_groups(scaled_rows(_checked(points)))
    frontier = _frontier_bounds(groups, values)
    weak = _survivors(_dominators(*_componentwise(values, strict=True)), groups)
    nondominated = sorted(i for i, _ in frontier)
    bounds = dict(frontier)
    return DominanceReport(
        nondominated=tuple(nondominated),
        weakly_nondominated=tuple(weak),
        properly_nondominated=tuple(nondominated),
        bounds=bounds,
    )


def cone_nondominated_set(points, ordering: PolyhedralCone) -> list[int]:
    """Indices not dominated under the generalized cone order.

    A value y is dominated when some distinct value z has y - z in the
    cone.  The sort-filter scan of ``_dominators`` tests each pair against
    the cone's inequality description, built once, only against
    undominated values kept so far and only after the exact prefilter
    d . z < d . y for the strictly positive direction d of the cone.
    """
    direction = strictly_positive_direction(ordering)
    values, groups = _unique_groups(scaled_rows(_checked(points)))
    return _survivors(_dominators(*_cone_order(values, ordering, direction)), groups)
