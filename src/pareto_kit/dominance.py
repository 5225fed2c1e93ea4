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
from operator import le, lt

from .cones import PolyhedralCone, cone_contains, strictly_positive_direction
from .errors import (
    DimensionMismatch,
    EmptySet,
    InternalInconsistency,
    NotMember,
    NotNondominated,
)
from .numerics import dot
from .numerics.rational import as_matrix, as_point, common_denominator

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


def _unique_groups(points: tuple[Point, ...]):
    groups: dict[Point, list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(point, []).append(i)
    values = list(groups)
    return values, groups


def _scaled(values: list[Point]) -> list[tuple[int, ...]]:
    """The values times the least common denominator of all coordinates.

    A positive common factor keeps every componentwise comparison and every
    trade-off ratio, so flags and bounds computed on these integers are
    those of the rationals.
    """
    nums, _ = common_denominator([c for value in values for c in value])
    p = len(values[0])
    return [tuple(nums[k : k + p]) for k in range(0, len(nums), p)]


def _componentwise(scaled: list[tuple[int, ...]], strict: bool):
    """Scan keys (sum(y), y) and test of the componentwise order."""
    cmp = lt if strict else le
    keys = [(sum(y), y) for y in scaled]
    return keys, lambda j, k: all(map(cmp, scaled[j], scaled[k]))


def _cone_order(values: list[Point], ordering: PolyhedralCone, direction: Point):
    """Scan keys (d . y, y) and test of the cone order, d positive on it."""
    w = [dot(direction, y) for y in values]
    return list(zip(w, values)), lambda j, k: w[j] < w[k] and cone_contains(
        ordering, tuple(a - b for a, b in zip(values[k], values[j]))
    )


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


def _survivors(found: list[int | None], groups: dict[Point, list[int]]) -> list[int]:
    """The sorted indices of every value the scan left undominated."""
    out: list[int] = []
    for group, j in zip(groups.values(), found):
        if j is None:
            out.extend(group)
    return sorted(out)


def _surviving_indices(points: tuple[Point, ...], strict: bool) -> list[int]:
    values, groups = _unique_groups(points)
    return _survivors(_dominators(*_componentwise(_scaled(values), strict)), groups)


def _frontier_bounds(groups, scaled) -> list[tuple[int, Fraction]]:
    """(index, trade-off bound) of every nondominated point, by value group."""
    found = _dominators(*_componentwise(scaled, strict=False))
    out: list[tuple[int, Fraction]] = []
    for group, y0, j in zip(groups.values(), scaled, found):
        if j is None:
            bound = _tradeoff_bound(scaled, y0)
            out.extend((i, bound) for i in group)
    return out


def nondominated_set(points) -> list[int]:
    """Indices whose value no other value is <= to (and distinct from)."""
    return _surviving_indices(_checked(points), strict=False)


def weakly_nondominated_set(points) -> list[int]:
    """Indices whose value no other value beats strictly in every coordinate."""
    return _surviving_indices(_checked(points), strict=True)


def _tradeoff_bound(values, y0) -> Fraction:
    """Least M capping (y0_i - y_i)/(y_j - y0_j) for all competitors.

    For every competing value y and coordinate i improving on y0, the best
    compensating coordinate j is used; y0 nondominated guarantees such a j
    exists.  Zero when no competitor improves anywhere.  The best j has the
    largest loss y_j - y0_j whatever i is, so the worst ratio against y is
    its largest gain over its largest loss.  Ratios are compared by
    cross-multiplication, so values scaled by ``_scaled`` give the bound
    of the rationals they scale.
    """
    num, den = 0, 1
    for y in values:
        gain = max(a - b for a, b in zip(y0, y))
        if gain <= 0:
            continue
        loss = max(b - a for a, b in zip(y0, y))
        if loss <= 0:
            raise InternalInconsistency("dominated reference point")
        if gain * den > num * loss:
            num, den = gain, loss
    return Fraction(num, den)


def geoffrion_bound(points, y0) -> Fraction:
    """Least valid trade-off constant for a nondominated member y0."""
    pts = _checked(points)
    ref = as_point(y0)
    if len(ref) != len(pts[0]):
        raise DimensionMismatch("reference point dimension mismatch")
    if ref not in pts:
        raise NotMember("reference point is not in the set")
    values, _ = _unique_groups(pts)
    scaled = _scaled(values)
    k = values.index(ref)
    if _dominators(*_componentwise(scaled, strict=False))[k] is not None:
        raise NotNondominated("reference point is dominated")
    return _tradeoff_bound(scaled, scaled[k])


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
    pts = _checked(points)
    values, groups = _unique_groups(pts)
    scaled = _scaled(values)
    frontier = _frontier_bounds(groups, scaled)
    weak = _survivors(_dominators(*_componentwise(scaled, strict=True)), groups)
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
    cone.  The sort-filter scan of ``_dominators`` runs one small LP per
    tested pair, only against undominated values kept so far and only
    after the exact prefilter d . z < d . y for the strictly positive
    direction d of the cone.
    """
    pts = _checked(points)
    if ordering.dim != len(pts[0]):
        raise DimensionMismatch(
            f"cone dim {ordering.dim} vs point dim {len(pts[0])}"
        )
    direction = strictly_positive_direction(ordering)
    values, groups = _unique_groups(pts)
    return _survivors(_dominators(*_cone_order(values, ordering, direction)), groups)
