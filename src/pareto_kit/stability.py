"""Constructive external stability for finite point sets.

For a dominated point y0 the auxiliary problem "minimize the coordinate
sum over points below y0" always lands on a nondominated point; its cone
variant minimizes d . y over the points cone-below y0 for a direction d
with strictly positive products against the cone; ties are broken
lexicographically.  One sort-filter scan of the set finds these minimizers
for every point, assembled into a certificate that can be re-verified
without re-running the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .cones import PolyhedralCone, _cone_precedes, strictly_positive_direction
from .cones import cone_from_json, cone_to_json
from .dominance import (
    _checked,
    _componentwise,
    _cone_order,
    _dominators,
    _surviving_indices,
    _survivors,
    _unique_groups,
)
from .errors import DimensionMismatch, MalformedInput, NotMember
from .numerics import dot, rational_parse
from .numerics.rational import as_point, rational_format, scaled_rows

Point = tuple[Fraction, ...]


def find_dominator(points, y0) -> Point:
    """Minimizer of the coordinate sum over {y in Y : y <= y0}.

    Ties on the sum are broken by the lexicographically smallest point.
    The result is always nondominated: anything below it would have had a
    strictly smaller coordinate sum while staying feasible.
    """
    pts = _checked(points)
    ref = as_point(y0)
    if ref not in pts:
        raise NotMember("reference point is not in the set")
    values, _ = _unique_groups(pts)
    feasible = [y for y in values if all(a <= b for a, b in zip(y, ref))]
    return min(feasible, key=lambda y: (sum(y), y))


def _direction(ordering: PolyhedralCone, direction) -> Point:
    """``direction``, or a synthesized one when it is None; a supplied
    direction must have positive product with every generator."""
    if direction is None:
        return strictly_positive_direction(ordering)
    d = as_point(direction)
    if any(dot(d, g) <= 0 for g in ordering.generators):
        raise MalformedInput("supplied direction is not strictly positive on the cone")
    return d


def find_dominator_cone(points, ordering: PolyhedralCone, y0, direction=None) -> Point:
    """Minimizer of d . y over the points cone-below y0.

    ``direction`` defaults to a synthesized strictly positive direction of
    the cone; a caller-supplied one must have positive product with every
    generator.  Ties are broken lexicographically.
    """
    pts = _checked(points)
    ref = as_point(y0)
    if ordering.dim != len(ref):
        raise DimensionMismatch("cone and point dimensions differ")
    if ref not in pts:
        raise NotMember("reference point is not in the set")
    d = _direction(ordering, direction)
    values, _ = _unique_groups(pts)
    precedes = _cone_precedes(ordering, scaled_rows(values))
    top = values.index(ref)
    feasible = [y for k, y in enumerate(values) if precedes(k, top)]
    return min(feasible, key=lambda y: (dot(d, y), y))


@dataclass(frozen=True)
class DominatorCertificate:
    """Checkable evidence that every point is covered by a nondominated one.

    assignments maps each index of the input to the index of its dominator;
    nondominated points map to themselves.
    """

    assignments: dict[int, int]
    cone: PolyhedralCone | None = None
    direction: Point | None = None


def external_stability_certificate(
    points, ordering: PolyhedralCone | None = None, direction=None
) -> DominatorCertificate:
    """Map every index to the first index of the value that ``find_dominator``
    (or ``find_dominator_cone``, with its input checks) returns for it."""
    pts = _checked(points)
    values, groups = _unique_groups(scaled_rows(pts))
    if ordering is None:
        order = _componentwise(values, strict=False)
    else:
        direction = _direction(ordering, direction)
        order = _cone_order(values, ordering, direction)
    found = _dominators(*order)
    target = [0] * len(pts)
    for group, j in zip(groups.values(), found):
        for i in group:
            target[i] = i if j is None else groups[values[j]][0]
    return DominatorCertificate(
        assignments=dict(enumerate(target)),
        cone=ordering,
        direction=None if direction is None else as_point(direction),
    )


def verify_certificate(points, certificate: DominatorCertificate) -> bool:
    """Re-check a certificate from scratch.

    Confirms totality, that every dominator is (cone-)nondominated, that it
    (cone-)dominates or equals its source, idempotence, and that
    nondominated sources map to themselves.
    """
    pts = _checked(points)
    assignments = certificate.assignments
    if sorted(assignments) != list(range(len(pts))):
        return False
    scaled = scaled_rows(pts)
    if certificate.cone is None:
        frontier = set(_surviving_indices(scaled, strict=False))
        below = lambda j, i: all(map(le, scaled[j], scaled[i]))
    else:  # one description; the order's test is "cone-below and distinct"
        values, groups = _unique_groups(scaled)
        direction = strictly_positive_direction(certificate.cone)
        keys, precedes = _cone_order(values, certificate.cone, direction)
        frontier = set(_survivors(_dominators(keys, precedes), groups))
        index = {v: k for k, v in enumerate(values)}
        at = [index[y] for y in scaled]
        below = lambda j, i: at[j] == at[i] or precedes(at[j], at[i])
    for i, j in assignments.items():
        if j not in frontier:
            return False
        if not below(j, i):
            return False
        if assignments[j] != j:
            return False
        if i in frontier and j != i:
            return False
    return True


def certificate_to_json(certificate: DominatorCertificate) -> dict:
    data: dict = {
        "cone": None if certificate.cone is None else cone_to_json(certificate.cone),
        "assignments": [
            {"from": i + 1, "to": j + 1}
            for i, j in sorted(certificate.assignments.items())
        ],
    }
    if certificate.direction is not None:
        data["direction"] = [rational_format(x) for x in certificate.direction]
    return data


def certificate_from_json(data: dict) -> DominatorCertificate:
    if not isinstance(data, dict) or "assignments" not in data:
        raise MalformedInput('certificate JSON needs an "assignments" key')
    entries, direction = data["assignments"], data.get("direction")
    if not isinstance(entries, list) or not isinstance(direction, (list, type(None))):
        raise MalformedInput('certificate "assignments" and "direction" must be lists')
    for entry in entries:
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), int) for key in ("from", "to")
        ):
            raise MalformedInput('each assignment needs integer "from" and "to"')
    ordering = None if data.get("cone") is None else cone_from_json(data["cone"])
    return DominatorCertificate(
        assignments={entry["from"] - 1: entry["to"] - 1 for entry in entries},
        cone=ordering,
        direction=None if direction is None else tuple(map(rational_parse, direction)),
    )
