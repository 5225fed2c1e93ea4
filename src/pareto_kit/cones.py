"""Componentwise orders on R^p and finitely generated ordering cones.

A cone is stored by its generators (all nonnegative combinations).  Cone
membership, pointedness, properness, and the synthesis of a direction with
strictly positive inner product against every generator are all decided by
exact linear programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    EmptySet,
    ImproperCone,
    InternalInconsistency,
    NotPointed,
)
from .numerics import EQ, GE, OPTIMAL, dot, linprog, lp_solve
from .numerics.rational import as_matrix, as_point

# Entries kept by each lru_cache below; a long-running process reuses at
# most this many cones' verdicts and does not grow past them.
CACHE_SIZE = 1024


@dataclass(frozen=True)
class OrderRelation:
    """Exact componentwise comparison of two points.

    leqq: every coordinate of a is <= the matching coordinate of b.
    leq:  leqq and the points differ.
    lt:   strict inequality in every coordinate.
    """

    leqq: bool
    leq: bool
    lt: bool


def order_relation(a, b) -> OrderRelation:
    pa, pb = as_point(a), as_point(b)
    if len(pa) != len(pb):
        raise DimensionMismatch(f"points of dimension {len(pa)} and {len(pb)}")
    leqq = all(x <= y for x, y in zip(pa, pb))
    lt = all(x < y for x, y in zip(pa, pb))
    return OrderRelation(leqq=leqq, leq=leqq and pa != pb, lt=lt)


@dataclass(frozen=True)
class PolyhedralCone:
    """All nonnegative combinations of finitely many nonzero generators."""

    generators: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.generators:
            raise EmptySet("a cone needs at least one generator")
        for g in self.generators:
            if all(x == 0 for x in g):
                raise ValueError("cone generators must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.generators[0])


def cone(generators) -> PolyhedralCone:
    return PolyhedralCone(as_matrix(generators))


def natural_cone(p: int) -> PolyhedralCone:
    """The nonnegative orthant of R^p."""
    one, zero = Fraction(1), Fraction(0)
    return PolyhedralCone(
        tuple(tuple(one if i == j else zero for j in range(p)) for i in range(p))
    )


def cone_contains(c: PolyhedralCone, y) -> bool:
    """Is y a nonnegative combination of the generators?"""
    point = as_point(y)
    if len(point) != c.dim:
        raise DimensionMismatch(f"point dim {len(point)} vs cone dim {c.dim}")
    if all(x == 0 for x in point):
        return True
    m = len(c.generators)
    rows = [
        ([g[i] for g in c.generators], EQ, point[i]) for i in range(c.dim)
    ]
    lp = linprog([0] * m, rows, lower=[0] * m)
    return lp_solve(lp).status == OPTIMAL


@lru_cache(maxsize=CACHE_SIZE)
def is_pointed(c: PolyhedralCone) -> bool:
    """True when the cone contains no line.

    For a finitely generated cone the lineality space is nontrivial exactly
    when some negated generator is itself in the cone, so a per-generator
    membership check decides pointedness.
    """
    return not any(
        cone_contains(c, tuple(-x for x in g)) for g in c.generators
    )


@lru_cache(maxsize=CACHE_SIZE)
def is_proper(c: PolyhedralCone) -> bool:
    """True when the cone is neither {0} nor all of R^p.

    A nonzero generator rules out {0}.  A pointed cone is never the whole
    space; otherwise the cone is a proper subset iff some nonzero d has
    nonnegative inner product with every generator, found by fixing one
    coordinate of d to +-1.
    """
    if is_pointed(c):
        return True
    p = c.dim
    halfspace_rows = [(list(g), GE, 0) for g in c.generators]
    for i in range(p):
        for sign in (1, -1):
            unit = [0] * p
            unit[i] = 1
            rows = halfspace_rows + [(unit, EQ, sign)]
            if lp_solve(linprog([0] * p, rows)).status == OPTIMAL:
                return True
    return False


@lru_cache(maxsize=CACHE_SIZE)
def strictly_positive_direction(c: PolyhedralCone) -> tuple[Fraction, ...]:
    """A direction d with d . g > 0 for every generator g.

    Found by maximizing the common slack delta subject to d . g >= delta
    with d confined to the unit box; a positive optimum exists iff the cone
    is pointed.  The postcondition is re-checked exactly before returning.
    """
    if not is_proper(c):
        raise ImproperCone("direction synthesis needs a proper cone")
    p = c.dim
    # variables: d_1..d_p in [-1, 1], delta in [0, 1]
    rows = [(list(g) + [-1], GE, 0) for g in c.generators]
    lp = linprog(
        [0] * p + [-1],
        rows,
        lower=[-1] * p + [0],
        upper=[1] * p + [1],
    )
    outcome = lp_solve(lp)
    if outcome.status != OPTIMAL:  # the feasible box is compact
        raise InternalInconsistency("direction LP over a box is not optimal")
    delta = outcome.point[-1]
    if delta <= 0:
        raise NotPointed(
            "cone is not pointed: it contains a line, so no strictly "
            "positive direction exists"
        )
    direction = outcome.point[:p]
    if not all(dot(direction, g) > 0 for g in c.generators):
        raise InternalInconsistency("direction is not strictly positive on the cone")
    return direction


def cone_to_json(c: PolyhedralCone) -> dict:
    from .numerics.rational import rational_format

    return {
        "generators": [[rational_format(x) for x in g] for g in c.generators]
    }


def cone_from_json(data: dict) -> PolyhedralCone:
    from .errors import MalformedInput

    if not isinstance(data, dict) or "generators" not in data:
        raise MalformedInput('cone JSON needs a "generators" key')
    return cone(data["generators"])
