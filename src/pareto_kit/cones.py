"""Componentwise orders on R^p and finitely generated ordering cones.

A cone is stored by its generators (all nonnegative combinations).  Its
inequality description comes from the double description method run on
its polar cone in exact integers: cone(G) = {y : E y = 0, N y >= 0} with
E a basis of the polar's lineality space and N the polar's extreme rays
(Weyl-Minkowski), for cones with a line and cones of lower rank too.
Every row is checked against every generator before it is used.  Cone
membership, pointedness and properness are integer sign checks against
this description; only the synthesis of a direction with strictly
positive inner product against every generator solves an exact linear
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import le, mul

from .errors import (
    DimensionMismatch,
    EmptySet,
    ImproperCone,
    InternalInconsistency,
    MalformedInput,
    NotPointed,
)
from .numerics import GE, OPTIMAL, dot, linprog, lp_solve
from .numerics.rational import as_matrix, as_point, common_denominator

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
                raise MalformedInput("cone generators must be nonzero")

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


def _integer_generators(c: PolyhedralCone) -> list[tuple[int, ...]]:
    """Each generator times the least common denominator of its entries."""
    return [tuple(common_denominator(g)[0]) for g in c.generators]


def _idot(a, b) -> int:
    return sum(map(mul, a, b))


def _eliminate(a, sa: int, b, sb: int) -> tuple[int, ...]:
    """sa * b - sb * a, the combination with zero product against g when
    sa = a . g and sb = b . g; with sa > 0 and sb <= 0 it keeps the cone
    side of both, and it is divided by the gcd of its entries."""
    v = [sa * y - sb * x for x, y in zip(a, b)]
    k = gcd(*v)
    return tuple(x // k for x in v) if k > 1 else tuple(v)


def _polar(gens: list[tuple[int, ...]]):
    """Double description of the polar {n : n . g >= 0 for every g}.

    Returns (E, N): a basis E of the polar's lineality space, the
    orthogonal complement of span G, and the polar's extreme rays N, each
    ray known modulo that space.  Starts from R^p (every unit vector a
    line, no ray) and adds the half-spaces n . g >= 0 one at a time
    (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996):

    - if some line has nonzero product with g, it leaves the lineality
      space.  Oriented so that its product is positive, it becomes a new
      ray, and every other line and ray is moved along it onto g's
      hyperplane;
    - otherwise the rays with product >= 0 stay, and each adjacent pair of
      rays with opposite signs gives a new ray on the hyperplane.  Rays
      are adjacent when no third ray has zero product with every generator
      that both have zero product with (the combinatorial test), which
      needs at least p - |E| - 2 such generators.

    A ray carries the bit set of the generators it has zero product with.
    """
    p = len(gens[0])
    lines = [tuple(int(i == j) for j in range(p)) for i in range(p)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, g in enumerate(gens):
        bit = 1 << k
        products = [_idot(line, g) for line in lines]
        i = next((i for i, s in enumerate(products) if s), None)
        if i is not None:
            pivot, s = lines[i], products[i]
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lines = [
                _eliminate(pivot, s, line, t)
                for j, (line, t) in enumerate(zip(lines, products))
                if j != i
            ]
            rays = [(_eliminate(pivot, s, r, _idot(r, g)), z | bit) for r, z in rays]
            rays.append((pivot, bit - 1))
            continue
        signs = [_idot(r, g) for r, _ in rays]
        floor = p - len(lines) - 2
        kept = [(r, z | bit if t == 0 else z) for (r, z), t in zip(rays, signs) if t >= 0]
        for a, ((ra, za), ta) in enumerate(zip(rays, signs)):
            if ta <= 0:
                continue
            for b, ((rb, zb), tb) in enumerate(zip(rays, signs)):
                if tb >= 0:
                    continue
                common = za & zb
                if common.bit_count() < floor or any(
                    z & common == common
                    for q, (_, z) in enumerate(rays)
                    if q != a and q != b
                ):
                    continue
                kept.append((_eliminate(ra, ta, rb, tb), common | bit))
        rays = kept
    return lines, [r for r, _ in rays]


def _description(c: PolyhedralCone):
    """(E, N) with cone(G) = {y : E y = 0, N y >= 0}, every row checked.

    E y = 0 puts y in span G and N y >= 0 puts it on the cone side of
    every facet: the cone is the dual of its polar (Weyl-Minkowski).  Each
    row is checked against every generator in integers (e . g = 0,
    n . g >= 0, no zero row), so a point that fails a row is separated
    from the cone by a checked Farkas certificate.
    """
    gens = _integer_generators(c)
    lineality, rays = _polar(gens)
    for e in lineality:
        if not any(e) or any(_idot(e, g) for g in gens):
            raise InternalInconsistency("lineality row is not orthogonal to the cone")
    for n in rays:
        if not any(n) or any(_idot(n, g) < 0 for g in gens):
            raise InternalInconsistency("facet row is negative on a generator")
    return lineality, rays


def _cone_precedes(c: PolyhedralCone, rows):
    """The test precedes(j, k): rows[k] - rows[j] is in the cone.

    ``rows`` are integer points, or points scaled by one positive factor.
    The description is built once and each row mapped to (E y, N y), so a
    test compares these images: equal E parts and N y_j <= N y_k.
    """
    lineality, rays = _description(c)
    level = [tuple(_idot(e, y) for e in lineality) for y in rows]
    height = [tuple(_idot(n, y) for n in rays) for y in rows]
    return lambda j, k: level[j] == level[k] and all(map(le, height[j], height[k]))


def cone_contains(c: PolyhedralCone, y) -> bool:
    """Is y a nonnegative combination of the generators?"""
    point = as_point(y)
    if len(point) != c.dim:
        raise DimensionMismatch(f"point dim {len(point)} vs cone dim {c.dim}")
    return _cone_precedes(c, [(0,) * c.dim, common_denominator(point)[0]])(0, 1)


@lru_cache(maxsize=CACHE_SIZE)
def is_pointed(c: PolyhedralCone) -> bool:
    """True when the cone contains no line.

    For a finitely generated cone the lineality space is nontrivial exactly
    when some negated generator is itself in the cone.
    """
    gens = _integer_generators(c)
    precedes = _cone_precedes(c, [(0,) * c.dim] + gens)
    return not any(precedes(k, 0) for k in range(1, len(gens) + 1))


@lru_cache(maxsize=CACHE_SIZE)
def is_proper(c: PolyhedralCone) -> bool:
    """True when the cone is neither {0} nor all of R^p.

    A nonzero generator rules out {0}.  The cone is all of R^p exactly when
    its description has no row: with no row every point satisfies it.
    """
    lineality, rays = _description(c)
    return bool(lineality or rays)


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
    if not isinstance(data, dict) or "generators" not in data:
        raise MalformedInput('cone JSON needs a "generators" key')
    return PolyhedralCone(as_matrix(data["generators"]))
