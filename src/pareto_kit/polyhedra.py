"""Recession analysis of polyhedral image sets.

A polyhedron A y <= b is closed and convex by construction, which is the
setting where nonemptiness of the nondominated set, boundedness of the
lower sections, cone compactness, cone semicompactness, and external
stability all stand or fall together: every lower section has the
recession cone {d : A d <= 0, d <= 0}, so each of them holds exactly when
route (a) below finds no direction.  The report therefore stores one
verdict, nonemptiness, with its certificate; the ``poly`` command writes
it under the other four names.  Nonemptiness is computed by two
independent routes, and the report errors out if they ever disagree:

* route (a): a nonzero direction d <= 0 with A d <= 0 exists iff every
  point can be pushed down forever, i.e. the frontier is empty,
* route (b): when (a) reports nonempty, minimize the coordinate sum over a
  lower section to produce a concrete frontier point, then certify its
  nondominance with a second LP.

Frontier connectivity is probed by sampling: weighted-sum minima over a
simplex grid of strictly positive weights, joined when within a radius.
Radii compare through their squares so the Euclidean metric never forces
irrational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul, sub

from .errors import (
    EmptyFrontier,
    EmptyPolyhedron,
    InternalInconsistency,
    InvalidEpsilon,
    MalformedInput,
    NotMember,
    SizeCap,
)
from .hulls import HullSet
from .numerics import EQ, LE, OPTIMAL, LpOutcome, dot, linprog, lp_solve
from .numerics.linprog import lp_solve_batch
from .numerics.rational import as_matrix, as_point, rational_format, scaled_rows

Point = tuple[Fraction, ...]

# Entries kept by each lru_cache below; a long-running process reuses at
# most this many polyhedra's verdicts and does not grow past them.
CACHE_SIZE = 1024

# Most weights a connectivity grid may have: a grid of k in dimension p
# has comb(k - 1, p - 1) of them, each one minimization, and all are
# built before the first is solved.
MAX_GRID_WEIGHTS = 100_000


@dataclass(frozen=True)
class Polyhedron:
    """The solution set of A y <= b."""

    A: tuple[Point, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.A:
            raise MalformedInput("a polyhedron needs at least one inequality")
        if len(self.A) != len(self.b):
            raise MalformedInput("matrix and right-hand side differ in row count")

    @property
    def dim(self) -> int:
        return len(self.A[0])

    def contains(self, y) -> bool:
        point = as_point(y)
        return all(dot(row, point) <= rhs for row, rhs in zip(self.A, self.b))


def polyhedron(A, b) -> Polyhedron:
    matrix = as_matrix(A)
    rhs = as_point(b)
    return Polyhedron(matrix, rhs)


@lru_cache(maxsize=CACHE_SIZE)
def feasible_point(P: Polyhedron) -> Point | None:
    """Some exact member of P, or None when P is empty.  Deterministic."""
    rows = [(list(row), LE, rhs) for row, rhs in zip(P.A, P.b)]
    outcome = lp_solve(linprog([0] * P.dim, rows))
    return outcome.point if outcome.status == OPTIMAL else None


def _require_nonempty(P: Polyhedron) -> Point:
    base = feasible_point(P)
    if base is None:
        raise EmptyPolyhedron("the inequality system has no solution")
    return base


@dataclass(frozen=True)
class RecessionCone:
    """Directions d with A d <= 0 (the zero direction included)."""

    A: tuple[Point, ...]
    sample_directions: tuple[Point, ...]

    def contains(self, d) -> bool:
        point = as_point(d)
        return all(dot(row, point) <= 0 for row in self.A)


def recession_cone(P: Polyhedron) -> RecessionCone:
    """The recession cone of a nonempty P, with a few sampled rays.

    Rays are found by minimizing +-1 times each coordinate over the cone
    intersected with the unit box, as one batch over the same rows;
    nonzero optima are kept.
    """
    _require_nonempty(P)
    p = P.dim
    rows = [(list(row), LE, 0) for row in P.A]
    objectives = [
        [sign if j == i else 0 for j in range(p)] for i in range(p) for sign in (1, -1)
    ]
    rays: list[Point] = []
    for outcome in lp_solve_batch(objectives, rows, lower=[-1] * p, upper=[1] * p):
        if outcome.status != OPTIMAL:  # the unit box is compact
            raise InternalInconsistency("recession-ray LP is not optimal")
        if outcome.value < 0 and outcome.point not in rays:
            rays.append(outcome.point)
    return RecessionCone(P.A, tuple(rays))


@lru_cache(maxsize=CACHE_SIZE)
def negative_recession_direction(P: Polyhedron) -> Point | None:
    """A direction d != 0 with A d <= 0 and d <= 0, or None.

    Normalized so the coordinates sum to -1.  Its existence certifies an
    empty frontier: adding d strictly improves every point of P forever.
    """
    _require_nonempty(P)
    p = P.dim
    rows = [(list(row), LE, 0) for row in P.A]
    rows.append(([1] * p, EQ, -1))
    outcome = lp_solve(linprog([0] * p, rows, upper=[0] * p))
    return outcome.point if outcome.status == OPTIMAL else None


def lower_section_bounded(P: Polyhedron, y0) -> bool:
    """Is {y in P : y <= y0} bounded?

    The section's recession cone is {d : A d <= 0, d <= 0} regardless of
    y0, so the verdict is shared by every member point; membership of y0 is
    still required.
    """
    _require_nonempty(P)
    point = as_point(y0)
    if not P.contains(point):
        raise NotMember(f"{point} is not in the polyhedron")
    return negative_recession_direction(P) is None


def _section_minima(P: Polyhedron, anchor: Point, weight_list) -> list[LpOutcome]:
    """Minimize each weight vector over {y in P : y <= anchor}.

    The weights are positive integer vectors, such as the compositions of
    a grid: a positive factor on a weight moves no optimal point, and
    scales the optimal value with it.
    """
    rows = [(list(row), LE, rhs) for row, rhs in zip(P.A, P.b)]
    return lp_solve_batch(weight_list, rows, upper=anchor)


def _section_minimum(P: Polyhedron, anchor: Point) -> LpOutcome:
    """Minimize the coordinate sum over {y in P : y <= anchor}."""
    return _section_minima(P, anchor, [(1,) * P.dim])[0]


@dataclass(frozen=True)
class EquivalenceReport:
    """The frontier's nonemptiness verdict and its certificate.

    ``witness`` is a certified nondominated point when the frontier is
    nonempty, and ``negative_direction`` a direction d != 0 with A d <= 0
    and d <= 0 when it is empty; exactly one of them is set.
    """

    y_n_nonempty: bool
    witness: Point | None
    negative_direction: Point | None


def theorem_full_report(P: Polyhedron, samples=()) -> EquivalenceReport:
    """Decide whether a nonempty polyhedron has a nonempty frontier.

    Nonemptiness of the frontier is computed twice: by the recession route
    and, when that route says nonempty, by producing and certifying an
    actual nondominated point.  Disagreement between the routes raises
    InternalInconsistency; it would mean the LP kernel itself is wrong.
    Every sample must lie in P; the first anchors the witness's section.
    """
    base = _require_nonempty(P)
    sample_points = [as_point(s) for s in samples]
    for s in sample_points:
        if not P.contains(s):
            raise NotMember(f"sample {s} is not in the polyhedron")
    anchor = sample_points[0] if sample_points else base

    direction = negative_recession_direction(P)
    if direction is not None:
        return EquivalenceReport(False, None, direction)
    outcome = _section_minimum(P, anchor)
    if outcome.status != OPTIMAL:
        raise InternalInconsistency(
            "recession route says bounded but the section LP is unbounded"
        )
    witness = outcome.point
    certify = _section_minimum(P, witness)
    if certify.status != OPTIMAL or certify.value != sum(witness):
        raise InternalInconsistency(
            "witness produced by the section LP failed its nondominance check"
        )
    return EquivalenceReport(True, witness, None)


def _compositions(p: int, k: int) -> list[tuple[int, ...]]:
    """Integer tuples (n_1, ..., n_p) with n_i >= 1 summing to k.

    Stars and bars: p - 1 cut points in 1..k-1 split k into p positive
    parts, in lexicographic order of the tuples.
    """
    return [
        tuple(map(sub, cuts + (k,), (0,) + cuts))
        for cuts in combinations(range(1, k), p - 1)
    ]


def _distance_sq(a: Point, b: Point) -> Fraction:
    return sum(((x - y) * (x - y) for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class ConnectivityReport:
    samples: tuple[Point, ...]
    grid: int
    epsilon_sq: Fraction
    component_count: int
    components: tuple[int, ...]


def frontier_sample_connected(source, grid: int, epsilon=None) -> ConnectivityReport:
    """Sample frontier points on a weight grid and count proximity components.

    Hull sources are sampled by exact weighted-sum minimization over the
    generators.  Polyhedral sources need route (a)'s nonempty verdict; their
    samples minimize each weight over the lower section of a member,
    which keeps every grid LP bounded and still lands on globally
    nondominated points.  A grid weight (n_1/k, ..., n_p/k) is passed as
    its integer composition (n_1, ..., n_p): the positive factor k moves
    no minimizer, only the values, which are not read.  The default
    radius is four times the largest gap between consecutive distinct
    samples, carried as its square.  A grid with more than
    ``MAX_GRID_WEIGHTS`` weights raises SizeCap before any is built.
    """
    if grid < 1:
        raise MalformedInput("grid must be at least 1")
    if isinstance(source, HullSet):
        p = source.dim
    elif isinstance(source, Polyhedron):
        p = source.dim
    else:
        raise MalformedInput("source must be a HullSet or a Polyhedron")
    weights = comb(grid - 1, p - 1)
    if weights > MAX_GRID_WEIGHTS:
        raise SizeCap(
            f"grid {grid} has {weights} weights in dimension {p}, "
            f"over the cap {MAX_GRID_WEIGHTS}"
        )

    grid_counts = _compositions(p, grid)
    if not grid_counts:
        raise EmptyFrontier(
            f"grid {grid} admits no strictly positive weights in dimension {p}"
        )

    if isinstance(source, HullSet):
        # Scores on the generators scaled by their common denominator and
        # on the weights' integer numerators: a positive factor keeps the
        # argmin and its first-index tie-break.
        scaled = scaled_rows(source.generators)
        optima = []
        for counts in grid_counts:
            scores = [sum(map(mul, counts, g)) for g in scaled]
            optima.append(source.generators[scores.index(min(scores))])
    else:
        if negative_recession_direction(source) is not None:
            raise EmptyFrontier("the polyhedron has an empty frontier")
        outcomes = _section_minima(source, feasible_point(source), grid_counts)
        if any(o.status != OPTIMAL for o in outcomes):  # the section is compact
            raise InternalInconsistency("grid LP over a compact section is not optimal")
        optima = [o.point for o in outcomes]

    # A reused LP outcome, like a hull generator, is the same tuple object
    # as an earlier optimum: only a point object not met before is
    # compared by value.
    samples: list[Point] = []
    met: set[int] = set()
    for point in optima:
        if id(point) not in met:
            met.add(id(point))
            if point not in samples:
                samples.append(point)

    if epsilon is not None:
        from .numerics.rational import as_fraction

        eps = as_fraction(epsilon)
        if eps <= 0:
            raise InvalidEpsilon("epsilon must be positive")
        epsilon_sq = eps * eps
    elif len(samples) >= 2:
        epsilon_sq = 16 * max(
            _distance_sq(a, b) for a, b in zip(samples, samples[1:])
        )
    else:
        epsilon_sq = Fraction(1)

    parent = list(range(len(samples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            if _distance_sq(samples[i], samples[j]) <= epsilon_sq:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    component_of: dict[int, int] = {}
    components: list[int] = []
    for i in range(len(samples)):
        root = find(i)
        if root not in component_of:
            component_of[root] = len(component_of) + 1
        components.append(component_of[root])

    return ConnectivityReport(
        samples=tuple(samples),
        grid=grid,
        epsilon_sq=epsilon_sq,
        component_count=len(component_of),
        components=tuple(components),
    )


def polyhedron_to_json(P: Polyhedron) -> dict:
    return {
        "A": [[rational_format(x) for x in row] for row in P.A],
        "b": [rational_format(x) for x in P.b],
    }


def polyhedron_from_json(data: dict) -> Polyhedron:
    if not isinstance(data, dict) or "A" not in data or "b" not in data:
        raise MalformedInput('polyhedron JSON needs "A" and "b" keys')
    return polyhedron(data["A"], data["b"])
