"""Pareto reducibility over the subproblems of a finite instance.

An instance is a label list plus an objective matrix.  For every nonempty
subset rho of the objectives, the efficient and properly efficient label
sets of the projected subproblem are computed exactly, and the union over
all 2^p - 1 subsets is compared with the weakly efficient set of the full
problem.  ``efficient_solutions`` and ``properly_efficient_solutions`` scan
one subproblem each; the report answers every subset at once from one sort
of the weakly efficient rows per objective, kept as rank bitsets (Tan, Eng
and Ooi 2001).  On finite images the inclusion "union inside weak" always
holds; equality can fail, and the report then lists the witnesses.  In
hull mode (convex image by construction) both sides are read from one
certified classification of each query, so they agree query by query.

Selector indices are 1-based throughout, matching objective names y1..yp.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

from .dominance import _frontier_bounds, _surviving_indices, _unique_groups
from .errors import (
    DimensionMismatch,
    EmptySelector,
    EmptySet,
    InternalInconsistency,
    MalformedInput,
    NegativeWeight,
    TooManyObjectives,
    ZeroWeights,
)
from .hulls import HullSet, _classify
from .numerics.rational import as_matrix, as_point, dot, rational_format, scaled_rows

Point = tuple[Fraction, ...]
Selector = tuple[int, ...]

SELECTOR_CAP = 16


@dataclass(frozen=True)
class MopInstance:
    """Labeled decisions with their objective rows (n rows, p >= 2 columns)."""

    labels: tuple[str, ...]
    objectives: tuple[Point, ...]

    def __post_init__(self):
        if not self.objectives:
            raise EmptySet("an instance needs at least one row")
        if len(self.labels) != len(self.objectives):
            raise MalformedInput("labels and objective rows differ in count")
        if len(set(self.labels)) != len(self.labels):
            raise MalformedInput("labels must be unique")
        if len(self.objectives[0]) < 2:
            raise DimensionMismatch("an instance needs at least two objectives")

    @property
    def p(self) -> int:
        return len(self.objectives[0])


def mop_instance(labels, objectives) -> MopInstance:
    if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
        raise MalformedInput("instance labels must be a list of strings")
    return MopInstance(tuple(labels), as_matrix(objectives))


def _index(i) -> int:
    try:
        if int(i) == i:
            return int(i)
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedInput(f"selector index {i!r} is not an integer")


def _selector(inst: MopInstance, rho) -> Selector:
    sel = tuple(sorted(set(map(_index, rho))))
    if not sel:
        raise EmptySelector("objective subset must be nonempty")
    if sel[0] < 1 or sel[-1] > inst.p:
        raise MalformedInput(f"selector {sel} outside 1..{inst.p}")
    return sel


def _project(rows, sel: Selector) -> list[tuple]:
    return [tuple(row[i - 1] for i in sel) for row in rows]


def _nondominated_labels(inst: MopInstance, projected: list[Point], strict: bool):
    return [inst.labels[i] for i in _surviving_indices(scaled_rows(projected), strict)]


def efficient_solutions(inst: MopInstance, rho) -> list[str]:
    """Labels whose projected rows are nondominated in the projected image."""
    sel = _selector(inst, rho)
    return _nondominated_labels(inst, _project(inst.objectives, sel), strict=False)


def weakly_efficient_solutions(inst: MopInstance) -> list[str]:
    """Labels whose rows no other row beats strictly in every objective."""
    return _nondominated_labels(inst, list(inst.objectives), strict=True)


def properly_efficient_solutions(inst: MopInstance, rho) -> dict[str, Fraction]:
    """Efficient labels of the subproblem with their trade-off bounds.

    On finite images proper efficiency coincides with efficiency and every
    bound is finite.  A single-objective selector degenerates to the argmin
    set, whose bound is zero by the empty-competitor convention.
    """
    sel = _selector(inst, rho)
    values, groups = _unique_groups(scaled_rows(_project(inst.objectives, sel)))
    return {inst.labels[i]: bound for i, bound in _frontier_bounds(groups, values)}


def all_selectors(p: int) -> list[Selector]:
    """Every nonempty subset of 1..p in canonical (size, lexicographic) order."""
    out: list[Selector] = []
    for size in range(1, p + 1):
        out.extend(combinations(range(1, p + 1), size))
    return out


@dataclass(frozen=True)
class ReducibilityReport:
    we_set: tuple[str, ...]
    union_e: dict[str, Selector]
    union_pe: dict[str, Selector]
    equality_e: bool
    equality_pe: bool
    strict_witnesses: tuple[str, ...]


def _rank_bits(rows: list[tuple[int, ...]], i: int) -> tuple[list[int], list[int]]:
    """For objective i, each row's bitset of the rows at most its value
    there (itself and its ties included) and of the rows strictly below
    it, bit k standing for row k: one sort, one pass over its tie groups."""
    value = [row[i] for row in rows].__getitem__
    at_most, below = [0] * len(rows), [0] * len(rows)
    seen = 0
    for _, tied in groupby(sorted(range(len(rows)), key=value), value):
        tied = list(tied)
        bits = sum(1 << k for k in tied)
        for k in tied:
            at_most[k], below[k] = seen | bits, seen
        seen |= bits
    return at_most, below


def reducibility_report(inst: MopInstance, max_objectives: int = SELECTOR_CAP) -> ReducibilityReport:
    """Compare the weakly efficient set against the subproblem unions.

    The objectives are scaled to integers once, and one strict scan of
    them finds the weakly efficient (WE) rows.  Leaving the other rows
    out of every subproblem is exact.  A row that is not WE is strictly
    beaten in every objective by some WE row, so in every projection its
    value is dominated.  A dominated projected value keeps a nondominated
    dominator, whose rows are all WE, so the WE rows alone decide which
    of them are efficient in each subproblem.

    One sort per objective i gives, for each WE row a, the bitsets
    at_most[i][a] (WE rows b with b_i <= a_i) and below[i][a]
    (b_i < a_i), after the bitmap skyline of Tan, Eng and Ooi 2001.  Row
    a is efficient for the selector I exactly when no row is at most a on
    I and below it somewhere in I: AND of at_most[i][a] over I, AND the OR
    of below[i][a] over I, is 0.  Rows equal to a on I are never below it,
    so they stay in that AND, and its lowest bit is the first WE row with
    a's projection.  Each row walks the selectors in ``all_selectors``
    order and stops at the first that works: its selector in both unions.
    On finite sets proper efficiency equals efficiency, so ``union_pe``
    holds the labels of ``union_e``.  ``union_e`` is ordered by (first
    selector, row), the order in which ``efficient_solutions`` lists
    them; ``union_pe`` by (first selector, first row with the same
    projection onto it, row), the value-group order of
    ``properly_efficient_solutions``.  A WE row that no selector makes
    efficient is a strict witness.
    """
    if inst.p > max_objectives:
        raise TooManyObjectives(
            f"{inst.p} objectives exceed the enumeration cap {max_objectives}"
        )
    scaled = scaled_rows(inst.objectives)
    rows = _surviving_indices(scaled, strict=True)
    we = [inst.labels[i] for i in rows]
    we_rows = [scaled[i] for i in rows]
    ranks = [_rank_bits(we_rows, i) for i in range(inst.p)]
    selectors = all_selectors(inst.p)
    firsts = []  # (selector position, lead row, row) of each efficient WE row
    for k in range(len(rows)):
        at_most = [bits[k] for bits, _ in ranks]
        below = [bits[k] for _, bits in ranks]
        for s, sel in enumerate(selectors):
            same, lower = -1, 0
            for i in sel:
                same &= at_most[i - 1]
                lower |= below[i - 1]
            if not same & lower:
                firsts.append((s, (same & -same).bit_length() - 1, k))
                break
    by_row = sorted(firsts, key=lambda first: (first[0], first[2]))
    union_e = {we[k]: selectors[s] for s, _, k in by_row}
    union_pe = {we[k]: selectors[s] for s, _, k in sorted(firsts)}
    we_set = set(we)
    if not set(union_pe) <= set(union_e) <= we_set:
        raise InternalInconsistency("subproblem unions escaped the weak set")
    strict = tuple(label for label in we if label not in union_e)
    return ReducibilityReport(
        we_set=tuple(we),
        union_e=union_e,
        union_pe=union_pe,
        equality_e=set(union_e) == we_set,
        equality_pe=set(union_pe) == we_set,
        strict_witnesses=strict,
    )


def weighted_sum_argmin(inst: MopInstance, weights) -> list[str]:
    """Labels minimizing the weighted objective sum (all ties included)."""
    lam = as_point(weights)
    if len(lam) != inst.p:
        raise DimensionMismatch("weight vector length differs from objectives")
    if any(w < 0 for w in lam):
        raise NegativeWeight("weights must be nonnegative")
    if all(w == 0 for w in lam):
        raise ZeroWeights("weights must not all be zero")
    scores = [dot(lam, row) for row in inst.objectives]
    best = min(scores)
    return [label for label, s in zip(inst.labels, scores) if s == best]


@dataclass(frozen=True)
class HullReducibilityRecord:
    query: Point
    lhs: bool
    rhs: bool
    witness: Selector | None


def hull_reducibility_check(
    w: HullSet, queries, max_objectives: int = SELECTOR_CAP
) -> list[HullReducibilityRecord]:
    """Check, per query, weak nondominance against the subset route.

    lhs: the query is weakly nondominated in conv(W).  rhs: some nonempty
    objective subset projects the query onto a properly nondominated point
    of the projected hull.  On hull instances the two are equivalent, and
    both are read from ``hulls._classify``.  For a dominated query (lhs
    False) rhs follows from its strict dominator z, checked in integers:
    every projection of z lies in the projected hull and strictly
    dominates the projected query, so no subproblem is solved and the
    record has no witness.  A weakly nondominated query reads the rays of
    its weight cone {lambda >= 0 : lambda . (w - y0) >= 0 for every
    generator w}.  Its projection onto a selector I is properly
    nondominated exactly when some weight in the cone is positive on I and
    zero off it (Geoffrion 1968); those weights are spanned by the rays
    whose support lies inside I.  So the first selector that works is the
    smallest support of a ray, by size and then lexicographically.
    ``_classify`` gives the rays of every weakly nondominated query and
    raises when there is none, so lhs = rhs.
    """
    if w.dim > max_objectives:
        raise TooManyObjectives(
            f"{w.dim} objectives exceed the enumeration cap {max_objectives}"
        )

    def check_one(query) -> HullReducibilityRecord:
        point = as_point(query)
        # raises NotInHull for a non-member, DimensionMismatch for a wrong width
        dominator, rays, _ = _classify(w, point)
        if dominator is not None:
            return HullReducibilityRecord(point, False, False, None)
        supports = [tuple(i + 1 for i, x in enumerate(r) if x) for r in rays]
        sel = min(supports, key=lambda s: (len(s), s))
        return HullReducibilityRecord(point, True, True, sel)

    return [check_one(query) for query in queries]


def instance_to_json(inst: MopInstance) -> dict:
    return {
        "labels": list(inst.labels),
        "objectives": [[rational_format(x) for x in row] for row in inst.objectives],
    }


def instance_from_json(data: dict) -> MopInstance:
    if not isinstance(data, dict) or "objectives" not in data:
        raise MalformedInput('instance JSON needs an "objectives" key')
    rows = as_matrix(data["objectives"])
    labels = data.get("labels")
    if labels is None:
        labels = [f"x{i + 1}" for i in range(len(rows))]
    return mop_instance(labels, rows)
