"""Deterministic exact linear programming.

Every geometric decision in the package (dominance over a cone, hull
membership, boundedness of a lower section) reduces to a small linear
program solved here with a two-phase simplex over exact rationals and
Bland's pivot rule.  Outcomes are therefore exact and reproducible:
identical inputs give identical statuses, values, and points.  The pivot
loop runs on the fraction-free integer tableau of ``_simplex_py``: every
row is integers over one denominator d, the determinant of the basis.

``lp_solve`` and ``lp_solve_batch`` share one driver, ``_solve``.  It
takes the objective-independent part of a program (``_Template``: the
constraints scaled to integers once, standardized, plus the phase-1 cost
row and the bounds) and a list of objectives, each as integer
numerators over a positive denominator; the two entry points coerce
their objectives to that form.

Each constraint enters as an integer row with a slack or artificial of
coefficient +-1: over the rationals that variable is the row's own
slack (or artificial) times the row's positive denominator.  Scaling
one column by a positive factor keeps the sign of every entry and
reduced cost and the order of every ratio in every tableau, so Bland's
rule makes the pivots it would make on the rational rows, and the
point, value and tie-breaks are unchanged.  The phase-1 objective, the
sum of the unscaled artificials, weighs each scaled artificial by one
over its row's denominator.

Phase 1 runs once per batch (``_phase1``): its pivots are chosen from
the phase-1 cost row and the constraint rows alone, so it depends only
on the constraints (Chvatal 1983, Linear Programming, ch. 8).  Each cold
solve starts phase 2 (``_run``) at the basis phase 1 ended at, from the
row d c - sum_r c[B_r] row_r: the row that carrying the cost row c
through phase 1's pivots would leave, so every later division stays
exact, and the phase-2 pivots, points and values are those of a solve
of its own; a batch still equals ``lp_solve`` per objective.  An
INFEASIBLE phase 1 answers every objective of the batch.

A basis kept in the batch holds its
reduced-cost map: one integer vector per nonbasic column over the
caller's variables, whose dot product with the objective's numerators
is that column's reduced cost times a positive factor.  Three rules
answer an objective without a solve, each with a point that a cold
solve would also return (see ``_solve``): a cold solve that shows the
program has one feasible point answers the rest of the batch; a basis
whose maps cover every positive objective answers those; any other
objective is priced at the kept bases, and the first one at which the
point is provably the unique optimum supplies it.  An answered
objective is valued at its point; when no rule answers, the
objective's cost row is built and it is solved cold.  Every point is
read out of the tableau in integers and re-substituted by
``_check_outcome`` into the same integer rows once, when a cold solve
returns it, and only then may a rule read it or its basis be kept,
after each map has been checked against the reduced costs the pivots
left in that solve's cost row.

Bounds are standardized only here: a variable is shifted, reflected or
split (see ``_template``), and every point is read back and checked in
the caller's own variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ..errors import DimensionMismatch, InternalInconsistency, MalformedInput
from . import _simplex_py
from .rational import as_fraction, common_denominator

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int | Fraction, ...]
    relation: str
    rhs: int | Fraction


def _check_row(n: int, coeffs, relation) -> None:
    if len(coeffs) != n:
        raise DimensionMismatch(
            f"constraint has {len(coeffs)} coefficients, expected {n}"
        )
    if relation not in _RELATIONS:
        raise MalformedInput(f"unknown relation {relation!r}")


def _check_bounds(n: int, lower, upper) -> None:
    if n == 0:
        raise DimensionMismatch("a linear program needs at least one variable")
    for bounds in (lower, upper):
        if bounds is not None and len(bounds) != n:
            raise DimensionMismatch("bounds length does not match variable count")


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x subject to rows and optional variable bounds."""

    objective: tuple[int | Fraction, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[int | Fraction | None, ...] | None = None
    upper: tuple[int | Fraction | None, ...] | None = None

    def __post_init__(self):
        n = len(self.objective)
        _check_bounds(n, self.lower, self.upper)
        for con in self.constraints:
            _check_row(n, con.coeffs, con.relation)


@dataclass(frozen=True)
class LpOutcome:
    """A status, and for OPTIMAL the value and the point.  ``scaled`` is
    the point as (integer numerators, positive denominator) in lowest
    terms, the form in which it was checked."""

    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    scaled: tuple[tuple[int, ...], int] | None = None


def _exact(value):
    """An ``int`` as it is (it has the ``numerator`` and ``denominator``
    that ``_template`` reads), anything else through ``as_fraction``."""
    return value if isinstance(value, int) else as_fraction(value)


def _exact_bounds(values):
    if values is None:
        return None
    return tuple(None if v is None else _exact(v) for v in values)


def linprog(objective, rows, lower=None, upper=None) -> LinearProgram:
    """Build a LinearProgram, coercing str entries to exact fractions.

    ``rows`` is an iterable of (coefficients, relation, rhs) triples.  An
    ``int`` entry is kept as it is.
    """
    obj = tuple(map(_exact, objective))
    cons = tuple(
        Constraint(tuple(map(_exact, coeffs)), rel, _exact(rhs))
        for coeffs, rel, rhs in rows
    )
    return LinearProgram(obj, cons, _exact_bounds(lower), _exact_bounds(upper))


@dataclass
class _Template:
    """The objective-independent part of a standardized program.

    The constraint rows, initial basis, and phase-1 cost row depend only
    on the rows and bounds, so every objective of a batch shares one
    template.  ``rows`` are integer rows, each with its own slack or
    artificial at coefficient +-1, whose initial basic columns form an
    identity: the tableau's form at d = 1.  ``cost1`` is the phase-1
    cost row reduced at that basis, times a positive integer.
    ``var_map`` holds (kind, column, base) per variable, and
    ``base_nums`` over ``base_den`` the bases scaled to integers once.
    ``checks`` holds each original constraint a . x (rel) rhs scaled to
    integers by the least common denominator of its coefficients and
    right-hand side, and ``lower`` and ``upper`` hold one bound (or None)
    per variable; ``_check_outcome`` reads those.
    """

    rows: list[list[int]]
    cost1: list[int]
    nrows: int
    n_real: int
    n_std: int
    n_art: int
    basis: list[int]
    var_map: list[tuple]
    base_nums: list[int]
    base_den: int
    checks: list[tuple[list[int], str, int]]
    lower: tuple[Fraction | None, ...]
    upper: tuple[Fraction | None, ...]


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """``nums`` over ``den`` > 0 in lowest terms."""
    g = gcd(den, *nums)
    if g > 1:
        return [x // g for x in nums], den // g
    return nums, den


def _columns(var_map: list[tuple], nums: list[int], width: int) -> list[int]:
    """The coefficients ``nums`` of the original variables as a row of
    ``width`` standardized columns: negated on a reflected variable's
    column, and on a split variable's second column."""
    out = [0] * width
    for a, (kind, col, _) in zip(nums, var_map):
        if a:
            out[col] = -a if kind == "reflect" else a
            if kind == "split":
                out[col + 1] = -a
    return out


def _template(n: int, rows, lower=None, upper=None) -> _Template:
    """Rewrite the constraint system ``rows``, (coefficients, relation,
    rhs) triples over ``n`` variables, as Ax = b, x >= 0, b >= 0.

    A variable with a lower bound l is shifted, x = l + s, and an upper
    bound u as well becomes the row s <= u - l.  One with only an upper
    bound u is reflected, x = u - s: its column is negated, with no row.
    A free one is split, x = s - t, into columns ``col`` and ``col + 1``
    (base None).  A row a . x (rel) rhs then has right-hand side
    rhs - a . base, the base being l or u.  Rows whose own slack
    survives with coefficient +1 start basic; every other row receives
    an artificial variable for phase 1.  Each constraint is scaled to
    integers once (a row of ``int``s is its own scaling); its
    standardized row is those integers, brought to lowest terms over
    its denominator when a base moves its right-hand side.
    """
    lower, upper = _exact_bounds(lower), _exact_bounds(upper)
    _check_bounds(n, lower, upper)
    lower = lower or (None,) * n
    upper = upper or (None,) * n

    var_map: list[tuple] = []
    n_std = 0
    for lo, hi in zip(lower, upper):
        if lo is not None:
            var_map.append(("shift", n_std, lo))
            n_std += 1
        elif hi is not None:
            var_map.append(("reflect", n_std, hi))
            n_std += 1
        else:
            var_map.append(("split", n_std, None))
            n_std += 2
    base_nums, base_den = common_denominator(
        0 if base is None else base for _, _, base in var_map
    )

    def to_std(nums, rhs_num, den):
        """Standardized coefficients and right-hand side rhs - a . base
        of the row ``nums`` . x (rel) ``rhs_num``, both over ``den``, as
        integer numerators over one positive denominator."""
        out = _columns(var_map, nums, n_std)
        moved = sum(map(mul, nums, base_nums))
        if not moved:
            return out, rhs_num, den
        nums, den = _lowest(
            [x * base_den for x in out] + [rhs_num * base_den - moved],
            den * base_den,
        )
        return nums[:-1], nums[-1], den

    checks: list[tuple[list[int], str, int]] = []
    raw_rows: list[tuple[str, list[int], int, int]] = []
    for coeffs, relation, rhs in rows:
        coeffs = list(coeffs)
        _check_row(n, coeffs, relation)
        if isinstance(rhs, int) and all(isinstance(a, int) for a in coeffs):
            den = 1
        else:
            nums, den = common_denominator(map(_exact, (*coeffs, rhs)))
            coeffs, rhs = nums[:-1], nums[-1]
        checks.append((coeffs, relation, rhs))
        raw_rows.append((relation, *to_std(coeffs, rhs, den)))
    for j in range(n):
        if lower[j] is not None and upper[j] is not None:
            den = upper[j].denominator
            unit = [0] * n
            unit[j] = den
            raw_rows.append((LE, *to_std(unit, upper[j].numerator, den)))

    nrows = len(raw_rows)
    n_slack = sum(1 for rel, *_ in raw_rows if rel != EQ)
    n_real = n_std + n_slack

    # A row is negated when its right-hand side is negative; its own
    # slack then keeps coefficient +1 exactly when the row is a <= row
    # with rhs >= 0 or a >= row with rhs < 0, and starts basic.
    slack_of: list[int | None] = []
    basis: list[int] = []
    next_slack, n_art = n_std, 0
    for rel, _, rhs, _ in raw_rows:
        own = None
        if rel != EQ:
            own, next_slack = next_slack, next_slack + 1
        slack_of.append(own)
        if own is not None and (rel == LE) == (rhs >= 0):
            basis.append(own)
        else:
            basis.append(n_real + n_art)
            n_art += 1

    std_rows: list[list[int]] = []
    art_dens: list[tuple[int, int]] = []
    for r, (rel, coeffs, rhs, den) in enumerate(raw_rows):
        row = coeffs + [0] * (n_slack + n_art) + [rhs]
        if slack_of[r] is not None:
            row[slack_of[r]] = 1 if rel == LE else -1
        if rhs < 0:
            row = [-x for x in row]
        if basis[r] >= n_real:
            row[basis[r]] = 1
            art_dens.append((r, den))
        std_rows.append(row)

    # Phase-1 cost row: the artificial of row r, scaled by the row's
    # denominator, costs 1/den_r; times the least common denominator of
    # those costs, minus the weighted sum of the artificial rows.  The
    # artificial columns cancel to zero.
    cost1 = [0] * (n_real + n_art + 1)
    if art_dens:
        common = lcm(*(den for _, den in art_dens))
        for r, den in art_dens:
            weight = common // den
            cost1 = [c - weight * x for c, x in zip(cost1, std_rows[r])]
        for r, _ in art_dens:
            cost1[basis[r]] = 0

    return _Template(
        rows=std_rows,
        cost1=cost1,
        nrows=nrows,
        n_real=n_real,
        n_std=n_std,
        n_art=n_art,
        basis=basis,
        var_map=var_map,
        base_nums=base_nums,
        base_den=base_den,
        checks=checks,
        lower=lower,
        upper=upper,
    )


def _cost_row(template: _Template, nums: list[int]) -> tuple[list[int], int]:
    """The standardized phase-2 cost row of the objective with numerators
    ``nums``, and the numerator of the constant objective . base that the
    shifted and reflected variables drop, over the objective's
    denominator times ``base_den``: one integer sum over the scaled
    bases."""
    row = _columns(template.var_map, nums, template.n_real + template.n_art + 1)
    return row, sum(map(mul, nums, template.base_nums))


def _phase1(template: _Template):
    """Phase 1 of the two-phase Bland simplex; returns the constraint rows,
    their denominator and the basis it ends at, or None when the program
    is INFEASIBLE.

    The tableau holds the template's rows, then the phase-1 cost row.
    Each entering column is chosen from the phase-1 row and each leaving
    row from the constraint rows, so phase 1 depends on the constraints
    alone and one run serves every objective over them.  Degenerate
    artificials still basic at value zero are then pivoted out.  With no
    artificial variable the template's own rows and initial basis are
    handed back; the shared row lists are never mutated in place.
    """
    if not template.n_art:
        return template.rows, 1, template.basis
    tableau = _simplex_py.Tableau(template.rows + [template.cost1])
    m = template.nrows
    basis = list(template.basis)
    while True:
        col = tableau.entering(m, template.n_real)
        if col < 0:
            break
        row = tableau.leaving(col, m, basis)
        if row < 0:  # phase-1 objective is bounded below by zero
            raise InternalInconsistency("phase-1 column with no positive entry")
        tableau.pivot(row, col, m + 1)
        basis[row] = col
    if tableau.rows[m][-1] < 0:
        return None
    # Pivot each degenerate artificial out on any nonzero real column; a
    # row with none is inert (its basic artificial can never change value
    # again).  The phase-1 row is not read again, so it is not updated.
    for r in range(m):
        if basis[r] >= template.n_real:
            col = tableau.first_nonzero(r, template.n_real)
            if col >= 0:
                tableau.pivot(r, col, m)
                basis[r] = col
    return tableau.rows[:m], tableau.den, basis


def _run(template: _Template, start, cost_row: list[int]):
    """Phase 2 from the phase-1 result ``start``; returns (status, final
    tableau, basis), the tableau and basis only for an OPTIMAL status.

    Phase 2 starts from the row d c - sum_r c[B_r] row_r, c being
    ``cost_row`` and d the denominator of ``start``: each basic column is
    d in its own row and 0 in the others, so that row over d is the
    reduced costs c - c_B B^-1 A, with the negated value in the
    right-hand-side column.  It is the row that carrying c through phase
    1's pivots would leave, so the tableau's later divisions stay exact,
    and over d times the objective's denominator it holds the reduced
    costs of the objective at every later pivot.
    """
    rows, den, basis = start
    start_row = [den * x for x in cost_row] if den != 1 else cost_row
    for r, col in enumerate(basis):
        c = cost_row[col]
        if c:
            start_row = [x - c * y for x, y in zip(start_row, rows[r])]
    tableau = _simplex_py.Tableau(rows + [start_row], den)
    m = template.nrows
    basis = list(basis)
    while True:
        col = tableau.entering(m, template.n_real)
        if col < 0:
            break
        row = tableau.leaving(col, m, basis)
        if row < 0:
            return UNBOUNDED, None, None
        tableau.pivot(row, col, m + 1)
        basis[row] = col
    return OPTIMAL, tableau, basis


def active_backend() -> str:
    """The name of the tableau kernel: always 'pure' (pure Python)."""
    return "pure"


def _check_outcome(
    template: _Template, cost: list[int], cost_den: int, outcome: LpOutcome
) -> None:
    """Re-substitute an optimal outcome into its program, exactly.

    ``cost`` over ``cost_den`` is the objective.  The point is read in
    its scaled form, integer numerators over one positive denominator,
    so its value and each equation, inequality and bound of the template
    are checked between integers with the same truth value they have
    over the rationals.
    """
    xs, den = outcome.scaled
    value = outcome.value
    if sum(map(mul, cost, xs)) * value.denominator != (
        value.numerator * cost_den * den
    ):
        raise InternalInconsistency("objective value mismatch")
    for coeffs, relation, rhs in template.checks:
        lhs = sum(map(mul, coeffs, xs))
        rhs *= den
        if relation == LE:
            ok = lhs <= rhs
        elif relation == GE:
            ok = lhs >= rhs
        else:
            ok = lhs == rhs
        if not ok:
            raise InternalInconsistency("solver returned an infeasible point")
    for x, lo, hi in zip(xs, template.lower, template.upper):
        if lo is not None and x * lo.denominator < lo.numerator * den:
            raise InternalInconsistency("lower bound violated")
        if hi is not None and x * hi.denominator > hi.numerator * den:
            raise InternalInconsistency("upper bound violated")


def _basic_solution(template: _Template, tableau, basis):
    """The standardized point of an optimal tableau, as integer numerators
    over the tableau's denominator, and the right-hand side of its cost
    row, the negated value times that denominator and the objective's."""
    rhs = tableau.ncols - 1
    rows = tableau.rows
    x_std = [0] * template.n_std
    for r in range(template.nrows):
        if basis[r] < template.n_std:
            x_std[basis[r]] = rows[r][rhs]
    return x_std, rows[template.nrows][rhs]


def _read_back(template: _Template, x_std: list[int], den: int):
    """The standardized point ``x_std`` over ``den`` in the caller's
    variables, as (numerators, denominator) in lowest terms: base + s for
    a shifted variable, base - s for a reflected one, s - t for a split
    one, over ``den`` times ``base_den``."""
    base_den = template.base_den
    xs = []
    for (kind, col, _), b in zip(template.var_map, template.base_nums):
        if kind == "split":
            xs.append((x_std[col] - x_std[col + 1]) * base_den)
        elif kind == "shift":
            xs.append(b * den + x_std[col] * base_den)
        else:
            xs.append(b * den - x_std[col] * base_den)
    xs, den = _lowest(xs, den * base_den)
    return tuple(xs), den


def _reduced_cost_maps(template: _Template, tableau, basis):
    """The reduced costs at an optimal basis as linear maps of the objective.

    The template splits no variable, so structural column i is variable
    i, and it costs -1 times the variable's cost when the variable is
    reflected, +1 times it otherwise; slack columns cost nothing.  At a
    fixed basis the reduced cost of column j is c_j minus the sum, over
    the basic rows r, of the cost of r's basic column times the tableau
    entry (r, j) (Gass and Saaty 1955), so it is linear in the objective.
    Returns the nonbasic real columns and for each nonbasic column j an
    integer vector ``map_j`` over the original variables with
    map_j . nums == d_j * d * den for every objective ``nums`` / ``den``,
    d_j being column j's reduced cost under that objective and d the
    tableau's denominator: the entry the pivots leave in the cost row.
    """
    signs = [-1 if kind == "reflect" else 1 for kind, _, _ in template.var_map]
    basic = set(basis)
    nonbasic = [j for j in range(template.n_real) if j not in basic]
    structural = [r for r in range(template.nrows) if basis[r] < template.n_std]
    rows, den = tableau.rows, tableau.den
    maps = []
    for j in nonbasic:
        map_j = [0] * len(signs)
        if j < template.n_std:
            map_j[j] = signs[j] * den
        for r in structural:
            entry = rows[r][j]
            if entry:
                i = basis[r]
                map_j[i] -= signs[i] * entry
        maps.append(map_j)
    return nonbasic, maps


def _covering(maps) -> bool:
    """Does every map have no negative entry and at least one positive one?

    Then every objective with all-positive numerators gives each column
    a reduced cost that is a sum of nonnegative terms, one of them
    positive: the basis proves it a unique optimum.  A map of zeros (a
    tie whatever the objective) never covers.
    """
    return all(min(map_j) >= 0 and max(map_j) > 0 for map_j in maps)


def _at_point(point, scaled, nums: list[int], den: int) -> LpOutcome:
    """``point`` as the optimum of the objective ``nums`` / ``den``, valued
    by re-substituting the objective at its checked scaled form
    ``scaled``, (numerators, denominator)."""
    xs, xs_den = scaled
    value = Fraction(sum(map(mul, nums, xs)), den * xs_den)
    return LpOutcome(OPTIMAL, value, point, scaled)


class _OptimalBasis:
    """The final basis of an optimal cold solve, kept with every other
    basis of its batch to price the later objectives.

    Holds the original point, which ``_check_outcome`` has already passed,
    with its scaled form, and the basis's reduced-cost maps (see
    ``_reduced_cost_maps``).  Each map is checked, before the basis can be
    kept, against the final phase-2 cost row of the solve of ``nums``
    that found it: the pivots computed that row, the maps come from a
    linear combination of the tableau's columns, so a wrong map raises
    here before it can price any objective.
    """

    def __init__(self, template: _Template, tableau, basis, point, scaled, nums):
        self.point = point
        self.scaled = scaled
        nonbasic, self.maps = _reduced_cost_maps(template, tableau, basis)
        costs = tableau.rows[template.nrows]
        for j, map_j in zip(nonbasic, self.maps):
            if sum(map(mul, map_j, nums)) != costs[j]:
                raise InternalInconsistency("reduced-cost map disagrees with the tableau")

    def unique_optimum(self, nums: list[int]) -> bool:
        """Is the point the only optimum of the objective ``nums``?

        ``nums`` are the objective's integer numerators; its positive
        denominator does not change a sign.  True when every nonbasic
        reduced cost is strictly positive: any other feasible point moves
        some nonbasic variable off zero and so costs strictly more.  A
        zero reduced cost (a tie) answers False.
        """
        return all(sum(map(mul, map_j, nums)) > 0 for map_j in self.maps)


def _solve(template: _Template, costs) -> list[LpOutcome]:
    """Minimize each objective of ``costs`` over the template's program.

    ``costs`` is a list of objectives, each a pair (numerators,
    denominator) of integers with a positive denominator.  An objective
    is answered without a solve by one of three rules, each of which
    hands out only a point that a cold solve would also return:

    1. One-point program.  When a cold solve ends at the base point
       (every standardized structural variable at zero) and its cost is
       negative on every structural column, the program has that one
       feasible point: optimality at s = 0 gives c' . s >= 0 for every
       feasible s, while c' < 0 and s >= 0 give c' . s <= 0, with
       equality only at s = 0.  That point answers every later objective,
       whatever its signs.  A split variable's two columns cost n and -n,
       so a program with one never passes the sign test.
    2. Covering basis.  The first kept basis whose maps are covering
       (see ``_covering``) answers every objective with all-positive
       numerators with no dot product: it proves each one's unique
       optimum.
    3. Otherwise the objective is priced through the reduced-cost maps,
       first at the kept basis that supplied the latest reused point,
       then at the other kept bases, most recent first.  When every
       nonbasic reduced cost at one of them is strictly positive, its
       point is the unique optimum, so a cold solve would return it
       whichever basis proves it; it is reused.

    Otherwise, ties (a zero reduced cost at every kept basis) included,
    the objective's cost row is built and it is solved cold: phase 2
    from the basis that the batch's one phase 1 ended at (see ``_run``).
    ``_phase1`` runs before the first objective, which is always solved
    cold; when it finds the program INFEASIBLE, so is every objective.
    After an optimal cold solve, when another objective follows,
    the final basis is kept, provided the system has no artificial
    variable and splits no variable: a split variable's two columns are
    negatives of each other, so one of them always has a zero reduced
    cost and no such basis proves a unique optimum.

    Every cold optimal outcome passes ``_check_outcome`` (its value, every
    constraint and every bound) before rule 1 reads its point or its
    basis is kept, and the basis's maps pass their check against that
    solve's cost row.  A reused outcome returns that same point tuple
    against the same rows and bounds, valued at the point's scaled form:
    the objective re-substituted at a point already checked.  Each check
    keeps its truth value.
    """
    start = _phase1(template)
    if start is None:
        return [LpOutcome(INFEASIBLE) for _ in costs]
    outcomes = []
    kept: list[_OptimalBasis] = []
    cover = last = None
    # a split variable takes two standardized columns
    keep = template.n_art == 0 and template.n_std == len(template.var_map)
    for k, (nums, den) in enumerate(costs):
        if cover is not None and min(nums) > 0:
            proof = cover
        elif last is not None and last.unique_optimum(nums):
            proof = last
        else:
            proof = next(
                (b for b in reversed(kept) if b is not last and b.unique_optimum(nums)),
                None,
            )
        if proof is not None:
            last = proof
            outcomes.append(_at_point(proof.point, proof.scaled, nums, den))
            continue
        row, offset = _cost_row(template, nums)
        status, tableau, basis = _run(template, start, row)
        if status != OPTIMAL:
            outcomes.append(LpOutcome(status))
            continue
        x_std, rhs = _basic_solution(template, tableau, basis)
        d, base_den = tableau.den, template.base_den
        scaled = _read_back(template, x_std, d)
        point = tuple(Fraction(x, scaled[1]) for x in scaled[0])
        value = Fraction(offset * d - rhs * base_den, d * den * base_den)
        outcome = LpOutcome(OPTIMAL, value, point, scaled)
        _check_outcome(template, nums, den, outcome)
        outcomes.append(outcome)
        if k + 1 == len(costs):
            break
        if not any(x_std) and all(c < 0 for c in row[: template.n_std]):
            outcomes.extend(_at_point(point, scaled, *cost) for cost in costs[k + 1 :])
            break
        if keep:
            kept.append(_OptimalBasis(template, tableau, basis, point, scaled, nums))
            if cover is None and _covering(kept[-1].maps):
                cover = kept[-1]
    return outcomes


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic including the returned point.

    Optimal outcomes are re-substituted into every constraint before being
    returned, so a reported point satisfies the program exactly.
    """
    rows = ((con.coeffs, con.relation, con.rhs) for con in lp.constraints)
    template = _template(len(lp.objective), rows, lp.lower, lp.upper)
    return _solve(template, [common_denominator(lp.objective)])[0]


def lp_solve_batch(objectives, rows, lower=None, upper=None) -> list[LpOutcome]:
    """Solve one program per objective over a shared constraint system.

    Produces exactly the same outcomes as calling lp_solve per objective.
    The constraint standardization is done once, and ``_solve`` reuses
    any basis kept in the batch wherever it is provably the unique
    optimum.  Coefficients may be ``int``, ``str`` or ``Fraction``.
    """
    costs = []
    for objective in objectives:
        objective = list(objective)
        if all(isinstance(c, int) for c in objective):
            costs.append((objective, 1))
        else:
            costs.append(common_denominator(map(_exact, objective)))
    if not costs:
        return []
    n = len(costs[0][0])
    for nums, _ in costs:
        if len(nums) != n:
            raise DimensionMismatch(
                f"objective has {len(nums)} coefficients, expected {n}"
            )
    return _solve(_template(n, rows, lower, upper), costs)
