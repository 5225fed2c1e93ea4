"""Deterministic exact linear programming.

Every geometric decision in the package (dominance over a cone, hull
membership, boundedness of a lower section) reduces to a small linear
program solved here with a two-phase simplex over exact rationals and
Bland's pivot rule.  Outcomes are therefore exact and reproducible:
identical inputs give identical statuses, values, and points.  The pivot
loop runs on the integer tableau of ``_simplex_py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from ..errors import DimensionMismatch, InternalInconsistency
from . import _simplex_py
from .rational import as_fraction, common_denominator

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x subject to rows and optional variable bounds."""

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | None, ...] | None = None
    upper: tuple[Fraction | None, ...] | None = None

    def __post_init__(self):
        n = len(self.objective)
        if n == 0:
            raise DimensionMismatch("a linear program needs at least one variable")
        for con in self.constraints:
            if len(con.coeffs) != n:
                raise DimensionMismatch(
                    f"constraint has {len(con.coeffs)} coefficients, expected {n}"
                )
            if con.relation not in _RELATIONS:
                raise ValueError(f"unknown relation {con.relation!r}")
        for bounds in (self.lower, self.upper):
            if bounds is not None and len(bounds) != n:
                raise DimensionMismatch("bounds length does not match variable count")


@dataclass(frozen=True)
class LpOutcome:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def linprog(objective, rows, lower=None, upper=None) -> LinearProgram:
    """Build a LinearProgram, coercing int/str entries to exact fractions.

    ``rows`` is an iterable of (coefficients, relation, rhs) triples.
    """
    obj = tuple(as_fraction(c) for c in objective)
    cons = tuple(
        Constraint(tuple(as_fraction(c) for c in coeffs), rel, as_fraction(rhs))
        for coeffs, rel, rhs in rows
    )

    def _bounds(values):
        if values is None:
            return None
        return tuple(None if v is None else as_fraction(v) for v in values)

    return LinearProgram(obj, cons, _bounds(lower), _bounds(upper))


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class _Standardized:
    tableau: list[list[Fraction]]
    nrows: int
    n_real: int
    n_std: int
    basis: list[int]
    has_artificial: bool
    var_map: list[tuple]
    offset: Fraction


@dataclass
class _Template:
    """Objective-independent part of a standardized program.

    The constraint rows, initial basis, and phase-1 cost row depend only
    on the rows and bounds, so a batch of programs differing in the
    objective can share one template.
    """

    rows: list[list[Fraction]]
    cost1: list[Fraction]
    nrows: int
    n_real: int
    n_std: int
    n_slack: int
    n_art: int
    basis: list[int]
    var_map: list[tuple]


def _standardize_rows(n, constraints, lower, upper) -> _Template:
    """Rewrite the constraint system as Ax = b, x >= 0, b >= 0.

    Lower-bounded variables are shifted; unbounded ones are split into a
    positive and a negative part.  Upper bounds become extra rows.  Rows
    whose own slack survives with coefficient +1 start basic; every other
    row receives an artificial variable for phase 1.
    """
    lower = lower if lower is not None else (None,) * n
    upper = upper if upper is not None else (None,) * n

    var_map: list[tuple] = []
    n_std = 0
    for j in range(n):
        if lower[j] is not None:
            var_map.append(("shift", n_std, lower[j]))
            n_std += 1
        else:
            var_map.append(("split", n_std, n_std + 1))
            n_std += 2

    def to_std(coeffs):
        out = [_ZERO] * n_std
        shift = _ZERO
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            kind = var_map[j]
            if kind[0] == "shift":
                out[kind[1]] = a
                shift += a * kind[2]
            else:
                out[kind[1]] = a
                out[kind[2]] = -a
        return out, shift

    raw_rows: list[tuple[list[Fraction], str, Fraction]] = []
    for con in constraints:
        coeffs, shift = to_std(con.coeffs)
        raw_rows.append((coeffs, con.relation, con.rhs - shift))
    for j in range(n):
        if upper[j] is None:
            continue
        unit = [_ZERO] * n
        unit[j] = _ONE
        coeffs, shift = to_std(unit)
        raw_rows.append((coeffs, LE, upper[j] - shift))

    nrows = len(raw_rows)
    slack_of: list[int | None] = [None] * nrows
    n_slack = 0
    for r, (_, rel, _) in enumerate(raw_rows):
        if rel != EQ:
            slack_of[r] = n_slack
            n_slack += 1
    n_real = n_std + n_slack

    eq_rows: list[list[Fraction]] = []
    for r, (coeffs, rel, rhs) in enumerate(raw_rows):
        row = coeffs + [_ZERO] * n_slack
        if slack_of[r] is not None:
            row[n_std + slack_of[r]] = _ONE if rel == LE else -_ONE
        row.append(rhs)
        if rhs < 0:
            row = [-x for x in row]
        eq_rows.append(row)

    basis: list[int] = []
    art_col_of: list[int | None] = [None] * nrows
    n_art = 0
    for r in range(nrows):
        own = slack_of[r]
        if own is not None and eq_rows[r][n_std + own] == 1:
            basis.append(n_std + own)
        else:
            art_col_of[r] = n_art
            basis.append(n_real + n_art)
            n_art += 1

    tableau: list[list[Fraction]] = []
    for r in range(nrows):
        body, rhs = eq_rows[r][:-1], eq_rows[r][-1]
        full = body + [_ZERO] * n_art + [rhs]
        if art_col_of[r] is not None:
            full[n_real + art_col_of[r]] = _ONE
        tableau.append(full)

    ncols = n_real + n_art + 1
    cost1 = [_ZERO] * ncols
    for r in range(nrows):
        if art_col_of[r] is not None:
            cost1[n_real + art_col_of[r]] = _ONE
    for r in range(nrows):
        if art_col_of[r] is not None:
            cost1 = [c - x for c, x in zip(cost1, tableau[r])]

    return _Template(
        rows=tableau,
        cost1=cost1,
        nrows=nrows,
        n_real=n_real,
        n_std=n_std,
        n_slack=n_slack,
        n_art=n_art,
        basis=basis,
        var_map=var_map,
    )


def _with_objective(template: _Template, objective) -> _Standardized:
    """Attach a cost row to a template; the rows themselves are shared
    (the tableau copies them on construction and never mutates the input)."""
    std_obj = [_ZERO] * template.n_std
    offset = _ZERO
    for j, cj in enumerate(objective):
        kind = template.var_map[j]
        if kind[0] == "shift":
            std_obj[kind[1]] = cj
            offset += cj * kind[2]
        else:
            std_obj[kind[1]] = cj
            std_obj[kind[2]] = -cj
    cost2 = std_obj + [_ZERO] * (template.n_slack + template.n_art) + [_ZERO]
    return _Standardized(
        tableau=template.rows + [cost2, template.cost1],
        nrows=template.nrows,
        n_real=template.n_real,
        n_std=template.n_std,
        basis=template.basis,
        has_artificial=template.n_art > 0,
        var_map=template.var_map,
        offset=offset,
    )


def _standardize(lp: LinearProgram) -> _Standardized:
    template = _standardize_rows(
        len(lp.objective), lp.constraints, lp.lower, lp.upper
    )
    return _with_objective(template, lp.objective)


def _run(std: _Standardized):
    """Two-phase Bland simplex; returns (status, final tableau, basis).

    The tableau and basis are returned only for an OPTIMAL status.
    """
    tableau = _simplex_py.Tableau(std.tableau)
    m = std.nrows
    rhs_col = len(std.tableau[0]) - 1
    basis = list(std.basis)
    phase2_row, phase1_row = m, m + 1

    if std.has_artificial:
        while True:
            col = tableau.entering(phase1_row, std.n_real)
            if col < 0:
                break
            row = tableau.leaving(col, m, basis)
            if row < 0:  # phase-1 objective is bounded below by zero
                raise InternalInconsistency("phase-1 column with no positive entry")
            tableau.pivot(row, col, m + 2)
            basis[row] = col
        if tableau.get(phase1_row, rhs_col) < 0:
            return INFEASIBLE, None, None
        # Degenerate artificials still basic at value zero: pivot them out
        # on any nonzero real column; a row with none is inert (its basic
        # artificial can never change value again).
        for r in range(m):
            if basis[r] >= std.n_real:
                col = tableau.first_nonzero(r, std.n_real)
                if col >= 0:
                    tableau.pivot(r, col, m + 2)
                    basis[r] = col

    while True:
        col = tableau.entering(phase2_row, std.n_real)
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


def _integer_rows(constraints) -> list[tuple[list[int], str, int]]:
    """Each constraint a . x (rel) rhs scaled to integers by the least
    common denominator of its coefficients and right-hand side."""
    rows = []
    for con in constraints:
        nums, _ = common_denominator((*con.coeffs, con.rhs))
        rows.append((nums[:-1], con.relation, nums[-1]))
    return rows


def _check_outcome(lp: LinearProgram, rows, outcome: LpOutcome) -> None:
    """Re-substitute an optimal outcome into its program, exactly.

    ``rows`` is ``_integer_rows(lp.constraints)``.  The point is scaled by
    the common denominator of its coordinates, so each equation and
    inequality is checked between integers with the same truth value it
    has over the rationals.
    """
    point = outcome.point
    xs, den = common_denominator(point)
    cs, cost_den = common_denominator(lp.objective)
    value = outcome.value
    if sum(map(mul, cs, xs)) * value.denominator != (
        value.numerator * cost_den * den
    ):
        raise InternalInconsistency("objective value mismatch")
    for coeffs, relation, rhs in rows:
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
    n = len(lp.objective)
    lower = lp.lower if lp.lower is not None else (None,) * n
    upper = lp.upper if lp.upper is not None else (None,) * n
    for x, lo, hi in zip(point, lower, upper):
        if lo is not None and x < lo:
            raise InternalInconsistency("lower bound violated")
        if hi is not None and x > hi:
            raise InternalInconsistency("upper bound violated")


def _basic_solution(std: _Standardized, tableau, basis):
    """The standardized point and objective value of an optimal tableau."""
    rhs_col = len(std.tableau[0]) - 1
    x_std = [_ZERO] * std.n_std
    for r in range(std.nrows):
        if basis[r] < std.n_std:
            x_std[basis[r]] = tableau.get(r, rhs_col)
    return x_std, -tableau.get(std.nrows, rhs_col)


def _optimal_outcome(
    lp: LinearProgram, rows, std: _Standardized, x_std, value_std: Fraction
) -> LpOutcome:
    point = []
    for kind in std.var_map:
        if kind[0] == "shift":
            point.append(kind[2] + x_std[kind[1]])
        else:
            point.append(x_std[kind[1]] - x_std[kind[2]])
    outcome = LpOutcome(OPTIMAL, value_std + std.offset, tuple(point))
    _check_outcome(lp, rows, outcome)
    return outcome


def _solve_standardized(lp: LinearProgram, std: _Standardized) -> LpOutcome:
    status, tableau, basis = _run(std)
    if status != OPTIMAL:
        return LpOutcome(status)
    x_std, value_std = _basic_solution(std, tableau, basis)
    return _optimal_outcome(
        lp, _integer_rows(lp.constraints), std, x_std, value_std
    )


class _OptimalBasis:
    """The final basis of an optimal solve, kept to price later objectives.

    Holds the basic solution and, for each basic structural variable, its
    tableau row over the nonbasic real columns, read through the tableau's
    ``get`` and scaled to integers over one common denominator.
    """

    def __init__(self, std: _Standardized, tableau, basis, x_std):
        self.x_std = x_std
        basic = set(basis)
        self.n_real = std.n_real
        self.nonbasic = [j for j in range(std.n_real) if j not in basic]
        structural = [r for r in range(std.nrows) if basis[r] < std.n_std]
        self.basic = [basis[r] for r in structural]
        entries, self.den = common_denominator(
            [tableau.get(r, j) for r in structural for j in self.nonbasic]
        )
        width = len(self.nonbasic)
        self.columns = [entries[k::width] for k in range(width)]

    def unique_optimum(self, cost) -> bool:
        """Is the basic solution the only optimum of ``cost``?

        True when every nonbasic reduced cost is strictly positive: any
        other feasible point moves some nonbasic variable off zero and so
        costs strictly more.  A zero reduced cost (a tie) answers False.
        The signs are decided on the costs scaled to integers.
        """
        costs, _ = common_denominator(cost[: self.n_real])
        basic_costs = [costs[b] for b in self.basic]
        for j, column in zip(self.nonbasic, self.columns):
            if costs[j] * self.den <= sum(map(mul, basic_costs, column)):
                return False
        return True


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; deterministic including the returned point.

    Optimal outcomes are re-substituted into every constraint before being
    returned, so a reported point satisfies the program exactly.
    """
    return _solve_standardized(lp, _standardize(lp))


def lp_solve_batch(objectives, rows, lower=None, upper=None) -> list[LpOutcome]:
    """Solve one program per objective over a shared constraint system.

    Produces exactly the same outcomes as calling lp_solve per objective.
    The constraint standardization is done once, and the final basis of
    the last optimal solve is kept.  When the constraint system needs no
    artificial variables and every nonbasic reduced cost of the next
    objective at that basis is strictly positive, the basic solution is
    the program's unique optimum, so a cold solve would return that same
    point; it is reused and its value recomputed.  Otherwise, ties (a zero
    reduced cost) included, the objective is solved from the slack basis.
    Every optimal outcome, reused or not, is re-substituted into the
    program before it is returned.
    """
    costs = [tuple(as_fraction(c) for c in objective) for objective in objectives]
    if not costs:
        return []
    base = linprog(costs[0], rows, lower, upper)
    template = _standardize_rows(
        len(base.objective), base.constraints, base.lower, base.upper
    )
    int_rows = _integer_rows(base.constraints)
    outcomes = []
    kept = None
    for cost in costs:
        lp = LinearProgram(cost, base.constraints, base.lower, base.upper)
        std = _with_objective(template, cost)
        cost_row = std.tableau[std.nrows]
        if kept is not None and kept.unique_optimum(cost_row):
            x_std = kept.x_std
            value_std = sum((c * x for c, x in zip(cost_row, x_std)), _ZERO)
        else:
            status, tableau, basis = _run(std)
            if status != OPTIMAL:
                outcomes.append(LpOutcome(status))
                continue
            x_std, value_std = _basic_solution(std, tableau, basis)
            if template.n_art == 0:
                kept = _OptimalBasis(std, tableau, basis, x_std)
        outcomes.append(_optimal_outcome(lp, int_rows, std, x_std, value_std))
    return outcomes
