import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_kit.errors import (
    DimensionMismatch,
    InternalInconsistency,
    MalformedNumber,
    ZeroDenominator,
)
from pareto_kit.numerics import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    linprog,
    lp_solve,
    rational_format,
    rational_parse,
)

from oracles import oracle_lp_minimum


def test_parse_decimal_is_exact():
    assert rational_parse("0.5") == Fraction(1, 2)
    assert rational_parse("0.1") == Fraction(1, 10)


def test_parse_integer():
    assert rational_parse("-3") == Fraction(-3)


def test_parse_reduces_to_lowest_terms():
    value = rational_parse("2/6")
    assert value == Fraction(1, 3)
    assert value.numerator == 1 and value.denominator == 3


def test_parse_negative_denominator_normalizes():
    assert rational_parse("1/-2") == Fraction(-1, 2)


def test_parse_errors():
    with pytest.raises(MalformedNumber):
        rational_parse("abc")
    with pytest.raises(MalformedNumber):
        rational_parse("1/2/3")
    with pytest.raises(ZeroDenominator):
        rational_parse("1/0")
    with pytest.raises(MalformedNumber):
        rational_parse(1.5)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_parse_format_round_trip(num, den):
    value = Fraction(num, den)
    assert rational_parse(rational_format(value)) == value


def test_lp_single_constraint_minimum():
    out = lp_solve(linprog([1], [([1], GE, 3)]))
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.point == (Fraction(3),)


def test_lp_contradictory_bounds_infeasible():
    out = lp_solve(linprog([1], [([1], LE, 0), ([1], GE, 1)]))
    assert out.status == INFEASIBLE


def test_lp_unbounded_ray():
    out = lp_solve(linprog([-1], [([1], GE, 0)]))
    assert out.status == UNBOUNDED


def test_lp_equality_and_bounds():
    out = lp_solve(
        linprog([1, 1], [([1, 1], EQ, 2)], lower=[0, 0], upper=[5, 5])
    )
    assert out.status == OPTIMAL
    assert out.value == 2


def test_lp_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linprog([1, 2], [([1], LE, 0)])


def test_lp_deterministic():
    lp = linprog([1, -2], [([1, 1], LE, 4), ([1, -1], GE, -2)], lower=[0, 0])
    assert lp_solve(lp) == lp_solve(lp)


def _random_boxed_lp(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 6)
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        rows.append((coeffs, LE, Fraction(rng.randint(-5, 5))))
    box = Fraction(rng.randint(1, 5))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rows.append((unit, LE, box))
        rows.append(([-x for x in unit], LE, box))
    objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    return objective, rows


def test_lp_matches_vertex_enumeration_oracle():
    rng = random.Random(7)
    solved = 0
    for _ in range(150):
        objective, rows = _random_boxed_lp(rng)
        outcome = lp_solve(linprog(objective, rows))
        expected = oracle_lp_minimum(
            objective, [r[0] for r in rows], [r[2] for r in rows]
        )
        if expected is None:
            assert outcome.status == INFEASIBLE
        else:
            assert outcome.status == OPTIMAL
            assert outcome.value == expected
            solved += 1
    assert solved > 50


def test_batch_solve_matches_individual_solves(monkeypatch):
    from pareto_kit.numerics.linprog import lp_solve_batch
    from pareto_kit.polyhedra import _simplex_grid

    # the package re-exports the function linprog under the module's name
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")

    rng = random.Random(19)
    for _ in range(30):
        _, rows = _random_boxed_lp(rng)
        n = len(rows[0][0])
        objectives = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(6)
        ]
        batch = lp_solve_batch(objectives, rows)
        singles = [lp_solve(linprog(obj, rows)) for obj in objectives]
        assert batch == singles

    # Grid-shaped case: the section of y1 + y2 >= 0 below the anchor (2, 2)
    # in the substituted variable s = anchor - y.  Neighbouring weights
    # share a vertex and reuse the kept basis; the weight (1/2, 1/2) ties
    # along the whole edge and must be solved cold.
    cold_solves = []
    run = linprog_module._run

    def counting(std):
        cold_solves.append(std)
        return run(std)

    monkeypatch.setattr(linprog_module, "_run", counting)
    rows = [([1, 1], LE, 4)]
    objectives = [[-w for w in lam] for lam in _simplex_grid(2, 8)]
    batch = lp_solve_batch(objectives, rows, lower=[0, 0])
    monkeypatch.undo()
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in objectives]
    assert batch == singles
    assert len(objectives) == 7 and len(cold_solves) == 2


def test_optimal_point_satisfies_constraints_exactly():
    rng = random.Random(11)
    for _ in range(80):
        objective, rows = _random_boxed_lp(rng)
        outcome = lp_solve(linprog(objective, rows))
        if outcome.status != OPTIMAL:
            continue
        for coeffs, rel, rhs in rows:
            lhs = sum(c * x for c, x in zip(coeffs, outcome.point))
            assert lhs <= rhs
        assert sum(c * x for c, x in zip(objective, outcome.point)) == outcome.value


def test_leaving_row_ties_go_to_smallest_basic_variable():
    from pareto_kit.numerics._simplex_py import Tableau

    # both rows have ratio 2 in column 0; Bland's rule breaks the tie by
    # the smaller basic variable, which guarantees termination
    tableau = Tableau([[1, 0, 2], [2, 0, 4], [0, 0, 0]])
    assert tableau.leaving(0, 2, [5, 2]) == 1
    assert tableau.leaving(0, 2, [2, 5]) == 0


def test_check_outcome_rejects_planted_wrong_outcome():
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    lp = linprog([1, 1], [([1, 1], GE, 2)], lower=[0, 0])
    rows = linprog_module._integer_rows(lp.constraints)
    good = lp_solve(lp)
    linprog_module._check_outcome(lp, rows, good)
    wrong_value = LpOutcome(OPTIMAL, good.value + 1, good.point)
    infeasible_point = LpOutcome(OPTIMAL, Fraction(1), (Fraction(1), Fraction(0)))
    for outcome in (wrong_value, infeasible_point):
        with pytest.raises(InternalInconsistency):
            linprog_module._check_outcome(lp, rows, outcome)
