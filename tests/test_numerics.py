import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_kit.errors import (
    DimensionMismatch,
    InternalInconsistency,
    MalformedInput,
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
from pareto_kit.numerics.linprog import lp_solve_batch
from pareto_kit.numerics.rational import common_denominator

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


def test_parse_refuses_a_huge_exponent_before_building_it(monkeypatch):
    from pareto_kit.numerics import rational

    built = []
    fraction = rational.Fraction

    def recording(*args):
        built.append(args)
        return fraction(*args)

    monkeypatch.setattr(rational, "Fraction", recording)
    for text in ("1e5000", "1e-5000", " 2.5E+5000 ", f"1e{rational.MAX_EXPONENT + 1}"):
        with pytest.raises(MalformedNumber):
            rational_parse(text)
    assert built == []
    monkeypatch.undo()
    assert rational_parse("1e3") == 1000
    assert rational_parse("2.5E-2") == Fraction(1, 40)
    assert rational_parse(" 5 ") == 5
    limit = rational.MAX_EXPONENT
    assert rational_parse(f"1e-{limit}") == Fraction(1, 10**limit)


def test_format_refuses_a_number_too_long_to_write():
    from pareto_kit.errors import SizeCap
    from pareto_kit.numerics import rational

    huge = rational_parse(f"1e{rational.MAX_EXPONENT}")
    for value in (huge, -huge, 1 / huge, huge + Fraction(1, 3)):
        with pytest.raises(SizeCap):
            rational_format(value)
    assert rational_format(huge / 10) == "1" + "0" * (rational.MAX_EXPONENT - 1)


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


def test_lp_unknown_relation_is_malformed_input():
    with pytest.raises(MalformedInput):
        linprog([1], [([1], "<", 0)])


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
    from pareto_kit.polyhedra import _compositions

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
    # in s = anchor - y, the tableau the reflected section LP pivots on.
    # Neighbouring weights share a vertex and reuse a kept basis; the
    # weight (4, 4) ties along the whole edge and must be solved cold.
    cold_solves = []
    run = linprog_module._run

    def counting(*args):
        cold_solves.append(args)
        return run(*args)

    monkeypatch.setattr(linprog_module, "_run", counting)
    rows = [([1, 1], LE, 4)]
    objectives = [[-n for n in counts] for counts in _compositions(2, 8)]
    batch = lp_solve_batch(objectives, rows, lower=[0, 0])
    monkeypatch.undo()
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in objectives]
    assert batch == singles
    assert len(objectives) == 7 and len(cold_solves) == 2

    # The optimum goes from A = (0, 4) to B = (4, 0) and back to A.  The
    # third objective is priced at B first, where it is not optimal, then
    # at A, which proves it unique: two cold solves for three objectives,
    # where keeping only the last basis took three.
    del cold_solves[:]
    monkeypatch.setattr(linprog_module, "_run", counting)
    objectives = [[-1, -2], [-2, -1], [-1, -3]]
    batch = lp_solve_batch(objectives, rows, lower=[0, 0])
    monkeypatch.undo()
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in objectives]
    assert batch == singles
    assert [o.point for o in batch] == [(0, 4), (4, 0), (0, 4)]
    assert len(cold_solves) == 2


def _random_phase1_program(rng):
    """A bounded program over x >= 0 with an EQ row first, then rows of
    any relation, their right-hand sides mostly negative, so that phase 1
    has at least one artificial variable; sometimes infeasible."""
    n = rng.randint(2, 4)
    rows = [([1] * n, LE, rng.randint(3, 8))]
    for rel in [EQ] + [rng.choice((EQ, GE, LE)) for _ in range(rng.randint(0, 2))]:
        a = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        rows.append((a, rel, Fraction(rng.randint(-4, 2), rng.choice((1, 2)))))
    return n, rows


def test_batch_runs_phase_1_once_over_eq_rows_and_negative_rhs(monkeypatch):
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    phase1, cold = [], []
    real_phase1, real_run = linprog_module._phase1, linprog_module._run

    def counting_phase1(template):
        phase1.append(template.n_art)
        return real_phase1(template)

    def counting_run(*args):
        cold.append(args)
        return real_run(*args)

    rng = random.Random(61)
    statuses = set()
    for _ in range(120):
        n, rows = _random_phase1_program(rng)
        objectives = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(4)
        ]
        del phase1[:], cold[:]
        monkeypatch.setattr(linprog_module, "_phase1", counting_phase1)
        monkeypatch.setattr(linprog_module, "_run", counting_run)
        batch = lp_solve_batch(objectives, rows, lower=[0] * n)
        monkeypatch.undo()
        singles = [lp_solve(linprog(obj, rows, lower=[0] * n)) for obj in objectives]
        assert batch == singles
        assert len(phase1) == 1 and phase1[0] > 0
        if batch[0].status == INFEASIBLE:
            # one phase 1 shows it, for every objective, with no phase 2
            assert all(o.status == INFEASIBLE for o in batch) and not cold
        statuses.update(o.status for o in batch)
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_phase_2_starts_from_the_row_phase_1_would_have_carried(monkeypatch):
    # Carry the phase-2 cost row through phase 1's pivots, as one tableau
    # holding both cost rows does, and compare it, entry by entry and over
    # the same denominator, with the row that ``_run`` starts from at the
    # basis phase 1 hands over.
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    simplex = linprog_module._simplex_py
    started = []

    class Recording(simplex.Tableau):
        def __init__(self, rows, den=1):
            super().__init__(rows, den)
            started.append((list(self.rows[-1]), self.den))

    monkeypatch.setattr(simplex, "Tableau", Recording)
    rng = random.Random(67)
    compared = 0
    for _ in range(120):
        n, rows = _random_phase1_program(rng)
        nums = [rng.randint(-3, 3) for _ in range(n)]
        template = linprog_module._template(n, rows, lower=[0] * n)
        start = linprog_module._phase1(template)
        if start is None:
            continue
        cost_row, _ = linprog_module._cost_row(template, nums)
        del started[:]
        linprog_module._run(template, start, cost_row)
        m = template.nrows
        carried = Recording(template.rows + [cost_row, template.cost1])
        basis = list(template.basis)
        while (col := carried.entering(m + 1, template.n_real)) >= 0:
            row = carried.leaving(col, m, basis)
            carried.pivot(row, col, m + 2)
            basis[row] = col
        for r in range(m):
            if basis[r] >= template.n_real:
                col = carried.first_nonzero(r, template.n_real)
                if col >= 0:
                    carried.pivot(r, col, m + 2)
                    basis[r] = col
        assert basis == start[2]
        assert started[0] == (carried.rows[m], carried.den)
        compared += 1
    assert compared > 50


def test_every_pivot_divides_exactly_and_matches_rational_elimination(monkeypatch):
    # Run every pivot of single and batch solves through a tableau that
    # divides with divmod, failing on any remainder, and that carries a
    # Fraction tableau through the same pivots by plain Gauss-Jordan
    # elimination: after each pivot, every integer entry over the shared
    # denominator must equal the rational one.  A cost row carries a
    # constant positive factor of its own, which elimination keeps, so
    # the reference starts from the rows over the denominator they are
    # handed with.
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    simplex = linprog_module._simplex_py
    seen = Counter()

    class Checked(simplex.Tableau):
        def __init__(self, rows, den=1):
            super().__init__(rows, den)
            self.reference = [[Fraction(x, den) for x in row] for row in self.rows]

        def pivot(self, prow, pcol, nrows):
            rows, den = self.rows, self.den
            pivot_row, pv = rows[prow], rows[prow][pcol]
            if pv < 0:
                pivot_row, pv = [-x for x in pivot_row], -pv
                seen["negative pivot"] += 1
            expected = []
            for i in range(nrows):
                if i == prow:
                    expected.append(pivot_row)
                    continue
                f = rows[i][pcol]
                new = []
                for x, y in zip(rows[i], pivot_row):
                    q, r = divmod(pv * x - f * y, den)
                    assert r == 0, "inexact division"
                    new.append(q)
                expected.append(new)
            ref = self.reference
            ref[prow] = [x / ref[prow][pcol] for x in ref[prow]]
            for i in range(nrows):
                if i != prow and ref[i][pcol]:
                    f = ref[i][pcol]
                    ref[i] = [x - f * y for x, y in zip(ref[i], ref[prow])]
            super().pivot(prow, pcol, nrows)
            assert self.den == pv > 0
            assert self.rows[:nrows] == expected
            for i in range(nrows):
                assert [Fraction(x, pv) for x in self.rows[i]] == ref[i]
            seen["pivot"] += 1
            seen["den > 1"] += pv > 1

    monkeypatch.setattr(simplex, "Tableau", Checked)
    rng = random.Random(71)
    for _ in range(150):
        (objective, rows, lower, upper), _ = _random_mixed_lp(rng)
        n = len(objective)
        objectives = [objective] + [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(2)
        ]
        batch = lp_solve_batch(objectives, rows, lower, upper)
        singles = [lp_solve(linprog(obj, rows, lower, upper)) for obj in objectives]
        assert batch == singles
        for outcome in batch:
            if outcome.status == OPTIMAL:
                nums, den = common_denominator(outcome.point)
                assert outcome.scaled == (tuple(nums), den)
        seen.update(rel for _, rel, _ in rows)
        seen["negative rhs"] += any(rhs < 0 for _, _, rhs in rows)
        for lo, hi in zip(lower, upper):
            if lo is not None:
                seen["shifted" if hi is None else "bound row"] += 1
            else:
                seen["reflected" if hi is not None else "split"] += 1
        seen[batch[0].status] += 1
    kinds = {LE, EQ, GE, "negative rhs", "shifted", "bound row", "reflected", "split"}
    assert kinds <= set(seen)
    assert seen[OPTIMAL] > 30 and seen[INFEASIBLE] > 10
    assert seen["pivot"] > 1000 and seen["den > 1"] > 100 and seen["negative pivot"]


def test_section_minima_match_single_solves_on_every_family():
    # Every grid weight, ties included, gets exactly the outcome of its own
    # cold solve of the same reflected program: y <= anchor as the upper
    # bound, with the integer composition as the objective.
    from pareto_kit.generate import POLY_FAMILIES, gen_poly
    from pareto_kit.polyhedra import _compositions, _section_minima

    statuses = set()
    for family in POLY_FAMILIES:
        for p in (2, 3, 4):
            P, _, anchor = gen_poly(p, 4, 80 + p, family)
            rows = [(list(a), LE, b) for a, b in zip(P.A, P.b)]
            for k in (4, 8, 16):
                weights = _compositions(p, k)
                singles = [lp_solve(linprog(w, rows, upper=anchor)) for w in weights]
                assert _section_minima(P, anchor, weights) == singles
                statuses.update(o.status for o in singles)
    assert statuses == {OPTIMAL, UNBOUNDED}


def test_batch_objective_coercion():
    from pareto_kit.numerics.linprog import lp_solve_batch

    rows = [([1, 1], LE, 4)]
    with pytest.raises(MalformedNumber):
        lp_solve_batch([[1, 1], [0.5, 1]], rows, lower=[0, 0])
    objectives = [["1/2", -1], [Fraction(-3, 2), Fraction(1, 3)], [-2, "0.25"]]
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in objectives]
    assert lp_solve_batch(objectives, rows, lower=[0, 0]) == singles
    generated = (obj for obj in objectives)
    assert lp_solve_batch(generated, rows, lower=[0, 0]) == singles
    assert lp_solve_batch([], rows, lower=[0, 0]) == []
    assert lp_solve_batch(iter(()), rows, lower=[0, 0]) == []


def test_grid_batch_checks_each_cold_point_once(monkeypatch):
    # Every cold optimum passes _check_outcome once; a reused point is the
    # same tuple, valued at its checked scaled form, and is priced with no
    # cost row: only a cold solve builds one.
    from pareto_kit.generate import gen_poly
    from pareto_kit.polyhedra import _compositions, _section_minima

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    run, check = linprog_module._run, linprog_module._check_outcome
    cost_row = linprog_module._cost_row
    optimal_cold, checked, cost_rows = [], [], []

    def counting_run(*args):
        result = run(*args)
        optimal_cold.append(result[0] == OPTIMAL)
        return result

    def counting_check(*args):
        checked.append(args)
        return check(*args)

    def counting_cost_row(*args):
        cost_rows.append(args)
        return cost_row(*args)

    monkeypatch.setattr(linprog_module, "_run", counting_run)
    monkeypatch.setattr(linprog_module, "_check_outcome", counting_check)
    monkeypatch.setattr(linprog_module, "_cost_row", counting_cost_row)
    solved = 0
    for p in (2, 3):
        for seed in range(4):
            P, _, anchor = gen_poly(p, 4, 60 + seed, "box")
            weights = _compositions(p, 8)
            del optimal_cold[:], checked[:], cost_rows[:]
            outcomes = _section_minima(P, anchor, weights)
            assert all(o.status == OPTIMAL for o in outcomes)
            assert len(checked) == sum(optimal_cold) < len(weights)
            assert len(cost_rows) == len(optimal_cold)
            solved += len(weights)
    assert solved > 100


def _every_kind_program(rng, free: bool):
    """A program over x1 shifted (x1 >= l1), x2 shifted with an upper
    bound (l2 <= x2 <= u2, a bound row), x3 reflected (x3 <= u3) and x4
    free (split), or shifted (x4 >= -4) when ``free`` is False.  Box rows
    keep it bounded, and every row holds with slack at the bases
    (l1, l2, u3, 0), so no artificial variable is needed and each
    optimal basis of a batch may be kept.
    """
    lo1 = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    lo2 = Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
    hi3 = Fraction(rng.randint(-4, 4), 2)
    base = [lo1, lo2, hi3, 0]
    rows = [
        ([1, 0, 0, 0], LE, lo1 + 6),
        ([0, 0, -1, 0], LE, 6 - hi3),
        ([0, 0, 0, 1], LE, 4),
        ([0, 0, 0, -1], LE, 4),
    ]
    for _ in range(3):
        a = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(4)]
        slack = rng.randint(1, 6)
        rows.append((a, LE, sum(x * y for x, y in zip(a, base)) + slack))
    lower = [lo1, lo2, None, None if free else -4]
    upper = [None, lo2 + rng.randint(1, 5), hi3, None]
    return rows, lower, upper


def test_batch_matches_single_solves_on_every_variable_kind(monkeypatch):
    # Each kept basis builds its reduced-cost map through the shift and
    # reflect signs and checks it against its own tableau's cost row.  The
    # two columns of a free variable are negatives of each other, so one
    # of them always has a zero reduced cost and no basis of a program
    # with a free variable could prove a unique optimum: such a batch
    # keeps no basis and solves every objective cold, and reuse is
    # exercised by the same programs with x4 bounded below.
    from pareto_kit.numerics.linprog import lp_solve_batch

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    run, basis_class = linprog_module._run, linprog_module._OptimalBasis
    cold, kept = [], []

    def counting_run(*args):
        cold.append(args)
        return run(*args)

    def counting_basis(*args):
        kept.append(args)
        return basis_class(*args)

    for free in (True, False):
        rng = random.Random(31)
        objectives_seen = 0
        del cold[:], kept[:]
        for _ in range(12):
            rows, lower, upper = _every_kind_program(rng, free)
            objectives = [[rng.randint(-3, 3) or 1 for _ in range(4)] for _ in range(10)]
            objectives += [[2 * c for c in obj] for obj in objectives[:3]]
            monkeypatch.setattr(linprog_module, "_run", counting_run)
            monkeypatch.setattr(linprog_module, "_OptimalBasis", counting_basis)
            batch = lp_solve_batch(objectives, rows, lower, upper)
            monkeypatch.undo()
            singles = [lp_solve(linprog(obj, rows, lower, upper)) for obj in objectives]
            assert batch == singles
            objectives_seen += len(objectives)
        assert not kept if free else kept
        reused = objectives_seen - len(cold)
        assert reused == 0 if free else reused > 0


def _counted_batch(monkeypatch, objectives, rows, **bounds):
    """The cold solves and the pricings of one ``lp_solve_batch`` call,
    whose outcomes must equal one ``lp_solve`` per objective."""
    from pareto_kit.numerics.linprog import lp_solve_batch

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    basis_class = linprog_module._OptimalBasis
    run, unique_optimum = linprog_module._run, basis_class.unique_optimum
    cold, priced = [], []
    monkeypatch.setattr(linprog_module, "_run", lambda *a: cold.append(a) or run(*a))
    monkeypatch.setattr(
        basis_class,
        "unique_optimum",
        lambda basis, nums: priced.append(tuple(nums)) or unique_optimum(basis, nums),
    )
    batch = lp_solve_batch(objectives, rows, **bounds)
    monkeypatch.undo()
    assert batch == [lp_solve(linprog(obj, rows, **bounds)) for obj in objectives]
    return cold, priced


def test_one_point_program_answers_its_batch_after_one_cold_solve(monkeypatch):
    # Below the anchor (1, 1, 1), which y1 + y2 + y3 >= 3 leaves
    # nondominated, the section {y : y <= anchor} is that one point, a
    # degenerate vertex where all three rows are tight.  The first
    # weight's cold solve ends at the base point s = 0 of y = anchor - s
    # and costs every reflected column -n_i < 0, so every later
    # objective, positive, with a zero entry or of mixed sign, gets that
    # point with no solve and no pricing.
    rows = [([-1, -1, -1], LE, -3), ([-1, -2, 0], LE, -3), ([0, -1, -2], LE, -3)]
    objectives = [[1, 2, 3], [4, 1, 1], [0, 1, 0], [0, 0, 0], [1, -2, 3], [-1, -1, -1]]
    cold, priced = _counted_batch(monkeypatch, objectives, rows, upper=[1, 1, 1])
    assert len(cold) == 1 and priced == []

    # Below (2, 2) in the quadrant y >= 0 the section is a square.  The
    # weight (0, -1) also ends its cold solve at the base point (2, 2),
    # but costs y1's column 0, which proves no single point: (1, 1) is
    # solved cold, at (0, 0).
    rows = [([-1, 0], LE, 0), ([0, -1], LE, 0)]
    cold, _ = _counted_batch(monkeypatch, [[0, -1], [1, 1], [-1, -1]], rows, upper=[2, 2])
    assert len(cold) == 2

    # A free variable x = s - t costs n and -n on its two columns, so it
    # never passes the sign test: -x ends its cold solve at the base point
    # x = 0 under x <= 0, and x itself is then solved cold, at -3.
    cold, _ = _counted_batch(monkeypatch, [[-1], [1]], [([1], LE, 0), ([-1], LE, 3)])
    assert len(cold) == 2


def test_covering_basis_answers_positive_objectives_without_pricing(monkeypatch):
    # The square [0, 2]^2 as y >= 0 below the upper bound (2, 2).  The
    # optimum (0, 0) of (1, 1) leaves the two row slacks nonbasic, with
    # maps (1, 0) and (0, 1) times a positive factor: the basis covers,
    # and every positive objective gets (0, 0) with no dot product.  An
    # objective with a zero entry ties along an edge and one of mixed
    # sign has another optimum: both are priced, and solved cold where no
    # kept basis proves their own optimum.
    rows = [([-1, 0], LE, 0), ([0, -1], LE, 0)]
    objectives = [[1, 1], [2, 3], [1, 0], [5, 1], [0, 1], [1, -1], [1, 7]]
    cold, priced = _counted_batch(monkeypatch, objectives, rows, upper=[2, 2])
    assert set(priced) == {(1, 0), (0, 1), (1, -1)}
    assert len(cold) == 3


def test_a_map_of_zeros_never_covers():
    covering = importlib.import_module("pareto_kit.numerics.linprog")._covering
    assert covering([[1, 0], [0, 3]])
    assert not covering([[1, 0], [0, 0]])
    assert not covering([[0, 0, 0]])
    assert not covering([[2, 1], [1, -1]])


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
    template = linprog_module._template(2, [([1, 1], GE, 2)], lower=[0, 0])
    cost = common_denominator(lp.objective)
    good = lp_solve(lp)
    assert good.scaled == (tuple(common_denominator(good.point)[0]), 1)
    linprog_module._check_outcome(template, *cost, good)
    # the check reads the integer form, ``scaled``
    wrong_value = LpOutcome(OPTIMAL, good.value + 1, good.point, good.scaled)
    infeasible_point = LpOutcome(
        OPTIMAL, Fraction(1), (Fraction(1), Fraction(0)), ((1, 0), 1)
    )
    for outcome in (wrong_value, infeasible_point):
        with pytest.raises(InternalInconsistency):
            linprog_module._check_outcome(template, *cost, outcome)


def test_batch_objective_of_wrong_length_is_rejected():
    from pareto_kit.numerics.linprog import lp_solve_batch

    rows = [([1, 1], LE, 4)]
    for objectives in ([[1, 1], [1, 1, 1]], [[1, 1], [1]], [[1], [1, 1]]):
        with pytest.raises(DimensionMismatch):
            lp_solve_batch(objectives, rows, lower=[0, 0])


def _planted_outcome_routes():
    """Plant a wrong optimal value on each cold route through the LP driver
    (a single solve and a batch solve), and an off-by-one entry in the
    reduced-cost map of the last kept basis and of an older one, and
    require InternalInconsistency on each; a wrong map must raise when
    its basis is kept, before it prices any objective.  Then plant an
    infeasible point of the right value on the first and on the second
    cold solve of a batch: it must be caught before its basis is kept,
    so before any objective reuses it, while the basis checked before it
    stays kept.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    from pareto_kit.numerics.linprog import lp_solve_batch

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    rows = [([1, 1], LE, 4)]
    # both objectives have the unique optimum (0, 4): the second one
    # reuses the basis kept from the first
    objectives = [[-1, -2], [-1, -3]]

    def patched(owner, name, replacement, solve):
        original = getattr(owner, name)
        setattr(owner, name, replacement(original))
        try:
            return solve()
        finally:
            setattr(owner, name, original)

    cold = []

    def counting(run):
        def wrapper(*args):
            cold.append(args)
            return run(*args)

        return wrapper

    batch = patched(
        linprog_module,
        "_run",
        counting,
        lambda: lp_solve_batch(objectives, rows, lower=[0, 0]),
    )
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in objectives]
    if batch != singles or len(cold) != 1:
        raise AssertionError(f"expected one cold solve and one reuse, got {cold}")

    # the optimum goes from (0, 4) to (4, 0) and back: the third objective
    # is not optimal at the last kept basis, and reuses the first one
    returning = [[-1, -2], [-2, -1], [-1, -3]]
    del cold[:]
    batch = patched(
        linprog_module,
        "_run",
        counting,
        lambda: lp_solve_batch(returning, rows, lower=[0, 0]),
    )
    singles = [lp_solve(linprog(obj, rows, lower=[0, 0])) for obj in returning]
    if batch != singles or len(cold) != 2 or batch[0].point == batch[1].point:
        raise AssertionError(
            f"expected a reuse of the older basis, got {len(cold)} cold solves"
        )

    # ``_basic_solution`` reads the standardized point as integers over
    # the tableau's denominator d, and the cost row's right-hand side,
    # the negated value times d (and the objective's denominator)
    def off_by_one_solution(basic_solution):
        def wrapper(*args):
            x_std, rhs = basic_solution(*args)
            return x_std, rhs + 1

        return wrapper

    priced = []

    def off_by_one_map(variable):
        # the first map of the first kept basis gains 1 on one variable,
        # which each planted objective weighs with a nonzero coefficient
        def replacement(reduced_cost_maps):
            calls = []

            def wrapper(*args):
                nonbasic, maps = reduced_cost_maps(*args)
                calls.append(args)
                if len(calls) == 1:
                    maps[0][variable] += 1
                return nonbasic, maps

            return wrapper

        return replacement

    def pricing_recorded(solve):
        # every objective priced at a kept basis goes to ``priced``
        def wrapper():
            unique_optimum = linprog_module._OptimalBasis.unique_optimum
            del priced[:]
            linprog_module._OptimalBasis.unique_optimum = lambda self, nums: (
                priced.append(nums) or unique_optimum(self, nums)
            )
            try:
                return solve()
            finally:
                linprog_module._OptimalBasis.unique_optimum = unique_optimum

        return wrapper

    routes = {
        "cold single": (
            linprog_module,
            "_basic_solution",
            off_by_one_solution,
            lambda: lp_solve(linprog(objectives[0], rows, lower=[0, 0])),
        ),
        "cold batch": (
            linprog_module,
            "_basic_solution",
            off_by_one_solution,
            lambda: lp_solve_batch(objectives, rows, lower=[0, 0]),
        ),
        # the second objective reuses the only, so the last, kept basis
        "map of the last kept basis": (
            linprog_module,
            "_reduced_cost_maps",
            off_by_one_map(1),
            pricing_recorded(lambda: lp_solve_batch(objectives, rows, lower=[0, 0])),
        ),
        # the third objective skips the second kept basis and reuses the
        # first, older one
        "map of an older kept basis": (
            linprog_module,
            "_reduced_cost_maps",
            off_by_one_map(0),
            pricing_recorded(lambda: lp_solve_batch(returning, rows, lower=[0, 0])),
        ),
    }
    for route, (owner, name, replacement, solve) in routes.items():
        try:
            patched(owner, name, replacement, solve)
        except InternalInconsistency:
            if route.startswith("map") and priced:
                raise AssertionError(f"{route}: a wrong map priced {priced}") from None
            continue
        raise AssertionError(f"{route}: a planted wrong outcome was returned")

    def off_the_constraints(basic_solution):
        # (0, 4) becomes (2, 3), outside x1 + x2 <= 4, at d = 1 (and
        # (2/d, 4 - 1/d) at any d).  The shift (2, -1) is orthogonal to
        # the first objective (-1, -2), so the value still matches: only
        # the feasibility check can catch it.
        def wrapper(*args):
            x_std, rhs = basic_solution(*args)
            return [x_std[0] + 2, x_std[1] - 1], rhs

        return wrapper

    kept = []

    def recording(basis_class):
        def wrapper(*args):
            kept.append(args)
            return basis_class(*args)

        return wrapper

    def infeasible_cold_batch():
        return patched(
            linprog_module,
            "_basic_solution",
            off_the_constraints,
            lambda: lp_solve_batch(objectives, rows, lower=[0, 0]),
        )

    try:
        patched(linprog_module, "_OptimalBasis", recording, infeasible_cold_batch)
    except InternalInconsistency:
        if kept:
            raise AssertionError("an unchecked point's basis was kept") from None
    else:
        raise AssertionError("cold batch: a planted infeasible point was returned")

    def off_the_constraints_second(basic_solution):
        # The second cold solve's (4, 0) becomes (3, 2), outside
        # x1 + x2 <= 4; the shift (-1, 2) is orthogonal to (-2, -1).
        calls = []

        def wrapper(*args):
            x_std, rhs = basic_solution(*args)
            calls.append(args)
            if len(calls) == 2:
                x_std = [x_std[0] - 1, x_std[1] + 2]
            return x_std, rhs

        return wrapper

    def infeasible_second_cold_solve():
        return patched(
            linprog_module,
            "_basic_solution",
            off_the_constraints_second,
            lambda: lp_solve_batch(returning, rows, lower=[0, 0]),
        )

    del kept[:]
    try:
        patched(
            linprog_module, "_OptimalBasis", recording, infeasible_second_cold_solve
        )
    except InternalInconsistency:
        if len(kept) != 1:
            raise AssertionError(
                f"expected only the first checked basis kept, got {len(kept)}"
            ) from None
    else:
        raise AssertionError(
            "second cold solve: a planted infeasible point was returned"
        )

    def above_the_bound(basic_solution):
        # x1 has only the upper bound 1, so x1 = 1 - s with s >= 0 is
        # reflected; s = -1/d puts x1 above 1.  No row holds x1 and its
        # cost is 0, so only the bound check can catch it.
        def wrapper(*args):
            x_std, rhs = basic_solution(*args)
            return [x_std[0] - 1, *x_std[1:]], rhs

        return wrapper

    try:
        patched(
            linprog_module,
            "_basic_solution",
            above_the_bound,
            lambda: lp_solve(linprog([0, 1], [([0, -1], LE, 0)], upper=[1, 5])),
        )
    except InternalInconsistency:
        pass
    else:
        raise AssertionError("reflected column: a point above its bound was returned")


def test_planted_wrong_outcome_raises_on_every_route():
    _planted_outcome_routes()


def test_planted_wrong_outcome_raises_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pareto_kit

    src = Path(pareto_kit.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests), os.environ.get("PYTHONPATH", "")]
    code = (
        "import sys, test_numerics\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "test_numerics._planted_outcome_routes()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _random_mixed_lp(rng):
    """A program with LE/EQ/GE rows, negative right-hand sides, and
    shifted, upper-bounded and free variables.  A variable without a lower
    (upper) bound gets the row -x_j <= 4 (x_j <= 4), so the program is
    bounded.

    Returns (objective, rows, lower, upper) and the same program as <=
    rows, a list of (coefficients, right-hand side) pairs.
    """
    n = rng.randint(1, 3)

    def value():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))

    units = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    rows = [
        ([value() for _ in range(n)], rng.choice((LE, EQ, GE)), value())
        for _ in range(rng.randint(1, 4))
    ]
    lower, upper = [], []
    for unit in units:
        lo = Fraction(rng.randint(-8, 4), 2) if rng.random() < 0.5 else None
        hi = Fraction(rng.randint(-4, 8), 2) if rng.random() < 0.5 else None
        if lo is None:
            rows.append(([-a for a in unit], LE, Fraction(4)))
        if hi is None:
            rows.append((unit, LE, Fraction(4)))
        lower.append(lo)
        upper.append(hi)

    le_rows = []
    for coeffs, rel, rhs in rows:
        if rel != GE:
            le_rows.append((coeffs, rhs))
        if rel != LE:
            le_rows.append(([-a for a in coeffs], -rhs))
    for unit, lo, hi in zip(units, lower, upper):
        if lo is not None:
            le_rows.append(([-a for a in unit], -lo))
        if hi is not None:
            le_rows.append((unit, hi))
    objective = [value() for _ in range(n)]
    return (objective, rows, lower, upper), le_rows


def test_mixed_rows_and_bounds_match_vertex_enumeration_oracle():
    rng = random.Random(23)
    seen = set()
    statuses = []
    for _ in range(150):
        (objective, rows, lower, upper), le_rows = _random_mixed_lp(rng)
        outcome = lp_solve(linprog(objective, rows, lower, upper))
        expected = oracle_lp_minimum(
            objective, [c for c, _ in le_rows], [r for _, r in le_rows]
        )
        if expected is None:
            assert outcome.status == INFEASIBLE
        else:
            assert outcome.status == OPTIMAL
            assert outcome.value == expected
        statuses.append(outcome.status)
        seen.update(rel for _, rel, _ in rows)
        seen.update("negative rhs" for _, _, rhs in rows if rhs < 0)
        seen.update("nonzero lower" for lo in lower if lo)
        seen.update("upper" for hi in upper if hi is not None)
        seen.update(
            "upper only"
            for lo, hi in zip(lower, upper)
            if lo is None and hi is not None
        )
        seen.update("free" for lo, hi in zip(lower, upper) if lo is None and hi is None)
    assert seen == {
        LE,
        EQ,
        GE,
        "negative rhs",
        "nonzero lower",
        "upper",
        "upper only",
        "free",
    }
    assert statuses.count(OPTIMAL) > 30 and statuses.count(INFEASIBLE) > 10


def test_initial_tableau_entries_for_every_row_kind():
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    # x1 in [1/2, 3] is shifted (x1 = 1/2 + u) and gets an upper-bound
    # row; x2 is free and split (x2 = v - w); x3 <= 2 has no lower bound
    # and is reflected (x3 = 2 - r): its column and cost are negated, each
    # rhs loses a3 * 2, and it gets no bound row.
    rows = [
        ([1, 1, 1], LE, 4),  # rhs 3/2: own slack starts basic
        ([1, -1, 0], GE, 1),  # rhs 1/2: slack -1, artificial
        ([2, 1, -1], EQ, 3),  # rhs 4: artificial
        ([-1, "1/3", 0], LE, -2),  # rhs -3/2: negated, artificial
    ]
    lower, upper = ["1/2", None, None], [3, None, 2]
    lp = linprog([1, -2, 3], rows, lower, upper)
    template = linprog_module._template(3, rows, lower, upper)
    nums, den = common_denominator(lp.objective)
    cost_row, offset = linprog_module._cost_row(template, nums)
    # columns: u, v, w, r, four slacks, three artificials, right-hand side.
    # Each row is the rational row times its denominator 2, 2, 1, 6, 2,
    # with its own slack or artificial at +-1: that variable is the
    # rational one times the row's denominator.
    expected = [
        [2, 2, -2, -2, 1, 0, 0, 0, 0, 0, 0, 3],
        [2, -2, 2, 0, 0, -1, 0, 0, 1, 0, 0, 1],
        [2, 1, -1, 1, 0, 0, 0, 0, 0, 1, 0, 4],
        [6, -2, 2, 0, 0, 0, -1, 0, 0, 0, 1, 9],
        [2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 5],
    ]
    assert template.rows == expected
    assert template.basis == [4, 8, 9, 10, 7]
    # the tableau starts at d = 1: the basic columns form an identity
    for r, col in enumerate(template.basis):
        assert [row[col] for row in template.rows] == [int(i == r) for i in range(5)]
    # phase-2 cost row: the reflected column costs -3; the bases cost
    # 1 * 1/2 - 2 * 0 + 3 * 2 = 13/2, 13 over den * base_den
    assert cost_row == [1, -2, 2, -3, 0, 0, 0, 0, 0, 0, 0, 0]
    assert (offset, den * template.base_den) == (13, 2)
    # phase-1 cost row: the three artificials cost 1/2, 1 and 1/6; times
    # their lcm 6, minus 3, 6 and 1 times their rows.  Over 6 it is the
    # rational phase-1 row [-4, 1/3, -1/3, -1, 0, 1, 1, 0, 0, 0, 0, -6]
    # with the slack columns of rows 2 and 4 scaled by 1/2 and 1/6.
    assert template.cost1 == [-24, 2, -2, -6, 0, 3, 1, 0, 0, 0, 0, -36]
