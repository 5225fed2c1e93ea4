"""Per-module invariant suites behind the ``selftest`` subcommand.

Each suite fuzzes one module against its declared invariants at desk
scale, using oracles written independently of the code under test (naive
pairwise scans, exhaustive vertex enumeration, grid sampling).  Counts
scale linearly with the ``scale`` parameter; seeds make every run
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import generate
from .cones import (
    PolyhedralCone,
    cone_contains,
    is_pointed,
    natural_cone,
    order_relation,
    strictly_positive_direction,
)
from .dominance import (
    cone_nondominated_set,
    nondominated_set,
    properly_nondominated_set,
)
from .errors import MalformedInput, ParetoKitError
from .hulls import (
    HullSet,
    hull_contains,
    hull_is_properly_nondominated,
    hull_is_weakly_nondominated,
)
from .numerics import LE, OPTIMAL, dot, linprog, lp_solve, rational_format, rational_parse
from .numerics.linprog import lp_solve_batch
from .polyhedra import (
    frontier_sample_connected,
    lower_section_bounded,
    recession_cone,
    theorem_full_report,
)
from .reducibility import (
    all_selectors,
    efficient_solutions,
    hull_reducibility_check,
    mop_instance,
    properly_efficient_solutions,
    reducibility_report,
    weighted_sum_argmin,
)
from .stability import (
    external_stability_certificate,
    find_dominator,
    find_dominator_cone,
    verify_certificate,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    checks: int
    detail: str = ""


class _Check:
    def __init__(self):
        self.count = 0

    def __call__(self, condition: bool, message: str):
        if not condition:
            raise AssertionError(message)
        self.count += 1


# ---------------------------------------------------------------------------
# independent oracles


def naive_nondominated(points, strict: bool) -> list[int]:
    """Quadratic reference scan, written apart from the production path."""
    out = []
    for i, yi in enumerate(points):
        beaten = False
        for j, yj in enumerate(points):
            if i == j:
                continue
            if strict:
                beaten = all(a < b for a, b in zip(yj, yi))
            else:
                beaten = yj != yi and all(a <= b for a, b in zip(yj, yi))
            if beaten:
                break
        if not beaten:
            out.append(i)
    return out


def solve_square(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(rows)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def enumerate_vertices(rows, rhs):
    """All basic feasible points of {x : rows . x <= rhs} by brute force."""
    n = len(rows[0])
    vertices = []
    for active in combinations(range(len(rows)), n):
        candidate = solve_square([rows[i] for i in active], [rhs[i] for i in active])
        if candidate is None:
            continue
        if all(dot(row, candidate) <= r for row, r in zip(rows, rhs)):
            if candidate not in vertices:
                vertices.append(candidate)
    return vertices


# ---------------------------------------------------------------------------
# suites


def _suite_numerics(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-numerics", seed)))
    for _ in range(int(40 * scale)):
        value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        check(rational_parse(rational_format(value)) == value, "parse/format round trip")
    for trial in range(int(50 * scale)):
        n = rng.randint(1, 3)
        m = rng.randint(1, 6)
        box = Fraction(rng.randint(2, 6))
        rows = []
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            rows.append((coeffs, LE, Fraction(rng.randint(-6, 6))))
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            rows.append((unit, LE, box))
            rows.append(([-x for x in unit], LE, box))
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        lp = linprog(objective, rows)
        outcome = lp_solve(lp)
        again = lp_solve(lp)
        check(outcome == again, "deterministic resolve")
        ineq_rows = [c[0] for c in rows]
        ineq_rhs = [c[2] for c in rows]
        vertices = enumerate_vertices(ineq_rows, ineq_rhs)
        if outcome.status == OPTIMAL:
            check(bool(vertices), "oracle found the region the solver used")
            best = min(dot(objective, v) for v in vertices)
            check(outcome.value == best, f"vertex oracle value mismatch on trial {trial}")
        else:
            check(outcome.status == "infeasible", "boxed LP cannot be unbounded")
            check(not vertices, "oracle disagrees on infeasibility")
    return SuiteResult("numerics", True, check.count)


def _rand_point(rng, p, span=8):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(p))


def _suite_orders_cones(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-cones", seed)))
    for _ in range(int(60 * scale)):
        p = rng.randint(1, 4)
        a, b, c = (_rand_point(rng, p, 3) for _ in range(3))
        rel_aa = order_relation(a, a)
        check(rel_aa.leqq and not rel_aa.leq, "reflexive, not strict")
        ab, bc, ac = order_relation(a, b), order_relation(b, c), order_relation(a, c)
        if ab.leqq and bc.leqq:
            check(ac.leqq, "transitivity")
        ba = order_relation(b, a)
        if ab.leqq and ba.leqq:
            check(a == b, "antisymmetry")
        if ab.lt:
            check(ab.leq, "lt implies leq")
        if ab.leq:
            check(ab.leqq, "leq implies leqq")
    for trial in range(int(25 * scale)):
        p = rng.randint(2, 4)
        cone = generate.gen_cone(p, rng.randint(2, 4), seed * 1000 + trial)
        direction = strictly_positive_direction(cone)
        for g in cone.generators:
            check(dot(direction, g) > 0, "direction positivity")
            check(cone_contains(cone, g), "generators belong to their cone")
            factor = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            check(
                cone_contains(cone, tuple(x * factor for x in g)),
                "membership is scale invariant",
            )
        check(is_pointed(cone), "generated cones are pointed")
        # g and -g span a line, which no pointed cone holds
        g = cone.generators[trial % len(cone.generators)]
        line = PolyhedralCone(cone.generators + (tuple(-x for x in g),))
        check(not is_pointed(line), "a generator and its negation make a line")
    return SuiteResult("orders-cones", True, check.count)


def _suite_finite_dominance(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-dominance", seed)))
    for trial in range(int(40 * scale)):
        p = rng.randint(1, 4)
        n = rng.randint(1, 18)
        points = generate.gen_finite(max(p, 2), n, seed * 917 + trial)
        points = [row[:p] for row in points]
        report = properly_nondominated_set(points)
        nd = set(report.nondominated)
        wn = set(report.weakly_nondominated)
        pn = set(report.properly_nondominated)
        check(pn <= nd <= wn, "classification chain")
        check(pn == nd, "finite sets: proper equals nondominated")
        check(all(i in report.bounds for i in nd), "every frontier point has a bound")
        check(naive_nondominated(points, False) == sorted(nd), "naive oracle (nondominated)")
        check(naive_nondominated(points, True) == sorted(wn), "naive oracle (weak)")
        order = list(range(n))
        rng.shuffle(order)
        shuffled = [points[i] for i in order]
        check(
            {order[i] for i in nondominated_set(shuffled)} == nd,
            "permutation invariance",
        )
        worse = tuple(points[0][j] + (1 if j == 0 else 0) for j in range(p))
        check(
            set(nondominated_set(points + [worse])) & set(range(n)) == nd,
            "adding a dominated point changes nothing",
        )
    for trial in range(int(10 * scale)):
        p = rng.randint(2, 3)
        points = generate.gen_finite(p, rng.randint(2, 10), seed * 31 + trial)
        inner = generate.gen_cone(p, 3, seed * 77 + trial)
        extra = tuple(abs(x) + Fraction(1, 2) for x in _rand_point(rng, p, 3))
        outer = PolyhedralCone(inner.generators + (extra,))
        if not is_pointed(outer):
            continue
        check(
            set(cone_nondominated_set(points, outer))
            <= set(cone_nondominated_set(points, inner)),
            "larger cones keep fewer points",
        )
        check(
            cone_nondominated_set(points, natural_cone(p)) == nondominated_set(points),
            "natural cone matches the componentwise order",
        )
    return SuiteResult("finite-dominance", True, check.count)


def _has_weights(generators, y0, weak: bool = False) -> bool:
    """One LP, apart from the library: lam . (g - y0) >= 0 for all g, with
    lam >= 1, or with lam >= 0 and sum lam >= 1 when ``weak``?"""
    p = len(y0)
    rows = [([a - b for a, b in zip(y0, g)], LE, 0) for g in generators]
    rows += [([-1] * p, LE, -1)] if weak else []
    return lp_solve(linprog([0] * p, rows, lower=[int(not weak)] * p)).status == OPTIMAL


def _suite_hulls(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-hulls", seed)))
    for trial in range(int(15 * scale)):
        p = rng.randint(2, 3)
        w = generate.gen_hull(p, rng.randint(1, 7), seed * 13 + trial)
        queries = generate.gen_hull_queries(w, 4, seed * 29 + trial)
        for q in queries:
            check(hull_contains(w, q), "generated queries stay in the hull")
            lam = hull_is_properly_nondominated(w, q).witness
            proper = lam is not None
            weak = hull_is_weakly_nondominated(w, q)
            check(
                weak == _has_weights(w.generators, q, weak=True),
                "weakly nondominated hull points have weak weights",
            )
            # Isermann 1974: a polytope's nondominated points are proper
            check(
                proper == _has_weights(w.generators, q),
                "nondominated hull points are properly nondominated",
            )
            if proper:
                minimizer = all(dot(lam, g) >= dot(lam, q) for g in w.generators)
                check(min(lam) >= 1 and minimizer, "witness lam >= 1 minimizes at q")
            shift = _rand_point(rng, p, 4)
            moved = HullSet(
                tuple(tuple(a + s for a, s in zip(g, shift)) for g in w.generators)
            )
            moved_q = tuple(a + s for a, s in zip(q, shift))
            check(
                (
                    hull_is_properly_nondominated(moved, moved_q).verdict,
                    hull_is_weakly_nondominated(moved, moved_q),
                )
                == (proper, weak),
                "translation invariance",
            )
        lam = tuple(Fraction(rng.randint(1, 5)) for _ in range(p))
        scores = [dot(lam, g) for g in w.generators]
        best = min(scores)
        if scores.count(best) == 1:
            winner = w.generators[scores.index(best)]
            check(
                hull_is_properly_nondominated(w, winner).verdict,
                "unique positive-weight minimizer is properly nondominated",
            )
    for trial in range(int(6 * scale)):
        w = generate.gen_hull(2, rng.randint(2, 4), seed * 101 + trial)
        grid = []
        m = len(w.generators)
        for split in combinations(range(16 + m - 1), m - 1):
            parts = []
            prev = -1
            for s in split:
                parts.append(s - prev - 1)
                prev = s
            parts.append(16 + m - 1 - prev - 1)
            mu = [Fraction(v, 16) for v in parts]
            grid.append(
                tuple(
                    sum((mu[k] * w.generators[k][j] for k in range(m)), Fraction(0))
                    for j in range(2)
                )
            )
        for g in w.generators:
            if hull_is_weakly_nondominated(w, g):
                for z in grid:
                    check(
                        not all(a < b for a, b in zip(z, g)),
                        "grid point strictly beats a declared weak point",
                    )
    return SuiteResult("hull-dominance", True, check.count)


def _suite_stability(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-stability", seed)))
    for trial in range(int(30 * scale)):
        p = rng.randint(2, 4)
        points = generate.gen_finite(p, rng.randint(1, 16), seed * 7 + trial)
        certificate = external_stability_certificate(points)
        check(verify_certificate(points, certificate), "natural-cone certificate verifies")
        for i, point in enumerate(points):
            dominator = points[certificate.assignments[i]]
            for z in points:
                if all(a <= b for a, b in zip(z, point)):
                    check(sum(dominator) <= sum(z), "dominator minimizes the sum")
    for trial in range(int(8 * scale)):
        p = rng.randint(2, 3)
        points = generate.gen_finite(p, rng.randint(1, 8), seed * 57 + trial)
        cone = generate.gen_cone(p, rng.randint(2, 3), seed * 91 + trial)
        certificate = external_stability_certificate(points, cone)
        check(verify_certificate(points, certificate), "cone certificate verifies")
        ones = tuple(Fraction(1) for _ in range(p))
        via_cone = external_stability_certificate(points, natural_cone(p), ones)
        plain = external_stability_certificate(points)
        check(via_cone.assignments == plain.assignments, "natural cone reduces exactly")
        for i, point in enumerate(points):
            check(
                find_dominator_cone(points, natural_cone(p), point, ones)
                == find_dominator(points, point),
                "cone dominator reduces exactly",
            )
    return SuiteResult("stability", True, check.count)


def _suite_reducibility(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-reducibility", seed)))
    counterexample = mop_instance(
        ["x1", "x2", "x3"], [["1", "0"], ["0", "1"], ["1", "1"]]
    )
    report = reducibility_report(counterexample)
    check(report.strict_witnesses == ("x3",), "canonical counterexample witness")
    check(not report.equality_e, "canonical counterexample breaks equality")
    for trial in range(int(25 * scale)):
        p = rng.randint(2, 4)
        n = rng.randint(1, 14)
        rows = generate.gen_finite(p, n, seed * 201 + trial)
        inst = mop_instance([f"x{i + 1}" for i in range(n)], rows)
        report = reducibility_report(inst)
        we = set(report.we_set)
        first = {}  # label -> the first selector whose scan finds it efficient
        for sel in all_selectors(p):
            listed = efficient_solutions(inst, sel)
            for label in listed:
                first.setdefault(label, sel)
            efficient = set(listed)
            proper = set(properly_efficient_solutions(inst, sel))
            projected = [tuple(row[i - 1] for i in sel) for row in rows]
            weak_sub = {
                inst.labels[i] for i in naive_nondominated(projected, strict=True)
            }
            check(proper <= efficient <= weak_sub, "per-selector chain")
            check(efficient <= we, "subproblem efficiency lands in the weak set")
        # the sieve by a second route: each label's first selector, in the
        # order of the per-selector scans, and no selector for a witness
        check(list(first.items()) == list(report.union_e.items()), "first selectors")
        check(
            report.strict_witnesses == tuple(x for x in report.we_set if x not in first),
            "strict witnesses are efficient in no subproblem",
        )
        lam = tuple(Fraction(rng.randint(0, 3)) for _ in range(p))
        if any(lam):
            support = tuple(i + 1 for i, v in enumerate(lam) if v > 0)
            argmin = set(weighted_sum_argmin(inst, lam))
            check(argmin <= set(efficient_solutions(inst, support)), "weighted-sum soundness")
            if all(lam):
                proper_full = properly_efficient_solutions(inst, support)
                check(argmin <= set(proper_full), "positive weights give proper labels")
    for trial in range(int(5 * scale)):
        p = rng.randint(2, 3)
        w = generate.gen_hull(p, rng.randint(1, 6), seed * 301 + trial)
        # generated members are mostly dominated; generators often are not
        queries = generate.gen_hull_queries(w, 4, seed * 401 + trial)
        for r in hull_reducibility_check(w, queries + list(w.generators)):
            # the subset route, apart from the record: weights lam >= 1 that
            # make the projected query a minimizer over the projected hull
            # exist for the witness and for no selector before it, nor for
            # any selector of a dominated query
            selectors = all_selectors(p)
            last = selectors.index(r.witness) if r.lhs else len(selectors) - 1
            for sel in selectors[: last + 1]:
                sub = [tuple(g[i - 1] for i in sel) for g in w.generators]
                y0 = tuple(r.query[i - 1] for i in sel)
                check(_has_weights(sub, y0) == (sel == r.witness), "subset route")
    return SuiteResult("reducibility", True, check.count)


def _suite_polyhedra(seed: int, scale: float, check: _Check) -> SuiteResult:
    rng = random.Random(repr(("selftest-polyhedra", seed)))
    families = list(generate.POLY_FAMILIES)
    for trial in range(int(30 * scale)):
        p = rng.randint(2, 4)
        m = rng.randint(1, 8)
        family = families[trial % len(families)]
        P, tag, member = generate.gen_poly(p, m, seed * 509 + trial, family)
        report = theorem_full_report(P, [member])
        # the redundancy claim by a second route: the member's section is
        # bounded, so every coordinate has a minimum over it, exactly when
        # the frontier is nonempty
        rows = [(list(row), LE, rhs) for row, rhs in zip(P.A, P.b)]
        units = [tuple(int(i == j) for j in range(p)) for i in range(p)]
        minima = lp_solve_batch(units, rows, upper=member)
        check(
            all(o.status == OPTIMAL for o in minima) == report.y_n_nonempty,
            "section minima exist iff the frontier is nonempty",
        )
        if tag == "nonempty-frontier":
            check(report.y_n_nonempty, f"{family} family must be all-true")
        if tag == "empty-frontier":
            check(not report.y_n_nonempty, f"{family} family must be all-false")
        if report.y_n_nonempty:
            check(report.witness is not None and P.contains(report.witness), "witness in P")
        else:
            d = report.negative_direction
            check(d is not None and sum(d) == -1, "certificate normalized")
            check(all(x <= 0 for x in d), "certificate is nonpositive")
        cone = recession_cone(P)
        for d in cone.sample_directions:
            for alpha in (1, 10, 100):
                moved = tuple(y + alpha * x for y, x in zip(member, d))
                check(P.contains(moved), "recession ray stays inside")
        if p == 2:
            # The section is unbounded iff {A d <= 0, d <= 0, sum d = -1}
            # is nonempty; that region is a polytope, so it is nonempty iff
            # it has a vertex, which brute-force enumeration can decide.
            zero, one = Fraction(0), Fraction(1)
            section_rows = [tuple(row) for row in P.A]
            section_rows += [(one, zero), (zero, one), (one, one), (-one, -one)]
            section_rhs = [zero] * (len(P.A) + 2) + [-one, one]
            vertices = enumerate_vertices(section_rows, section_rhs)
            check(
                lower_section_bounded(P, member) == (not vertices),
                "vertex oracle agrees on boundedness",
            )
        if report.y_n_nonempty:
            for k in (4, 8, 16):
                conn = frontier_sample_connected(P, k)
                check(conn.component_count == 1, "default radius joins the samples")
    for trial in range(int(10 * scale)):
        w = generate.gen_hull(rng.randint(2, 3), rng.randint(1, 6), seed * 601 + trial)
        for k in (4, 8, 16):
            conn = frontier_sample_connected(w, k)
            check(conn.component_count == 1, "hull sampling is one component")
    return SuiteResult("polyhedral-structure", True, check.count)


_SUITES = (
    ("numerics", _suite_numerics),
    ("orders-cones", _suite_orders_cones),
    ("finite-dominance", _suite_finite_dominance),
    ("hull-dominance", _suite_hulls),
    ("stability", _suite_stability),
    ("reducibility", _suite_reducibility),
    ("polyhedral-structure", _suite_polyhedra),
)


def check_scale(scale: float) -> float:
    """``scale`` itself when it is a finite positive number."""
    if not 0 < scale < float("inf"):  # also false for nan
        raise MalformedInput(f"scale must be a finite positive number, not {scale!r}")
    return scale


def run_all(seed: int = 0, scale: float = 1.0) -> list[SuiteResult]:
    """Every suite's result; one that ran no check (a small ``scale``) fails.

    A ``scale`` that is not a finite positive number raises
    ``MalformedInput`` before any suite runs."""
    check_scale(scale)
    results = []
    for name, suite in _SUITES:
        check = _Check()
        try:
            result = suite(seed, scale, check)
        except (AssertionError, ParetoKitError) as exc:
            result = SuiteResult(name, False, check.count, str(exc))
        if result.ok and not result.checks:
            result = SuiteResult(name, False, 0, "no check ran at this scale")
        results.append(result)
    return results
