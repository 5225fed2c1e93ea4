import hashlib
import importlib
import random
from fractions import Fraction
from itertools import product

import pytest

from pareto_kit import (
    frontier_sample_connected,
    hull,
    lower_section_bounded,
    negative_recession_direction,
    polyhedron,
    recession_cone,
    theorem_full_report,
)
from pareto_kit.errors import (
    EmptyFrontier,
    EmptyPolyhedron,
    InternalInconsistency,
    InvalidEpsilon,
    NotMember,
)
from pareto_kit.generate import POLY_FAMILIES, gen_poly
from pareto_kit.numerics import LE, OPTIMAL, UNBOUNDED, LpOutcome, linprog, lp_solve
from pareto_kit.polyhedra import polyhedron_from_json, polyhedron_to_json

from oracles import oracle_polytope_vertices

DIAGONAL = polyhedron([[-1, -1]], [0])  # y1 + y2 >= 0
HALFPLANE = polyhedron([[0, -1]], [0])  # y2 >= 0
BOX = polyhedron([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])


def test_recession_cone_membership():
    rc = recession_cone(DIAGONAL)
    assert rc.contains((1, 1))
    assert not rc.contains((-1, 0))


def test_recession_cone_of_box_is_origin():
    assert recession_cone(BOX).sample_directions == ()


def test_recession_cone_of_orthant():
    rc = recession_cone(polyhedron([[-1, 0], [0, -1]], [0, 0]))
    assert rc.contains((1, 0)) and rc.contains((0, 1))
    assert not rc.contains((-1, 0))


def test_recession_rays_stay_inside():
    rc = recession_cone(DIAGONAL)
    member = (Fraction(1), Fraction(1))
    for d in rc.sample_directions:
        for alpha in (1, 10, 100):
            moved = tuple(y + alpha * x for y, x in zip(member, d))
            assert DIAGONAL.contains(moved)


def test_negative_direction_cases():
    d = negative_recession_direction(HALFPLANE)
    assert d == (Fraction(-1), Fraction(0))
    assert negative_recession_direction(DIAGONAL) is None
    assert negative_recession_direction(BOX) is None


def test_empty_polyhedron_rejected():
    empty = polyhedron([[1, 0], [-1, 0]], [0, -1])
    with pytest.raises(EmptyPolyhedron):
        negative_recession_direction(empty)
    with pytest.raises(EmptyPolyhedron):
        theorem_full_report(empty)


def test_lower_section_bounded_cases():
    assert lower_section_bounded(DIAGONAL, (0, 0))
    assert not lower_section_bounded(HALFPLANE, (0, 0))
    assert lower_section_bounded(BOX, (1, 1))
    with pytest.raises(NotMember):
        lower_section_bounded(BOX, (5, 5))


def test_full_report_hand_pair():
    all_true = theorem_full_report(DIAGONAL, [(1, 1)])
    assert all_true.y_n_nonempty
    assert all_true.witness is not None
    assert sum(all_true.witness) == 0  # frontier is the line y1 + y2 = 0
    all_false = theorem_full_report(HALFPLANE)
    assert not all_false.y_n_nonempty
    assert all_false.negative_direction == (Fraction(-1), Fraction(0))


def test_full_report_box():
    report = theorem_full_report(BOX)
    assert report.y_n_nonempty
    assert report.witness == (Fraction(0), Fraction(0))


def test_full_report_rejects_outside_sample():
    with pytest.raises(NotMember):
        theorem_full_report(BOX, [(9, 9)])


def test_fuzz_equivalence_and_tags():
    rng = random.Random(73)
    for trial in range(120):
        p = rng.randint(2, 4)
        m = rng.randint(1, 10)
        family = POLY_FAMILIES[trial % len(POLY_FAMILIES)]
        P, tag, member = gen_poly(p, m, trial, family)
        report = theorem_full_report(P, [member])
        if tag == "nonempty-frontier":
            assert report.y_n_nonempty
        if tag == "empty-frontier":
            assert not report.y_n_nonempty
        if report.y_n_nonempty:
            assert P.contains(report.witness)
        else:
            d = report.negative_direction
            assert sum(d) == -1 and all(x <= 0 for x in d)


def test_boundedness_matches_vertex_oracle():
    rng = random.Random(79)
    zero, one = Fraction(0), Fraction(1)
    for trial in range(40):
        family = POLY_FAMILIES[trial % len(POLY_FAMILIES)]
        P, _, member = gen_poly(2, rng.randint(1, 6), trial + 400, family)
        rows = [tuple(row) for row in P.A]
        rows += [(one, zero), (zero, one), (one, one), (-one, -one)]
        rhs = [zero] * (len(P.A) + 2) + [-one, one]
        vertices = oracle_polytope_vertices(rows, rhs)
        assert lower_section_bounded(P, member) == (not vertices)


def test_connectivity_segment_hull():
    report = frontier_sample_connected(hull([(1, 0), (0, 1)]), 8)
    assert set(report.samples) == {
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    assert report.component_count == 1
    # an explicit radius below the vertex gap splits the two samples
    split = frontier_sample_connected(hull([(1, 0), (0, 1)]), 8, epsilon="1/2")
    assert split.component_count == 2


def test_connectivity_contrast_pair():
    report = frontier_sample_connected(hull([(0, 10), (10, 0)]), 8, epsilon=1)
    assert report.component_count == 2


def test_connectivity_singleton_hull():
    report = frontier_sample_connected(hull([(2, 2)]), 4)
    assert report.component_count == 1


def test_connectivity_polyhedron_source():
    report = frontier_sample_connected(DIAGONAL, 8)
    assert report.component_count == 1
    with pytest.raises(EmptyFrontier):
        frontier_sample_connected(HALFPLANE, 8)


def test_connectivity_epsilon_validation():
    with pytest.raises(InvalidEpsilon):
        frontier_sample_connected(hull([(1, 0), (0, 1)]), 4, epsilon=0)


def test_default_radius_joins_all_true_instances():
    rng = random.Random(83)
    for trial in range(25):
        p = rng.randint(2, 3)
        family = ("box", "orthant", "tilted")[trial % 3]
        P, tag, _ = gen_poly(p, rng.randint(1, 6), trial + 80, family)
        assert tag == "nonempty-frontier"
        for k in (4, 8, 16):
            assert frontier_sample_connected(P, k).component_count == 1


def test_polyhedron_json_round_trip():
    data = polyhedron_to_json(DIAGONAL)
    assert polyhedron_from_json(data) == DIAGONAL


@pytest.mark.parametrize(
    "generators",
    [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 0)],
        [("2/3", "1/3"), ("1/3", "2/3"), (1, 1)],
    ],
)
def test_hull_sample_ties_go_to_first_generator(generators):
    # grid 2 has the single weight (1/2, 1/2), on which the first two
    # generators tie; the sample is the one listed first
    w = hull(generators)
    report = frontier_sample_connected(w, 2)
    assert report.samples == (w.generators[0],)


def test_non_optimal_lp_raises_internal_inconsistency(monkeypatch):
    from pareto_kit import polyhedra

    real_solve, real_minima = polyhedra.lp_solve, polyhedra._section_minima

    def planted_solve(lp):
        # the recession-ray LPs are the ones over the unit box
        return LpOutcome(UNBOUNDED) if lp.lower is not None else real_solve(lp)

    def planted_minima(P, anchor, weight_list):
        # a single-weight batch stays real; the grid fails (connect
        # itself solves no single-weight section LP)
        outcomes = real_minima(P, anchor, weight_list)
        if len(weight_list) == 1:
            return outcomes
        return [LpOutcome(UNBOUNDED)] * len(outcomes)

    monkeypatch.setattr(polyhedra, "lp_solve", planted_solve)
    with pytest.raises(InternalInconsistency):
        recession_cone(BOX)
    monkeypatch.setattr(polyhedra, "_section_minima", planted_minima)
    with pytest.raises(InternalInconsistency):
        frontier_sample_connected(DIAGONAL, 8)


def test_section_minima_match_per_weight_solves_in_y():
    # The same minima as single LPs in y itself: min lam . y over
    # A y <= b and y <= anchor as rows, y free and split, with no reflection.
    # The batch takes each weight lam = n/k as its composition n, so its
    # values are k times the single LP's.
    from pareto_kit.polyhedra import _compositions, _section_minima

    optimal = 0
    for family in POLY_FAMILIES:
        for p in (2, 3, 4):
            for seed in range(3):
                P, _, anchor = gen_poly(p, 3 + seed, 500 + seed, family)
                rows = [(list(a), LE, b) for a, b in zip(P.A, P.b)]
                rows += [
                    ([int(i == j) for i in range(p)], LE, anchor[j]) for j in range(p)
                ]
                k = p + 3
                weights = _compositions(p, k)
                outcomes = _section_minima(P, anchor, weights)
                for counts, outcome in zip(weights, outcomes):
                    lam = [Fraction(n, k) for n in counts]
                    expected = lp_solve(linprog(lam, rows))
                    assert outcome.status == expected.status
                    if outcome.status != OPTIMAL:
                        continue
                    optimal += 1
                    point = outcome.point
                    assert outcome.value / k == expected.value
                    assert outcome.value / k == sum(w * y for w, y in zip(lam, point))
                    if point != expected.point:
                        # only a tie may differ: a second feasible point of
                        # the same optimal value, which the other
                        # formulation's pivots may reach first
                        assert P.contains(point)
                        assert all(y <= a for y, a in zip(point, anchor))
    assert optimal > 300


# The connect sweep below, recorded when each grid batch kept only its last
# optimal basis: per (family, p), the number of reports and the first 16
# hex digits of the sha256 of their repr.  No halfplane polyhedron of the
# sweep has a nonempty frontier.
_CONNECT_SWEEP = {
    ("box", 2): (12, "f62a442be11caff2"),
    ("box", 3): (12, "d68047bbe9f4ffaa"),
    ("box", 4): (12, "86bf6477823e6efa"),
    ("orthant", 2): (12, "54aa49d31093b951"),
    ("orthant", 3): (12, "a7e027f23c344f0a"),
    ("orthant", 4): (12, "e2b9da9e353ec458"),
    ("tilted", 2): (12, "a044bbb8c04745cb"),
    ("tilted", 3): (12, "fee7215acb3c0931"),
    ("tilted", 4): (12, "3674a2821099430a"),
    ("halfplane", 2): (0, "4f53cda18c2baa0c"),
    ("halfplane", 3): (0, "4f53cda18c2baa0c"),
    ("halfplane", 4): (0, "4f53cda18c2baa0c"),
    ("random", 2): (12, "0fc1c951711eeb09"),
    ("random", 3): (12, "ad9a705efc46f058"),
    ("random", 4): (9, "c4235825ba5f10ef"),
}

# cold solves of the sweep's grid batches when each kept only its last basis
_CONNECT_SWEEP_COLD_SOLVES = 1363


def test_connect_sweep_solves_a_third_as_many_cold_lps(monkeypatch):
    # Grids 4/8/16 over every polyhedron with a nonempty frontier among
    # gen_poly(p, 6, seed, family), seeds 0-3.  Pricing each weight at
    # every basis kept in its batch must keep the reports and cut the
    # cold solves to at most a third.
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    run = linprog_module._run
    cold_solves = []

    def counting(*args):
        cold_solves.append(args)
        return run(*args)

    digests = {}
    for family in POLY_FAMILIES:
        for p in (2, 3, 4):
            reports = []
            for seed in range(4):
                P, _, _ = gen_poly(p, 6, seed, family)
                if negative_recession_direction(P) is not None:
                    continue
                for grid in (4, 8, 16):
                    monkeypatch.setattr(linprog_module, "_run", counting)
                    reports.append(frontier_sample_connected(P, grid))
                    monkeypatch.undo()
            digest = hashlib.sha256(repr(reports).encode()).hexdigest()[:16]
            digests[family, p] = (len(reports), digest)
    assert digests == _CONNECT_SWEEP
    assert 3 * len(cold_solves) <= _CONNECT_SWEEP_COLD_SOLVES


def test_connect_sweep_prices_by_the_three_rules(monkeypatch):
    # The same sweep.  A one-point section answers its batch after one
    # cold solve, a covering basis answers each positive weight with no
    # dot product, and any other weight is priced first at the basis that
    # supplied the latest reused point.  Pricing every weight at each kept
    # basis, most recent first, took 396 cold solves and 22,328 pricings.
    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    basis_class = linprog_module._OptimalBasis
    run, unique_optimum = linprog_module._run, basis_class.unique_optimum
    cold, priced = [], []
    digests = {}
    for family in POLY_FAMILIES:
        for p in (2, 3, 4):
            reports = []
            for seed in range(4):
                P, _, _ = gen_poly(p, 6, seed, family)
                if negative_recession_direction(P) is not None:
                    continue
                for grid in (4, 8, 16):
                    monkeypatch.setattr(
                        linprog_module, "_run", lambda *a: cold.append(a) or run(*a)
                    )
                    monkeypatch.setattr(
                        basis_class,
                        "unique_optimum",
                        lambda b, nums: priced.append(nums) or unique_optimum(b, nums),
                    )
                    reports.append(frontier_sample_connected(P, grid))
                    monkeypatch.undo()
            digest = hashlib.sha256(repr(reports).encode()).hexdigest()[:16]
            digests[family, p] = (len(reports), digest)
    assert digests == _CONNECT_SWEEP
    assert len(cold) <= 271 and len(priced) <= 6643


def test_section_below_a_nondominated_anchor_takes_one_cold_solve(monkeypatch):
    # When feasible_point(P) is nondominated, its lower section is that
    # one point.  The first grid weight's cold solve ends there, and
    # every later objective gets the anchor with no solve: grid weights,
    # and objectives with a zero entry or of mixed sign.
    from pareto_kit.polyhedra import _compositions, _section_minima, feasible_point

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    run = linprog_module._run
    cold = []
    sections = 0
    for family in POLY_FAMILIES:
        for p in (2, 3, 4):
            for seed in range(4):
                P, _, _ = gen_poly(p, 6, seed, family)
                if negative_recession_direction(P) is not None:
                    continue
                anchor = feasible_point(P)
                if theorem_full_report(P, [anchor]).witness != anchor:
                    continue
                weights = _compositions(p, 8) + [
                    (0,) * (p - 1) + (1,),
                    (1, -2) + (1,) * (p - 2),
                    (-1,) * p,
                ]
                del cold[:]
                monkeypatch.setattr(
                    linprog_module, "_run", lambda *a: cold.append(a) or run(*a)
                )
                outcomes = _section_minima(P, anchor, weights)
                monkeypatch.undo()
                rows = [(list(a), LE, b) for a, b in zip(P.A, P.b)]
                singles = [lp_solve(linprog(w, rows, upper=anchor)) for w in weights]
                assert outcomes == singles
                assert {o.point for o in outcomes} == {anchor}
                assert len(cold) == 1
                sections += 1
    assert sections == 16


def test_caches_are_bounded():
    from pareto_kit.polyhedra import feasible_point

    for cached in (feasible_point, negative_recession_direction):
        assert cached.cache_info().maxsize is not None


def test_compositions_match_brute_force():
    from pareto_kit.polyhedra import _compositions

    for p in range(1, 5):
        for k in range(1, 13):
            expected = [c for c in product(range(1, k + 1), repeat=p) if sum(c) == k]
            assert _compositions(p, k) == expected
