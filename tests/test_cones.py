import json
import random
from fractions import Fraction

import pytest

from pareto_kit import (
    cone,
    cone_contains,
    cone_nondominated_set,
    find_dominator_cone,
    is_pointed,
    is_proper,
    natural_cone,
    order_relation,
    strictly_positive_direction,
)
from pareto_kit.cones import cone_from_json, cone_to_json
from pareto_kit.errors import (
    DimensionMismatch,
    ImproperCone,
    InternalInconsistency,
    NotPointed,
)
from pareto_kit.generate import gen_cone
from pareto_kit.numerics import EQ, INFEASIBLE, OPTIMAL, LpOutcome, dot, linprog, lp_solve


def test_order_relation_equal_points():
    rel = order_relation((1, 2), (1, 2))
    assert (rel.leqq, rel.leq, rel.lt) == (True, False, False)


def test_order_relation_strict_everywhere():
    rel = order_relation((0, 1), (1, 2))
    assert (rel.leqq, rel.leq, rel.lt) == (True, True, True)


def test_order_relation_tie_in_one_coordinate():
    rel = order_relation((0, 2), (1, 2))
    assert (rel.leqq, rel.leq, rel.lt) == (True, True, False)


def test_order_relation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        order_relation((1,), (1, 2))


def test_order_relation_is_partial_order():
    rng = random.Random(3)
    for _ in range(300):
        p = rng.randint(1, 4)
        pts = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(p)) for _ in range(3)
        ]
        a, b, c = pts
        assert order_relation(a, a).leqq
        ab, ba = order_relation(a, b), order_relation(b, a)
        if ab.leqq and ba.leqq:
            assert a == b
        if ab.leqq and order_relation(b, c).leqq:
            assert order_relation(a, c).leqq
        if ab.lt:
            assert ab.leq
        if ab.leq:
            assert ab.leqq


def test_cone_contains_natural():
    assert cone_contains(cone([(1, 0), (0, 1)]), (2, 3))


def test_cone_contains_needs_nonnegative_weights():
    assert not cone_contains(cone([(1, 0), (1, 1)]), (0, 1))


def test_cone_contains_zero_always():
    assert cone_contains(cone([(3, -1), (2, 5)]), (0, 0))


def test_is_pointed():
    assert is_pointed(cone([(1, 0), (0, 1)]))
    assert not is_pointed(cone([(1, 0), (-1, 0)]))
    assert is_pointed(cone([(1, 0), (1, 1), (0, 1)]))


def test_direction_natural_cone():
    d = strictly_positive_direction(natural_cone(2))
    assert all(x > 0 for x in d)


def test_direction_postcondition():
    c = cone([(1, 0), (1, 1)])
    d = strictly_positive_direction(c)
    assert all(dot(d, g) > 0 for g in c.generators)


def test_direction_rejects_line_cone():
    with pytest.raises(NotPointed):
        strictly_positive_direction(cone([(0, 1), (0, -1), (1, 0)]))


def test_direction_rejects_full_space():
    full = cone([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert not is_proper(full)
    with pytest.raises(ImproperCone):
        strictly_positive_direction(full)


def test_halfplane_cone_is_proper_but_not_pointed():
    halfplane = cone([(1, 0), (-1, 0), (0, 1)])
    assert is_proper(halfplane)
    assert not is_pointed(halfplane)


def test_generated_cones_satisfy_invariants():
    rng = random.Random(5)
    for trial in range(25):
        p = rng.randint(2, 4)
        c = gen_cone(p, rng.randint(2, 4), trial)
        assert is_pointed(c)
        assert is_proper(c)
        d = strictly_positive_direction(c)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        for g in c.generators:
            assert dot(d, g) > 0
            assert cone_contains(c, g)
            assert cone_contains(c, tuple(x * factor for x in g))


def test_cone_json_round_trip():
    c = cone([("1/2", "0"), ("1", "1/3")])
    data = json.loads(json.dumps(cone_to_json(c)))
    assert cone_from_json(data) == c


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _planar_cone_oracle(generators, y):
    """Membership in a pointed planar cone by sector tests.

    The cone spans less than a half-plane (all generators share a strictly
    positive product with some direction), so y belongs iff it sits weakly
    between the two extreme generators: nonnegative cross product with one
    boundary ray and nonpositive with the other, or y = 0.
    """
    if y == (0, 0):
        return True
    lo = hi = generators[0]
    for g in generators[1:]:
        if _cross(lo, g) < 0:
            lo = g
        if _cross(hi, g) > 0:
            hi = g
    return _cross(lo, y) >= 0 and _cross(hi, y) <= 0 and any(
        dot(g, y) > 0 for g in generators
    )


def test_cone_contains_matches_planar_sector_oracle():
    rng = random.Random(11)
    checked = 0
    for trial in range(40):
        c = gen_cone(2, rng.randint(2, 5), trial + 1000)
        for _ in range(15):
            y = (
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
                Fraction(rng.randint(-8, 8), rng.randint(1, 3)),
            )
            expected = _planar_cone_oracle(c.generators, y)
            assert cone_contains(c, y) == expected, (c.generators, y)
            checked += 1
    assert checked == 600


@pytest.mark.parametrize(
    "planted",
    [
        LpOutcome(INFEASIBLE),
        # delta > 0 but the direction (0, 0) is not positive on the cone
        LpOutcome(OPTIMAL, Fraction(-1), (Fraction(0), Fraction(0), Fraction(1))),
    ],
)
def test_direction_checks_raise_internal_inconsistency(monkeypatch, planted):
    from pareto_kit import cones

    c = cone([(2, 1), (1, 3)])
    real = cones.lp_solve

    def planted_direction_lp(lp):
        # the properness check needs no LP; the direction LP has the extra
        # slack variable delta
        return planted if len(lp.objective) == c.dim + 1 else real(lp)

    monkeypatch.setattr(cones, "lp_solve", planted_direction_lp)
    strictly_positive_direction.cache_clear()
    try:
        with pytest.raises(InternalInconsistency):
            strictly_positive_direction(c)
    finally:
        strictly_positive_direction.cache_clear()


def test_caches_are_bounded():
    for cached in (is_pointed, is_proper, strictly_positive_direction):
        assert cached.cache_info().maxsize is not None


def _lp_member(generators, y) -> bool:
    """Is y = sum lambda_i g_i for some lambda >= 0?  One exact LP."""
    m = len(generators)
    rows = [([g[i] for g in generators], EQ, y[i]) for i in range(len(y))]
    return lp_solve(linprog([0] * m, rows, lower=[0] * m)).status == OPTIMAL


def _lp_has_line(generators) -> bool:
    """Is 0 a nonnegative combination of the generators with weights
    summing to 1?  Exactly then the cone holds a line."""
    m = len(generators)
    rows = [([g[i] for g in generators], EQ, 0) for i in range(len(generators[0]))]
    rows.append(([1] * m, EQ, 1))
    return lp_solve(linprog([0] * m, rows, lower=[0] * m)).status == OPTIMAL


def _rank(rows) -> int:
    """Rank of a list of rational vectors, by exact elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows[rank:] if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1 :]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def _seeded_cones():
    """Cones of dimension 1 to 6 in four kinds: plain random generators,
    with a line (a negated generator added), of lower rank (generators
    mapped in from a smaller space) and with parallel and duplicate
    generators; then gen_cone(6, 40)."""
    rng = random.Random(17)

    def vector(p):
        while True:
            v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(p))
            if any(v):
                return v

    for trial in range(96):
        p = 1 + trial % 6
        kind = trial // 6 % 4
        gens = [vector(p) for _ in range(rng.randint(1, 6))]
        if kind == 1:
            gens.append(tuple(-x for x in gens[rng.randrange(len(gens))]))
        elif kind == 2 and p > 1:
            basis = [vector(p) for _ in range(rng.randint(1, p - 1))]
            gens = []
            while len(gens) < rng.randint(1, 6):
                w = [rng.randint(-3, 3) for _ in basis]
                g = tuple(sum(c * b[i] for c, b in zip(w, basis)) for i in range(p))
                if any(g):
                    gens.append(g)
        elif kind == 3:
            g = gens[0]
            gens += [tuple(Fraction(rng.randint(1, 5), 2) * x for x in g), g]
        yield cone(gens)
    yield gen_cone(6, 40, 0)


def _queries(rng, c, count):
    """Points inside (nonnegative combinations, some on faces), just
    outside (a combination nudged), the negated generators, and random
    points."""
    gens, p = c.generators, c.dim
    out = [tuple(-x for x in g) for g in gens]
    while len(out) < count:
        pick = rng.random()
        if pick < 0.6:
            w = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in gens]
            y = [sum(x * g[i] for x, g in zip(w, gens)) for i in range(p)]
            if pick < 0.3:
                y[rng.randrange(p)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 4))
            out.append(tuple(y))
        else:
            out.append(tuple(Fraction(rng.randint(-5, 5)) for _ in range(p)))
    return out


def test_description_matches_lp_membership_pointedness_and_properness():
    rng = random.Random(23)
    lines = lower_rank = whole = checked = 0
    for c in _seeded_cones():
        gens = c.generators
        queries = _queries(rng, c, 16 if len(gens) > 10 else 24)
        for y in queries:
            assert cone_contains(c, y) == _lp_member(gens, y), (gens, y)
            checked += 1
        has_line = _lp_has_line(gens)
        assert is_pointed(c) == (not has_line), gens
        units = [
            tuple(Fraction(sign * (i == j)) for j in range(c.dim))
            for i in range(c.dim)
            for sign in (1, -1)
        ]
        whole_space = all(_lp_member(gens, u) for u in units)
        assert is_proper(c) == (not whole_space), gens
        lines += has_line
        lower_rank += _rank(gens) < c.dim
        whole += whole_space
    # every kind of cone was met
    assert checked > 2000
    assert lines >= 20 and lower_rank >= 10 and whole >= 1


def _planted_row_routes():
    """Plant a description row that breaks its check (a facet row negative
    on a generator, a lineality row not orthogonal to one) and require
    InternalInconsistency from every route that reads the description.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    from pareto_kit import cones

    c = cone([(2, 1), (1, 3)])
    points = [(0, 0), (1, 1), (3, 4)]
    routes = [
        lambda: cone_contains(c, (1, 1)),
        lambda: is_pointed(c),
        lambda: is_proper(c),
        lambda: cone_nondominated_set(points, c),
        lambda: find_dominator_cone(points, c, (3, 4), (1, 1)),
    ]
    real = cones._polar
    plants = [
        lambda gens: (real(gens)[0], real(gens)[1] + [(-1, 0)]),
        lambda gens: (real(gens)[0] + [(1, 0)], real(gens)[1]),
    ]
    for plant in plants:
        cones._polar = plant
        try:
            for route in routes:
                is_pointed.cache_clear()
                is_proper.cache_clear()
                try:
                    route()
                except InternalInconsistency:
                    continue
                raise AssertionError("a planted description row was used")
        finally:
            cones._polar = real
            is_pointed.cache_clear()
            is_proper.cache_clear()


def test_planted_description_row_raises():
    _planted_row_routes()


def test_planted_description_row_raises_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pareto_kit

    src = Path(pareto_kit.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests), os.environ.get("PYTHONPATH", "")]
    code = (
        "import sys, test_cones\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "test_cones._planted_row_routes()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
