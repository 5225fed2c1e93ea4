import json
import random
from fractions import Fraction

import pytest

from pareto_kit import (
    cone,
    cone_contains,
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
from pareto_kit.numerics import INFEASIBLE, OPTIMAL, LpOutcome, dot


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
        # membership LPs keep the real solver; the direction LP has the
        # extra slack variable delta
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
