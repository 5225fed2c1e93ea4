import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_kit import (
    cone,
    cone_nondominated_set,
    geoffrion_bound,
    natural_cone,
    nondominated_set,
    point_set,
    properly_nondominated_set,
    weakly_nondominated_set,
)
from pareto_kit.errors import (
    DimensionMismatch,
    EmptySet,
    NotMember,
    NotNondominated,
    NotPointed,
)
from pareto_kit.generate import gen_cone, gen_finite

from oracles import (
    oracle_geoffrion_bound,
    oracle_nondominated,
    oracle_weakly_nondominated,
)


def test_nondominated_basic():
    assert nondominated_set([(1, 2), (2, 1), (2, 2)]) == [0, 1]


def test_nondominated_singleton():
    assert nondominated_set([(5, 5)]) == [0]


def test_nondominated_scalar_minimum():
    assert nondominated_set([(3,), (1,), (2,)]) == [1]


def test_weak_shared_coordinate_blocks_strict_dominance():
    assert weakly_nondominated_set([(0, 1), (0, 2)]) == [0, 1]


def test_weak_includes_nondominated_and_more():
    assert weakly_nondominated_set([(1, 0), (0, 1), (1, 1)]) == [0, 1, 2]
    assert nondominated_set([(1, 0), (0, 1), (1, 1)]) == [0, 1]


def test_weak_strict_dominance():
    assert weakly_nondominated_set([(0, 0), (1, 1)]) == [0]


def test_duplicates_are_all_reported():
    points = [(1, 1), (1, 1), (2, 2)]
    assert nondominated_set(points) == [0, 1]
    assert point_set(points).duplicate_groups() == [[0, 1]]


def test_empty_set_rejected():
    with pytest.raises(EmptySet):
        nondominated_set([])


def test_geoffrion_bound_examples():
    assert geoffrion_bound([(0, 2), (1, 0)], (1, 0)) == Fraction(1, 2)
    assert geoffrion_bound([(0, 2), (1, 0)], (0, 2)) == Fraction(2)
    assert geoffrion_bound([(5, 5)], (5, 5)) == 0


def test_geoffrion_bound_errors():
    with pytest.raises(NotMember):
        geoffrion_bound([(0, 2), (1, 0)], (3, 3))
    with pytest.raises(NotNondominated):
        geoffrion_bound([(0, 0), (1, 1)], (1, 1))


def test_report_chain_and_bounds():
    report = properly_nondominated_set([(1, 2), (2, 1), (2, 2)])
    assert report.nondominated == (0, 1)
    assert report.properly_nondominated == (0, 1)
    assert set(report.bounds) == {0, 1}
    assert all(b >= 0 for b in report.bounds.values())


def test_report_bounds_example():
    report = properly_nondominated_set([(0, 2), (1, 0)])
    assert report.bounds[1] == Fraction(1, 2)
    assert report.bounds[0] == Fraction(2)


def test_bound_worst_competitor_scanned_after_reference():
    # the scan visits (-1, 5, 1), then y0 = (0, 0, 6), then the worst
    # competitor (4, 4, 0), which dominates (5, 5, 1)
    points = [tuple(map(Fraction, y)) for y in [(0, 0, 6), (4, 4, 0), (-1, 5, 1), (5, 5, 1)]]
    report = properly_nondominated_set(points)
    assert report.nondominated == (0, 1, 2)
    assert report.bounds[0] == Fraction(3, 2)
    for i in report.nondominated:
        expected = oracle_geoffrion_bound(points, points[i])
        assert report.bounds[i] == geoffrion_bound(points, points[i]) == expected


def test_oracle_equivalence_fuzz():
    rng = random.Random(13)
    for trial in range(120):
        p = rng.randint(1, 4)
        n = rng.randint(1, 30)
        points = [row[:p] for row in gen_finite(max(2, p), n, trial)]
        assert nondominated_set(points) == oracle_nondominated(points)
        assert weakly_nondominated_set(points) == oracle_weakly_nondominated(points)
        report = properly_nondominated_set(points)
        assert set(report.properly_nondominated) == set(report.nondominated)
        assert set(report.nondominated) <= set(report.weakly_nondominated)
        for i in report.nondominated:
            assert report.bounds[i] == oracle_geoffrion_bound(points, points[i])


def test_bounds_match_oracle_with_ties():
    # entries k/2 with |k| <= 3: duplicate values and ties in single
    # coordinates are common, so pairs with a zero difference somewhere
    # and duplicated frontier values are both met
    rng = random.Random(19)
    for trial in range(150):
        p = rng.randint(2, 5)
        n = rng.randint(1, 30)
        points = [tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(p)) for _ in range(n)]
        report = properly_nondominated_set(points)
        # bounds by value group: first row of the value, then row
        by_value = sorted(report.nondominated, key=lambda i: (points.index(points[i]), i))
        assert list(report.bounds) == by_value
        for i in report.nondominated:
            expected = oracle_geoffrion_bound(points, points[i])
            assert report.bounds[i] == geoffrion_bound(points, points[i]) == expected


def test_cone_nondominated_matches_natural_order():
    rng = random.Random(17)
    for trial in range(20):
        p = rng.randint(2, 3)
        points = gen_finite(p, rng.randint(1, 12), trial + 500)
        assert cone_nondominated_set(points, natural_cone(p)) == nondominated_set(
            points
        )


def test_cone_nondominated_example():
    c = cone([(1, 0), (1, 1)])
    assert cone_nondominated_set([(0, 0), (1, 0), (0, 1)], c) == [0, 2]


def test_cone_nondominated_rejects_line_cone():
    with pytest.raises(NotPointed):
        cone_nondominated_set([(0, 0)], cone([(1, 0), (-1, 0)]))


def test_cone_nondominated_dimension_check():
    with pytest.raises(DimensionMismatch):
        cone_nondominated_set([(0, 0, 0)], natural_cone(2))


_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@given(
    st.integers(1, 4).flatmap(
        lambda p: st.lists(
            st.tuples(*[_rationals] * p), min_size=1, max_size=12
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_chain_and_oracle_property(points):
    report = properly_nondominated_set(points)
    assert set(report.properly_nondominated) == set(report.nondominated)
    assert set(report.nondominated) <= set(report.weakly_nondominated)
    assert list(report.nondominated) == oracle_nondominated(points)
    assert list(report.weakly_nondominated) == oracle_weakly_nondominated(points)


def test_larger_cone_keeps_fewer_points():
    rng = random.Random(23)
    for trial in range(12):
        p = rng.randint(2, 3)
        points = gen_finite(p, rng.randint(2, 10), trial + 900)
        inner = gen_cone(p, 3, trial + 950)
        bump = tuple(
            abs(x) + Fraction(1, 2)
            for x in (Fraction(rng.randint(-3, 3)) for _ in range(p))
        )
        outer = cone(inner.generators + (bump,))
        inner_set = set(cone_nondominated_set(points, inner))
        outer_set = set(cone_nondominated_set(points, outer))
        assert outer_set <= inner_set
