import pytest

from pareto_kit import (
    hull_is_nondominated,
    hull_is_properly_nondominated,
    hull_is_weakly_nondominated,
    nondominated_set,
    theorem_full_report,
)
from pareto_kit.errors import SizeCap
from pareto_kit.generate import gen_cone, gen_finite, gen_hull, gen_poly


def test_singleton_finite_instance():
    points = gen_finite(2, 1, 7)
    assert len(points) == 1
    assert nondominated_set(points) == [0]


def test_finite_is_reproducible():
    assert gen_finite(3, 12, 42) == gen_finite(3, 12, 42)
    assert gen_finite(3, 12, 42) != gen_finite(3, 12, 43)


def test_hull_generator_chain():
    w = gen_hull(2, 3, 5)
    assert len(w.generators) == 3
    for g in w.generators:
        proper = hull_is_properly_nondominated(w, g).verdict
        nd = hull_is_nondominated(w, g)
        weak = hull_is_weakly_nondominated(w, g)
        assert not proper or nd
        assert not nd or weak


def test_halfplane_family_is_all_false():
    for seed in range(5):
        P, tag, member = gen_poly(2, 3, seed, "halfplane")
        assert tag == "empty-frontier"
        assert P.contains(member)
        assert not theorem_full_report(P, [member]).y_n_nonempty


def test_tilted_family_is_all_true_and_unbounded():
    P, tag, member = gen_poly(2, 4, 3, "tilted")
    assert tag == "nonempty-frontier"
    report = theorem_full_report(P, [member])
    assert report.y_n_nonempty


def test_size_caps():
    with pytest.raises(SizeCap):
        gen_finite(7, 5, 0)
    with pytest.raises(SizeCap):
        gen_finite(2, 0, 0)
    with pytest.raises(SizeCap):
        gen_poly(2, 4, 0, "no-such-family")


def test_cone_generators_are_nonzero():
    for seed in range(8):
        c = gen_cone(3, 4, seed)
        assert all(any(x != 0 for x in g) for g in c.generators)
