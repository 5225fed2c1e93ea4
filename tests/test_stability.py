import json
import random
from fractions import Fraction

import pytest

from pareto_kit import (
    cone,
    cone_nondominated_set,
    external_stability_certificate,
    find_dominator,
    find_dominator_cone,
    natural_cone,
    nondominated_set,
    verify_certificate,
)
from pareto_kit.cones import cone_contains, strictly_positive_direction
from pareto_kit.errors import DimensionMismatch, MalformedInput, NotMember, NotPointed
from pareto_kit.generate import gen_cone, gen_finite
from pareto_kit.numerics import dot
from pareto_kit.stability import (
    DominatorCertificate,
    certificate_from_json,
    certificate_to_json,
)

ONES = (Fraction(1), Fraction(1))


def test_find_dominator_tie_breaks_lexicographically():
    assert find_dominator([(1, 2), (2, 1), (2, 2)], (2, 2)) == (1, 2)


def test_find_dominator_of_nondominated_point_is_itself():
    assert find_dominator([(1, 2), (2, 1), (2, 2)], (1, 2)) == (1, 2)


def test_find_dominator_singleton():
    assert find_dominator([(0, 0)], (0, 0)) == (0, 0)


def test_find_dominator_requires_membership():
    with pytest.raises(NotMember):
        find_dominator([(0, 0)], (1, 1))


def test_cone_dominator_example():
    c = cone([(1, 0), (1, 1)])
    result = find_dominator_cone([(0, 0), (1, 0), (0, 1)], c, (1, 0), (1, 0))
    assert result == (0, 0)


def test_cone_dominator_rejects_line_cone():
    with pytest.raises(NotPointed):
        find_dominator_cone([(0, 0)], cone([(1, 0), (-1, 0)]), (0, 0))


def test_certificate_example():
    cert = external_stability_certificate([(1, 2), (2, 1), (2, 2)])
    assert cert.assignments == {0: 0, 1: 1, 2: 0}
    assert verify_certificate([(1, 2), (2, 1), (2, 2)], cert)


def test_certificate_antichain_is_identity():
    points = [(0, 3), (1, 2), (2, 1), (3, 0)]
    cert = external_stability_certificate(points)
    assert cert.assignments == {i: i for i in range(4)}


def test_certificate_chain_collapses_to_minimum():
    cert = external_stability_certificate([(3, 3), (2, 2), (1, 1)])
    assert cert.assignments == {0: 2, 1: 2, 2: 2}


def test_certificate_soundness_fuzz():
    rng = random.Random(43)
    for trial in range(60):
        p = rng.randint(2, 4)
        points = gen_finite(p, rng.randint(1, 25), trial)
        cert = external_stability_certificate(points)
        assert verify_certificate(points, cert)
        frontier = set(nondominated_set(points))
        for i, j in cert.assignments.items():
            assert j in frontier
            assert all(a <= b for a, b in zip(points[j], points[i]))
            assert cert.assignments[j] == j
            # optimality of the dominator's coordinate sum
            for z in points:
                if all(a <= b for a, b in zip(z, points[i])):
                    assert sum(points[j]) <= sum(z)


def test_cone_certificate_soundness_and_reduction():
    rng = random.Random(47)
    for trial in range(15):
        p = rng.randint(2, 3)
        points = gen_finite(p, rng.randint(1, 10), trial + 600)
        ordering = gen_cone(p, rng.randint(2, 3), trial + 700)
        cert = external_stability_certificate(points, ordering)
        assert verify_certificate(points, cert)
        ones = tuple(Fraction(1) for _ in range(p))
        via_cone = external_stability_certificate(points, natural_cone(p), ones)
        plain = external_stability_certificate(points)
        assert via_cone.assignments == plain.assignments


def test_idempotence():
    rng = random.Random(53)
    for trial in range(20):
        points = gen_finite(2, rng.randint(1, 15), trial + 800)
        for point in points:
            dominator = find_dominator(points, point)
            assert find_dominator(points, dominator) == dominator


def test_certificate_json_round_trip():
    points = [(1, 2), (2, 1), (2, 2)]
    cert = external_stability_certificate(points, natural_cone(2), ONES)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    assert data["assignments"][2] == {"from": 3, "to": 1}
    restored = certificate_from_json(data)
    assert restored.assignments == cert.assignments
    assert restored.cone == cert.cone
    assert restored.direction == cert.direction


@pytest.mark.parametrize(
    "data",
    [
        {"assignments": [{"from": 1}]},
        {"assignments": 5},
        {"assignments": [{"from": "a", "to": 1}]},
        {"assignments": [], "direction": 5},
    ],
    ids=["missing-to", "not-a-list", "text-index", "direction-not-a-list"],
)
def test_certificate_from_json_rejects_malformed_input(data):
    with pytest.raises(MalformedInput):
        certificate_from_json(data)


def _cone_reference_sets():
    """About 150 seeded (points, cone) pairs with planted duplicate points."""
    rng = random.Random(59)
    for trial in range(150):
        p = rng.randint(2, 4)
        points = gen_finite(p, rng.randint(1, 7), trial + 900)
        for _ in range(rng.randint(0, 2)):
            points.insert(rng.randint(0, len(points)), rng.choice(points))
        yield points, gen_cone(p, rng.randint(2, 5), trial + 1100), rng


def _pairwise_cone_nondominated(points, ordering):
    return [
        i
        for i, y in enumerate(points)
        if not any(
            z != y and cone_contains(ordering, tuple(a - b for a, b in zip(y, z)))
            for z in points
        )
    ]


def _perturbed_direction(ordering, rng):
    """A direction strictly positive on the cone other than the default one."""
    d = strictly_positive_direction(ordering)
    r = [Fraction(rng.randint(-3, 3)) for _ in d]
    slack = min(dot(d, g) for g in ordering.generators)
    spread = 1 + max(abs(dot(r, g)) for g in ordering.generators)
    return tuple(a + slack / (2 * spread) * b for a, b in zip(d, r))


def test_cone_scan_matches_pairwise_reference_and_find_dominator_cone():
    for points, ordering, rng in _cone_reference_sets():
        assert cone_nondominated_set(points, ordering) == _pairwise_cone_nondominated(
            points, ordering
        )
        for direction in (None, _perturbed_direction(ordering, rng)):
            cert = external_stability_certificate(points, ordering, direction)
            assert sorted(cert.assignments) == list(range(len(points)))
            for i, y in enumerate(points):
                found = find_dominator_cone(points, ordering, y, direction)
                assert cert.assignments[i] == (i if found == y else points.index(found))
    # two dominators of (2, 2) tie on d . y; the lexicographically smaller wins
    tie = [(2, 2), (1, 0), (0, 1)]
    cert = external_stability_certificate(tie, cone([(2, 1), (1, 2)]), (1, 1))
    assert cert.assignments == {0: 2, 1: 1, 2: 2}


def test_cone_certificate_error_paths():
    points = [(0, 0), (1, 2)]
    pointed = cone([(1, 0), (1, 1)])
    with pytest.raises(DimensionMismatch):
        external_stability_certificate(points, cone([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(DimensionMismatch):
        external_stability_certificate(
            points, cone([(1, 0, 0), (0, 1, 0)]), (1, 1, 1)
        )
    with pytest.raises(MalformedInput):
        external_stability_certificate(points, pointed, (0, 1))
    with pytest.raises(NotPointed):
        external_stability_certificate(points, cone([(1, 0), (-1, 0), (0, 1)]))


def test_supplied_direction_on_line_cone_is_rejected():
    # no direction is positive on every generator of a cone with a line
    points = [(0, 0), (1, 2)]
    line = cone([(1, 0), (-1, 0), (0, 1)])
    with pytest.raises(MalformedInput):
        find_dominator_cone(points, line, (1, 2), (1, 1))
    with pytest.raises(MalformedInput):
        external_stability_certificate(points, line, (1, 1))


def test_zero_generator_is_malformed_input():
    with pytest.raises(MalformedInput):
        cone([(0, 0)])
    with pytest.raises(MalformedInput):
        cone([(1, 0), (0, 0)])


def test_supplied_direction_on_lower_rank_pointed_cone():
    ordering = cone([(1, 0, 0), (1, 1, 0)])
    points = [(2, 1, 0), (0, 0, 0), (1, 1, 0), (3, 0, 0),
              (0, 0, 1), (1, 0, 1), (2, 2, 1), (0, 1, 0)]
    direction = (1, 1, 1)
    cert = external_stability_certificate(points, ordering, direction)
    assert cert.assignments == {0: 1, 1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4, 7: 7}
    assert cert.direction == (1, 1, 1)
    assert verify_certificate(points, cert)
    assert [find_dominator_cone(points, ordering, y, direction) for y in points] == [
        points[j] for j in cert.assignments.values()
    ]
    assert external_stability_certificate(points, ordering).assignments == cert.assignments


# Two copies of (1, 2), the frontier point (2, 1), (2, 2), which both
# values dominate, and (3, 1), which only (2, 1) dominates: the copies let
# a frontier point sit below another one (equal) without being itself.
# VALID is the built certificate; each rejection below changes it in one
# way, and the first entry to fail a check is the changed one.
SHARED = [(1, 2), (1, 2), (2, 1), (2, 2), (3, 1)]
VALID = {0: 0, 1: 1, 2: 2, 3: 0, 4: 2}
ORDERINGS = pytest.mark.parametrize(
    "ordering", [None, natural_cone(2)], ids=["plain", "cone"]
)


def _verifies(assignments, ordering) -> bool:
    return verify_certificate(SHARED, DominatorCertificate(assignments, ordering))


@ORDERINGS
def test_verify_accepts_the_built_certificate(ordering):
    assert external_stability_certificate(SHARED, ordering).assignments == VALID
    assert _verifies(VALID, ordering)


@ORDERINGS
def test_verify_rejects_a_partial_assignment(ordering):
    # index 4 has no dominator
    assert not _verifies({0: 0, 1: 1, 2: 2, 3: 0}, ordering)


@ORDERINGS
def test_verify_rejects_a_dominator_off_the_frontier(ordering):
    # (2, 2) is dominated, so it cannot stand for itself
    assert not _verifies({**VALID, 3: 3}, ordering)


@ORDERINGS
def test_verify_rejects_a_dominator_not_below_its_source(ordering):
    # (1, 2) is on the frontier but not below (3, 1)
    assert not _verifies({**VALID, 4: 0}, ordering)


@ORDERINGS
def test_verify_rejects_an_assignment_that_is_not_idempotent(ordering):
    # (2, 2) maps to copy 1, which lies below it, but copy 1 maps on to
    # copy 0; the entry of (2, 2) comes first
    assert not _verifies({3: 1, 0: 0, 1: 0, 2: 2, 4: 2}, ordering)


@ORDERINGS
def test_verify_rejects_a_nondominated_source_mapped_elsewhere(ordering):
    # copy 1 is nondominated yet maps to copy 0, which maps to itself
    assert not _verifies({**VALID, 1: 0}, ordering)
