import random
from fractions import Fraction
from itertools import combinations

import pytest

from pareto_kit import (
    hull,
    hull_contains,
    hull_is_nondominated,
    hull_is_properly_nondominated,
    hull_is_weakly_nondominated,
)
from pareto_kit import hulls
from pareto_kit.errors import InternalInconsistency, NotInHull
from pareto_kit.generate import gen_hull, gen_hull_queries
from pareto_kit.numerics import UNBOUNDED, LpOutcome, dot

HALF = Fraction(1, 2)


def test_contains_midpoint():
    assert hull_contains(hull([(1, 0), (0, 1)]), (HALF, HALF))


def test_contains_rejects_outside_point():
    assert not hull_contains(hull([(1, 0), (0, 1)]), (0, 0))


def test_contains_singleton():
    assert hull_contains(hull([(2, 2)]), (2, 2))


def test_weak_frontier_cases():
    w = hull([(1, 0), (0, 1), (1, 1)])
    assert not hull_is_weakly_nondominated(w, (1, 1))
    assert hull_is_weakly_nondominated(w, (1, 0))
    assert hull_is_weakly_nondominated(hull([(2, 2)]), (2, 2))


def test_nondominated_cases():
    assert hull_is_nondominated(hull([(1, 0), (0, 1)]), (HALF, HALF))
    assert not hull_is_nondominated(hull([(1, 0), (0, 1), (1, 1)]), (1, 1))
    assert hull_is_nondominated(hull([(2, 2)]), (2, 2))


def test_properly_nondominated_cases():
    w = hull([(1, 0), (0, 1), (1, 1)])
    simple = hull_is_properly_nondominated(hull([(1, 0), (0, 1)]), (HALF, HALF))
    assert simple.verdict
    assert all(x >= 1 for x in simple.witness)
    vertex = hull_is_properly_nondominated(w, (1, 0))
    assert vertex.verdict
    assert all(
        dot(vertex.witness, tuple(a - b for a, b in zip(g, (1, 0)))) >= 0
        for g in w.generators
    )
    assert not hull_is_properly_nondominated(w, (1, 1)).verdict


def test_outside_query_raises():
    with pytest.raises(NotInHull):
        hull_is_weakly_nondominated(hull([(1, 0), (0, 1)]), (0, 0))


def test_chain_and_translation_invariance():
    rng = random.Random(31)
    for trial in range(15):
        p = rng.randint(2, 3)
        w = gen_hull(p, rng.randint(1, 8), trial)
        for q in gen_hull_queries(w, 5, trial):
            proper = hull_is_properly_nondominated(w, q).verdict
            nd = hull_is_nondominated(w, q)
            weak = hull_is_weakly_nondominated(w, q)
            assert not proper or nd
            assert not nd or weak
            shift = tuple(Fraction(rng.randint(-9, 9), 3) for _ in range(p))
            moved = hull(
                [tuple(a + s for a, s in zip(g, shift)) for g in w.generators]
            )
            moved_q = tuple(a + s for a, s in zip(q, shift))
            assert hull_is_properly_nondominated(moved, moved_q).verdict == proper
            assert hull_is_nondominated(moved, moved_q) == nd
            assert hull_is_weakly_nondominated(moved, moved_q) == weak


def test_unique_weighted_minimizer_is_proper():
    rng = random.Random(37)
    hits = 0
    for trial in range(20):
        p = rng.randint(2, 3)
        w = gen_hull(p, rng.randint(2, 7), trial + 100)
        lam = tuple(Fraction(rng.randint(1, 6)) for _ in range(p))
        scores = [dot(lam, g) for g in w.generators]
        best = min(scores)
        if scores.count(best) == 1:
            hits += 1
            assert hull_is_properly_nondominated(
                w, w.generators[scores.index(best)]
            ).verdict
    assert hits > 5


def _grid_of_hull(w, resolution=16):
    m = len(w.generators)
    for split in combinations(range(resolution + m - 1), m - 1):
        parts, prev = [], -1
        for s in split:
            parts.append(s - prev - 1)
            prev = s
        parts.append(resolution + m - 1 - prev - 1)
        weights = [Fraction(v, resolution) for v in parts]
        yield tuple(
            sum(
                (weights[k] * w.generators[k][j] for k in range(m)),
                Fraction(0),
            )
            for j in range(w.dim)
        )


def test_grid_sampling_never_beats_weak_points():
    rng = random.Random(41)
    for trial in range(8):
        w = gen_hull(2, rng.randint(2, 4), trial + 300)
        grid = list(_grid_of_hull(w))
        for g in w.generators:
            if hull_is_weakly_nondominated(w, g):
                assert not any(
                    all(a < b for a, b in zip(z, g)) for z in grid
                )


def test_non_optimal_lp_raises_internal_inconsistency(monkeypatch):
    # both LPs have an optimum on every member query; a planted
    # non-optimal status must raise, also under python -O
    w = hull([(1, 0), (0, 1)])
    monkeypatch.setattr(hulls, "lp_solve", lambda lp: LpOutcome(UNBOUNDED))
    for decide in (hulls._weakly_nondominated, hulls._nondominated):
        with pytest.raises(InternalInconsistency):
            decide(w, (HALF, HALF))
