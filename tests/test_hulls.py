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
    for decide in (hulls._strict_dominator, hulls._nondominated):
        with pytest.raises(InternalInconsistency):
            decide(w, (HALF, HALF))


def test_isermann_nondominated_hull_points_are_proper():
    # a polytope's nondominated points are all properly nondominated
    # (Isermann 1974); the two verdicts come from separate LPs, so their
    # agreement is a measurement, not a tautology
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for trial in range(100):
        p = rng.randint(2, 4)
        w = gen_hull(p, rng.randint(1, 10), trial + 500)
        for q in gen_hull_queries(w, 4, trial + 500) + list(w.generators):
            nd = hulls._nondominated(w, q)
            assert hulls._properly_nondominated(w, q).verdict == nd
            seen[nd] += 1
    assert min(seen.values()) > 200


def test_strict_dominator_is_in_the_hull_and_strictly_below():
    rng = random.Random(47)
    found = 0
    for trial in range(20):
        p = rng.randint(2, 4)
        w = gen_hull(p, rng.randint(1, 8), trial + 700)
        for q in gen_hull_queries(w, 4, trial + 700):
            z = hulls._strict_dominator(w, q)
            if z is None:
                continue
            found += 1
            assert hull_contains(w, z)
            assert all(a < b for a, b in zip(z, q))
    assert found > 10


def _planted_dominator_routes(tmp_dir):
    """Plant weak-LP optima whose dominator fails its integer check and
    require every route to refuse it; plant a delta = 0 optimum and
    require a weakly nondominated verdict.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    import json

    from pareto_kit import cli, hull_reducibility_check
    from pareto_kit.numerics import OPTIMAL

    w = hull([(1, 0), (0, 1), (1, 1)])
    path = f"{tmp_dir}/hull.json"
    with open(path, "w") as fh:
        json.dump({"generators": [["1", "0"], ["0", "1"], ["1", "1"]]}, fh)

    def cli_route():
        # the CLI reports an inconsistency on stderr and exits 1
        if cli.main(["hull", "--input", path, "--query", "1,1"]) == 1:
            raise InternalInconsistency("hull --query exited 1")

    routes = [
        lambda: hull_is_weakly_nondominated(w, (1, 1)),
        lambda: hull_reducibility_check(w, [(1, 1)]),
        cli_route,
    ]
    bad = [
        # delta 1/2 claimed, but z = (1, 0) is only weakly below (1, 1)
        (1, 0, 0, HALF),
        # mu sums to 1/2: z = (0, 1/2) would be strictly below (1, 1)
        (0, HALF, 0, HALF),
        # a negative weight: z = (1/4, 1/4), mu sums to 1
        (Fraction(3, 4), Fraction(3, 4), Fraction(-1, 2), HALF),
    ]
    real = hulls.lp_solve

    def plant(mu_delta):
        outcome = LpOutcome(OPTIMAL, -mu_delta[-1], tuple(map(Fraction, mu_delta)))
        # the weak LP is the only one with a variable per generator plus delta
        hulls.lp_solve = lambda lp: (
            outcome if len(lp.objective) == len(w.generators) + 1 else real(lp)
        )

    try:
        for mu_delta in bad:
            plant(mu_delta)
            for route in routes:
                try:
                    route()
                except InternalInconsistency:
                    continue
                raise AssertionError(f"planted dominator {mu_delta} was used")
        # (1, 0) is weakly nondominated: its optimum is delta = 0 at z = (1, 0)
        plant((1, 0, 0, 0))
        if not hull_is_weakly_nondominated(w, (1, 0)):
            raise AssertionError("a delta = 0 optimum was read as a dominator")
        if hull_reducibility_check(w, [(1, 0)])[0].witness != (2,):
            raise AssertionError("a delta = 0 optimum skipped the subproblems")
    finally:
        hulls.lp_solve = real


def test_planted_dominator_raises(tmp_path, capsys):
    _planted_dominator_routes(tmp_path)


def test_planted_dominator_raises_under_python_O(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pareto_kit

    src = Path(pareto_kit.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    path = [str(src), str(tests), os.environ.get("PYTHONPATH", "")]
    code = (
        "import sys, test_hulls\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        f"test_hulls._planted_dominator_routes({str(tmp_path)!r})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
