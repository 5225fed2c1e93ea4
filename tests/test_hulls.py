import random
from collections import Counter
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
from pareto_kit.numerics import OPTIMAL, UNBOUNDED, LpOutcome, dot
from pareto_kit.numerics.rational import common_denominator

from oracles import (
    oracle_hull_nondominated,
    oracle_proper_weights,
    oracle_weak_weights,
)

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
    # the membership objective and the delta objective have an optimum on
    # every member query; a planted non-optimal status of either objective
    # must raise, also under python -O.  (1, 0) on the segment from (0, 0)
    # is weakly nondominated but dominated, so its classification solves a
    # second batch (delta on row 1 alone), which takes the plant instead
    real = hulls.lp_solve_batch
    verdicts = (
        hull_is_weakly_nondominated,
        hull_is_nondominated,
        hull_is_properly_nondominated,
    )
    cases = (
        (hull([(1, 0), (0, 1)]), (HALF, HALF), 0),
        (hull([(0, 0), (1, 0)]), (1, 0), 1),
    )
    for w, y0, call in cases:
        for planted in (0, 1):
            deciders = verdicts if call or planted else (hull_contains, *verdicts)
            for decide in deciders:
                batches = []

                def solve(objectives, rows, lower=None, upper=None):
                    outcomes = real(objectives, rows, lower, upper)
                    if len(batches) == call:
                        outcomes[planted] = LpOutcome(UNBOUNDED)
                    batches.append(rows)
                    return outcomes

                monkeypatch.setattr(hulls, "lp_solve_batch", solve)
                with pytest.raises(InternalInconsistency):
                    decide(w, y0)
                assert len(batches) == call + 1


def test_isermann_nondominated_hull_points_are_proper():
    # a polytope's nondominated points are all properly nondominated
    # (Isermann 1974); the oracles' lambda LP and coordinate-sum LP and the
    # weight cone's ray sum are separate routes, so their agreement is a
    # measurement, not a tautology; the witness meets the LP's rows
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for trial in range(100):
        p = rng.randint(2, 4)
        w = gen_hull(p, rng.randint(1, 10), trial + 500)
        for q in gen_hull_queries(w, 4, trial + 500) + list(w.generators):
            nd = hull_is_nondominated(w, q)
            assert oracle_hull_nondominated(w.generators, q) == nd
            assert (oracle_proper_weights(w.generators, q) is not None) == nd
            lam = hull_is_properly_nondominated(w, q).witness
            assert (lam is not None) == nd
            if nd:
                assert all(x >= 1 for x in lam)
                assert all(
                    dot(lam, tuple(a - b for a, b in zip(g, q))) >= 0
                    for g in w.generators
                )
            seen[nd] += 1
    assert min(seen.values()) > 200


def test_classification_matches_lp_oracles_with_small_entries():
    # entries in -2..2 put many members on a flat face of the hull: weakly
    # nondominated but dominated, with a weight cone whose ray sum has a
    # zero entry, which step 3 of ``hulls._classify`` certifies; each
    # verdict is compared with an LP that reads no weight cone
    rng = random.Random(61)
    seen = Counter()
    for _ in range(120):
        p = rng.randint(2, 4)
        gens = [
            tuple(rng.randint(-2, 2) for _ in range(p))
            for _ in range(rng.randint(1, 8))
        ]
        w = hull(gens)
        centroid = tuple(sum(c) / len(gens) for c in zip(*w.generators))
        queries = [*w.generators, centroid]
        for g, h in combinations(w.generators, 2):
            queries.append(tuple((a + b) / 2 for a, b in zip(g, h)))
        for q in queries:
            dominator, rays, witness = hulls._classify(w, q)
            weak = oracle_weak_weights(w.generators, q) is not None
            nd = oracle_hull_nondominated(w.generators, q)
            assert (dominator is None) == (rays is not None) == weak
            assert (witness is not None) == nd
            assert (oracle_proper_weights(w.generators, q) is not None) == nd
            seen[weak, nd] += 1
    assert min(seen[True, False], seen[True, True], seen[False, False]) > 200, seen


def test_strict_dominator_is_in_the_hull_and_strictly_below():
    rng = random.Random(47)
    found = 0
    for trial in range(20):
        p = rng.randint(2, 4)
        w = gen_hull(p, rng.randint(1, 8), trial + 700)
        for q in gen_hull_queries(w, 4, trial + 700):
            z = hulls._classify(w, q)[0]
            if z is None:
                continue
            found += 1
            assert hull_contains(w, z)
            assert all(a < b for a, b in zip(z, q))
    assert found > 10


def _optimal(value, point) -> LpOutcome:
    """An OPTIMAL outcome at ``point`` with its integer form ``scaled``,
    which is what the hull classifiers read."""
    nums, den = common_denominator(point)
    return LpOutcome(OPTIMAL, value, point, (tuple(nums), den))


def _planted_dominator_routes(tmp_dir):
    """Plant weak-LP optima whose dominator fails its integer check and
    require every route to refuse it; plant a delta = 0 optimum and
    require a weakly nondominated verdict.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    import json

    from pareto_kit import cli, hull_reducibility_check

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
    real = hulls.lp_solve_batch

    def plant(mu_delta):
        outcome = _optimal(-mu_delta[-1], tuple(map(Fraction, mu_delta)))

        def solve(objectives, rows, lower=None, upper=None):
            outcomes = real(objectives, rows, lower, upper)
            # the weak program is the only one with a variable per
            # generator plus delta; its second objective maximizes delta
            if len(objectives[0]) == len(w.generators) + 1:
                outcomes[1] = outcome
            return outcomes

        hulls.lp_solve_batch = solve

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
        hulls.lp_solve_batch = real


def test_planted_dominator_raises(tmp_path, capsys):
    _planted_dominator_routes(tmp_path)


def _under_python_O(call: str):
    """Run ``test_hulls.<call>`` in a fresh ``python -O`` interpreter."""
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
        f"test_hulls.{call}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_planted_dominator_raises_under_python_O(tmp_path):
    _under_python_O(f"_planted_dominator_routes({str(tmp_path)!r})")


def _equality_row_member(w, y0) -> bool:
    """The membership LP that hull_contains solved before membership
    became an objective: convex weights with sum_k mu_k w_k = y0 row by
    row, kept here as an oracle."""
    from pareto_kit.numerics import EQ, linprog, lp_solve

    m = len(w.generators)
    rows = [([g[i] for g in w.generators], EQ, y0[i]) for i in range(w.dim)]
    rows.append(([1] * m, EQ, 1))
    return lp_solve(linprog([0] * m, rows, lower=[0] * m)).status == OPTIMAL


def test_contains_matches_the_equality_row_lp():
    # members, generators, points below the hull (no hull point under
    # them: the program is INFEASIBLE) and points of conv(W) + R^p_+
    # outside conv(W) (a hull point under them, none equal)
    rng = random.Random(53)
    seen = {True: 0, False: 0}
    for trial in range(40):
        p = rng.randint(2, 4)
        w = gen_hull(p, rng.randint(1, 8), trial + 900)
        lows = [min(g[j] for g in w.generators) for j in range(p)]
        points = gen_hull_queries(w, 3, trial + 900) + list(w.generators)
        for q in gen_hull_queries(w, 3, trial + 950):
            points.append(tuple(x - 1 for x in q))
            points.append(tuple(lo - 1 for lo in lows))
            bump = [Fraction(rng.randint(0, 3), 2) for _ in range(p)]
            bump[rng.randrange(p)] += 1
            points.append(tuple(x + b for x, b in zip(q, bump)))
        for q in points:
            member = hull_contains(w, q)
            assert member == _equality_row_member(w, q)
            seen[member] += 1
    assert min(seen.values()) > 100


def test_every_classifier_refuses_a_non_member():
    from pareto_kit import hull_reducibility_check

    w = hull([(1, 0), (0, 1), (1, 1)])
    # below the hull, and above it in conv(W) + R^2_+
    for y0 in ((0, 0), (2, 2)):
        for decide in (
            hull_is_weakly_nondominated,
            hull_is_nondominated,
            hull_is_properly_nondominated,
            hulls._classify,
            lambda w, y0: hull_reducibility_check(w, [y0]),
        ):
            with pytest.raises(NotInHull):
                decide(w, y0)


def _planted_membership_routes(tmp_dir):
    """Plant membership optima with the right value, sum y0, whose weights
    do not give y0, and require every route to refuse them.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    import json

    from pareto_kit import cli, hull_reducibility_check

    w = hull([(1, 0), (0, 1)])
    query = (HALF, HALF)
    path = f"{tmp_dir}/hull.json"
    with open(path, "w") as fh:
        json.dump({"generators": [["1", "0"], ["0", "1"]]}, fh)

    def cli_route():
        if cli.main(["hull", "--input", path, "--query", "1/2,1/2"]) == 1:
            raise InternalInconsistency("hull --query exited 1")

    routes = [
        lambda: hull_contains(w, query),
        lambda: hull_is_weakly_nondominated(w, query),
        lambda: hull_is_nondominated(w, query),
        lambda: hull_is_properly_nondominated(w, query),
        lambda: hull_reducibility_check(w, [query]),
        cli_route,
    ]
    real = hulls.lp_solve_batch

    def plant(mu):
        def solve(objectives, rows, lower=None, upper=None):
            outcomes = real(objectives, rows, lower, upper)
            right = outcomes[0]
            # the optimal value, at weights mu (and delta = 0) that give
            # a vertex instead of y0
            point = tuple(map(Fraction, mu)) + (Fraction(0),) * (len(right.point) - 2)
            outcomes[0] = _optimal(right.value, point)
            return outcomes

        hulls.lp_solve_batch = solve

    try:
        for mu in ((1, 0), (0, 1)):
            plant(mu)
            for route in routes:
                try:
                    route()
                except InternalInconsistency:
                    continue
                raise AssertionError(f"planted membership weights {mu} were used")
    finally:
        hulls.lp_solve_batch = real


def test_planted_membership_weights_raise(tmp_path, capsys):
    _planted_membership_routes(tmp_path)


def test_planted_membership_weights_raise_under_python_O(tmp_path):
    _under_python_O(f"_planted_membership_routes({str(tmp_path)!r})")


def test_dominated_member_solves_no_weight_lp(monkeypatch):
    # a strictly dominated member is settled by its checked dominator, with
    # no weight cone; (1, 0) is only weakly nondominated, as (0, 0) lies
    # below it: its weight cone's ray sum (0, 1) is 0 on objective 1, and a
    # second program with delta on row 1 alone certifies the dominance
    rays, batches = [], []
    real_rays, real_solve = hulls._weight_rays, hulls.lp_solve_batch

    def counted_rays(gens, target):
        rays.append(real_rays(gens, target))
        return rays[-1]

    def counted_solve(objectives, rows, lower=None, upper=None):
        # the delta column, row by row below the convexity row
        batches.append([row[0][-1] for row in rows[1:]])
        return real_solve(objectives, rows, lower, upper)

    monkeypatch.setattr(hulls, "_weight_rays", counted_rays)
    monkeypatch.setattr(hulls, "lp_solve_batch", counted_solve)
    w = hull([(1, 0), (0, 1), (1, 1)])
    assert hull_is_properly_nondominated(w, (1, 1)) == hulls.ProperVerdict(False, None)
    assert (rays, batches) == ([], [[1, 1]])
    batches.clear()
    w = hull([(0, 0), (1, 0)])
    assert hull_is_properly_nondominated(w, (1, 0)) == hulls.ProperVerdict(False, None)
    assert (rays, batches) == ([[(0, 1)]], [[1, 1], [1, 0]])
    proper = hull_is_properly_nondominated(w, (0, 0))
    assert proper.verdict and (len(rays), len(batches)) == (2, 3)


def _planted_dropped_ray_routes(tmp_dir):
    """Drop from the weight cone the one ray that is positive on some
    objective, for a nondominated member and for a weakly nondominated but
    dominated one, and require every route to raise: the ray sum is then 0
    on that objective, yet no hull point below the query is smaller in it.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    import json

    from pareto_kit import cli, hull_reducibility_check

    cases = [
        # Q = cone((0, 1), (1, 1)) at the vertex (1, 0) of the segment
        ([(1, 0), (0, 1)], (1, 0), (1, 1), True),
        # Q = cone(e_2, e_3) at (1, 0, 0), dominated by (0, 0, 0) in
        # objective 1 alone
        ([(0, 0, 0), (1, 0, 0)], (1, 0, 0), (0, 0, 1), False),
    ]
    real = hulls._weight_rays
    try:
        for k, (gens, y0, dropped, nondominated) in enumerate(cases):
            w = hull(gens)
            if hull_is_nondominated(w, y0) != nondominated:
                raise AssertionError(f"{y0} is misclassified without a plant")
            path = f"{tmp_dir}/hull{k}.json"
            with open(path, "w") as fh:
                json.dump({"generators": [[str(x) for x in g] for g in gens]}, fh)

            def cli_route(path=path, query=",".join(map(str, y0))):
                if cli.main(["hull", "--input", path, "--query", query]) == 1:
                    raise InternalInconsistency("hull --query exited 1")

            def without(gens, target, dropped=dropped):
                rays = real(gens, target)
                if dropped not in rays:
                    raise AssertionError(f"{dropped} is not a ray of the weight cone")
                return [r for r in rays if r != dropped]

            hulls._weight_rays = without
            for route in (
                lambda: hull_is_weakly_nondominated(w, y0),
                lambda: hull_is_nondominated(w, y0),
                lambda: hull_is_properly_nondominated(w, y0),
                lambda: hull_reducibility_check(w, [y0]),
                cli_route,
            ):
                try:
                    route()
                except InternalInconsistency:
                    continue
                raise AssertionError(f"the weight cone without {dropped} was used")
            hulls._weight_rays = real
    finally:
        hulls._weight_rays = real


def test_planted_dropped_ray_raises(tmp_path, capsys):
    _planted_dropped_ray_routes(tmp_path)


def test_planted_dropped_ray_raises_under_python_O(tmp_path):
    _under_python_O(f"_planted_dropped_ray_routes({str(tmp_path)!r})")


def _planted_weight_cone_routes(tmp_dir):
    """Plant a weight cone with no strictly positive weight (no ray, a ray
    with a zero entry) and one with a line, for a nondominated member, and
    require the public classifier and ``hull --query`` to raise, not to
    read it as a False verdict.

    Patches by hand and raises instead of asserting, so that it checks
    the same under ``python -O``.
    """
    import json

    from pareto_kit import cli

    w = hull([(1, 0), (0, 1)])
    path = f"{tmp_dir}/hull.json"
    with open(path, "w") as fh:
        json.dump({"generators": [["1", "0"], ["0", "1"]]}, fh)

    def cli_route():
        if cli.main(["hull", "--input", path, "--query", "1/2,1/2"]) == 1:
            raise InternalInconsistency("hull --query exited 1")

    routes = [lambda: hull_is_properly_nondominated(w, (HALF, HALF)), cli_route]
    real = hulls._description
    try:
        for planted in (([], []), ([], [(1, 0)]), ([(1, -1)], [(1, 1)])):
            hulls._description = lambda rows, planted=planted: planted
            for route in routes:
                try:
                    route()
                except InternalInconsistency:
                    continue
                raise AssertionError(f"the planted weight cone {planted} was used")
    finally:
        hulls._description = real


def test_planted_infeasible_weights_raise(tmp_path, capsys):
    _planted_weight_cone_routes(tmp_path)


def test_planted_infeasible_weights_raise_under_python_O(tmp_path):
    _under_python_O(f"_planted_weight_cone_routes({str(tmp_path)!r})")
