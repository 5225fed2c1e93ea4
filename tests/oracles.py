"""Independent reference implementations used only by the tests.

These deliberately share no code with the routes they check: plain
quadratic scans for dominance and brute-force vertex enumeration for
linear programs.  The hull weights, hull nondominance and the section
recession direction, which the package reads from a double description,
are checked against the package's simplex instead.
"""

from fractions import Fraction
from itertools import combinations


def dominates(a, b) -> bool:
    """a <= b componentwise and a != b."""
    return a != b and all(x <= y for x, y in zip(a, b))


def strictly_dominates(a, b) -> bool:
    return all(x < y for x, y in zip(a, b))


def oracle_nondominated(points) -> list[int]:
    return [
        i
        for i, y in enumerate(points)
        if not any(dominates(z, y) for z in points)
    ]


def oracle_weakly_nondominated(points) -> list[int]:
    return [
        i
        for i, y in enumerate(points)
        if not any(strictly_dominates(z, y) for z in points)
    ]


def oracle_geoffrion_bound(points, y0) -> Fraction:
    bound = Fraction(0)
    p = len(y0)
    for y in set(points):
        if y == y0:
            continue
        for i in range(p):
            if y[i] < y0[i]:
                ratios = [
                    (y0[i] - y[i]) / (y[j] - y0[j])
                    for j in range(p)
                    if y[j] > y0[j]
                ]
                bound = max(bound, min(ratios))
    return bound


def gauss_solve(rows, rhs):
    """Solve a square exact system; None if singular."""
    n = len(rows)
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(row[n] for row in a)


def oracle_polytope_vertices(rows, rhs):
    """Vertices of {x : rows . x <= rhs} by enumerating active subsets."""
    n = len(rows[0])
    found = set()
    for subset in combinations(range(len(rows)), n):
        x = gauss_solve([rows[i] for i in subset], [rhs[i] for i in subset])
        if x is None:
            continue
        if all(
            sum(c * v for c, v in zip(row, x)) <= r for row, r in zip(rows, rhs)
        ):
            found.add(x)
    return sorted(found)


def oracle_lp_minimum(objective, rows, rhs):
    """Exact minimum of objective . x over a bounded feasible region.

    Returns None when the region is empty.  Only valid when the region is
    known to be a polytope (the tests add box bounds to guarantee that).
    """
    vertices = oracle_polytope_vertices(rows, rhs)
    if not vertices:
        return None
    return min(sum(c * v for c, v in zip(objective, x)) for x in vertices)


def oracle_proper_weights(generators, y0):
    """Weights lam >= 1 with lam . (g - y0) >= 0 for every generator g, or
    None when there are none: y0 is then not properly nondominated in
    conv(generators).  The scaling lam >= 1 stands in for strict
    positivity, which the inequalities allow because they are positively
    homogeneous in lam.  Solved as one LP by the package's simplex, which
    shares no code with the double description."""
    from pareto_kit.numerics import GE, OPTIMAL, linprog, lp_solve

    p = len(y0)
    rows = [([a - b for a, b in zip(g, y0)], GE, 0) for g in generators]
    outcome = lp_solve(linprog([0] * p, rows, lower=[1] * p))
    return outcome.point if outcome.status == OPTIMAL else None


def oracle_weak_weights(generators, y0):
    """Weights lam >= 0 with sum lam = 1 and lam . (g - y0) >= 0 for every
    generator g, or None when there are none: y0 is then not weakly
    nondominated in conv(generators), by separation of the hull from the
    points strictly below y0.  Solved as one LP by the package's simplex,
    which shares no code with the double description."""
    from pareto_kit.numerics import EQ, GE, OPTIMAL, linprog, lp_solve

    p = len(y0)
    rows = [([a - b for a, b in zip(g, y0)], GE, 0) for g in generators]
    rows.append(([1] * p, EQ, 1))
    outcome = lp_solve(linprog([0] * p, rows, lower=[0] * p))
    return outcome.point if outcome.status == OPTIMAL else None


def oracle_hull_nondominated(generators, y0) -> bool:
    """Is no point of conv(generators) below the member y0 and different
    from it?  Exactly when the least coordinate sum of z = sum mu_k g_k
    over convex weights mu with z <= y0 is the sum of y0.  Solved as one
    LP by the package's simplex; it reads no weight cone."""
    from pareto_kit.numerics import EQ, LE, linprog, lp_solve

    m = len(generators)
    rows = [([1] * m, EQ, 1)]
    rows += [([g[j] for g in generators], LE, y) for j, y in enumerate(y0)]
    outcome = lp_solve(linprog([sum(g) for g in generators], rows, lower=[0] * m))
    return outcome.value == sum(y0)


def oracle_negative_direction(P):
    """A direction d with A d <= 0, d <= 0 and coordinate sum -1, or None
    when there is none: the frontier of the nonempty P is then nonempty.
    Solved as one LP by the package's simplex, which shares no code with
    the double description that the package reads the direction from."""
    from pareto_kit.numerics import EQ, LE, OPTIMAL, linprog, lp_solve

    p = P.dim
    rows = [(list(row), LE, 0) for row in P.A]
    rows.append(([1] * p, EQ, -1))
    outcome = lp_solve(linprog([0] * p, rows, upper=[0] * p))
    return outcome.point if outcome.status == OPTIMAL else None
