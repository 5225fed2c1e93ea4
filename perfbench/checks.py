"""Checks of every workload output against computations made apart from
the program, or against properties the method must have.

The naive scans, the Gauss solve and vertex enumeration are the ones in
``tests/oracles.py``, which shares no code with the package.  The LP
cross-checks use scipy's HiGHS only to pick the side of a verdict that a
floating-point solve can tell apart by more than ``HIGHS_TOL``; every
verdict within that margin is decided by exact vertex enumeration.

Each ``check_*`` function takes one instance and its outputs and returns
the names of the operations whose output is wrong.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from pathlib import Path

from pareto_kit.numerics.rational import rational_parse
from scipy.optimize import linprog as highs

ROOT = Path(__file__).resolve().parent.parent

HIGHS_TOL = 1e-7


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _leq(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _dot(a, b):
    return sum(map(mul, a, b))


def _point(texts) -> tuple[Fraction, ...]:
    return tuple(rational_parse(t) for t in texts)


def _integers(vectors) -> list[tuple[int, ...]]:
    """The vectors times the least common denominator of all their
    entries: a positive factor, so every comparison, every argmin of a
    positive weight and every sign of a cone combination is kept."""
    scale = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple(int(x * scale) for x in v) for v in vectors]


# ---------------------------------------------------------------- finite


def _selectors(p: int):
    for size in range(1, p + 1):
        yield from combinations(range(1, p + 1), size)


def check_finite(instance, out: dict) -> set[str]:
    points, labels = instance
    failed = set()
    scaled = _integers(points)
    nd = oracles.oracle_nondominated(scaled)
    wnd = oracles.oracle_weakly_nondominated(scaled)
    nd_set = set(nd)

    report = out["classify"]
    bound_of = {}
    for i in nd:
        if points[i] not in bound_of:
            bound_of[points[i]] = oracles.oracle_geoffrion_bound(points, points[i])
    if (
        list(report.nondominated) != nd
        or list(report.weakly_nondominated) != wnd
        or report.properly_nondominated != report.nondominated
        or sorted(report.bounds) != nd
        or any(report.bounds[i] != bound_of[points[i]] for i in nd)
    ):
        failed.add("classify")

    certificate = out["certificate"]
    assignments = certificate.assignments
    certificate_ok = (
        certificate.cone is None
        and sorted(assignments) == list(range(len(points)))
        and all(
            j in nd_set
            and _leq(points[j], points[i])
            and (i not in nd_set or j == i)
            for i, j in assignments.items()
        )
    )
    if not certificate_ok:
        failed.add("certificate")
    if out["verify"] is not certificate_ok:
        failed.add("verify")

    report = out["reduce"]
    efficient = {}
    for sel in _selectors(len(points[0])):
        projected = [tuple(y[i - 1] for i in sel) for y in scaled]
        efficient[sel] = {labels[i] for i in oracles.oracle_nondominated(projected)}
    union = set().union(*efficient.values())
    we = [labels[i] for i in wnd]
    ok = (
        list(report.we_set) == we
        and set(report.union_e) == union
        # on a finite image every efficient point is properly efficient
        and set(report.union_pe) == union
        and all(label in efficient[sel] for label, sel in report.union_e.items())
        and all(label in efficient[sel] for label, sel in report.union_pe.items())
        and union <= set(we)
        and report.equality_e == (union == set(we))
        and report.equality_pe == (union == set(we))
        and list(report.strict_witnesses) == [x for x in we if x not in union]
    )
    if not ok:
        failed.add("reduce")
    return failed


# -------------------------------------------------------------- frontier


def _in_polyhedron(P, y) -> bool:
    return all(_dot(row, y) <= rhs for row, rhs in zip(P.A, P.b))


def witness_nondominated(P, witness, exact: bool) -> bool:
    """Is ``witness`` nondominated in P, by a solve apart from the program?

    It is iff the least coordinate sum over {y in P : y <= witness} is its
    own sum: by exact vertex enumeration of that section when ``exact``,
    else by HiGHS within ``HIGHS_TOL`` of the sum.
    """
    p = len(witness)
    rows = [list(row) for row in P.A] + [
        [Fraction(int(i == j)) for j in range(p)] for i in range(p)
    ]
    rhs = list(P.b) + list(witness)
    target = sum(witness)
    if exact:
        return oracles.oracle_lp_minimum([1] * p, rows, rhs) == target
    result = highs(
        [1.0] * p,
        A_ub=[[float(x) for x in row] for row in rows],
        b_ub=[float(x) for x in rhs],
        bounds=[(None, None)] * p,
        method="highs",
    )
    scale = max(1.0, abs(float(target)))
    return result.status == 0 and abs(float(target) - result.fun) <= HIGHS_TOL * scale


def check_poly(P, tag: str, code: int, text: str, exact: bool) -> bool:
    if code != 0:
        return False
    data = json.loads(text)
    eq = data["equivalence"]
    nonempty = eq["y_n_nonempty"]
    if tag != "unknown" and nonempty != (tag == "nonempty-frontier"):
        return False
    flags = (
        eq["sections_bounded"],
        eq["cone_compact"],
        eq["cone_semicompact"],
        eq["externally_stable"],
    )
    if any(flag is not nonempty for flag in flags):
        return False
    redundancy = data["redundancy"]
    if redundancy["applicable"] is not nonempty or redundancy["passed"] is not True:
        return False
    if not nonempty:
        if eq["witness"] is not None or eq["negative_direction"] is None:
            return False
        d = _point(eq["negative_direction"])
        return (
            all(_dot(row, d) <= 0 for row in P.A)
            and all(x <= 0 for x in d)
            and sum(d) == -1
        )
    if eq["negative_direction"] is not None or eq["witness"] is None:
        return False
    witness = _point(eq["witness"])
    if redundancy["witness"] != eq["witness"] or redundancy["sections_bounded"] is not True:
        return False
    return _in_polyhedron(P, witness) and witness_nondominated(P, witness, exact)


def check_connect(P, grid: int, code: int, text: str) -> bool:
    if code != 0:
        return False
    data = json.loads(text)
    samples = [_point(entry["point"]) for entry in data["samples"]]
    components = [entry["component"] for entry in data["samples"]]
    count = data["component_count"]
    return (
        data["grid"] == grid
        and len(samples) >= 1
        and len(set(samples)) == len(samples)
        and all(_in_polyhedron(P, y) for y in samples)
        and not any(
            a != b and _leq(a, b) for a in samples for b in samples
        )
        and sorted(set(components)) == list(range(1, count + 1))
    )


def check_frontier(instance, out: dict, exact: bool) -> set[str]:
    _, P, tag = instance
    failed = set()
    code, text = out["poly"]
    if not check_poly(P, tag, code, text, exact):
        failed.add("poly")
    for name, (code, text) in out.items():
        if name.startswith("connect-"):
            if not check_connect(P, int(name.split("-")[1]), code, text):
                failed.add(name)
    return failed


# ------------------------------------------------------------- hull_cone


def weakly_nondominated_in_hull(generators, y0) -> bool:
    """Is y0 weakly nondominated in conv(generators)?

    It is not iff some hull point lies below y0 by a common slack
    delta > 0.  HiGHS finds the largest delta; a clear positive settles
    the answer, anything within ``HIGHS_TOL`` of zero goes to exact
    vertex enumeration of {lambda in the simplex : lambda . (w - y0) >= 0
    for every generator w}, which is nonempty iff y0 is weakly
    nondominated.
    """
    m, p = len(generators), len(y0)
    # variables mu_1..mu_m, delta; maximize delta
    a_ub = [[float(g[j]) for g in generators] + [1.0] for j in range(p)]
    result = highs(
        [0.0] * m + [-1.0],
        A_ub=a_ub,
        b_ub=[float(x) for x in y0],
        A_eq=[[1.0] * m + [0.0]],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    if result.status == 0 and -result.fun > HIGHS_TOL:
        return False
    rows, rhs = [], []
    for g in generators:
        rows.append([y - x for x, y in zip(g, y0)])  # -(lambda . (g - y0)) <= 0
        rhs.append(Fraction(0))
    for j in range(p):
        rows.append([Fraction(-int(i == j)) for i in range(p)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * p)
    rhs.append(Fraction(1))
    rows.append([Fraction(-1)] * p)
    rhs.append(Fraction(-1))
    return bool(oracles.oracle_polytope_vertices(rows, rhs))


def proper_witness_ok(generators, y0, witness) -> bool:
    return (
        witness is not None
        and all(x >= 1 for x in witness)
        and all(_dot(witness, [a - b for a, b in zip(g, y0)]) >= 0 for g in generators)
    )


def _simplex_weights(p: int, grid: int):
    """Weights (n_1, ..., n_p) with integers n_i >= 1 summing to grid: the
    grid's weights times grid."""
    for cuts in combinations(range(1, grid), p - 1):
        bounds = (0, *cuts, grid)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def hull_samples_ok(generators, grid: int, report) -> bool:
    """Every sample is a generator minimizing some grid weight, and every
    grid weight is minimized by some sample."""
    samples = list(report.samples)
    if report.grid != grid or not samples or any(s not in generators for s in samples):
        return False
    scaled = dict(zip(generators, _integers(generators)))
    used = set()
    for lam in _simplex_weights(len(generators[0]), grid):
        best = min(_dot(lam, g) for g in scaled.values())
        hits = [s for s in samples if _dot(lam, scaled[s]) == best]
        if not hits:
            return False
        used.update(hits)
    return (
        used == set(samples)
        and sorted(set(report.components)) == list(range(1, report.component_count + 1))
    )


def _solve_columns(columns, v):
    """Signs of the unique mu with sum_k mu_k columns[k] = v, or None when
    the columns are dependent or the system is inconsistent.

    The columns and v are integer vectors, so fraction-free (Bareiss)
    elimination stays in integers.
    """
    k, p = len(columns), len(v)
    rows = [[c[r] for c in columns] + [v[r]] for r in range(p)]
    previous = 1
    for col in range(k):
        found = next((r for r in range(col, p) if rows[r][col] != 0), None)
        if found is None:
            return None
        rows[col], rows[found] = rows[found], rows[col]
        pivot = rows[col]
        for r in range(col + 1, p):
            row = rows[r]
            rows[r] = [
                (pivot[col] * row[j] - row[col] * pivot[j]) // previous
                for j in range(k + 1)
            ]
        previous = pivot[col]
    if any(rows[r][k] != 0 for r in range(k, p)):
        return None
    mu = [Fraction(0)] * k
    for r in reversed(range(k)):
        rest = sum((rows[r][c] * mu[c] for c in range(r + 1, k)), Fraction(0))
        mu[r] = (rows[r][k] - rest) / rows[r][r]
    return mu


def cone_generators(ordering) -> list[tuple[int, ...]]:
    """The generators, each scaled to integers by its own positive factor,
    which leaves the cone unchanged."""
    return [_integers([g])[0] for g in ordering.generators]


def in_cone(generators, v) -> bool:
    """Is v a nonnegative combination of the integer ``generators``?

    By Caratheodory it is iff v is a nonnegative combination of some
    linearly independent subset of at most p generators, and the
    coefficients over an independent subset are unique.  v is scaled to
    integers by a positive factor, which keeps the signs of those
    coefficients.
    """
    if all(x == 0 for x in v):
        return True
    v = _integers([v])[0]
    for size in range(1, min(len(generators), len(v)) + 1):
        for subset in combinations(generators, size):
            mu = _solve_columns(subset, v)
            if mu is not None and all(x >= 0 for x in mu):
                return True
    return False


def check_hull(instance, out: dict) -> set[str]:
    _, w, queries = instance
    generators = list(w.generators)
    failed = set()
    weak_of = []
    for k, y0 in enumerate(queries):
        weak = weakly_nondominated_in_hull(generators, y0)
        weak_of.append(weak)
        if out[f"q{k}.contains"] is not True:
            failed.add(f"q{k}.contains")
        if out[f"q{k}.weak"] is not weak:
            failed.add(f"q{k}.weak")
        proper = out[f"q{k}.proper"]
        if proper.verdict:
            if not proper_witness_ok(generators, y0, proper.witness):
                failed.add(f"q{k}.proper")
        elif proper.witness is not None:
            failed.add(f"q{k}.proper")
        # proper => nondominated => weakly nondominated
        nondominated = out[f"q{k}.nondominated"]
        if (nondominated and not weak) or (proper.verdict and not nondominated):
            failed.add(f"q{k}.nondominated")
    records = out["reduce"]
    p = w.dim
    if len(records) != len(queries) or any(
        r.query != y0
        or r.lhs is not weak
        or r.rhs is not weak
        or (r.witness is not None) is not weak
        or (r.witness is not None and not set(r.witness) <= set(range(1, p + 1)))
        for r, y0, weak in zip(records, queries, weak_of)
    ):
        failed.add("reduce")
    for name, report in out.items():
        if name.startswith("sample-"):
            if not hull_samples_ok(generators, int(name.split("-")[1]), report):
                failed.add(name)
    return failed


def check_cone(instance, out: dict) -> set[str]:
    _, ordering, points = instance
    generators = cone_generators(ordering)
    failed = set()
    certificate = out["certificate"]
    assignments = certificate.assignments
    fixed = {i for i, j in assignments.items() if i == j}
    certificate_ok = (
        certificate.cone == ordering
        and sorted(assignments) == list(range(len(points)))
        and all(assignments[j] == j for j in assignments.values())
        and all(
            i == j
            or in_cone(generators, [a - b for a, b in zip(points[i], points[j])])
            for i, j in assignments.items()
        )
        # a fixed point is dominated by no other value
        and not any(
            points[j] != z and in_cone(generators, [a - b for a, b in zip(points[j], z)])
            for j in fixed
            for z in set(points)
        )
    )
    if not certificate_ok:
        failed.add("certificate")
    if out["verify"] is not certificate_ok:
        failed.add("verify")
    if sorted(out["nondominated"]) != sorted(fixed):
        failed.add("nondominated")
    return failed


def check(workload: str, instance, out: dict, exact: bool) -> set[str]:
    """The operations of one instance whose output is wrong; ``exact``
    asks for exact vertex enumeration where HiGHS would otherwise do."""
    if workload == "finite":
        return check_finite(instance, out)
    if workload == "frontier":
        return check_frontier(instance, out, exact)
    if instance[0] == "hull":
        return check_hull(instance, out)
    return check_cone(instance, out)
