"""Acceptance gate: nine criteria, each printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
exact (zero tolerance) and carries the stated wall-clock budget, measured
on the spot.  Instance pools are seeded, so repeated runs are identical.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pareto_kit import (
    cone_nondominated_set,
    external_stability_certificate,
    frontier_sample_connected,
    hull,
    hull_is_properly_nondominated,
    hull_reducibility_check,
    mop_instance,
    natural_cone,
    nondominated_set,
    polyhedron,
    properly_nondominated_set,
    reducibility_report,
    theorem_full_report,
    verify_certificate,
    weakly_nondominated_set,
)
from pareto_kit.cones import cone_contains
from pareto_kit.generate import gen_cone, gen_finite, gen_hull, gen_hull_queries, gen_poly
from pareto_kit.numerics import LE, OPTIMAL, dot
from pareto_kit.numerics.linprog import lp_solve_batch
from pareto_kit.reducibility import all_selectors

from oracles import oracle_nondominated, oracle_weakly_nondominated


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
            return False
        verdict = "PASS" if elapsed < self.seconds else "FAIL"
        print(f"{verdict} {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        assert elapsed < self.seconds, (
            f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
        )
        return False


@pytest.fixture(scope="module")
def finite_pool():
    rng = random.Random(2024)
    pool = []
    for i in range(1000):
        p = (2, 3, 4)[i % 3]
        n = rng.randint(1, 50)
        pool.append(gen_finite(p, n, 10_000 + i))
    return pool


@pytest.fixture(scope="module")
def reduce_pool():
    rng = random.Random(2025)
    pool = []
    for i in range(1000):
        p = (2, 3, 4)[i % 3]
        n = rng.randint(1, 25)
        pool.append(gen_finite(p, n, 20_000 + i))
    return pool


@pytest.fixture(scope="module")
def hull_pool():
    rng = random.Random(2026)
    pool = []
    for i in range(60):
        p = (2, 3, 4)[i % 3]
        w = gen_hull(p, rng.randint(1, 12), 30_000 + i)
        queries = gen_hull_queries(w, 10, 31_000 + i)
        pool.append((w, queries))
    return pool


_POLY_FAMILIES_CYCLE = (
    "halfplane", "random", "box", "halfplane", "random",
    "orthant", "halfplane", "random", "tilted", "random",
)
_POLY_P_CYCLE = (2, 3, 2, 4, 2, 3)


@pytest.fixture(scope="module")
def poly_pool():
    rng = random.Random(2027)
    pool = []
    for i in range(1000):
        p = _POLY_P_CYCLE[i % len(_POLY_P_CYCLE)]
        m = rng.randint(1, 10)
        family = _POLY_FAMILIES_CYCLE[i % len(_POLY_FAMILIES_CYCLE)]
        pool.append(gen_poly(p, m, 40_000 + i, family))
    return pool


def test_criterion_1_dominance_chain(finite_pool):
    with Budget("criterion-1 dominance chain (1000 instances)", 10):
        for points in finite_pool:
            report = properly_nondominated_set(points)
            pn = set(report.properly_nondominated)
            nd = set(report.nondominated)
            wn = set(report.weakly_nondominated)
            assert pn <= nd <= wn
            assert pn == nd
            assert set(report.bounds) == nd
            assert all(bound >= 0 for bound in report.bounds.values())


def test_criterion_2_oracle_equivalence(finite_pool):
    with Budget("criterion-2 oracle equivalence (1000 instances)", 10):
        for points in finite_pool:
            report = properly_nondominated_set(points)
            assert list(report.nondominated) == oracle_nondominated(points)
            assert list(report.weakly_nondominated) == oracle_weakly_nondominated(
                points
            )
            assert nondominated_set(points) == list(report.nondominated)
            assert weakly_nondominated_set(points) == list(
                report.weakly_nondominated
            )


def test_criterion_3_external_stability(finite_pool):
    rng = random.Random(3003)
    with Budget("criterion-3 stability certificates (1000 + 200 cone)", 20):
        for points in finite_pool:
            cert = external_stability_certificate(points)
            frontier = set(nondominated_set(points))
            for i, j in cert.assignments.items():
                assert j in frontier
                assert all(a <= b for a, b in zip(points[j], points[i]))
                assert cert.assignments[j] == j
                if i in frontier:
                    assert j == i
        for trial in range(200):
            p = (2, 3)[trial % 2]
            points = gen_finite(p, rng.randint(1, 10), 50_000 + trial)
            ordering = gen_cone(p, rng.randint(2, 3), 51_000 + trial)
            cert = external_stability_certificate(points, ordering)
            assert verify_certificate(points, cert)
            frontier = set(cone_nondominated_set(points, ordering))
            for i, j in cert.assignments.items():
                assert j in frontier
                diff = tuple(a - b for a, b in zip(points[i], points[j]))
                assert i == j or cone_contains(ordering, diff)
            ones = tuple(Fraction(1) for _ in range(p))
            reduced = external_stability_certificate(points, natural_cone(p), ones)
            plain = external_stability_certificate(points)
            assert reduced.assignments == plain.assignments


def test_criterion_4_reducibility_inclusion(reduce_pool):
    with Budget("criterion-4 reducibility inclusion (1000 instances)", 10):
        for rows in reduce_pool:
            inst = mop_instance([f"x{i}" for i in range(len(rows))], rows)
            report = reducibility_report(inst)
            assert set(report.union_pe) <= set(report.union_e) <= set(report.we_set)
        canonical = mop_instance(
            ["x1", "x2", "x3"], [(1, 0), (0, 1), (1, 1)]
        )
        report = reducibility_report(canonical)
        assert not report.equality_e
        assert report.strict_witnesses == ("x3",)


def test_criterion_5_hull_equality(hull_pool):
    with Budget("criterion-5 hull reducibility equality (>=500 queries)", 60):
        total = 0
        for w, queries in hull_pool:
            records = hull_reducibility_check(w, queries)
            total += len(records)
            for record in records:
                assert record.lhs == record.rhs
                if record.rhs:
                    assert record.witness is not None
                # the subset route, apart from the record: no selector of a
                # dominated query gives a properly nondominated projection;
                # the witness of a weakly nondominated one has weights
                # lam >= 1 that make its projection a minimizer over the
                # projected hull
                selectors = (record.witness,) if record.rhs else all_selectors(w.dim)
                for sel in selectors:
                    sub = hull([tuple(g[i - 1] for i in sel) for g in w.generators])
                    y0 = tuple(record.query[i - 1] for i in sel)
                    lam = hull_is_properly_nondominated(sub, y0).witness
                    if not record.rhs:
                        assert lam is None
                        continue
                    assert lam is not None and all(x >= 1 for x in lam)
                    assert all(dot(lam, g) >= dot(lam, y0) for g in sub.generators)
        assert total >= 500


def test_criterion_6_equivalence_routes(poly_pool):
    with Budget("criterion-6 five-way equivalence (1000 polyhedra)", 60):
        for P, tag, member in poly_pool:
            report = theorem_full_report(P, [member])
            if report.y_n_nonempty:
                assert report.witness is not None and P.contains(report.witness)
            else:
                d = report.negative_direction
                assert d is not None
                assert sum(d) == -1 and all(x <= 0 for x in d)
            if tag == "nonempty-frontier":
                assert report.y_n_nonempty
            if tag == "empty-frontier":
                assert not report.y_n_nonempty
        all_true = polyhedron([[-1, -1]], [0])
        report = theorem_full_report(all_true, [(1, 1)])
        assert report.y_n_nonempty
        all_false = theorem_full_report(polyhedron([[0, -1]], [0]))
        assert not all_false.y_n_nonempty
        assert all_false.negative_direction == (Fraction(-1), Fraction(0))


def test_criterion_7_redundancy(poly_pool):
    # a second route to the redundancy claim: the member's lower section is
    # bounded, so every coordinate has a minimum over it, exactly when the
    # frontier is nonempty
    with Budget("criterion-7 redundancy of the compactness hypothesis", 30):
        bounded = 0
        for P, tag, member in poly_pool:
            report = theorem_full_report(P, [member])
            rows = [(list(row), LE, rhs) for row, rhs in zip(P.A, P.b)]
            units = [tuple(int(i == j) for j in range(P.dim)) for i in range(P.dim)]
            minima = lp_solve_batch(units, rows, upper=member)
            assert all(o.status == OPTIMAL for o in minima) == report.y_n_nonempty
            bounded += report.y_n_nonempty
        assert 0 < bounded < len(poly_pool)


def test_criterion_8_connectedness(poly_pool, hull_pool):
    with Budget("criterion-8 frontier connectedness (k in 4, 8, 16)", 30):
        checked = 0
        for P, tag, member in poly_pool:
            report = theorem_full_report(P, [member])
            if not report.y_n_nonempty:
                continue
            checked += 1
            for k in (4, 8, 16):
                conn = frontier_sample_connected(P, k)
                assert conn.component_count == 1
        assert checked >= 100
        for w, _ in hull_pool:
            for k in (4, 8, 16):
                conn = frontier_sample_connected(w, k)
                assert conn.component_count == 1
        contrast = frontier_sample_connected(hull([(0, 10), (10, 0)]), 8, epsilon=1)
        assert contrast.component_count == 2


def test_criterion_9_cli_determinism(tmp_path):
    with Budget("criterion-9 CLI selftest and byte determinism", 120):
        out_a = tmp_path / "selftest_a.json"
        out_b = tmp_path / "selftest_b.json"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "pareto_kit", "selftest",
                 "--seed", "7", "--scale", "0.4", "--output", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        assert out_a.read_bytes() == out_b.read_bytes()
        data = json.loads(out_a.read_text())
        assert data["ok"] is True

        gen_a = tmp_path / "gen_a.json"
        gen_b = tmp_path / "gen_b.json"
        for out in (gen_a, gen_b):
            proc = subprocess.run(
                [sys.executable, "-m", "pareto_kit", "gen", "--kind", "poly",
                 "--p", "3", "--m", "5", "--family", "random", "--seed", "11",
                 "--output", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        assert gen_a.read_bytes() == gen_b.read_bytes()

        report_a = tmp_path / "nondom_a.json"
        report_b = tmp_path / "nondom_b.json"
        csv_path = tmp_path / "pts.csv"
        subprocess.run(
            [sys.executable, "-m", "pareto_kit", "gen", "--kind", "finite",
             "--p", "3", "--n", "20", "--seed", "13", "--output", str(csv_path)],
            check=True,
        )
        for out in (report_a, report_b):
            proc = subprocess.run(
                [sys.executable, "-m", "pareto_kit", "proper",
                 "--input", str(csv_path), "--output", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        assert report_a.read_bytes() == report_b.read_bytes()
