"""The benchmark's checks pass correct outputs and reject planted wrong ones.

    python3 -m pytest perfbench -q

Each case runs one small seeded instance through its workload, confirms
the check passes the program's own output, then plants one fault: a
flipped nondominated flag, a sample moved outside P, a dominator that
does not dominate, and a wrong proper witness.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from pareto_kit import io as pk_io  # noqa: E402
from pareto_kit.generate import gen_cone, gen_finite, gen_hull, gen_poly  # noqa: E402


def _finite_case():
    points = gen_finite(3, 16, 5)
    instance = (points, [f"x{i + 1}" for i in range(len(points))])
    out = {}
    workloads.run_finite(instance, out)
    return instance, out


def test_finite_output_passes():
    assert checks.check_finite(*_finite_case()) == set()


def test_flipped_nondominated_flag_is_rejected():
    instance, out = _finite_case()
    report = out["classify"]
    first = report.nondominated[0]
    kept = report.nondominated[1:]
    out["classify"] = dataclasses.replace(
        report,
        nondominated=kept,
        properly_nondominated=kept,
        bounds={i: b for i, b in report.bounds.items() if i != first},
    )
    assert checks.check_finite(instance, out) == {"classify"}


def test_finite_dominator_that_does_not_dominate_is_rejected():
    instance, out = _finite_case()
    points = instance[0]
    certificate = out["certificate"]
    frontier = sorted(set(certificate.assignments.values()))
    i = next(i for i, j in certificate.assignments.items() if i != j)
    wrong = next(j for j in frontier if not checks._leq(points[j], points[i]))
    out["certificate"] = dataclasses.replace(
        certificate, assignments={**certificate.assignments, i: wrong}
    )
    # verify_certificate was run on the right certificate and said True
    assert checks.check_finite(instance, out) == {"certificate", "verify"}


def _cone_case():
    points = gen_finite(2, 12, 3)
    instance = ("cone", gen_cone(2, 3, 3), points)
    out = {}
    workloads.run_hull_cone(instance, out)
    return instance, out


def test_cone_output_passes():
    assert checks.check_cone(*_cone_case()) == set()


def test_cone_dominator_that_does_not_dominate_is_rejected():
    instance, out = _cone_case()
    _, ordering, points = instance
    certificate = out["certificate"]
    generators = checks.cone_generators(ordering)
    i, wrong = next(
        (i, j)
        for i in range(len(points))
        for j in range(len(points))
        if not checks.in_cone(generators, [a - b for a, b in zip(points[i], points[j])])
    )
    out["certificate"] = dataclasses.replace(
        certificate, assignments={**certificate.assignments, i: wrong}
    )
    assert "certificate" in checks.check_cone(instance, out)


def _frontier_case(tmp_path):
    P, tag, _ = gen_poly(2, 4, 7, "box")
    path = tmp_path / "box.json"
    data = {"A": [[str(x) for x in row] for row in P.A], "b": [str(x) for x in P.b], "tag": tag}
    path.write_text(json.dumps(data), encoding="utf-8")
    instance = (str(path), P, tag)
    out = {}
    workloads.run_frontier(instance, out)
    return instance, out


def test_frontier_output_passes(tmp_path):
    instance, out = _frontier_case(tmp_path)
    assert set(out) == {"poly", "connect-4", "connect-8", "connect-16"}
    assert checks.check_frontier(instance, out, exact=True) == set()
    assert checks.check_frontier(instance, out, exact=False) == set()


def test_sample_moved_outside_polyhedron_is_rejected(tmp_path):
    instance, out = _frontier_case(tmp_path)
    code, text = out["connect-8"]
    data = json.loads(text)
    point = data["samples"][0]["point"]
    point[0] = str(Fraction(point[0]) + 1000)  # past the box's upper face
    out["connect-8"] = (code, pk_io.dump_json(data))
    assert checks.check_frontier(instance, out, exact=False) == {"connect-8"}


def test_witness_moved_off_the_frontier_is_rejected(tmp_path):
    instance, out = _frontier_case(tmp_path)
    _, P, _ = instance
    code, text = out["poly"]
    data = json.loads(text)
    member = data["equivalence"]["witness"]
    # a point above the witness is still in the box but dominated
    moved = [str(Fraction(x) + Fraction(1, 100)) for x in member]
    data["equivalence"]["witness"] = data["redundancy"]["witness"] = moved
    assert P.contains([Fraction(x) for x in moved])
    out["poly"] = (code, pk_io.dump_json(data))
    assert checks.check_frontier(instance, out, exact=True) == {"poly"}
    assert checks.check_frontier(instance, out, exact=False) == {"poly"}


def _hull_case():
    w = gen_hull(2, 6, 4)
    # the generator of least coordinate sum minimizes a strictly positive
    # weight, so it is properly nondominated
    best = min(w.generators, key=lambda g: (sum(g), g))
    queries = [best, tuple(sum(c) / len(w.generators) for c in zip(*w.generators))]
    instance = ("hull", w, queries)
    out = {}
    workloads.run_hull_cone(instance, out)
    return instance, out


def test_hull_output_passes():
    instance, out = _hull_case()
    assert out["q0.proper"].verdict and out["q0.weak"]
    assert checks.check_hull(instance, out) == set()


def test_wrong_proper_witness_is_rejected():
    instance, out = _hull_case()
    _, w, queries = instance
    y0 = queries[0]
    proper = out["q0.proper"]
    below_one = (Fraction(1, 2),) + proper.witness[1:]
    out["q0.proper"] = dataclasses.replace(proper, witness=below_one)
    assert checks.check_hull(instance, out) == {"q0.proper"}

    # a weight at least 1 everywhere that some generator beats
    g, j = next(
        (g, j) for g in w.generators for j in range(w.dim) if g[j] < y0[j]
    )
    rest = sum(abs(g[i] - y0[i]) for i in range(w.dim) if i != j)
    heavy = tuple(
        1 + rest / (y0[j] - g[j]) + 1 if i == j else Fraction(1) for i in range(w.dim)
    )
    out["q0.proper"] = dataclasses.replace(proper, witness=heavy)
    assert checks.check_hull(instance, out) == {"q0.proper"}


def test_flipped_weak_verdict_is_rejected():
    instance, out = _hull_case()
    out["q1.weak"] = not out["q1.weak"]
    assert "q1.weak" in checks.check_hull(instance, out)


def test_hull_sample_that_minimizes_nothing_is_rejected():
    instance, out = _hull_case()
    _, w, _ = instance
    # a generator dominated by another never minimizes a positive weight
    dominated = next(
        g
        for g in w.generators
        if any(h != g and checks._leq(h, g) for h in w.generators)
    )
    report = out["sample-8"]
    out["sample-8"] = dataclasses.replace(report, samples=report.samples + (dominated,))
    assert checks.check_hull(instance, out) == {"sample-8"}
