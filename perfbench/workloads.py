"""The three workloads: their inputs, and one instance taken through
every step.

Inputs come from ``pareto_kit.generate`` with sub-seeds derived from the
benchmark seed; the make-up of a round (dimensions, sizes, families) is
fixed, the seed only picks the coordinates.  A fixed make-up keeps the
cost of a round nearly the same from seed to seed, so that runs with
different seeds can be compared.

Each instance writes one output per operation into ``out``, keyed by the
operation's name.  Functions are looked up on the ``pareto_kit`` modules
at call time, so that the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
from pathlib import Path

import pareto_kit as pk
import pareto_kit.cli as pk_cli
from pareto_kit import generate
from pareto_kit import io as pk_io
from pareto_kit.polyhedra import polyhedron_to_json

# finite: (p, n, copies).  Small sets of every dimension; a middle tier
# of forty like sets, where the median instance falls; a heavy tier of
# twenty sets of similar cost (about 0.1 s each), where the tail
# percentile falls; and two sets of a few hundred points beyond it.  The
# tiers keep both order statistics from resting on a single input.
FINITE_MAKEUP = (
    [(p, n, 2) for p in (2, 3, 4, 5) for n in (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40)]
    + [(3, 20, 40)]
    + [(2, 112, 5), (3, 96, 5), (4, 72, 5), (5, 48, 5)]
    + [(2, 256, 1), (3, 192, 1)]
)

# frontier: polyhedra per family and dimension, by row count
FRONTIER_ROWS = (3, 4, 6, 8)
FRONTIER_COPIES = 3
GRIDS = (4, 8, 16)

# hull_cone: hulls by generator count, cones by generator count and set size
HULL_GENERATORS = (3, 4, 5, 6, 8, 10)
HULL_QUERIES = 4
CONE_GENERATORS = (3, 4, 5)
CONE_POINTS = (6, 8, 12, 16)


def finite_inputs(seed: int, workdir: Path):
    instances = []
    for p, n, copies in FINITE_MAKEUP:
        for copy in range(copies):
            points = generate.gen_finite(p, n, seed * 100 + copy)
            instances.append((points, [f"x{i + 1}" for i in range(n)]))
    return instances


def run_finite(instance, out: dict) -> None:
    points, labels = instance
    out["classify"] = pk.properly_nondominated_set(points)
    certificate = pk.external_stability_certificate(points)
    out["certificate"] = certificate
    out["verify"] = pk.verify_certificate(points, certificate)
    out["reduce"] = pk.reducibility_report(pk.mop_instance(labels, points))


def frontier_inputs(seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    instances = []
    for family in generate.POLY_FAMILIES:
        for p in (2, 3, 4):
            for m in FRONTIER_ROWS:
                for copy in range(FRONTIER_COPIES):
                    P, tag, _ = generate.gen_poly(p, m, seed * 100 + copy, family)
                    data = polyhedron_to_json(P)
                    data["tag"] = tag
                    path = workdir / f"poly-{family}-{p}-{m}-{copy}.json"
                    path.write_text(pk_io.dump_json(data), encoding="utf-8")
                    instances.append((str(path), P, tag))
    return instances


def _cli(argv) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    stdout, stderr = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = pk_cli.main(argv)
    return code, stdout.getvalue()


def run_frontier(instance, out: dict) -> None:
    path = instance[0]
    code, text = _cli(["poly", "--input", path])
    out["poly"] = (code, text)
    if code == 0 and json.loads(text)["equivalence"]["y_n_nonempty"]:
        for grid in GRIDS:
            out[f"connect-{grid}"] = _cli(
                ["connect", "--input", path, "--grid", str(grid)]
            )


def hull_cone_inputs(seed: int, workdir: Path):
    instances = []
    for p in (2, 3, 4):
        for m in HULL_GENERATORS:
            for copy in range(2):
                w = generate.gen_hull(p, m, seed * 100 + copy)
                queries = generate.gen_hull_queries(w, HULL_QUERIES, seed * 100 + copy)
                instances.append(("hull", w, queries))
        for g in CONE_GENERATORS:
            for n in CONE_POINTS:
                ordering = generate.gen_cone(p, g, seed * 100 + n)
                points = generate.gen_finite(p, n, seed * 100 + g)
                instances.append(("cone", ordering, points))
    return instances


def run_hull_cone(instance, out: dict) -> None:
    kind, source, items = instance
    if kind == "hull":
        for k, query in enumerate(items):
            out[f"q{k}.contains"] = pk.hull_contains(source, query)
            out[f"q{k}.weak"] = pk.hull_is_weakly_nondominated(source, query)
            out[f"q{k}.nondominated"] = pk.hull_is_nondominated(source, query)
            out[f"q{k}.proper"] = pk.hull_is_properly_nondominated(source, query)
        out["reduce"] = pk.hull_reducibility_check(source, items)
        for grid in GRIDS:
            out[f"sample-{grid}"] = pk.frontier_sample_connected(source, grid)
    else:
        certificate = pk.external_stability_certificate(items, source)
        out["certificate"] = certificate
        out["verify"] = pk.verify_certificate(items, certificate)
        out["nondominated"] = pk.cone_nondominated_set(items, source)


WORKLOADS = {
    "finite": (finite_inputs, run_finite),
    "frontier": (frontier_inputs, run_frontier),
    "hull_cone": (hull_cone_inputs, run_hull_cone),
}
