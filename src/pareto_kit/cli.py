"""Batch command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad cone, empty set, point
outside the hull, ...) with a diagnostic on stderr, 2 on usage errors.
All reports are JSON; connectivity samples can additionally be written as
plot-ready TSV.  Fixed seeds give byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import io as kio
from .cones import cone_from_json
from .dominance import PointSet, properly_nondominated_set
from .errors import InternalInconsistency, MalformedInput, NotInHull, ParetoKitError
from .generate import POLY_FAMILIES, gen_finite, gen_hull, gen_poly
from .hulls import hull_is_properly_nondominated, hull_is_weakly_nondominated
from .numerics import active_backend, rational_format, rational_parse
from .polyhedra import (
    frontier_sample_connected,
    polyhedron_from_json,
    polyhedron_to_json,
    theorem_full_report,
)
from .reducibility import (
    hull_reducibility_check,
    instance_from_json,
    reducibility_report,
)
from .stability import (
    certificate_to_json,
    external_stability_certificate,
    verify_certificate,
)
from .selftest import check_scale, run_all


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc.reason}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _load_points(path: str):
    return kio.points_from_csv(_read(path))


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _classify(args):
    """The points, their classification and the keys that ``nondom`` and
    ``proper`` share."""
    points = _load_points(args.input)
    report = properly_nondominated_set(points)
    return points, report, {
        "dimension": len(points[0]),
        "points": len(points),
        "nondominated": _one_based(report.nondominated),
        "weakly_nondominated": _one_based(report.weakly_nondominated),
    }


def _cmd_nondom(args) -> int:
    points, _, data = _classify(args)
    data["duplicates"] = [_one_based(g) for g in PointSet(tuple(points)).duplicate_groups()]
    _emit(kio.dump_json(data), args.output)
    return 0


def _cmd_proper(args) -> int:
    _, report, data = _classify(args)
    data["properly_nondominated"] = _one_based(report.properly_nondominated)
    data["bounds"] = {str(i + 1): rational_format(b) for i, b in report.bounds.items()}
    _emit(kio.dump_json(data), args.output)
    return 0


def _cmd_stability(args) -> int:
    points = _load_points(args.input)
    ordering = None
    if args.cone:
        ordering = cone_from_json(kio.load_json(_read(args.cone)))
    certificate = external_stability_certificate(points, ordering)
    if not verify_certificate(points, certificate):
        raise InternalInconsistency("certificate failed its own verification")
    _emit(kio.dump_json(certificate_to_json(certificate)), args.output)
    return 0


def _cmd_reduce(args) -> int:
    if args.mode == "hull":
        hull_set = kio.hull_from_json(kio.load_json(_read(args.input)))
        if not args.queries:
            raise MalformedInput("hull mode needs --queries pointing at a CSV")
        queries = _load_points(args.queries)
        records = hull_reducibility_check(hull_set, queries, args.max_objectives)
        data = {
            "queries": [
                {
                    "point": kio.format_point(r.query),
                    "weakly_nondominated": r.lhs,
                    "subset_route": r.rhs,
                    "witness": list(r.witness) if r.witness else None,
                }
                for r in records
            ]
        }
    else:
        inst = instance_from_json(kio.load_json(_read(args.input)))
        report = reducibility_report(inst, args.max_objectives)
        data = {
            "weakly_efficient": list(report.we_set),
            "union_efficient": {k: list(v) for k, v in sorted(report.union_e.items())},
            "union_properly_efficient": {
                k: list(v) for k, v in sorted(report.union_pe.items())
            },
            "equality_efficient": report.equality_e,
            "equality_properly_efficient": report.equality_pe,
            "strict_witnesses": list(report.strict_witnesses),
        }
    _emit(kio.dump_json(data), args.output)
    return 0


def _cmd_hull(args) -> int:
    hull_set = kio.hull_from_json(kio.load_json(_read(args.input)))
    queries = list(_load_points(args.queries)) if args.queries else []
    queries += [tuple(map(rational_parse, text.split(","))) for text in args.query or []]
    if not queries:
        raise MalformedInput("provide --query or --queries")
    records = []
    for q in queries:
        entry = {
            "point": kio.format_point(q),
            "in_hull": True,
            "weakly_nondominated": None,
            "nondominated": None,
            "properly_nondominated": None,
            "weight_witness": None,
        }
        try:
            # membership is the first objective of the weak program
            weak = hull_is_weakly_nondominated(hull_set, q)
        except NotInHull:
            entry["in_hull"] = False
        else:
            # a checked strict dominator settles the other verdicts; a weakly
            # nondominated member reads both, which coincide on a polytope,
            # off its weight cone
            witness = None
            if weak:
                witness = hull_is_properly_nondominated(hull_set, q).witness
            entry.update(
                weakly_nondominated=weak,
                nondominated=witness is not None,
                properly_nondominated=witness is not None,
                weight_witness=_optional_point(witness),
            )
        records.append(entry)
    _emit(kio.dump_json({"queries": records}), args.output)
    return 0


# What each name in the ``poly`` equivalence block rests on.
POLY_JUSTIFICATION = {
    "y_n_nonempty": "recession direction and certified witness",
    "sections_bounded": "recession direction at every sample",
    "cone_compact": "equivalent to bounded sections",
    "cone_semicompact": "implied by cone compactness",
    "externally_stable": "implied by cone semicompactness",
}


def _optional_point(point):
    return None if point is None else kio.format_point(point)


def _cmd_poly(args) -> int:
    P = polyhedron_from_json(kio.load_json(_read(args.input)))
    samples = _load_points(args.samples) if args.samples else []
    report = theorem_full_report(P, samples)
    nonempty = report.y_n_nonempty
    witness = _optional_point(report.witness)
    # Every lower section has the recession cone {d : A d <= 0, d <= 0},
    # so the four flags after y_n_nonempty are that one bit, and a nonempty
    # frontier bounds the section of every sample (with none, the witness's).
    data = {
        "equivalence": {
            "y_n_nonempty": nonempty,
            "witness": witness,
            "negative_direction": _optional_point(report.negative_direction),
            "sections_bounded": nonempty,
            "cone_compact": nonempty,
            "cone_semicompact": nonempty,
            "externally_stable": nonempty,
            "justification": POLY_JUSTIFICATION,
        },
        "redundancy": {
            "applicable": nonempty,
            "witness": witness,
            "sections_checked": (len(samples) or 1) if nonempty else 0,
            "sections_bounded": True if nonempty else None,
            "passed": True,
        },
    }
    _emit(kio.dump_json(data), args.output)
    return 0


def _cmd_connect(args) -> int:
    data = kio.load_json(_read(args.input))
    hull_keys = isinstance(data, dict) and "generators" in data
    if args.mode == "hull" or (args.mode == "auto" and hull_keys):
        source = kio.hull_from_json(data)
    else:
        source = polyhedron_from_json(data)
    epsilon = rational_parse(args.epsilon) if args.epsilon else None
    report = frontier_sample_connected(source, args.grid, epsilon)
    out = {
        "grid": report.grid,
        "epsilon_sq": rational_format(report.epsilon_sq),
        "component_count": report.component_count,
        "samples": [
            {"point": kio.format_point(pt), "component": comp}
            for pt, comp in zip(report.samples, report.components)
        ],
    }
    _emit(kio.dump_json(out), args.output)
    if args.tsv:
        _emit(kio.connectivity_tsv(report), args.tsv)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "finite":
        points = gen_finite(args.p, args.n, args.seed)
        _emit(kio.points_to_csv(points), args.output)
    elif args.kind == "hull":
        hull_set = gen_hull(args.p, args.n, args.seed)
        _emit(kio.dump_json(kio.hull_to_json(hull_set)), args.output)
    else:
        P, tag, member = gen_poly(args.p, args.m, args.seed, args.family)
        data = polyhedron_to_json(P)
        data["tag"] = tag
        data["member"] = kio.format_point(member)
        _emit(kio.dump_json(data), args.output)
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(seed=args.seed, scale=args.scale)
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        line = f"{status} {result.name} ({result.checks} checks)"
        if result.detail:
            line += f": {result.detail}"
        print(line)
    data = {
        "backend": active_backend(),
        "seed": args.seed,
        "suites": [
            {"name": r.name, "ok": r.ok, "checks": r.checks, "detail": r.detail}
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    if args.output:
        _emit(kio.dump_json(data), args.output)
    return 0 if data["ok"] else 1


def _scale(text: str) -> float:
    """``selftest --scale``: a finite positive float (argparse reports text
    that is no float at all)."""
    try:
        return check_scale(float(text))
    except MalformedInput:
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused:
    ``parse_args`` keeps no state between calls and returns a fresh
    namespace each time.  Not built at import, so that importing the
    module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="pareto-kit",
        description="Exact dominance-structure analysis for multi-objective optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, queries=False):
        p.add_argument("--input", required=True, help="instance file")
        p.add_argument("--output", default=None, help="report path, '-' for stdout")
        if queries:
            p.add_argument("--queries", default=None, help="query points CSV")

    p = sub.add_parser("nondom", help="nondominated and weakly nondominated rows")
    common(p)
    p.set_defaults(fn=_cmd_nondom)

    p = sub.add_parser("proper", help="full classification with trade-off bounds")
    common(p)
    p.set_defaults(fn=_cmd_proper)

    p = sub.add_parser("stability", help="external-stability certificate")
    common(p)
    p.add_argument("--cone", default=None, help="ordering cone JSON")
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("reduce", help="subproblem reducibility report")
    common(p, queries=True)
    p.add_argument("--mode", choices=["finite", "hull"], default="finite")
    p.add_argument("--max-objectives", type=int, default=16)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("hull", help="hull membership and dominance classifiers")
    common(p, queries=True)
    p.add_argument("--query", action="append", help="comma-separated point, repeatable")
    p.set_defaults(fn=_cmd_hull)

    p = sub.add_parser("poly", help="polyhedral equivalence and redundancy reports")
    common(p)
    p.add_argument("--samples", default=None, help="member points CSV")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("connect", help="frontier sampling and connectivity")
    common(p)
    p.add_argument("--mode", choices=["auto", "hull", "poly"], default="auto")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--epsilon", default=None, help="join radius (rational)")
    p.add_argument("--tsv", default=None, help="also write samples as TSV")
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=["finite", "hull", "poly"], required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--n", type=int, default=8, help="points or hull generators")
    p.add_argument("--m", type=int, default=4, help="polyhedron rows")
    p.add_argument("--family", choices=list(POLY_FAMILIES), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("selftest", help="run every module's invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("--output", default=None, help="JSON report path")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParetoKitError, OSError) as exc:  # OSError: a missing or unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
