import json
import subprocess
import sys

import pytest

from pareto_kit.cli import main
from pareto_kit.io import (
    connectivity_tsv,
    points_from_csv,
    points_to_csv,
)
from pareto_kit import frontier_sample_connected, hull
from pareto_kit.errors import MalformedInput

POINTS_CSV = "y1,y2\n1,2\n2,1\n2,2\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_nondom_reports_one_based_rows(tmp_path, capsys):
    csv_path = _write(tmp_path, "pts.csv", POINTS_CSV)
    assert main(["nondom", "--input", csv_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nondominated"] == [1, 2]
    # (2,2) is only weakly nondominated: nothing beats it strictly everywhere
    assert data["weakly_nondominated"] == [1, 2, 3]


def test_proper_reports_bounds(tmp_path, capsys):
    csv_path = _write(tmp_path, "pts.csv", "y1,y2\n0,2\n1,0\n")
    assert main(["proper", "--input", csv_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bounds"] == {"1": "2", "2": "1/2"}


def test_stability_with_bad_cone_exits_one(tmp_path, capsys):
    csv_path = _write(tmp_path, "pts.csv", POINTS_CSV)
    cone_path = _write(
        tmp_path, "cone.json", json.dumps({"generators": [["1", "0"], ["-1", "0"]]})
    )
    code = main(["stability", "--input", csv_path, "--cone", cone_path])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize(
    "command, data",
    [
        # a string row is not a list of coordinates ("12" is not (1, 2))
        (["hull", "--query", "1,1"], {"generators": ["12", "30"]}),
        (["hull", "--query", "1,1"], {"generators": 12}),
        (["poly"], {"A": "12", "b": ["0", "0"]}),
        (["poly"], {"A": [["0", "-1"]], "b": 0}),
        (["stability", "--cone"], {"generators": 3}),
        (["stability", "--cone"], {"generators": [["0", "0"], ["1", "0"]]}),
    ],
    ids=[
        "hull-string-rows",
        "hull-scalar-generators",
        "poly-string-A",
        "poly-scalar-b",
        "cone-scalar-generators",
        "cone-zero-generator",
    ],
)
def test_malformed_json_exits_one_without_traceback(tmp_path, capsys, command, data):
    path = _write(tmp_path, "input.json", json.dumps(data))
    if command[0] == "stability":
        argv = ["stability", "--input", _write(tmp_path, "pts.csv", POINTS_CSV), "--cone", path]
    else:
        argv = [command[0], "--input", path] + command[1:]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_stability_certificate_output(tmp_path, capsys):
    csv_path = _write(tmp_path, "pts.csv", POINTS_CSV)
    assert main(["stability", "--input", csv_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {"from": 3, "to": 1} in data["assignments"]


def test_reduce_counterexample(tmp_path, capsys):
    inst = {"labels": ["x1", "x2", "x3"], "objectives": [["1", "0"], ["0", "1"], ["1", "1"]]}
    inst_path = _write(tmp_path, "inst.json", json.dumps(inst))
    assert main(["reduce", "--input", inst_path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["strict_witnesses"] == ["x3"]
    assert data["equality_efficient"] is False


@pytest.mark.parametrize(
    "labels",
    ["xy", [1, "a"], [[1], [2]]],
    ids=["labels-string", "labels-mixed", "labels-lists"],
)
def test_reduce_labels_not_a_list_of_strings_exit_one(tmp_path, capsys, labels):
    inst = {"labels": labels, "objectives": [["1", "0"], ["0", "1"]]}
    code = main(["reduce", "--input", _write(tmp_path, "inst.json", json.dumps(inst))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_reduce_hull_mode(tmp_path, capsys):
    hull_path = _write(
        tmp_path,
        "hull.json",
        json.dumps({"generators": [["1", "0"], ["0", "1"], ["1", "1"]]}),
    )
    queries = _write(tmp_path, "q.csv", "y1,y2\n1,0\n1,1\n")
    assert main(["reduce", "--mode", "hull", "--input", hull_path, "--queries", queries]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [q["weakly_nondominated"] for q in data["queries"]] == [True, False]


def test_hull_queries(tmp_path, capsys):
    hull_path = _write(
        tmp_path, "hull.json", json.dumps({"generators": [["1", "0"], ["0", "1"]]})
    )
    assert main(["hull", "--input", hull_path, "--query", "1/2,1/2", "--query", "0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    first, second = data["queries"]
    assert first["in_hull"] and first["properly_nondominated"]
    assert not second["in_hull"] and second["nondominated"] is None


POLY_JUSTIFICATION = {
    "y_n_nonempty": "recession direction and certified witness",
    "sections_bounded": "recession direction at every sample",
    "cone_compact": "equivalent to bounded sections",
    "cone_semicompact": "implied by cone compactness",
    "externally_stable": "implied by cone semicompactness",
}


def test_poly_report(tmp_path, capsys):
    poly_path = _write(
        tmp_path, "poly.json", json.dumps({"A": [["0", "-1"]], "b": ["0"]})
    )
    assert main(["poly", "--input", poly_path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "equivalence": {
            "y_n_nonempty": False,
            "witness": None,
            "negative_direction": ["-1", "0"],
            "sections_bounded": False,
            "cone_compact": False,
            "cone_semicompact": False,
            "externally_stable": False,
            "justification": POLY_JUSTIFICATION,
        },
        "redundancy": {
            "applicable": False,
            "witness": None,
            "sections_checked": 0,
            "sections_bounded": None,
            "passed": True,
        },
    }


# y1 + 2 y2 >= 2, y1 <= 4, y2 <= 4: a nonempty frontier
NONEMPTY_POLY = {"A": [["-1", "-2"], ["1", "0"], ["0", "1"]], "b": ["-2", "4", "4"]}
TWO_SAMPLES = "y1,y2\n3,3\n4,1\n"


@pytest.mark.parametrize(
    "samples, witness, checked",
    [(TWO_SAMPLES, ["-4", "3"], 2), (None, ["2", "0"], 1)],
    ids=["two-samples", "no-samples"],
)
def test_poly_report_nonempty_frontier(tmp_path, capsys, samples, witness, checked):
    argv = ["poly", "--input", _write(tmp_path, "poly.json", json.dumps(NONEMPTY_POLY))]
    if samples is not None:
        argv += ["--samples", _write(tmp_path, "samples.csv", samples)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {
        "equivalence": {
            "y_n_nonempty": True,
            "witness": witness,
            "negative_direction": None,
            "sections_bounded": True,
            "cone_compact": True,
            "cone_semicompact": True,
            "externally_stable": True,
            "justification": POLY_JUSTIFICATION,
        },
        "redundancy": {
            "applicable": True,
            "witness": witness,
            "sections_checked": checked,
            "sections_bounded": True,
            "passed": True,
        },
    }


def _count_section_batches(monkeypatch):
    """Record the number of weights in each section-LP batch."""
    from pareto_kit import polyhedra

    batches = []
    real = polyhedra._section_minima

    def counted(P, anchor, weight_list):
        batches.append(len(weight_list))
        return real(P, anchor, weight_list)

    monkeypatch.setattr(polyhedra, "_section_minima", counted)
    return batches


def test_poly_runs_two_section_batches(tmp_path, capsys, monkeypatch):
    # the witness LP and its certificate; nothing is solved twice
    path = _write(tmp_path, "poly.json", json.dumps(NONEMPTY_POLY))
    samples = _write(tmp_path, "samples.csv", TWO_SAMPLES)
    batches = _count_section_batches(monkeypatch)
    assert main(["poly", "--input", path, "--samples", samples]) == 0
    assert batches == [1, 1]


def test_connect_polyhedron_runs_only_the_grid(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "poly.json", json.dumps(NONEMPTY_POLY))
    batches = _count_section_batches(monkeypatch)
    assert main(["connect", "--input", path, "--grid", "8"]) == 0
    assert batches == [7]


def test_connect_grid_over_the_cap_exits_one_before_building_it(
    tmp_path, capsys, monkeypatch
):
    # grid 1000000 in dimension 4 has comb(999999, 3), about 1.7e17,
    # weights; the cap refuses it before any is built
    from pareto_kit import polyhedra

    def unbuilt(p, k):
        raise AssertionError(f"built the compositions of {k} into {p} parts")

    monkeypatch.setattr(polyhedra, "_compositions", unbuilt)
    generators = [[str(int(i == j)) for i in range(4)] for j in range(4)]
    hull_path = _write(tmp_path, "hull.json", json.dumps({"generators": generators}))
    assert main(["connect", "--input", hull_path, "--grid", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cap" in captured.err


def _count_calls(monkeypatch, sites):
    """Count the calls of each (module, name) in ``sites``, by name, and
    the batches in ``lp_solve_batch`` calls by their first objective's width."""
    from collections import Counter

    calls = Counter()
    for module, name in sites:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "lp_solve_batch":
                calls[f"width {len(args[0][0])}"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_hull_query_solves_one_membership_lp_each(tmp_path, capsys, monkeypatch):
    # in_hull comes from the weak program, whose first objective is
    # membership: no separate membership LP.  Each query solves one weak
    # program (2 generators plus delta); the weakly nondominated member
    # reads its weight cone, and its proper verdict classifies it again
    # by the same route, so no program without delta runs
    from pareto_kit import hulls

    calls = _count_calls(
        monkeypatch,
        [
            (hulls, "hull_contains"),
            (hulls, "lp_solve_batch"),
            (hulls, "_weight_rays"),
        ],
    )
    hull_path = _write(
        tmp_path, "hull.json", json.dumps({"generators": [["1", "0"], ["0", "1"]]})
    )
    argv = ["hull", "--input", hull_path, "--query", "1/2,1/2", "--query", "0,0"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert [q["in_hull"] for q in data["queries"]] == [True, False]
    assert data["queries"][0]["properly_nondominated"]
    assert calls["hull_contains"] == 0
    assert calls["width 3"] == calls["lp_solve_batch"] == 3
    assert calls["width 2"] == 0
    assert calls["_weight_rays"] == 2


def test_connect_writes_tsv(tmp_path, capsys):
    hull_path = _write(
        tmp_path, "hull.json", json.dumps({"generators": [["1", "0"], ["0", "1"]]})
    )
    tsv_path = tmp_path / "samples.tsv"
    assert main(
        ["connect", "--input", hull_path, "--grid", "8", "--tsv", str(tsv_path)]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["component_count"] == 1
    lines = tsv_path.read_text().strip().splitlines()
    assert lines[0] == "y1\ty2\tcomponent"
    assert len(lines) == 1 + len(data["samples"])


def test_gen_round_trips_and_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for target in (a, b):
        assert main(
            ["gen", "--kind", "finite", "--p", "2", "--n", "6", "--seed", "9",
             "--output", str(target)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    parsed = points_from_csv(a.read_text())
    assert points_to_csv(parsed) == a.read_text()


def test_gen_poly_carries_tag(tmp_path):
    out = tmp_path / "poly.json"
    assert main(
        ["gen", "--kind", "poly", "--p", "2", "--m", "3", "--family", "halfplane",
         "--seed", "4", "--output", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["tag"] == "empty-frontier"
    assert "A" in data and "b" in data


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["nondom"])  # missing --input
    assert exc.value.code == 2


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_selftest_scale_not_finite_and_positive_is_a_usage_error(capsys, scale):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--scale", scale])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "--scale" in captured.err


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0, -1])
def test_run_all_refuses_scale_before_any_suite(monkeypatch, scale):
    from pareto_kit import selftest

    ran = []
    monkeypatch.setattr(selftest, "_SUITES", (("probe", lambda seed, s: ran.append(s)),))
    with pytest.raises(MalformedInput, match="finite positive"):
        selftest.run_all(seed=0, scale=scale)
    assert ran == []


def test_failing_suite_reports_the_checks_that_passed(monkeypatch, capsys):
    # a failing check, or an error raised by the library mid-suite, keeps
    # the count of the checks that passed before it
    from pareto_kit import selftest
    from pareto_kit.errors import InternalInconsistency

    def planted(seed, scale, check):
        for k in range(3):
            check(True, f"check {k}")
        check(False, "planted failure")
        check(True, "never reached")

    def raising(seed, scale, check):
        check(True, "first")
        check(True, "second")
        raise InternalInconsistency("planted inconsistency")

    monkeypatch.setattr(selftest, "_SUITES", (("planted", planted), ("raising", raising)))
    results = selftest.run_all(seed=0, scale=1.0)
    assert [(r.name, r.ok, r.checks, r.detail) for r in results] == [
        ("planted", False, 3, "planted failure"),
        ("raising", False, 2, "planted inconsistency"),
    ]
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL planted (3 checks): planted failure",
        "FAIL raising (2 checks): planted inconsistency",
    ]


def test_selftest_suite_that_runs_no_check_fails(tmp_path, capsys):
    out = tmp_path / "selftest.json"
    assert main(["selftest", "--scale", "0.01", "--output", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["ok"] is False
    empty = [s for s in data["suites"] if s["checks"] == 0]
    assert len(empty) == 6
    assert all(not s["ok"] and s["detail"] == "no check ran at this scale" for s in empty)
    assert all(s["ok"] for s in data["suites"] if s["checks"])
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("FAIL ") for line in lines) == 6


def _run_each(argvs, capsys):
    """(exit code, stdout) of each in-process call, in order; a usage
    error leaves ``main`` as SystemExit."""
    results = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        results.append((code, capsys.readouterr().out))
    return results


def test_reused_parser_matches_fresh_parser(tmp_path, capsys, monkeypatch):
    from pareto_kit import cli

    hull_path = _write(
        tmp_path, "hull.json", json.dumps({"generators": [["0", "3"], ["3", "0"], ["2", "2"]]})
    )
    # grid 4 samples (3, 0) and (0, 3): apart under the radius 1/2, joined
    # under the default radius
    connect = ["connect", "--input", hull_path, "--grid", "4"]
    argvs = [
        ["hull", "--input", hull_path, "--query", "1,1", "--query", "0,3"],
        ["hull", "--input", hull_path, "--query", "2,2"],
        connect + ["--epsilon", "1/2"],
        connect,
        ["connect", "--input", hull_path, "--grid", "four"],
        connect,
    ]
    assert cli._build_parser() is cli._build_parser()
    reused = _run_each(argvs, capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_each(argvs, capsys)
    assert reused == fresh
    codes = [code for code, _ in reused]
    assert codes == [0, 0, 0, 0, ("SystemExit", 2), 0]
    # neither the appended queries nor the radius leak into the next call
    assert len(json.loads(reused[1][1])["queries"]) == 1
    assert json.loads(reused[2][1])["component_count"] == 2
    assert json.loads(reused[3][1])["component_count"] == 1
    assert reused[3] == reused[5]


def test_poly_refuses_a_huge_exponent(tmp_path, capsys):
    for text in ("1e5000", "1e-5000"):
        data = {"A": [["1", "0"], ["0", text]], "b": ["1", "1"]}
        path = _write(tmp_path, "poly.json", json.dumps(data))
        assert main(["poly", "--input", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_a_number_too_long_to_write_exits_one(tmp_path, capsys):
    # "1e4300" parses (4,301 digits), but no report can write it out
    path = _write(tmp_path, "hull.json", json.dumps({"generators": [["1e4300", "0"]]}))
    assert main(["hull", "--input", path, "--query", "1e4300,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "digits" in captured.err


def test_hull_reduce_non_member_too_long_to_write_exits_one(tmp_path, capsys):
    # the non-member message writes the query with rational_format, which
    # refuses a number of more than 4,300 digits as a domain error
    generators = [["1e4300", "0"], ["0", "1"]]
    path = _write(tmp_path, "hull.json", json.dumps({"generators": generators}))
    queries = _write(tmp_path, "q.csv", "y1,y2\n2e4300,0\n")
    argv = ["reduce", "--mode", "hull", "--input", path, "--queries", queries]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "digits" in captured.err and "Traceback" not in captured.err


def test_hull_reduce_non_member_message(tmp_path, capsys):
    path = _write(
        tmp_path, "hull.json", json.dumps({"generators": [["1", "0"], ["0", "1"]]})
    )
    queries = _write(tmp_path, "q.csv", "y1,y2\n1/2,1/2\n0,-1/3\n")
    argv = ["reduce", "--mode", "hull", "--input", path, "--queries", queries]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: query point (0, -1/3) is outside the hull\n"


# an integer literal of 4,400 digits, over Python's limit on int text
HUGE_INT = "1" * 4400


@pytest.mark.parametrize(
    "argv, text",
    [
        (["hull", "--query", "1,1"], f'{{"generators": [[{HUGE_INT}, 0]]}}'),
        (["reduce", "--mode", "hull"], f'{{"generators": [[{HUGE_INT}, 0]]}}'),
        (["poly"], f'{{"A": [[{HUGE_INT}, 0]], "b": [0]}}'),
        (["connect"], f'{{"A": [[{HUGE_INT}, 0]], "b": [0]}}'),
        (["reduce"], f'{{"objectives": [[{HUGE_INT}, 0]]}}'),
        (["stability", "--cone"], f'{{"generators": [[{HUGE_INT}, 0]]}}'),
    ],
    ids=["hull", "reduce-hull", "poly", "connect", "reduce", "stability-cone"],
)
def test_json_int_over_the_digit_limit_exits_one(tmp_path, capsys, argv, text):
    path = _write(tmp_path, "input.json", text)
    points = _write(tmp_path, "pts.csv", POINTS_CSV)
    if argv[0] == "stability":
        argv = ["stability", "--input", points, "--cone", path]
    elif argv[:3] == ["reduce", "--mode", "hull"]:
        argv = argv + ["--input", path, "--queries", points]
    else:
        argv = [argv[0], "--input", path] + argv[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: invalid JSON")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "sample, message",
    [
        ("1/3,0", "error: sample (1/3, 0) is not in the polyhedron\n"),
        ("1e4300,0", "error: a number has too many digits to write out\n"),
    ],
    ids=["fraction", "too-long-to-write"],
)
def test_poly_non_member_sample_message(tmp_path, capsys, sample, message):
    path = _write(tmp_path, "poly.json", json.dumps(NONEMPTY_POLY))
    samples = _write(tmp_path, "samples.csv", f"y1,y2\n{sample}\n")
    assert main(["poly", "--input", path, "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_missing_file_exits_one(capsys):
    assert main(["nondom", "--input", "/nonexistent/file.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pareto_kit", "gen", "--kind", "finite",
         "--p", "2", "--n", "3", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("y1,y2")


def test_csv_validation():
    with pytest.raises(MalformedInput):
        points_from_csv("a,b\n1,2\n")
    with pytest.raises(MalformedInput):
        points_from_csv("y1,y2\n")


def test_connectivity_tsv_shape():
    report = frontier_sample_connected(hull([(1, 0), (0, 1)]), 4)
    text = connectivity_tsv(report)
    assert text.splitlines()[0] == "y1\ty2\tcomponent"


def test_dominated_hull_query_solves_two_lps(tmp_path, capsys, monkeypatch):
    # one program: membership and the weak objective over one template
    # and one phase 1; its checked dominator settles the nondominance and
    # proper-nondominance verdicts without their LP and weight cone
    import importlib

    from pareto_kit import hulls

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    calls = _count_calls(
        monkeypatch,
        [
            (hulls, "_weight_rays"),
            (hulls, "lp_solve_batch"),
            (linprog_module, "_template"),
            (linprog_module, "_phase1"),
            (linprog_module, "_run"),
        ],
    )
    hull_path = _write(
        tmp_path,
        "hull.json",
        json.dumps({"generators": [["1", "0"], ["0", "1"], ["1", "1"]]}),
    )
    assert main(["hull", "--input", hull_path, "--query", "1,1"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["queries"]
    assert entry["in_hull"] and not entry["weakly_nondominated"]
    assert entry["nondominated"] is False
    assert entry["properly_nondominated"] is False
    assert entry["weight_witness"] is None
    assert calls == {
        "lp_solve_batch": 1,
        "width 4": 1,
        "_template": 1,
        "_phase1": 1,
        "_run": 2,
    }
