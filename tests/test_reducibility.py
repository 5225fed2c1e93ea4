import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from pareto_kit import hulls
from pareto_kit import (
    efficient_solutions,
    hull,
    hull_reducibility_check,
    mop_instance,
    properly_efficient_solutions,
    reducibility_report,
    weakly_efficient_solutions,
    weighted_sum_argmin,
)
from pareto_kit.errors import (
    EmptySelector,
    MalformedInput,
    NegativeWeight,
    TooManyObjectives,
    ZeroWeights,
)
from pareto_kit.generate import gen_finite, gen_hull, gen_hull_queries
from pareto_kit.reducibility import all_selectors, instance_from_json, instance_to_json

from oracles import (
    oracle_nondominated,
    oracle_proper_weights,
    oracle_weakly_nondominated,
)

HALF = Fraction(1, 2)

TRIANGLE = mop_instance(["x1", "x2", "x3"], [(1, 0), (0, 1), (1, 1)])


def test_efficient_full_and_single_selectors():
    assert efficient_solutions(TRIANGLE, (1, 2)) == ["x1", "x2"]
    assert efficient_solutions(TRIANGLE, (1,)) == ["x2"]
    assert efficient_solutions(TRIANGLE, (2,)) == ["x1"]


def test_weakly_efficient_solutions():
    assert weakly_efficient_solutions(TRIANGLE) == ["x1", "x2", "x3"]
    assert weakly_efficient_solutions(
        mop_instance(["x1", "x2"], [(0, 0), (1, 1)])
    ) == ["x1"]
    assert weakly_efficient_solutions(
        mop_instance(["a", "b"], [(0, 0), (0, 0)])
    ) == ["a", "b"]


def test_properly_efficient_bounds():
    bounds = properly_efficient_solutions(
        mop_instance(["x1", "x2"], [(0, 2), (1, 0)]), (1, 2)
    )
    assert bounds == {"x1": Fraction(2), "x2": HALF}
    assert properly_efficient_solutions(TRIANGLE, (1, 2)).keys() == {"x1", "x2"}
    assert properly_efficient_solutions(TRIANGLE, (1,)) == {"x2": 0}


def test_empty_selector_rejected():
    with pytest.raises(EmptySelector):
        efficient_solutions(TRIANGLE, ())


@pytest.mark.parametrize("rho", [[1.5], ["x"], [1, "2"], [float("inf")]])
def test_non_integer_selector_is_malformed_input(rho):
    # 1.5 would otherwise truncate to objective 1
    with pytest.raises(MalformedInput):
        efficient_solutions(TRIANGLE, rho)


def test_integral_selector_values_are_accepted():
    assert efficient_solutions(TRIANGLE, [Fraction(1), 2.0]) == ["x1", "x2"]


def test_reducibility_report_counterexample():
    report = reducibility_report(TRIANGLE)
    assert report.we_set == ("x1", "x2", "x3")
    assert set(report.union_e) == {"x1", "x2"}
    assert not report.equality_e
    assert not report.equality_pe
    assert report.strict_witnesses == ("x3",)


def test_reducibility_report_equality_case():
    report = reducibility_report(mop_instance(["x1", "x2"], [(0, 5), (5, 0)]))
    assert report.equality_e and report.equality_pe
    assert set(report.union_e) == {"x1", "x2"}
    assert report.strict_witnesses == ()


def test_reducibility_union_orders():
    # x2 and x4 share a value; the full selector first finds x2, x4, x3
    rows = [(0, 3), (1, 2), (2, 1), (1, 2), (3, 0)]
    report = reducibility_report(mop_instance([f"x{i}" for i in range(1, 6)], rows))
    assert list(report.union_e) == ["x1", "x5", "x2", "x3", "x4"]
    assert list(report.union_pe) == ["x1", "x5", "x2", "x4", "x3"]
    assert report.union_pe["x4"] == (1, 2)


def test_dominated_weakly_efficient_row_ties_in_projection():
    # x2 is dominated by x1 but weakly efficient, and ties x1 under (1,);
    # x3 is strictly beaten by x1
    report = reducibility_report(
        mop_instance(["x1", "x2", "x3"], [(0, 1), (0, 2), (1, 3)])
    )
    assert report.we_set == ("x1", "x2")
    assert report.union_e == {"x1": (1,), "x2": (1,)}
    assert report.union_pe == {"x1": (1,), "x2": (1,)}
    assert report.equality_e and report.equality_pe


def test_reducibility_union_orders_under_projection():
    # mixed denominators; under (1, 2), x2 and x5 share (1, 1/2), which
    # comes before x3's (1/2, 1) in row order but after it in scan order
    rows = [
        (0, Fraction(3, 2), Fraction(5, 3)),
        (1, HALF, 3),
        (HALF, 1, 3),
        (Fraction(3, 2), 0, 3),
        (Fraction(2, 2), Fraction(2, 4), Fraction(7, 3)),
    ]
    inst = mop_instance([f"x{i}" for i in range(1, 6)], rows)
    report = reducibility_report(inst)
    assert list(report.union_e.items()) == [
        ("x1", (1,)), ("x4", (2,)), ("x2", (1, 2)), ("x3", (1, 2)), ("x5", (1, 2))
    ]
    assert list(report.union_pe.items()) == [
        ("x1", (1,)), ("x4", (2,)), ("x2", (1, 2)), ("x5", (1, 2)), ("x3", (1, 2))
    ]
    assert list(properly_efficient_solutions(inst, (1, 2))) == [
        "x1", "x2", "x5", "x3", "x4"
    ]


def test_reducibility_single_row():
    report = reducibility_report(mop_instance(["only"], [(4, 4)]))
    assert report.we_set == ("only",)
    assert report.equality_e and report.equality_pe


def test_selector_cap():
    wide = mop_instance(["x1"], [tuple(Fraction(j) for j in range(17))])
    with pytest.raises(TooManyObjectives):
        reducibility_report(wide)


def test_weighted_sum_argmin():
    assert weighted_sum_argmin(TRIANGLE, (1, 1)) == ["x1", "x2"]
    assert weighted_sum_argmin(TRIANGLE, (1, 0)) == ["x2"]
    with pytest.raises(ZeroWeights):
        weighted_sum_argmin(TRIANGLE, (0, 0))
    with pytest.raises(NegativeWeight):
        weighted_sum_argmin(TRIANGLE, (1, -1))


def test_unconditional_inclusion_fuzz():
    rng = random.Random(61)
    for trial in range(40):
        p = rng.randint(2, 4)
        n = rng.randint(1, 15)
        rows = gen_finite(p, n, trial)
        inst = mop_instance([f"x{i}" for i in range(n)], rows)
        report = reducibility_report(inst)
        we = set(report.we_set)
        assert set(report.union_pe) <= set(report.union_e) <= we
        for sel in all_selectors(p):
            efficient = set(efficient_solutions(inst, sel))
            proper = set(properly_efficient_solutions(inst, sel))
            projected = [tuple(row[i - 1] for i in sel) for row in rows]
            weak_sub = {
                inst.labels[i]
                for i in oracle_weakly_nondominated(projected)
            }
            assert proper <= efficient <= weak_sub
            assert efficient <= we


def test_reducibility_report_matches_projection_oracle():
    # each label's first selector, both dict orders, the witnesses and the
    # flags against the quadratic oracle run on every projection of every
    # row: union_e in (first selector, row) order, union_pe in (first
    # selector, first row with the same projection, row) order
    rng = random.Random(89)
    for trial in range(120):
        p = rng.randint(2, 6)
        n = rng.randint(1, 40)
        # entries k/2 with |k| <= 3: ties and duplicate rows are common
        rows = [tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(p)) for _ in range(n)]
        labels = [f"x{i}" for i in range(n)]
        report = reducibility_report(mop_instance(labels, rows))
        selectors = all_selectors(p)
        first, lead = {}, {}
        for s, sel in enumerate(selectors):
            projected = [tuple(row[i - 1] for i in sel) for row in rows]
            for k in oracle_nondominated(projected):
                if k not in first:
                    first[k], lead[k] = s, projected.index(projected[k])
        we = oracle_weakly_nondominated(rows)
        by_row = sorted(first, key=lambda k: (first[k], k))
        by_value = sorted(first, key=lambda k: (first[k], lead[k], k))
        assert report.we_set == tuple(labels[k] for k in we)
        assert list(report.union_e.items()) == [(labels[k], selectors[first[k]]) for k in by_row]
        assert list(report.union_pe.items()) == [
            (labels[k], selectors[first[k]]) for k in by_value
        ]
        assert report.strict_witnesses == tuple(labels[k] for k in we if k not in first)
        assert report.equality_e == report.equality_pe == (set(first) == set(we))


def test_reducibility_report_scans_once(monkeypatch):
    # p = 5: one strict scan finds the weakly efficient rows, and the rank
    # bitsets answer all 31 selectors; every binding of the scan and the
    # grouping is counted
    from pareto_kit import dominance, reducibility

    sites = [
        (module, name)
        for module in (dominance, reducibility)
        for name in ("_dominators", "_unique_groups")
        if hasattr(module, name)
    ]
    calls = _count_calls(monkeypatch, sites)
    n = 30
    report = reducibility_report(mop_instance([f"x{i}" for i in range(n)], gen_finite(5, n, 5)))
    assert len(report.union_e) > 5
    assert calls["_dominators"] == 1
    assert calls["_unique_groups"] <= 1


def test_weighted_sum_soundness_fuzz():
    rng = random.Random(67)
    for trial in range(40):
        p = rng.randint(2, 4)
        n = rng.randint(1, 15)
        inst = mop_instance(
            [f"x{i}" for i in range(n)], gen_finite(p, n, trial + 1000)
        )
        lam = tuple(Fraction(rng.randint(0, 4)) for _ in range(p))
        if not any(lam):
            continue
        support = tuple(i + 1 for i, v in enumerate(lam) if v > 0)
        argmin = set(weighted_sum_argmin(inst, lam))
        assert argmin <= set(efficient_solutions(inst, support))
        if all(lam):
            assert argmin <= set(properly_efficient_solutions(inst, support))


def test_hull_reducibility_examples():
    w = hull([(1, 0), (0, 1), (1, 1)])
    records = hull_reducibility_check(w, [(1, 1), (1, 0)])
    assert [r.lhs for r in records] == [False, True]
    assert [r.rhs for r in records] == [False, True]
    assert records[0].witness is None
    assert records[1].witness == (2,)
    simple = hull_reducibility_check(hull([(1, 0), (0, 1)]), [(HALF, HALF)])
    assert simple[0].lhs and simple[0].rhs
    assert simple[0].witness == (1, 2)
    # the double description lists a ray with support {2, 3} before one
    # with support {1, 2}; the witness is the first selector that works
    w = gen_hull(4, 9, 16)
    assert hull_reducibility_check(w, [w.generators[-1]])[0].witness == (1, 2)


def _check_against_subset_route(seed, max_p, offset):
    # every selector's subproblem solved by the oracle's lambda LP, a
    # route apart from the weight cone the check reads: a query whose weak
    # LP finds a strict dominator is properly nondominated in no
    # projection, and a weakly nondominated query's witness is the first
    # selector whose subproblem makes it properly nondominated; returns
    # the number of dominated queries
    rng = random.Random(seed)
    dominated = 0
    for trial in range(12):
        p = rng.randint(2, max_p)
        w = gen_hull(p, rng.randint(1, 8), trial + offset)
        queries = gen_hull_queries(w, 5, trial + offset + 10)
        records = hull_reducibility_check(w, queries)
        for q, r in zip(queries, records):
            proper = [
                oracle_proper_weights(
                    [tuple(g[i - 1] for i in sel) for g in w.generators],
                    tuple(q[i - 1] for i in sel),
                )
                is not None
                for sel in all_selectors(p)
            ]
            assert r.lhs == r.rhs
            if hulls._strict_dominator(w, q) is not None:
                dominated += 1
                assert not any(proper)
                assert (r.lhs, r.rhs, r.witness) == (False, False, None)
            else:
                assert (r.lhs, r.rhs) == (True, True)
                assert r.witness is not None
                assert r.witness == all_selectors(p)[proper.index(True)]
    return dominated


def test_hull_reducibility_equality_fuzz():
    # p 2-3: lhs and rhs are each checked against the subset route, not
    # only against one another
    _check_against_subset_route(71, 3, 50)


def test_hull_reducibility_subset_route_as_oracle():
    assert _check_against_subset_route(73, 4, 80) > 10


def _count_calls(monkeypatch, sites):
    """Count the calls of each (module, name) in ``sites``, by name."""
    calls = Counter()
    for module, name in sites:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_dominated_hull_query_solves_no_subproblem(monkeypatch):
    # p = 4: one program, membership and the weak objective over one
    # template and one phase 1, and no weight cone, whose rays would
    # answer all 15 selectors
    from pareto_kit import reducibility

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    calls = _count_calls(
        monkeypatch,
        [
            (reducibility, "_weight_rays"),
            (hulls, "lp_solve_batch"),
            (linprog_module, "_template"),
            (linprog_module, "_phase1"),
        ],
    )
    w = hull([(0, 0, 0, 0), (2, 2, 2, 2)])
    (record,) = hull_reducibility_check(w, [(1, 1, 1, 1)])
    assert (record.lhs, record.rhs, record.witness) == (False, False, None)
    assert calls == {"lp_solve_batch": 1, "_template": 1, "_phase1": 1}


def test_nondominated_hull_query_reads_one_weight_cone(monkeypatch):
    # p = 4: a nondominated member's proper verdict and a weakly
    # nondominated query's record each solve one program (one template,
    # one phase 1) and read one weight cone; no lambda LP is solved
    from pareto_kit import hull_is_properly_nondominated, reducibility

    linprog_module = importlib.import_module("pareto_kit.numerics.linprog")
    calls = _count_calls(
        monkeypatch,
        [
            (hulls, "_weight_rays"),
            (reducibility, "_weight_rays"),
            (hulls, "lp_solve_batch"),
            (linprog_module, "lp_solve"),
            (linprog_module, "_template"),
            (linprog_module, "_phase1"),
        ],
    )
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    w = hull(units + [(2, 2, 2, 2)])
    once = {"_weight_rays": 1, "lp_solve_batch": 1, "_template": 1, "_phase1": 1}
    assert hull_is_properly_nondominated(w, units[0]).witness == (1, 2, 2, 2)
    assert calls == once
    calls.clear()
    (record,) = hull_reducibility_check(w, [units[0]])
    assert (record.lhs, record.rhs, record.witness) == (True, True, (2,))
    assert calls == once


def test_instance_json_round_trip():
    data = instance_to_json(TRIANGLE)
    assert instance_from_json(data) == TRIANGLE


@pytest.mark.parametrize(
    "labels",
    ["xy", [[1], [2]], [1, "a"], {"x": 0, "y": 1}],
    ids=["labels-string", "labels-lists", "labels-mixed", "labels-dict"],
)
def test_labels_not_a_list_of_strings(labels):
    rows = [(1, 0), (0, 1)]
    with pytest.raises(MalformedInput):
        mop_instance(labels, rows)
    with pytest.raises(MalformedInput):
        instance_from_json({"labels": labels, "objectives": [["1", "0"], ["0", "1"]]})


def test_mismatch_message_writes_the_point_as_rationals(monkeypatch):
    from pareto_kit import reducibility
    from pareto_kit.errors import InternalInconsistency

    # an empty weight cone planted, so that every selector fails and the
    # weakly nondominated query reaches the mismatch
    monkeypatch.setattr(reducibility, "_weight_rays", lambda gens, target: [])
    w = hull([(0, 1), (1, 0)])
    message = r"^weak/proper reducibility mismatch at \(1/2, 1/2\): lhs=True rhs=False$"
    with pytest.raises(InternalInconsistency, match=message):
        hull_reducibility_check(w, [(Fraction(1, 2), Fraction(1, 2))])
