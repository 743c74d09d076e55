"""Fast tests of the benchmark's own oracles, checks and tracer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from itertools import product as iproduct
from pathlib import Path

import pytest

import oracle
import spans
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricode import codes, formulas, gf, kernels, mindist, polytopes  # noqa: E402

TC = {"gf": gf, "polytopes": polytopes, "codes": codes,
      "kernels": kernels, "mindist": mindist, "formulas": formulas}

# GF(3), GF(4) = GF(2)[x]/(x^2 + x + 1) and GF(5), each with a primitive element
FIELDS = {
    3: oracle.Field(3, 1, (0, 1), 2),
    4: oracle.Field(2, 2, (1, 1, 1), 2),
    5: oracle.Field(5, 1, (0, 1), 2),
}

TINY = [
    # (q, monomials, closed-form d)
    (3, oracle.points_box((1,)), oracle.d_box((1,), 3)),
    (3, oracle.points_recipe((("S", 1), ("S", 1))), oracle.d_recipe((("S", 1), ("S", 1)), 3)),
    (4, oracle.points_simplex(2, 1), oracle.d_simplex(2, 1, 4)),
    (4, oracle.points_box((1, 1)), oracle.d_box((1, 1), 4)),
    (4, oracle.points_recipe((("S", 1), ("P", 1))), oracle.d_recipe((("S", 1), ("P", 1)), 4)),
    (5, oracle.points_box((2,)), oracle.d_box((2,), 5)),
    (5, oracle.points_recipe((("S", 1), ("P", 1))), oracle.d_recipe((("S", 1), ("P", 1)), 5)),
    (5, oracle.points_simplex(2, 1), oracle.d_simplex(2, 1, 5)),
]


@pytest.mark.parametrize("q, monomials, d", TINY)
def test_closed_forms_match_brute_force(q, monomials, d):
    assert oracle.brute_min_weight(FIELDS[q], monomials) == d


@pytest.mark.parametrize("recipe", [
    (("S", 1), ("S", 2), ("P", 1)),
    (("S", 2), ("P", 3), ("S", 2), ("P", 2)),
    (("S", 1), ("P", 1), ("P", 2)),
    (("S", 1), ("S", 1), ("S", 1), ("P", 3)),
])
def test_recipe_points_agree_with_counts_and_library(recipe):
    pts = oracle.points_recipe(recipe)
    assert len(pts) == len(set(pts)) == oracle.count_recipe(recipe)
    poly = polytopes.from_vertices(len(recipe), oracle.vertices_recipe(recipe))
    assert list(poly.lattice_points) == pts


def test_triangle_points_agree_with_library():
    pts = oracle.points_triangle(workloads.TRIANGLE)
    assert list(polytopes.from_vertices(2, workloads.TRIANGLE).lattice_points) == pts
    assert len(pts) == 6


def test_simplex_and_box_counts():
    assert len(oracle.points_simplex(3, 8)) == oracle.count_simplex(3, 8) == 165
    assert len(oracle.points_box((3, 2, 4))) == oracle.count_box((3, 2, 4)) == 60


def test_field_rejects_a_non_primitive_element_and_a_reducible_modulus():
    with pytest.raises(ValueError):
        oracle.Field(5, 1, (0, 1), 4)           # 4 has order 2
    with pytest.raises(ValueError):
        oracle.Field(2, 2, (0, 0, 1), 2)        # x^2 is reducible


def test_field_matches_library_arithmetic():
    spec = gf.make_field(3, 2)
    fld = oracle.Field(spec.p, spec.m, spec.modulus, spec.generator)
    for a, b in iproduct(range(9), repeat=2):
        assert fld.add(a, b) == spec.add(a, b)
        assert fld.mul(a, b) == spec.mul(a, b)


# ---------------------------------------------------------------------------
# every check can fail
# ---------------------------------------------------------------------------

def _search_op(q=5, recipe=(("S", 1), ("P", 1)), **kw):
    pts = oracle.points_recipe(recipe)
    return workloads.Search(
        "tiny", q, oracle.vertices_recipe(recipe), pts,
        (q - 1) ** len(recipe), len(pts), oracle.d_recipe(recipe, q), **kw)


def _fields(op):
    return {q: gf.make_field(*oracle.prime_power(q)) for q in workloads.field_orders([op])}


def _run(op):
    return workloads.run(op, TC, _fields(op))


def test_search_check_passes_on_correct_output():
    op = _search_op()
    assert workloads.Checker(0).check(op, _run(op)) == (False, [])


def test_search_check_rejects_wrong_d():
    op = _search_op()
    code, res = _run(op)
    wrong = dataclasses.replace(res, d=res.d + 1, lower=res.d + 1, upper=res.d + 1)
    failed, problems = workloads.Checker(0).check(op, (code, wrong))
    assert not failed and problems


def test_search_check_rejects_wrong_witness():
    op = _search_op()
    code, res = _run(op)
    witness = res.witness.copy()
    witness[:] = 0
    witness[-1] = 1  # the monomial alone: weight N, not d
    failed, problems = workloads.Checker(0).check(
        op, (code, dataclasses.replace(res, witness=witness)))
    assert any("witness" in p for p in problems)


def test_search_check_counts_failure_and_rejects_bounds_missing_d():
    op = _search_op()
    code, res = _run(op)
    capped = dataclasses.replace(res, exact=False, lower=1, upper=res.d)
    assert workloads.Checker(0).check(op, (code, capped)) == (True, [])
    missing = dataclasses.replace(res, exact=False, lower=res.d + 1, upper=res.d)
    failed, problems = workloads.Checker(0).check(op, (code, missing))
    assert failed and problems


def test_search_check_rejects_wrong_lattice_count():
    op = _search_op()
    out = _run(op)
    wrong = dataclasses.replace(op, k=op.k + 1, points=op.points + [(9, 9)])
    assert workloads.Checker(0).check(wrong, out)[1]


def _build_op():
    sides = (2, 1)
    return workloads.Build("tiny", 5, oracle.vertices_box(sides),
                           oracle.points_box(sides), 16, oracle.count_box(sides))


def test_build_check_passes_and_rejects_wrong_rank_count_and_generator():
    op = _build_op()
    code, rank = _run(op)
    checker = workloads.Checker(0)
    assert checker.check(op, (code, rank)) == (False, [])
    assert checker.check(op, (code, rank - 1))[1]
    assert checker.check(dataclasses.replace(op, k=op.k - 1), (code, rank))[1]
    bad = code.generator.copy()
    bad[:, :] = 1
    assert checker.check(op, (dataclasses.replace(code, generator=bad), rank))[1]


def test_sweep_check_rejects_wrong_d():
    recipe = (("S", 1), ("P", 1))
    op = workloads.Sweep("tiny", recipe, [5, 7],
                         [(q, (q - 1) ** 2, 3, oracle.d_recipe(recipe, q)) for q in (5, 7)])
    rows = _run(op)
    assert workloads.Checker(0).check(op, rows) == (False, [])
    wrong = [dataclasses.replace(rows[0], d=rows[0].d - 1)] + rows[1:]
    assert workloads.Checker(0).check(op, wrong)[1]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["exhaustive", "isd"])
def test_kernel_messages_equal_work_count(method):
    tracer = spans.Tracer(TC)
    originals = (mindist.min_distance, polytopes.LatticePolytope.__dict__["lattice_points"])
    tracer.install()
    try:
        poly = polytopes.from_vertices(2, [(1, 0), (0, 3), (3, 1)])
        res = mindist.min_distance(codes.build_code(poly, gf.make_field(5)), method=method)
    finally:
        tracer.uninstall()
    assert (mindist.min_distance, polytopes.LatticePolytope.__dict__["lattice_points"]) == originals
    layer = spans.aggregate(*tracer.take())
    assert res.exact and res.d == 8
    assert layer["kernels.messages"] == res.work_count > 0
    assert layer["mindist.exact_results"] == 1
    assert layer["polytopes.points_found"] == 6
    assert layer["mindist.min_distance_s"] >= layer["mindist.self_s"] >= 0
