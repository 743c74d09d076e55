"""Closed-form distance and dimension formulas against brute-force search."""

import random
from fractions import Fraction
from math import comb

import pytest

from toricode.codes import build_code
from toricode.formulas import (
    CodeParams,
    check_decrease,
    d_box,
    d_cross,
    d_double_pyramid,
    d_product,
    d_pyr_cube,
    d_pyramid_dilate,
    d_pyramid_upper_bound,
    d_recipe,
    d_simplex,
    dim_product,
    dim_pyramid_dilate,
    dim_recipe,
    params_report,
    recipe_valid_for,
)
from toricode.gf import make_field
from toricode.mindist import min_distance, min_distance_exhaustive
from toricode.polytopes import (
    ConstructionRecipe,
    PyramidScale,
    Segment,
    box,
    cross_polytope,
    dilate,
    double_pyramid,
    from_vertices,
    pyramid,
    realize_recipe,
    standard_simplex,
)

TRIANGLE = [(1, 0), (0, 3), (3, 1)]


def brute_d(poly, field, method="auto"):
    result = min_distance(build_code(poly, field), method=method)
    assert result.exact
    return result.d


# ---------------------------------------------------------------------------
# product and pyramid formulas
# ---------------------------------------------------------------------------

def test_d_product_prism_value():
    # d(triangle) = 8 and d([0,1]) = q-2 = 3 over GF(5)
    assert d_product(8, 3) == 24


def test_d_product_identity():
    assert d_product(17, 1) == 17


def test_d_product_matches_brute_force_rectangle():
    field = make_field(5)
    expected = brute_d(box([1, 2]), field, method="exhaustive")
    assert d_product(4 - 1, 4 - 2) == expected == 6


def test_d_pyramid_dilate_example3():
    assert d_pyramid_dilate(8, 5) == 32


def test_d_pyramid_dilate_matches_brute_force_simplex():
    field = make_field(5)
    d_base = brute_d(box([1]), field)  # [0,1] over GF(5): d = 3
    d_pyr = brute_d(pyramid(box([1])), field)
    assert d_pyramid_dilate(d_base, 5) == d_pyr == 12


def test_d_double_pyramid_requires_hypothesis():
    with pytest.raises(ValueError, match="length 2"):
        d_double_pyramid(10, 5, box([1]))
    assert d_double_pyramid(10, 5, box([2])) == 40


def test_d_double_pyramid_consistent_with_cross_chain():
    # cross_polytope(n) is an iterated double pyramid over [0, 2k]
    for q in (5, 7):
        base = q - 1 - 2  # d of k=1 segment [0,2]
        assert d_double_pyramid(base, q, box([2])) == d_cross(2, 1, q)


# (base, has a length-2 segment, d of its double pyramid over GF(7)): bases
# with the segment first, then bases without one
DOUBLE_PYRAMID_BASES = [
    pytest.param(lambda: box([2]), True, 24, id="segment2"),
    pytest.param(lambda: box([3]), True, 18, id="segment3"),
    pytest.param(lambda: dilate(standard_simplex(2), 2), True, 144, id="2simplex2"),
    pytest.param(lambda: box([1, 2]), True, 120, id="rect1x2"),
    pytest.param(lambda: box([1]), False, 24, id="segment1"),
    pytest.param(lambda: box([1, 1]), False, 144, id="square"),
    pytest.param(lambda: standard_simplex(2), False, 144, id="simplex2"),
    pytest.param(lambda: from_vertices(2, [(0, 0), (2, 1), (1, 2)]), False, 144, id="thin-triangle"),
]


@pytest.mark.parametrize("base,segment,d7", DOUBLE_PYRAMID_BASES)
def test_d_double_pyramid_against_search(base, segment, d7):
    """Where the base holds a length-2 segment the formula equals search;
    where it does not, the formula refuses and search stays at or below the
    pyramid's (q-1) d(B) (for the simplex over GF(7), 144 < 180)."""
    base = base()
    for field in (make_field(5), make_field(7), make_field(2, 3), make_field(3, 2)):
        q = field.q
        d_base = brute_d(base, field)
        d = brute_d(double_pyramid(base), field)
        assert q != 7 or d == d7
        if segment:
            assert d_double_pyramid(d_base, q, base) == d, q
        else:
            with pytest.raises(ValueError, match="length 2"):
                d_double_pyramid(d_base, q, base)
            assert d <= (q - 1) * d_base, q


def test_d_pyramid_upper_bound():
    assert d_pyramid_upper_bound(8, 1, 5) == 32  # tight at k = 1
    field = make_field(7)
    d_q = brute_d(box([1]), field)
    exact = brute_d(dilate(pyramid(box([1])), 2), field)
    assert exact <= d_pyramid_upper_bound(d_q, 2, 7)
    with pytest.raises(ValueError):
        d_pyramid_upper_bound(8, 7, 7)


# ---------------------------------------------------------------------------
# recipe engine
# ---------------------------------------------------------------------------

def test_recipe_single_segment():
    for a in (1, 2, 3):
        for q in (5, 7):
            assert d_recipe(ConstructionRecipe((Segment(a),)), q) == q - 1 - a


def test_recipe_simplex_path():
    for k in (1, 2):
        for q in (5, 7):
            r = ConstructionRecipe((Segment(1), PyramidScale(k)))
            assert d_recipe(r, q) == (q - 1) * (q - 1 - k) == d_simplex(2, k, q)


def test_recipe_box_over_gf7_matches_brute_force():
    r = ConstructionRecipe((Segment(2), Segment(3)))
    field = make_field(7)
    assert d_recipe(r, 7) == 12 == brute_d(realize_recipe(r), field)


def test_recipe_invalid_factor_names_step():
    r = ConstructionRecipe((Segment(3), PyramidScale(2)))
    with pytest.raises(ValueError, match="step 1"):
        d_recipe(r, 5)  # 4 - 3*2 < 0
    assert not recipe_valid_for(r, 5)
    assert recipe_valid_for(r, 11)


def test_recipe_suffix_products_only_count_later_pyramids():
    # [segment 1, pyramid 2, segment 1]: first factor sees the pyramid scale,
    # the trailing segment does not
    r = ConstructionRecipe((Segment(1), PyramidScale(2), Segment(1)))
    q = 7
    assert d_recipe(r, q) == (q - 1) * (q - 1 - 2) * (q - 1 - 1)


# ---------------------------------------------------------------------------
# corollary closed forms
# ---------------------------------------------------------------------------

def test_d_simplex_matches_brute_force():
    field = make_field(5)
    assert d_simplex(2, 1, 5) == 12 == brute_d(standard_simplex(2), field)
    assert d_simplex(2, 2, 5) == 8 == brute_d(dilate(standard_simplex(2), 2), field)


def test_d_box_matches_brute_force():
    field = make_field(5)
    assert d_box((1, 1), 5) == 9 == brute_d(box([1, 1]), field)
    with pytest.raises(ValueError):
        d_box((4,), 5)


def test_d_cross_matches_brute_force():
    assert d_cross(2, 1, 7) == 24 == brute_d(cross_polytope(2, 1), make_field(7))
    assert d_cross(2, 1, 5) == 8 == brute_d(cross_polytope(2, 1), make_field(5))
    with pytest.raises(ValueError):
        d_cross(2, 2, 5)


def test_d_pyr_cube_consistency():
    # l-fold pyramid over the m-cube equals the corresponding recipe value
    for (l, m, k, q) in [(1, 1, 1, 5), (1, 2, 2, 7), (2, 1, 1, 7)]:
        steps = [Segment(1)] * m + [PyramidScale(1)] * (l - 1) + [PyramidScale(k)]
        r = ConstructionRecipe(tuple(steps))
        assert d_pyr_cube(l, m, k, q) == d_recipe(r, q)
    field = make_field(5)
    poly = dilate(pyramid(box([1, 1])), 2)
    assert d_pyr_cube(1, 2, 2, 5) == 16 == brute_d(poly, field)


# ---------------------------------------------------------------------------
# decrease inequality
# ---------------------------------------------------------------------------

def test_check_decrease_l_zero_always_holds():
    assert check_decrease([10], 5).ok


def test_check_decrease_segment_family_analytic():
    # [0,1] dilates over GF(7): d_k = 6 - k
    d_values = [6 - k for k in range(6)]
    assert check_decrease(d_values, 7).ok


def test_check_decrease_simplex_family_brute_force():
    field = make_field(5)
    d_values = [
        brute_d(dilate(standard_simplex(2), k), field) for k in range(4)
    ]
    assert d_values == [16, 12, 8, 4]
    assert check_decrease(d_values, 5).ok


def test_check_decrease_reports_violation():
    chk = check_decrease([16, 16], 5)
    assert not chk.ok
    k, l, ratio, bound = chk.violation
    assert (k, l) == (1, 1)
    assert ratio == 1 and bound == Fraction(3, 4)


def test_check_decrease_cross_family_lambda2():
    # q = 7 translated cross polytopes, k = 0..2; contains a length-2 segment
    field = make_field(7)
    d_values = [36] + [brute_d(cross_polytope(2, k), field) for k in (1, 2)]
    assert d_values == [36, 24, 12]
    assert check_decrease(d_values, 7, lam=2).ok


# ---------------------------------------------------------------------------
# dimension identities
# ---------------------------------------------------------------------------

def test_dim_box_and_simplex():
    assert dim_recipe(ConstructionRecipe((Segment(2), Segment(3)))) == 12
    for n, k in [(2, 1), (2, 3), (3, 2)]:
        steps = [Segment(1)] + [PyramidScale(1)] * (n - 2) + [PyramidScale(k)]
        r = ConstructionRecipe(tuple(steps))
        assert dim_recipe(r) == comb(n + k, k)


def test_dim_recipe_matches_enumeration():
    recipes = [
        ConstructionRecipe((Segment(2),)),
        ConstructionRecipe((Segment(1), PyramidScale(2))),
        ConstructionRecipe((Segment(1), Segment(1), PyramidScale(2))),
        ConstructionRecipe((Segment(2), PyramidScale(1), Segment(1))),
    ]
    for r in recipes:
        assert dim_recipe(r) == len(realize_recipe(r).lattice_points)


def test_dim_recipe_matches_enumeration_seeded_sweep():
    rng = random.Random(4242)
    for _ in range(25):
        steps = [Segment(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                steps.append(Segment(rng.randint(1, 2)))
            else:
                steps.append(PyramidScale(rng.randint(1, 2)))
        r = ConstructionRecipe(tuple(steps))
        assert dim_recipe(r) == len(realize_recipe(r).lattice_points), r


def test_dim_product_and_pyramid_dilate_helpers():
    assert dim_product(6, 2) == 12
    assert dim_pyramid_dilate([1, 3, 6]) == 10


# ---------------------------------------------------------------------------
# parameter reports
# ---------------------------------------------------------------------------

def test_params_report_example1():
    params = params_report(from_vertices(2, TRIANGLE), make_field(5))
    assert params == CodeParams(
        N=16,
        k=6,
        d=8,
        relative_distance=Fraction(1, 2),
        rate=Fraction(3, 8),
        exact=True,
    )


def test_params_report_origin():
    params = params_report(from_vertices(1, [(0,)]), make_field(5))
    assert params.relative_distance == 1
    assert params.rate == Fraction(1, 4)


def test_params_report_unit_cube_recipe_bound_tight():
    r = ConstructionRecipe((Segment(1), Segment(1), Segment(1)))
    params = params_report(r, make_field(5))
    assert params.N == 64 and params.k == 8 and params.d == 27
    assert params.relative_distance == Fraction(27, 64)
    assert params.rel_distance_bound == Fraction(27, 64)  # equality case
    assert params.exact


def test_params_report_rejects_other_types():
    with pytest.raises(TypeError):
        params_report("triangle", make_field(5))
