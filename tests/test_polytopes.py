"""Lattice polytope construction and enumeration tests."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from toricode.polytopes import (
    ConstructionRecipe,
    PyramidScale,
    Segment,
    box,
    cross_polytope,
    dilate,
    double_pyramid,
    from_vertices,
    polytope_from_dict,
    polytope_to_dict,
    product,
    pyramid,
    realize_recipe,
    recipe_from_dict,
    recipe_to_dict,
    standard_simplex,
    translate,
    unimodular_transform,
)

TRIANGLE = [(1, 0), (0, 3), (3, 1)]
EX4_VERTICES = [(0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3)]


def barycentric_in_triangle(x, verts):
    """Independent membership oracle for a 2D triangle: solve the 3x3
    convex-combination system exactly by Cramer's rule."""
    (x1, y1), (x2, y2), (x3, y3) = verts
    det = Fraction((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))
    assert det != 0
    l2 = Fraction((x[0] - x1) * (y3 - y1) - (x3 - x1) * (x[1] - y1), det)
    l3 = Fraction((x2 - x1) * (x[1] - y1) - (x[0] - x1) * (y2 - y1), det)
    l1 = 1 - l2 - l3
    return l1 >= 0 and l2 >= 0 and l3 >= 0


def reference_in_hull(x, vertices):
    """Exact test for x in conv(vertices) via a rational phase-1 simplex
    with Bland's rule: an oracle that shares nothing with the facets.

    Solves: find lambda >= 0 with V^T lambda = x, sum(lambda) = 1.
    """
    if not vertices:
        return False
    if x in vertices:
        return True
    n = len(x)
    nv = len(vertices)
    rows = n + 1
    # constraint rows [A | I | b], rhs made nonnegative
    tableau: list[list[Fraction]] = []
    for i in range(rows):
        if i < n:
            coeffs = [Fraction(v[i]) for v in vertices]
            rhs = Fraction(x[i])
        else:
            coeffs = [Fraction(1)] * nv
            rhs = Fraction(1)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
        art = [Fraction(0)] * rows
        art[i] = Fraction(1)
        tableau.append(coeffs + art + [rhs])
    # cost row for: minimize sum of artificials
    cost = [Fraction(0)] * (nv + rows + 1)
    for i in range(rows):
        for j in range(nv):
            cost[j] -= tableau[i][j]
        cost[-1] -= tableau[i][-1]
    basis = [nv + i for i in range(rows)]

    while True:
        enter = next((j for j in range(nv) if cost[j] < 0), None)
        if enter is None:
            return cost[-1] == 0
        ratio = None
        leave = None
        for i in range(rows):
            a = tableau[i][enter]
            if a > 0:
                r = tableau[i][-1] / a
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 simplex cannot be unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [c / piv for c in tableau[leave]]
        for i in range(rows):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [c - f * p for c, p in zip(tableau[i], tableau[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [c - f * p for c, p in zip(cost, tableau[leave])]
        basis[leave] = enter


# ---------------------------------------------------------------------------
# construction and membership
# ---------------------------------------------------------------------------

def test_from_vertices_triangle():
    t = from_vertices(2, TRIANGLE)
    assert t.dim == 2
    assert set(t.vertices) == set(TRIANGLE)


def test_from_vertices_prunes_collinear_point():
    seg = from_vertices(1, [(0,), (2,), (5,)])
    assert seg.vertices == ((0,), (5,))


def test_from_vertices_single_point():
    p = from_vertices(2, [(0, 0)])
    assert p.vertices == ((0, 0),)


def test_from_vertices_rejects_bad_input():
    with pytest.raises(ValueError):
        from_vertices(2, [])
    with pytest.raises(ValueError):
        from_vertices(2, [(1, 2, 3)])


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, "1"], ids=["bool", "numpy bool", "float", "str"])
def test_coordinates_must_be_integers(bad):
    with pytest.raises(ValueError, match=r"^a coordinate must be an integer, got "):
        from_vertices(1, [(0,), (bad,)])
    assert from_vertices(1, [(np.uint8(0),), (np.int64(2),)]).vertices == ((0,), (2,))


def test_contains_point_matches_barycentric_oracle():
    t = from_vertices(2, TRIANGLE)
    for x in [(2, 1), (0, 0), (1, 1), (3, 3), (2, 2), (1, 0)]:
        assert t.contains_point(x) == barycentric_in_triangle(x, TRIANGLE)
    assert t.contains_point((2, 1))
    assert not t.contains_point((0, 0))


def test_vertices_are_contained():
    t = from_vertices(3, EX4_VERTICES)
    for v in t.vertices:
        assert t.contains_point(v)


def test_contains_point_dimension_mismatch():
    t = from_vertices(2, TRIANGLE)
    with pytest.raises(ValueError):
        t.contains_point((1, 2, 3))


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def test_triangle_has_six_lattice_points():
    t = from_vertices(2, TRIANGLE)
    assert t.lattice_points == (
        (0, 3), (1, 0), (1, 1), (1, 2), (2, 1), (3, 1),
    )


@pytest.mark.parametrize("sides", [(1,), (2, 3), (1, 1, 2)])
def test_box_lattice_point_count(sides):
    expected = 1
    for a in sides:
        expected *= a + 1
    assert len(box(sides).lattice_points) == expected


def test_ex4_thirteen_lattice_points():
    p = from_vertices(3, EX4_VERTICES)
    pts = set(p.lattice_points)
    assert len(pts) == 13
    for v in EX4_VERTICES:
        assert v in pts
    for extra in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)]:
        assert extra in pts


def test_lattice_points_match_membership_over_bounding_box():
    p = from_vertices(2, [(0, 0), (2, 1), (1, 3)])
    lo, hi = p.bounding_box
    expected = [
        (x, y)
        for x in range(lo[0], hi[0] + 1)
        for y in range(lo[1], hi[1] + 1)
        if p.contains_point((x, y))
    ]
    assert list(p.lattice_points) == expected


def random_hull_case(rng):
    """A dimension n in 1..4 and 1-8 integer points in [-3, 5]^n.

    About 40 % are affine images of Z^k with k < n (repeated points,
    collinear points, coplanar points); the rest are drawn from a window of
    [-3, 5]^n small enough that the Fraction reference stays affordable on
    every point of the bounding box.
    """
    n = rng.randint(1, 4)
    if n > 1 and rng.random() < 0.4:
        k = rng.randrange(min(n, 3))
        while True:
            base = [rng.randint(-3, 5) for _ in range(n)]
            dirs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]
            pts = []
            for _ in range(rng.randint(1, 8)):
                ts = [rng.randint(0, 3 - k) for _ in range(k)]
                pts.append(tuple(b + sum(t * d[i] for t, d in zip(ts, dirs))
                                 for i, b in enumerate(base)))
            if all(-3 <= c <= 5 for p in pts for c in p):
                return n, pts
    width = rng.randint(1, (8, 5, 2, 1)[n - 1])
    lo = [rng.randint(-3, 5 - width) for _ in range(n)]
    return n, [tuple(rng.randint(a, a + width) for a in lo) for _ in range(rng.randint(1, 8))]


def test_halfspaces_match_the_simplex_reference_seeded_sweep():
    rng = random.Random(2009)
    mismatches = []
    for _ in range(600):
        n, pts = random_hull_case(rng)
        unique = sorted(set(pts))
        vertices = [p for p in unique if not reference_in_hull(p, [v for v in unique if v != p])]
        lo = [min(c) for c in zip(*unique)]
        hi = [max(c) for c in zip(*unique)]
        box_points = list(itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]))
        inside = [reference_in_hull(x, vertices) for x in box_points]
        poly = from_vertices(n, pts)
        if (
            list(poly.vertices) != vertices
            or list(poly.lattice_points) != [x for x, i in zip(box_points, inside) if i]
            or [poly.contains_point(x) for x in box_points] != inside
        ):
            mismatches.append((n, pts))
    assert mismatches == []


@pytest.mark.parametrize(
    "make,dim,facets,points",
    [
        (lambda: box([1] * 6), 6, 12, 64),
        (lambda: cross_polytope(6, 1), 6, 64, 13),
        (lambda: pyramid(box([1] * 4)), 5, 9, 17),
        (lambda: from_vertices(3, [(0, 0, 0), (2, 4, 6)]), 1, 2, 3),
        (lambda: from_vertices(3, [(1, 2, 3)]), 0, 0, 1),
    ],
)
def test_facet_and_equality_counts(make, dim, facets, points):
    p = make()
    h = p.halfspaces
    assert len(h.equalities) == p.dim - dim
    assert len(h.facets) == facets
    assert len(p.lattice_points) == points
    assert all(math.gcd(*row) == 1 for row, _ in h.equalities + h.facets)


def test_halfspaces_of_a_segment_in_space():
    seg = from_vertices(3, [(2, 4, 6), (0, 0, 0), (1, 2, 3)])
    assert seg.vertices == ((0, 0, 0), (2, 4, 6))
    assert seg.lattice_points == ((0, 0, 0), (1, 2, 3), (2, 4, 6))
    assert not seg.contains_point((1, 2, 4))
    assert not seg.contains_point((3, 6, 9))


def test_lattice_points_beyond_int64_is_one_value_error():
    far = from_vertices(2, [(1 << 63, 0)])
    assert far.contains_point((1 << 63, 0))
    with pytest.raises(ValueError, match="2\\^63"):
        far.lattice_points


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def test_product_rectangle():
    r = product(box([2]), box([3]))
    assert set(r.vertices) == {(0, 0), (2, 0), (0, 3), (2, 3)}


def test_product_prism():
    prism = product(from_vertices(2, TRIANGLE), box([1]))
    assert prism.dim == 3
    assert set(prism.vertices) == {v + (h,) for v in TRIANGLE for h in (0, 1)}
    assert len(prism.lattice_points) == 12


def test_product_with_point_appends_coordinate():
    p = from_vertices(1, [(0,), (2,)])
    origin = from_vertices(1, [(0,)])
    r = product(p, origin)
    assert set(r.vertices) == {(0, 0), (2, 0)}


def test_pyramid_over_segment_is_unit_simplex():
    p = pyramid(box([1]))
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}


def test_pyramid_over_triangle():
    p = pyramid(from_vertices(2, TRIANGLE))
    assert set(p.vertices) == {v + (0,) for v in TRIANGLE} | {(0, 0, 1)}
    assert len(p.lattice_points) == 6 + 1


def test_double_pyramid_matches_cross_polytope():
    # shift [0,2] to [-1,1] first; the double pyramid then reproduces the
    # translated 2D cross polytope after a shift in the base direction
    base = from_vertices(1, [(-1,), (1,)])
    dp = translate(double_pyramid(base), (1, 0))
    assert set(dp.vertices) == set(cross_polytope(2, 1).vertices)


def test_double_pyramid_counts():
    q = box([1])
    dp = double_pyramid(q)
    assert dp.dim == q.dim + 1
    assert len(dp.lattice_points) == len(q.lattice_points) + 2


def test_double_pyramid_prunes_midpoint_apex_base():
    # (0, 1) is the midpoint of the two apexes, so it is not a vertex
    dp = double_pyramid(box([2]))
    assert set(dp.vertices) == {(0, 0), (0, 2), (2, 1)}


def test_dilate_simplex():
    k3 = dilate(standard_simplex(2), 3)
    assert set(k3.vertices) == {(0, 0), (3, 0), (0, 3)}
    assert len(k3.lattice_points) == 10


def test_dilate_identity_and_zero():
    t = from_vertices(2, TRIANGLE)
    assert dilate(t, 1) == t
    assert dilate(t, 0).vertices == ((0, 0),)
    with pytest.raises(ValueError):
        dilate(t, -1)


def test_translate():
    t = from_vertices(2, TRIANGLE)
    assert translate(t, (0, 0)) == t
    diamond = translate(from_vertices(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]), (1, 1))
    assert set(diamond.vertices) == {(2, 1), (0, 1), (1, 2), (1, 0)}
    assert translate(translate(t, (4, -2)), (-4, 2)) == t


def test_cross_polytope():
    assert set(cross_polytope(1, 1).vertices) == {(0,), (2,)}
    assert set(cross_polytope(2, 1).vertices) == {(2, 1), (0, 1), (1, 2), (1, 0)}
    assert set(cross_polytope(2, 2).vertices) == {(4, 2), (0, 2), (2, 4), (2, 0)}
    with pytest.raises(ValueError):
        cross_polytope(0, 1)


def test_standard_simplex_and_box():
    assert len(standard_simplex(2).lattice_points) == 3
    assert len(box([1, 1, 1]).lattice_points) == 8
    with pytest.raises(ValueError):
        box([])


def test_unimodular_transform():
    t = from_vertices(2, TRIANGLE)
    assert unimodular_transform(t, [(1, 0), (0, 1)], (0, 0)) == t
    swapped = unimodular_transform(box([1, 2]), [(0, 1), (1, 0)], (0, 0))
    assert swapped == box([2, 1])
    shear = unimodular_transform(box([1, 1]), [(1, 1), (0, 1)], (0, 0))
    assert len(shear.lattice_points) == 4
    with pytest.raises(ValueError, match="unimodular"):
        unimodular_transform(t, [(2, 0), (0, 1)], (0, 0))


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def test_recipe_validation():
    with pytest.raises(ValueError):
        ConstructionRecipe(())
    with pytest.raises(ValueError, match="first"):
        ConstructionRecipe((PyramidScale(1),))
    with pytest.raises(ValueError):
        ConstructionRecipe((Segment(0),))


def test_realize_segment_then_pyramid_is_dilated_simplex():
    for k in (1, 2, 3):
        r = ConstructionRecipe((Segment(1), PyramidScale(k)))
        assert realize_recipe(r) == dilate(standard_simplex(2), k)


def test_realize_segments_is_box():
    r = ConstructionRecipe((Segment(2), Segment(3)))
    assert realize_recipe(r) == box([2, 3])


def test_realize_simplex_box_mix():
    # k-dilate of the 1-fold pyramid over the unit square
    r = ConstructionRecipe((Segment(1), Segment(1), PyramidScale(2)))
    p = realize_recipe(r)
    assert p == dilate(pyramid(box([1, 1])), 2)
    assert p.dim == 3


def test_recipe_index_sets():
    r = ConstructionRecipe((Segment(1), PyramidScale(2), Segment(3)))
    assert r.segment_positions() == [0, 2]


# ---------------------------------------------------------------------------
# cube condition
# ---------------------------------------------------------------------------

def test_fits_in_cube():
    t = from_vertices(2, TRIANGLE)
    assert t.fits_in_cube(5)
    assert not t.fits_in_cube(4)
    origin = from_vertices(1, [(0,)])
    assert origin.fits_in_cube(2)


# ---------------------------------------------------------------------------
# counting invariants
# ---------------------------------------------------------------------------

def random_small_polytope(rng, dim):
    while True:
        pts = [tuple(rng.randrange(0, 4) for _ in range(dim)) for _ in range(dim + 2)]
        try:
            return from_vertices(dim, pts)
        except ValueError:
            continue


def test_product_count_is_multiplicative():
    rng = random.Random(7)
    for _ in range(5):
        p = random_small_polytope(rng, 1)
        q = random_small_polytope(rng, 2)
        pq = product(p, q)
        assert len(pq.lattice_points) == len(p.lattice_points) * len(q.lattice_points)


@pytest.mark.parametrize("base,kmax", [(box([2]), 3), (standard_simplex(2), 3)])
def test_pyramid_dilate_count_recursion(base, kmax):
    for k in range(kmax + 1):
        kp = dilate(pyramid(base), k)
        expected = sum(len(dilate(base, l).lattice_points) for l in range(k + 1))
        assert len(kp.lattice_points) == expected


def test_unimodular_transform_preserves_count():
    p = from_vertices(2, [(0, 0), (2, 1), (1, 3)])
    moved = unimodular_transform(p, [(1, 2), (0, 1)], (3, 1))
    assert len(moved.lattice_points) == len(p.lattice_points)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_polytope_json_roundtrip():
    t = from_vertices(2, TRIANGLE)
    assert polytope_from_dict(polytope_to_dict(t)) == t
    with pytest.raises(ValueError):
        polytope_from_dict({"vertices": [[0, 0]]})


def test_recipe_json_roundtrip():
    r = ConstructionRecipe((Segment(1), PyramidScale(2)))
    assert recipe_from_dict(recipe_to_dict(r)) == r
    with pytest.raises(ValueError, match="unknown"):
        recipe_from_dict({"steps": [{"segment": 1}, {"weird": 2}]})
    with pytest.raises(ValueError):
        recipe_from_dict({"steps": [{"segment": 1, "pyramid_scale": 2}]})
