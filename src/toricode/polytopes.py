"""Lattice polytopes in Z^n, V-representation only.

Membership is decided by an exact rational phase-1 simplex (Bland's rule),
so there are no epsilon tolerances anywhere in this module. Constructions
cover products, pyramids, double pyramids, dilates, translates, boxes,
simplices, cross polytopes and the step-recipe builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _iproduct

Vector = tuple[int, ...]


def _as_int_vector(point, n: int | None = None) -> Vector:
    vec = tuple(point)
    if n is not None and len(vec) != n:
        raise ValueError(f"expected a vector of length {n}, got {point!r}")
    out = []
    for c in vec:
        ci = int(c)
        if ci != c:
            raise ValueError(f"non-integer coordinate {c!r} in {point!r}")
        out.append(ci)
    return tuple(out)


def _point_in_hull(x: Vector, vertices: list[Vector]) -> bool:
    """Exact test for x in conv(vertices) via a phase-1 simplex.

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


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of integer points, stored as its extreme points."""

    dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")

    def contains_point(self, point) -> bool:
        x = _as_int_vector(point, self.dim)
        lo, hi = self.bounding_box
        if any(not lo[i] <= x[i] <= hi[i] for i in range(self.dim)):
            return False
        return _point_in_hull(x, list(self.vertices))

    @cached_property
    def bounding_box(self) -> tuple[Vector, Vector]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lo, hi

    @cached_property
    def lattice_points(self) -> tuple[Vector, ...]:
        """All integer points of the polytope in lexicographic order.

        This order is frozen: it is the generator-matrix row order.
        """
        lo, hi = self.bounding_box
        ranges = [range(lo[i], hi[i] + 1) for i in range(self.dim)]
        return tuple(p for p in _iproduct(*ranges) if self.contains_point(p))

    def fits_in_cube(self, q: int) -> bool:
        """True iff the polytope lies in [0, q-2]^n."""
        return all(0 <= c <= q - 2 for v in self.vertices for c in v)

    def __repr__(self) -> str:
        return f"LatticePolytope(dim={self.dim}, vertices={list(self.vertices)})"


def from_vertices(n: int, points) -> LatticePolytope:
    """Convex hull of the given integer points with redundant ones pruned."""
    if n < 1:
        raise ValueError(f"ambient dimension must be positive, got {n}")
    pts = [_as_int_vector(p, n) for p in points]
    if not pts:
        raise ValueError("empty vertex list")
    unique = sorted(set(pts))
    extreme = [
        p for p in unique
        if not _point_in_hull(p, [v for v in unique if v != p])
    ]
    return LatticePolytope(n, tuple(extreme))


def product(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    vertices = [v + w for v in p.vertices for w in q.vertices]
    return from_vertices(p.dim + q.dim, vertices)


def pyramid(q: LatticePolytope) -> LatticePolytope:
    """Unit pyramid: base at height 0, apex at e_{n+1}."""
    apex = (0,) * q.dim + (1,)
    vertices = [v + (0,) for v in q.vertices] + [apex]
    return from_vertices(q.dim + 1, vertices)


def double_pyramid(q: LatticePolytope) -> LatticePolytope:
    """Double pyramid translated by e_{n+1}: base at height 1, apexes at 0 and 2."""
    vertices = [v + (1,) for v in q.vertices]
    vertices.append((0,) * q.dim + (0,))
    vertices.append((0,) * q.dim + (2,))
    return from_vertices(q.dim + 1, vertices)


def dilate(p: LatticePolytope, k: int) -> LatticePolytope:
    if k < 0:
        raise ValueError(f"dilation factor must be nonnegative, got {k}")
    if k == 0:
        return from_vertices(p.dim, [(0,) * p.dim])
    return from_vertices(p.dim, [tuple(k * c for c in v) for v in p.vertices])


def translate(p: LatticePolytope, t) -> LatticePolytope:
    shift = _as_int_vector(t, p.dim)
    return from_vertices(p.dim, [tuple(c + s for c, s in zip(v, shift)) for v in p.vertices])


def standard_simplex(n: int) -> LatticePolytope:
    vertices = [(0,) * n] + [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return from_vertices(n, vertices)


def box(sides) -> LatticePolytope:
    sides = [int(a) for a in sides]
    if not sides or any(a < 1 for a in sides):
        raise ValueError(f"box sides must be positive integers, got {sides}")
    return from_vertices(len(sides), list(_iproduct(*[(0, a) for a in sides])))


def cross_polytope(n: int, k: int) -> LatticePolytope:
    """k-dilate of the cross polytope translated into the positive orthant:
    k * (conv{e_i, -e_i} + (1, ..., 1))."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    vertices = []
    for i in range(n):
        for s in (2 * k, 0):
            vertices.append(tuple(s if j == i else k for j in range(n)))
    return from_vertices(n, vertices)


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a small integer matrix."""
    n = len(mat)
    a = [[int(c) for c in row] for row in mat]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][i]), None)
            if swap is None:
                return 0
            a[i], a[swap] = a[swap], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def unimodular_transform(p: LatticePolytope, u, t) -> LatticePolytope:
    """Apply v -> U v + t; U must have determinant +-1."""
    n = p.dim
    rows = [_as_int_vector(row, n) for row in u]
    if len(rows) != n:
        raise ValueError(f"U must be {n}x{n}")
    if abs(_int_det([list(r) for r in rows])) != 1:
        raise ValueError("U is not unimodular")
    shift = _as_int_vector(t, n)
    mapped = [
        tuple(sum(rows[i][j] * v[j] for j in range(n)) + shift[i] for i in range(n))
        for v in p.vertices
    ]
    return from_vertices(n, mapped)


# ---------------------------------------------------------------------------
# construction recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Step: multiply by the lattice segment [0, length]."""

    length: int


@dataclass(frozen=True)
class PyramidScale:
    """Step: take the unit pyramid, then dilate by factor."""

    factor: int


Step = Segment | PyramidScale


@dataclass(frozen=True)
class ConstructionRecipe:
    """Ordered steps growing a polytope from a point, one dimension each."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("recipe needs at least one step")
        if not isinstance(self.steps[0], Segment):
            raise ValueError("the first recipe step must be a segment")
        for s in self.steps:
            if isinstance(s, Segment):
                if s.length < 1:
                    raise ValueError(f"segment length must be >= 1, got {s.length}")
            elif isinstance(s, PyramidScale):
                if s.factor < 1:
                    raise ValueError(f"pyramid scale must be >= 1, got {s.factor}")
            else:
                raise ValueError(f"unknown recipe step {s!r}")

    @property
    def n(self) -> int:
        return len(self.steps)

    def segment_positions(self) -> list[int]:
        """0-based positions of segment steps (the index set I)."""
        return [i for i, s in enumerate(self.steps) if isinstance(s, Segment)]

    def pyramid_positions(self) -> list[int]:
        """0-based positions of pyramid-dilate steps (the index set J)."""
        return [i for i, s in enumerate(self.steps) if isinstance(s, PyramidScale)]


def realize_recipe(recipe: ConstructionRecipe) -> LatticePolytope:
    """Fold the steps left to right, starting from a point."""
    poly: LatticePolytope | None = None
    for step in recipe.steps:
        if isinstance(step, Segment):
            seg = box([step.length])
            poly = seg if poly is None else product(poly, seg)
        else:
            poly = dilate(pyramid(poly), step.factor)
    return poly


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def polytope_to_dict(p: LatticePolytope) -> dict:
    return {"n": p.dim, "vertices": [list(v) for v in p.vertices]}


def polytope_from_dict(data: dict) -> LatticePolytope:
    try:
        n = int(data["n"])
        vertices = data["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polytope JSON needs 'n' and 'vertices': {exc}") from exc
    return from_vertices(n, vertices)


def recipe_to_dict(r: ConstructionRecipe) -> dict:
    steps = []
    for s in r.steps:
        if isinstance(s, Segment):
            steps.append({"segment": s.length})
        else:
            steps.append({"pyramid_scale": s.factor})
    return {"steps": steps}


def recipe_from_dict(data: dict) -> ConstructionRecipe:
    try:
        raw_steps = data["steps"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"recipe JSON needs 'steps': {exc}") from exc
    steps: list[Step] = []
    for i, item in enumerate(raw_steps):
        if not isinstance(item, dict) or len(item) != 1:
            raise ValueError(f"recipe step {i} must be a one-key object, got {item!r}")
        (key, value), = item.items()
        if key == "segment":
            steps.append(Segment(int(value)))
        elif key == "pyramid_scale":
            steps.append(PyramidScale(int(value)))
        else:
            raise ValueError(f"recipe step {i} has unknown kind {key!r}")
    return ConstructionRecipe(tuple(steps))
