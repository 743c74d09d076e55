"""Lattice polytopes in Z^n: the vertices and one exact integer H-representation.

A `LatticePolytope` stores its vertices and, computed once (by
`from_vertices`, or on first use), primitive integer rows with

    P = {x in R^n : E x = e, A x <= b},   one row of A per facet.

Every membership question (`lattice_points`, `contains_point`, the vertex
pruning of `from_vertices`) evaluates these rows. No fraction
and no floating point is used anywhere in this module. Constructions cover
products, pyramids, double pyramids, dilates, translates, boxes, simplices,
cross polytopes and the step-recipe builder.

Soundness
---------
Affine hull. Exact integer elimination (`_bareiss`) of the rows v - v0
gives the dimension d of P and its pivot coordinates c_1 < ... < c_d. For
every other coordinate f, the cofactor null vector of d independent rows
restricted to the columns (c_1, ..., c_d, f) is orthogonal to every v - v0
and is nonzero at f alone among the non-pivot coordinates; these n - d rows
are independent, so they are E, with e = E v0. The projection pi onto the
pivot coordinates is injective on aff(P): the pivot columns of the echelon
form are independent, so a vector of the row space of the v - v0 that
vanishes on them is zero. Hence x is in P iff E x = e and pi(x) is in pi(P),
and pi(P) is full-dimensional in R^d.

Facets. For the full-dimensional Q = pi(P) = conv(y_i), the valid
inequalities a.y + beta >= 0 form the cone K = {(a, beta) : (y_i, 1).(a, beta)
>= 0 for every i}, the dual of the cone C over Q x {1}. The (y_i, 1) span
R^{d+1}, so K is pointed and its extreme rays are dual to the facets of C;
Q is bounded, so every facet of C is the cone over a facet of Q. The extreme
rays of K are therefore exactly Q's facets, one ray each. The double
description method (Fukuda & Prodon, "Double description method revisited",
1996) finds them: start from the simplicial cone of d + 1 independent
constraints, whose rays are cofactor null vectors; insert the other
constraints one at a time, keep the rays on the nonnegative side and
combine every adjacent pair that the new hyperplane separates. Two rays
are adjacent iff no third ray is tight at every constraint tight at both
(the combinatorial test). Each ray is divided by the gcd of its entries,
so it is the primitive integer row of its facet.

Vertices. A point of P is a vertex iff the facets tight at it have rank d;
for d = 0, P is its single point.

Box pass. `lattice_points` tests every integer point z of the shifted box
[0, L], L = hi - lo, against A z <= b - A lo and E z = e - E lo in int64.
For a row a, the sum_j |a_j| max(L_j, 1) bounds every entry |a_j|, every
partial sum of a.z, and the right-hand side, which a.z attains at a vertex
of P in the box. Checking in Python ints, before the pass, that these sums
and the box's coordinates are below 2^63 therefore rules out overflow; a
polytope that fails it raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct

import numpy as np

Vector = tuple[int, ...]

# box points tested per numpy pass of `lattice_points`
_BOX_CHUNK = 1 << 14


def _as_int(value, what: str) -> int:
    """value as an int; a bool, a non-integral number or a non-number is a
    ValueError naming `what`."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return out


def _as_int_vector(point, n: int | None = None) -> Vector:
    try:
        vec = tuple(point)
    except TypeError as exc:
        raise ValueError(f"expected a vector, got {point!r}") from exc
    if n is not None and len(vec) != n:
        raise ValueError(f"expected a vector of length {n}, got {point!r}")
    return tuple(_as_int(c, "a coordinate") for c in vec)


def _dot(a, x) -> int:
    return sum(ai * xi for ai, xi in zip(a, x))


def _primitive(vec) -> Vector:
    g = math.gcd(*vec)
    return tuple(c // g for c in vec)


def _bareiss(mat) -> tuple[list[list[int]], list[int], list[int], int]:
    """The fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (echelon, pivots, order, sign): row r < rank of the echelon form
    has its pivot in column pivots[r] and is a combination of the original
    rows order[0..r], rows at and past the rank are zero, and sign is the
    parity of the row swaps. Every division is exact (Sylvester's identity),
    and for a square nonsingular matrix the last pivot is sign * det.
    """
    a = [list(row) for row in mat]
    order = list(range(len(a)))
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        swap = next((i for i in range(r, len(a)) if a[i][c]), None)
        if swap is None:
            continue
        if swap != r:
            a[r], a[swap] = a[swap], a[r]
            order[r], order[swap] = order[swap], order[r]
            sign = -sign
        for i in range(r + 1, len(a)):
            for j in range(c + 1, len(a[i])):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        pivots.append(c)
    return a, pivots, order, sign


def _int_det(mat) -> int:
    """Determinant of a small square integer matrix (1 for the empty one)."""
    a, pivots, _, sign = _bareiss(mat)
    if len(pivots) < len(a):
        return 0
    return sign * a[-1][-1] if a else 1


def _null_vector(rows, cols) -> list[int]:
    """Integer vector on the columns cols (k + 1 of them) orthogonal to the
    k independent rows restricted to cols: its entries are the signed
    maximal minors, so each row's product with it is a determinant with a
    repeated row."""
    return [
        (-1) ** i * _int_det([[row[c] for c in cols if c != col] for row in rows])
        for i, col in enumerate(cols)
    ]


def _extreme_rays(rows: list[Vector]) -> list[Vector]:
    """Primitive extreme rays of {y : m.y >= 0 for every row m}, by the
    double description method; the rows must span the whole space."""
    width = len(rows[0])
    start = _bareiss(rows)[2][:width]
    rays, tight = [], []  # tight[k]: bit i for each inserted row i with rows[i].rays[k] = 0
    for j in start:
        ray = _null_vector([rows[i] for i in start if i != j], range(width))
        if _dot(rows[j], ray) < 0:
            ray = [-c for c in ray]
        rays.append(_primitive(ray))
        tight.append(sum(1 << i for i in start if i != j))
    inserted = set(start)
    for i, m in enumerate(rows):
        if i in inserted:
            continue
        vals = [_dot(m, r) for r in rays]
        kept = [k for k, v in enumerate(vals) if v >= 0]
        new_rays = [rays[k] for k in kept]
        new_tight = [tight[k] | (1 << i if vals[k] == 0 else 0) for k in kept]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = tight[p] & tight[q]
                if common.bit_count() < width - 2:
                    continue
                if any((common & ~z) == 0 for k, z in enumerate(tight) if k != p and k != q):
                    continue
                new_rays.append(_primitive([vp * a - vq * b for a, b in zip(rays[q], rays[p])]))
                new_tight.append(common | 1 << i)
        rays, tight = new_rays, new_tight
    return rays


@dataclass(frozen=True)
class HalfSpaces:
    """P = {x : a.x == c for (a, c) in equalities, a.x <= c for (a, c) in facets}.

    Every row is primitive; there is one facet row per facet of P and
    n - dim(P) equality rows.
    """

    equalities: tuple[tuple[Vector, int], ...]
    facets: tuple[tuple[Vector, int], ...]


def _halfspaces(points: list[Vector]) -> HalfSpaces:
    """The exact H-representation of conv(points); see the module docstring."""
    v0 = points[0]
    n = len(v0)
    diffs = [tuple(c - c0 for c, c0 in zip(v, v0)) for v in points[1:]]
    _, pivots, order, _ = _bareiss(diffs)
    basis = [diffs[i] for i in order[: len(pivots)]]
    equalities = []
    for f in range(n):
        if f not in pivots:
            row = [0] * n
            cols = pivots + [f]
            for c, x in zip(cols, _null_vector(basis, cols)):
                row[c] = x
            row = _primitive(row)
            equalities.append((row, _dot(row, v0)))
    facets = []
    if pivots:
        # a ray (a, beta) of K is the facet a.pi(x) + beta >= 0
        for ray in _extreme_rays([tuple(v[c] for c in pivots) + (1,) for v in points]):
            row = [0] * n
            for c, a in zip(pivots, ray):
                row[c] = -a
            facets.append((tuple(row), ray[-1]))
    return HalfSpaces(tuple(equalities), tuple(facets))


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of integer points, stored as its extreme points."""

    dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a polytope needs at least one vertex")

    @cached_property
    def halfspaces(self) -> HalfSpaces:
        """Equalities and facets, computed once; see the module docstring."""
        return _halfspaces(list(self.vertices))

    def contains_point(self, point) -> bool:
        x = _as_int_vector(point, self.dim)
        h = self.halfspaces
        return all(_dot(a, x) == c for a, c in h.equalities) and all(
            _dot(a, x) <= c for a, c in h.facets
        )

    @cached_property
    def bounding_box(self) -> tuple[Vector, Vector]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.dim))
        return lo, hi

    @cached_property
    def lattice_points(self) -> tuple[Vector, ...]:
        """All integer points of the polytope in lexicographic order.

        This order is frozen: it is the generator-matrix row order. The box
        is tested in C order (last coordinate fastest), which is
        lexicographic, `_BOX_CHUNK` points per numpy pass.
        """
        lo, hi = self.bounding_box
        h = self.halfspaces
        span = [b - a for a, b in zip(lo, hi)]
        rows = h.equalities + h.facets
        bound = max(
            [abs(c) for c in lo + hi]
            + [sum(abs(a) * max(s, 1) for a, s in zip(row, span)) for row, _ in rows]
        )
        if bound >= 1 << 63:
            raise ValueError(
                f"polytope too large for the int64 lattice-point pass: "
                f"a row or coordinate bound reaches {bound} >= 2^63"
            )

        def shifted(pairs):
            mat = np.array([row for row, _ in pairs], dtype=np.int64).reshape(-1, self.dim)
            rhs = np.array([c - _dot(row, lo) for row, c in pairs], dtype=np.int64)
            return mat, rhs[:, None]

        eq, eq_rhs = shifted(h.equalities)
        ineq, ineq_rhs = shifted(h.facets)
        shape = tuple(s + 1 for s in span)
        total = math.prod(shape)
        found = []
        for start in range(0, total, _BOX_CHUNK):
            z = np.stack(np.unravel_index(np.arange(start, min(start + _BOX_CHUNK, total)), shape))
            keep = (ineq @ z <= ineq_rhs).all(axis=0) & (eq @ z == eq_rhs).all(axis=0)
            found.append(z[:, keep])
        points = np.concatenate(found, axis=1).T + np.array(lo, dtype=np.int64)
        return tuple(map(tuple, points.tolist()))

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
    h = _halfspaces(unique)
    d = n - len(h.equalities)
    extreme = tuple(
        p for p in unique
        if len(_bareiss([a for a, c in h.facets if _dot(a, p) == c])[1]) == d
    )
    poly = LatticePolytope(n, extreme)
    poly.__dict__["halfspaces"] = h  # conv(unique) == conv(extreme)
    return poly


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
        n = data["n"]
        vertices = data["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"polytope JSON needs 'n' and 'vertices': {exc}") from exc
    if not isinstance(vertices, list):
        raise ValueError(f"polytope 'vertices' must be a list, got {vertices!r}")
    return from_vertices(_as_int(n, "polytope 'n'"), vertices)


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
    if not isinstance(raw_steps, list):
        raise ValueError(f"recipe 'steps' must be a list, got {raw_steps!r}")
    steps: list[Step] = []
    for i, item in enumerate(raw_steps):
        if not isinstance(item, dict) or len(item) != 1:
            raise ValueError(f"recipe step {i} must be a one-key object, got {item!r}")
        (key, value), = item.items()
        if key == "segment":
            steps.append(Segment(_as_int(value, f"recipe step {i} 'segment'")))
        elif key == "pyramid_scale":
            steps.append(PyramidScale(_as_int(value, f"recipe step {i} 'pyramid_scale'")))
        else:
            raise ValueError(f"recipe step {i} has unknown kind {key!r}")
    return ConstructionRecipe(tuple(steps))
