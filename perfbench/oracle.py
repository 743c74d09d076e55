"""Answers computed apart from toricode.

Nothing here imports toricode. The benchmark checks every output of the
program against these functions:

* the paper's closed forms for the minimum distance (product theorem,
  k-dilated pyramid theorem and their corollaries for boxes, simplices and
  step recipes);
* Ehrhart counts of lattice points (C(n+k, n) for simplex dilates,
  prod(a_i + 1) for boxes, and the product/pyramid recursion for recipes);
* lattice-point enumeration and vertices of recipe polytopes;
* GF(p^m) arithmetic built from the field's public modulus and primitive
  element, used to re-evaluate witnesses and generator entries;
* a plain brute-force minimum weight, the reference for the tests.

A recipe is a tuple of steps ("S", a) (multiply by the segment [0, a]) and
("P", f) (take the unit pyramid, then dilate by f); the first step is a
segment.
"""

from __future__ import annotations

from itertools import product as iproduct
from math import comb, prod


# ---------------------------------------------------------------------------
# closed-form minimum distances
# ---------------------------------------------------------------------------

def d_box(sides, q: int) -> int:
    """Box prod [0, a_i]: product theorem over segments, d([0, a]) = q-1-a."""
    return prod(q - 1 - a for a in sides)


def d_simplex(n: int, k: int, q: int) -> int:
    """k-dilated standard n-simplex: (q-1)^(n-1) (q-1-k)."""
    return (q - 1) ** (n - 1) * (q - 1 - k)


def d_recipe(recipe, q: int) -> int:
    """(q-1)^|J| * prod_{i in I} (q - 1 - a_i * prod_{j in J, j > i} f_j).

    I holds the segment steps, J the pyramid steps; each pyramid step
    multiplies d by q-1 (pyramid theorem) and each segment step is a
    product factor (product theorem).
    """
    d = 1
    for i, (kind, value) in enumerate(recipe):
        if kind == "P":
            d *= q - 1
        else:
            later = prod(f for kd, f in recipe[i + 1:] if kd == "P")
            d *= q - 1 - value * later
    return d


def recipe_valid(recipe, q: int) -> bool:
    """Every segment factor of d_recipe is positive."""
    for i, (kind, value) in enumerate(recipe):
        if kind == "S":
            later = prod(f for kd, f in recipe[i + 1:] if kd == "P")
            if q - 1 - value * later <= 0:
                return False
    return True


# ---------------------------------------------------------------------------
# lattice points
# ---------------------------------------------------------------------------

def count_simplex(n: int, k: int) -> int:
    return comb(n + k, n)


def count_box(sides) -> int:
    return prod(a + 1 for a in sides)


def count_recipe(recipe, t: int = 1) -> int:
    """Lattice points of the t-dilate of a recipe polytope.

    L_{P x [0,a]}(t) = L_P(t) (a t + 1) and, for Q = f Pyr(P),
    L_Q(t) = sum_{l=0}^{f t} L_P(l).
    """
    kind, value = recipe[-1]
    rest = recipe[:-1]
    if kind == "S":
        return (count_recipe(rest, t) if rest else 1) * (value * t + 1)
    return sum(count_recipe(rest, l) for l in range(value * t + 1))


def points_recipe(recipe, t: int = 1) -> list[tuple[int, ...]]:
    """Lattice points of the t-dilate of a recipe polytope, sorted.

    The t-dilate of f Pyr(P) holds (x, h) with 0 <= h <= f t and
    x in (f t - h) P, because the apex sits over the origin of P.
    """
    kind, value = recipe[-1]
    rest = recipe[:-1]
    if kind == "S":
        base = points_recipe(rest, t) if rest else [()]
        return sorted(x + (h,) for x in base for h in range(value * t + 1))
    top = value * t
    return sorted(x + (h,) for h in range(top + 1) for x in points_recipe(rest, top - h))


def points_simplex(n: int, k: int) -> list[tuple[int, ...]]:
    return [x for x in iproduct(range(k + 1), repeat=n) if sum(x) <= k]


def points_box(sides) -> list[tuple[int, ...]]:
    return list(iproduct(*[range(a + 1) for a in sides]))


def vertices_recipe(recipe) -> list[tuple[int, ...]]:
    """A vertex set of the recipe polytope (may include redundant points)."""
    verts = [(0,), (recipe[0][1],)]
    for kind, value in recipe[1:]:
        if kind == "S":
            verts = [v + (h,) for v in verts for h in (0, value)]
        else:
            n = len(verts[0])
            verts = [tuple(value * c for c in v) + (0,) for v in verts]
            verts.append((0,) * n + (value,))
    return verts


def vertices_simplex(n: int, k: int) -> list[tuple[int, ...]]:
    return [(0,) * n] + [tuple(k if j == i else 0 for j in range(n)) for i in range(n)]


def vertices_box(sides) -> list[tuple[int, ...]]:
    return list(iproduct(*[(0, a) for a in sides]))


def points_triangle(tri) -> list[tuple[int, int]]:
    """Lattice points of a lattice triangle by exact orientation tests."""
    (ax, ay), (bx, by), (cx, cy) = tri

    def side(px, py, qx, qy, x, y):
        return (qx - px) * (y - py) - (qy - py) * (x - px)

    orient = side(ax, ay, bx, by, cx, cy)
    xs = range(min(ax, bx, cx), max(ax, bx, cx) + 1)
    ys = range(min(ay, by, cy), max(ay, by, cy) + 1)
    return [
        (x, y) for x in xs for y in ys
        if side(ax, ay, bx, by, x, y) * orient >= 0
        and side(bx, by, cx, cy, x, y) * orient >= 0
        and side(cx, cy, ax, ay, x, y) * orient >= 0
    ]


def translate(points, shift) -> list[tuple[int, ...]]:
    return [tuple(c + s for c, s in zip(p, shift)) for p in points]


# ---------------------------------------------------------------------------
# GF(p^m) from its modulus and primitive element
# ---------------------------------------------------------------------------

def prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m, or None when q is not a prime power."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


class Field:
    """GF(p^m) on canonical integers sum c_i p^i, built from scratch.

    Products are polynomial products modulo `modulus`. `primitive` must have
    multiplicative order exactly q-1, which also proves the modulus
    irreducible: the quotient ring then has q-1 units. Fields up to
    TABLE_CAP elements get power and log tables for fast products.
    """

    TABLE_CAP = 1 << 10

    def __init__(self, p: int, m: int, modulus, primitive: int):
        self.p, self.m, self.q = p, m, p**m
        self.modulus = [int(c) for c in modulus]
        if len(self.modulus) != m + 1 or self.modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {m}")
        self.primitive = int(primitive)
        order = self.q - 1
        factors = {f for f in range(2, order + 1) if order % f == 0
                   and all(f % g for g in range(2, int(f**0.5) + 1))}
        if self._pow(self.primitive, order) != 1 or any(
            self._pow(self.primitive, order // f) == 1 for f in factors
        ):
            raise ValueError(f"{primitive} is not primitive modulo {modulus}")
        self.power = None
        if self.q <= self.TABLE_CAP:
            self.power = [1]
            for _ in range(order - 1):
                self.power.append(self._poly_mul(self.power[-1], self.primitive))
            self.log = {v: e for e, v in enumerate(self.power)}

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = self._digits(a), self._digits(b)
        acc = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                acc[i + j] = (acc[i + j] + x * y) % p
        for i in range(2 * m - 2, m - 1, -1):
            c = acc[i]
            if c:
                for j, mj in enumerate(self.modulus):
                    acc[i - m + j] = (acc[i - m + j] - c * mj) % p
        return sum(c * p**i for i, c in enumerate(acc[:m]))

    def _pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._poly_mul(out, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return out

    def power_of_primitive(self, e: int) -> int:
        e %= self.q - 1
        return self.power[e] if self.power else self._pow(self.primitive, e)

    def add(self, a: int, b: int) -> int:
        p = self.p
        out, scale = 0, 1
        for _ in range(self.m):
            out += ((a % p + b % p) % p) * scale
            a //= p
            b //= p
            scale *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.power is None:
            return self._poly_mul(a, b)
        return self.power[(self.log[a] + self.log[b]) % (self.q - 1)]


def torus_exponent(index: int, n: int, q: int) -> tuple[int, ...]:
    """Exponent vector of torus column `index` in lexicographic order."""
    digits = []
    for _ in range(n):
        digits.append(index % (q - 1))
        index //= q - 1
    return tuple(reversed(digits))


def generator_entry(field: Field, monomial, exponent) -> int:
    """g^<m, j>: the value of monomial m at torus point g^j."""
    return field.power_of_primitive(sum(a * b for a, b in zip(monomial, exponent)))


def codeword(field: Field, monomials, message) -> list[int]:
    """Evaluations of sum_m c_m x^m at every torus point, lexicographic order."""
    n = len(monomials[0])
    terms = [(m, c) for m, c in zip(monomials, message) if c]
    out = []
    for exponent in iproduct(range(field.q - 1), repeat=n):
        v = 0
        for m, c in terms:
            v = field.add(v, field.mul(c, generator_entry(field, m, exponent)))
        out.append(v)
    return out


def weight(field: Field, monomials, message) -> int:
    return sum(1 for v in codeword(field, monomials, message) if v)


def brute_min_weight(field: Field, monomials) -> int:
    """Minimum weight over every nonzero message; tiny codes only."""
    best = None
    for message in iproduct(range(field.q), repeat=len(monomials)):
        if any(message):
            w = weight(field, monomials, message)
            best = w if best is None else min(best, w)
    return best
