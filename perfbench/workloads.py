"""The benchmark's workloads: which requests each one makes, and the checks.

Every operation is one user request, made through toricode's public
functions with default settings, in a fixed order. The seed moves each
polytope by a lattice translation that keeps it inside the cube [0, q-2]^n
(where it has room). A translation multiplies every generator column by a
nonzero constant, so it changes no weight, no message count and no rank:
the work is the same for every seed.

Expected values come from `oracle`, never from toricode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

# Example 2 of the paper: triangle x [0, 1]; Example 4: a 3-polytope.
TRIANGLE = ((1, 0), (0, 3), (3, 1))
EX4_VERTICES = ((0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3))

# The one search that fails today: 2-dilated 3-simplex over GF(7),
# [216, 10, 144], with this budget in codeword-symbol operations.
FAILING_BUDGET = 2**27


@dataclass
class Search:
    """Build the code of a polytope and search its minimum distance."""

    name: str
    q: int
    vertices: list
    points: list | None   # expected monomials, sorted; None: count only
    N: int
    k: int
    d: int
    method: str = "auto"
    budget: int | None = None


@dataclass
class Build:
    """Build a code and compute the rank of its generator."""

    name: str
    q: int
    vertices: list
    points: list
    N: int
    k: int


@dataclass
class Sweep:
    """params_report of one recipe for each field order in qs."""

    name: str
    recipe: tuple
    qs: list
    rows: list  # expected (q, N, k, d)


def label(recipe) -> str:
    return "[" + ",".join(f"{kind}{v}" for kind, v in recipe) + "]"


def _shift(rng, points, q):
    """A random translation keeping every point inside [0, q-2]^n."""
    top = [max(axis) for axis in zip(*points)]
    return tuple(rng.randint(0, q - 2 - t) for t in top)


def _recipe_search(rng, recipe, q, **kw) -> Search:
    """A recipe code; d by the recipe formula (product and pyramid theorems)."""
    pts = oracle.points_recipe(recipe)
    t = _shift(rng, pts, q)
    return Search(
        f"{label(recipe)}@GF({q})", q,
        oracle.translate(oracle.vertices_recipe(recipe), t), oracle.translate(pts, t),
        (q - 1) ** len(recipe), oracle.count_recipe(recipe), oracle.d_recipe(recipe, q),
        **kw,
    )


def _exhaustive(rng):
    """One code per field family: prime, 2^m, odd p^m."""
    cube = (1, 1, 1)
    t = _shift(rng, oracle.points_box(cube), 7)
    s = _shift(rng, oracle.points_simplex(2, 2), 16)
    return [
        # product theorem: d = prod (q-1-a_i)
        Search("cube[0,1]^3@GF(7)", 7,
               oracle.translate(oracle.vertices_box(cube), t),
               oracle.translate(oracle.points_box(cube), t),
               216, oracle.count_box(cube), oracle.d_box(cube, 7), method="exhaustive"),
        # simplex corollary: d = (q-1)^(n-1) (q-1-k)
        Search("2*simplex2@GF(16)", 16,
               oracle.translate(oracle.vertices_simplex(2, 2), s),
               oracle.translate(oracle.points_simplex(2, 2), s),
               225, oracle.count_simplex(2, 2), oracle.d_simplex(2, 2, 16),
               method="exhaustive"),
        _recipe_search(rng, (("S", 1), ("S", 2), ("P", 1)), 9, method="exhaustive"),
    ]


def _auto_search(rng):
    """The paper's Examples 1, 2 and 4 and recipe codes, through auto dispatch."""
    tri = oracle.points_triangle(TRIANGLE)
    s = _shift(rng, tri, 8)
    t = (0, 0, rng.randint(0, 2))  # the triangle fills [0, 3]^2
    ops = [
        Search("example1-triangle@GF(8)", 8, oracle.translate(TRIANGLE, s),
               oracle.translate(tri, s), 49, 6, 28),
        Search("example2-prism@GF(5)", 5,
               oracle.translate([v + (h,) for v in TRIANGLE for h in (0, 1)], t),
               oracle.translate(sorted(p + (h,) for p in tri for h in (0, 1)), t),
               64, 12, 24),
        # fills [0, 3]^3: no translation
        Search("example4@GF(5)", 5, list(EX4_VERTICES), None, 64, 13, 31),
    ]
    for steps, q in (
        ("S1 S1 S1", 7), ("S2 S2 P1", 7), ("S1 P2 S1", 5),
        ("S1 P1 S1", 7), ("S1 P2", 9), ("S1 P1 S1", 5),
    ):
        recipe = tuple((s[0], int(s[1:])) for s in steps.split())
        ops.append(_recipe_search(rng, recipe, q))
    # fails: the ISD lower bound ignores the torus-translation symmetry
    ops.append(_recipe_search(rng, (("S", 1), ("P", 1), ("P", 2)), 7,
                              budget=FAILING_BUDGET))
    return ops


def _construct(rng):
    """Recipe sweeps, then large-N codes built and ranked; no search."""
    ops = []
    for recipe, qs in (
        ((("S", 2), ("P", 3), ("S", 2), ("P", 2)), [16, 17, 25, 2**16]),
        ((("S", 1), ("P", 2), ("S", 1), ("P", 1)), list(range(4, 129))),
    ):
        qs = [q for q in qs if oracle.prime_power(q) and oracle.recipe_valid(recipe, q)]
        n, k = len(recipe), oracle.count_recipe(recipe)
        ops.append(Sweep(f"table {label(recipe)} q={qs[0]}..{qs[-1]}", recipe, qs,
                         [(q, (q - 1) ** n, k, oracle.d_recipe(recipe, q)) for q in qs]))
    cube_pyr = (("S", 1), ("S", 1), ("S", 1), ("P", 3))
    for name, q, verts, pts, count in (
        (f"{label(cube_pyr)}@GF(16)", 16, oracle.vertices_recipe(cube_pyr),
         oracle.points_recipe(cube_pyr), oracle.count_recipe(cube_pyr)),
        ("8*simplex3@GF(16)", 16, oracle.vertices_simplex(3, 8),
         oracle.points_simplex(3, 8), oracle.count_simplex(3, 8)),
        ("box[3,2,3]@GF(27)", 27, oracle.vertices_box((3, 2, 3)),
         oracle.points_box((3, 2, 3)), oracle.count_box((3, 2, 3))),
        ("segment[0,31]@GF(2^16)", 2**16, oracle.vertices_box((31,)),
         oracle.points_box((31,)), oracle.count_box((31,))),
    ):
        t = _shift(rng, pts, q)
        ops.append(Build(name, q, oracle.translate(verts, t), oracle.translate(pts, t),
                         (q - 1) ** len(pts[0]), count))
    return ops


WORKLOADS = {
    "exhaustive": _exhaustive,
    "auto_search": _auto_search,
    "construct": _construct,
}


def make_ops(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))


def field_orders(ops) -> list[int]:
    qs = set()
    for op in ops:
        qs.update(op.qs if isinstance(op, Sweep) else [op.q])
    return sorted(qs)


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

def run(op, tc, fields):
    """Make the request; `tc` maps layer names to toricode modules."""
    if isinstance(op, Sweep):
        recipe = tc["polytopes"].recipe_from_dict({"steps": [
            {"segment": v} if kind == "S" else {"pyramid_scale": v}
            for kind, v in op.recipe
        ]})
        return [tc["formulas"].params_report(recipe, fields[q]) for q in op.qs]
    poly = tc["polytopes"].from_vertices(len(op.vertices[0]), op.vertices)
    code = tc["codes"].build_code(poly, fields[op.q])
    if isinstance(op, Build):
        return code, tc["codes"].rank_check(code)
    kwargs = {} if op.budget is None else {"budget": op.budget}
    if op.method == "exhaustive":
        return code, tc["mindist"].min_distance_exhaustive(code, **kwargs)
    return code, tc["mindist"].min_distance(code, method="auto", **kwargs)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks outputs against the oracle; caches one oracle field per q."""

    SPOT_CHECKS = 64  # generator entries re-evaluated per built code

    def __init__(self, seed: int):
        self._fields: dict[int, oracle.Field] = {}
        self._rng = random.Random(seed)

    def field(self, spec) -> oracle.Field:
        if spec.q not in self._fields:
            self._fields[spec.q] = oracle.Field(spec.p, spec.m, spec.modulus, spec.generator)
        return self._fields[spec.q]

    def check(self, op, out) -> tuple[bool, list[str]]:
        """(failed, problems): failed marks a search that was not exact."""
        if isinstance(op, Sweep):
            return False, self._sweep(op, out)
        code, result = out
        problems = self._code(op, code)
        if isinstance(op, Build):
            if result != op.k:
                problems.append(f"rank {result} != lattice count {op.k}")
            problems += self._generator(op, code)
            return False, problems
        return not result.exact, problems + self._search(op, code, result)

    def _code(self, op, code) -> list[str]:
        problems = []
        if (code.block_length, code.k) != (op.N, op.k):
            problems.append(f"[N, k] = [{code.block_length}, {code.k}] != [{op.N}, {op.k}]")
        if op.points is not None and list(code.monomials) != op.points:
            problems.append("lattice points differ from the independent enumeration")
        return problems

    def _search(self, op, code, res) -> list[str]:
        problems = []
        if res.exact and not res.d == res.lower == res.upper == op.d:
            problems.append(f"exact d={res.d} [{res.lower}, {res.upper}] != {op.d}")
        if not res.exact and not (res.lower <= op.d <= res.upper and res.d == res.upper):
            problems.append(f"bounds [{res.lower}, {res.upper}] miss d = {op.d}")
        if res.lower > op.N - op.k + 1:
            problems.append(f"d >= {res.lower} breaks the Singleton bound {op.N - op.k + 1}")
        w = oracle.weight(self.field(code.field), list(code.monomials),
                          [int(c) for c in res.witness])
        if w != res.upper:
            problems.append(f"witness has weight {w}, reported {res.upper}")
        return problems

    def _generator(self, op, code) -> list[str]:
        fld = self.field(code.field)
        n = len(op.points[0])
        for _ in range(self.SPOT_CHECKS):
            row = self._rng.randrange(op.k)
            col = self._rng.randrange(op.N)
            want = oracle.generator_entry(fld, op.points[row], oracle.torus_exponent(col, n, op.q))
            if int(code.generator[row, col]) != want:
                return [f"generator[{row}, {col}] = {code.generator[row, col]} != {want}"]
        return []

    def _sweep(self, op, rows) -> list[str]:
        got = [(q, r.N, r.k, r.d) for q, r in zip(op.qs, rows)]
        problems = [f"q={g[0]}: [N, k, d] = {g[1:]} != {w[1:]}"
                    for g, w in zip(got, op.rows) if g != w]
        if len(got) != len(op.rows) or not all(r.exact for r in rows):
            problems.append("missing or non-exact rows")
        return problems
