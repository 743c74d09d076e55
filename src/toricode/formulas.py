"""Closed-form minimum distances and dimensions for structured polytopes.

Covers: multiplicativity under products, the (q-1) factor for dilated
pyramids (and double pyramids under the length-2 segment hypothesis), the
recipe formula

    d = (q-1)^|J| * prod_{i in I} (q - 1 - a_i * prod_{j in J, j > i} k_j),

its corollary specializations (simplex, box, pyramid-over-cube, cross
polytope), the dilation decrease inequality, and parameter reports with the
relative-distance bound (1 - 1/(q-1))^|I|.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .codes import build_code
from .gf import FieldSpec
from .mindist import DEFAULT_BUDGET, min_distance
from .polytopes import (
    ConstructionRecipe,
    LatticePolytope,
    PyramidScale,
    Segment,
)


@dataclass(frozen=True)
class CodeParams:
    """[N, k, d] plus the derived relative distance and rate."""

    N: int
    k: int
    d: int
    relative_distance: Fraction
    rate: Fraction
    exact: bool
    rel_distance_bound: Fraction | None = None


@dataclass(frozen=True)
class DecreaseCheck:
    ok: bool
    violation: tuple[int, int, Fraction, Fraction] | None

    def __bool__(self) -> bool:
        return self.ok


def d_product(d_p: int, d_q: int) -> int:
    """Minimum distance of the code of a product polytope."""
    if d_p < 1 or d_q < 1:
        raise ValueError("factor distances must be positive")
    return d_p * d_q


def d_pyramid_dilate(d_kq: int, q: int) -> int:
    """d for the k-dilated unit pyramid over Q, given d of the k-dilate of Q."""
    return (q - 1) * d_kq


def d_double_pyramid(d_base: int, q: int, base: LatticePolytope) -> int:
    """d of the double pyramid over `base` from d_base = d(base): the
    pyramid's (q-1) factor, proven when the base contains a lattice segment
    of lattice length 2. That hypothesis is decided here: it holds iff two
    distinct lattice points a, b of the base agree mod 2. Then b - a = 2v
    for a lattice vector v, and [a, b] contains the length-2 segment
    [a, a + 2v/g], g the gcd of v's entries; conversely the endpoints of a
    length-2 segment [a, a + 2u] agree mod 2.

    Without it only d(DPyr B) <= (q-1) d(B) holds: DPyr B contains the image
    of Pyr B under the unimodular map x_{n+1} -> 1 - x_{n+1}, a larger
    polytope gives a larger code, and d(Pyr B) = (q-1) d(B).
    """
    points = base.lattice_points
    if len({tuple(c % 2 for c in v) for v in points}) == len(points):
        raise ValueError(
            "the double-pyramid formula requires a lattice segment of length 2 in the base"
        )
    return (q - 1) * d_base


def d_pyramid_upper_bound(d_q: int, k: int, q: int) -> int:
    """Upper bound (q - k) * d(C_Q) for the k-dilated pyramid over Q."""
    if not 1 <= k <= q - 1:
        raise ValueError(f"need 1 <= k <= q-1, got k={k}, q={q}")
    return (q - k) * d_q


def _pyramid_suffix_products(recipe: ConstructionRecipe) -> list[int]:
    """suffix[i] = product of pyramid factors at steps strictly after i."""
    n = recipe.n
    suffix = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        step = recipe.steps[i]
        f = step.factor if isinstance(step, PyramidScale) else 1
        suffix[i] = suffix[i + 1] * f
    return suffix


def d_recipe(recipe: ConstructionRecipe, q: int) -> int:
    """Exact minimum distance for a recipe-built polytope over GF(q).

    Every factor q - 1 - a_i * (suffix product of pyramid scales) must be
    positive; otherwise the recipe leaves the theory's hypotheses for this q
    and the call fails, naming the offending step.
    """
    if q < 3:
        raise ValueError(f"recipes need q >= 3, got q = {q}")
    suffix = _pyramid_suffix_products(recipe)
    d = 1
    pyramids = 0
    for i, step in enumerate(recipe.steps):
        if isinstance(step, PyramidScale):
            pyramids += 1
        else:
            factor = (q - 1) - step.length * suffix[i + 1]
            if factor <= 0:
                raise ValueError(
                    f"recipe invalid over GF({q}): step {i + 1} "
                    f"(segment {step.length}) yields nonpositive factor {factor}"
                )
            d *= factor
    return (q - 1) ** pyramids * d


def recipe_valid_for(recipe: ConstructionRecipe, q: int) -> bool:
    try:
        d_recipe(recipe, q)
        return True
    except ValueError:
        return False


def d_simplex(n: int, k: int, q: int) -> int:
    """d for the k-dilate of the standard n-simplex."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if q - 1 - k <= 0:
        raise ValueError(f"k-dilated simplex needs k <= q-2, got k={k}, q={q}")
    return (q - 1) ** (n - 1) * (q - 1 - k)


def d_box(sides, q: int) -> int:
    """d for the rectangular box prod [0, a_i]."""
    d = 1
    for i, a in enumerate(sides):
        factor = q - 1 - int(a)
        if factor <= 0:
            raise ValueError(f"box side a_{i + 1} = {a} needs a <= q-2 for q = {q}")
        d *= factor
    return d


def d_pyr_cube(l: int, m: int, k: int, q: int) -> int:
    """d for the k-dilate of the l-fold pyramid over the m-dimensional unit cube."""
    if l < 0 or m < 1 or k < 1:
        raise ValueError("need l >= 0, m >= 1, k >= 1")
    if q - 1 - k <= 0:
        raise ValueError(f"needs k <= q-2, got k={k}, q={q}")
    return (q - 1) ** l * (q - 1 - k) ** m


def d_cross(n: int, k: int, q: int) -> int:
    """d for the k-dilate of the translated n-dimensional cross polytope."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if q - 1 - 2 * k <= 0:
        raise ValueError(f"cross polytope needs 2k <= q-2, got k={k}, q={q}")
    return (q - 1) ** (n - 1) * (q - 1 - 2 * k)


def check_decrease(d_values, q: int, lam: int = 1) -> DecreaseCheck:
    """Verify d_k / d_{k-l} <= 1 - lam*l/(q-1) for all 0 <= l <= k.

    d_values[k] is the distance of the k-dilate code; lam is the lattice
    length of a segment contained in the base polytope (caller-supplied).
    Returns the first violating pair if any.
    """
    if lam < 1:
        raise ValueError("segment length must be >= 1")
    vals = [int(d) for d in d_values]
    for k in range(len(vals)):
        for l in range(k + 1):
            ratio = Fraction(vals[k], vals[k - l])
            bound = 1 - Fraction(lam * l, q - 1)
            if ratio > bound:
                return DecreaseCheck(False, (k, l, ratio, bound))
    return DecreaseCheck(True, None)


# ---------------------------------------------------------------------------
# dimension identities
# ---------------------------------------------------------------------------

def dim_product(dim_p: int, dim_q: int) -> int:
    return dim_p * dim_q


def dim_pyramid_dilate(dilate_dims) -> int:
    """dim of the k-dilated pyramid from the dims of the 0..k dilates of the base."""
    return sum(int(v) for v in dilate_dims)


@functools.cache
def dim_recipe(recipe: ConstructionRecipe) -> int:
    """Dimension (lattice-point count) via the product/pyramid recursions.

    Counts the Ehrhart function L(t) = |tP o Z^n| of the polytope after each
    step, never its points: a segment step gives L_{P x [0,a]}(t) =
    L_P(t) (a t + 1), and since the slice of f Pyr(Q) at height h is
    (f - h) Q, a pyramid step gives L_{f Pyr(Q)}(t) = sum_{j=0..f t} L_Q(j).
    The dimension is L(1) of the last step. It does not depend on q, so it
    is cached per recipe (a frozen dataclass) for the sweeps over q.
    """
    steps = recipe.steps
    memo: dict[tuple[int, int], int] = {}

    def count(i: int, t: int) -> int:
        """L(t) of the polytope built by steps[:i + 1]; i = -1 is a point."""
        if i < 0:
            return 1
        if (i, t) not in memo:
            step = steps[i]
            if isinstance(step, Segment):
                memo[i, t] = dim_product(count(i - 1, t), step.length * t + 1)
            else:
                memo[i, t] = dim_pyramid_dilate(
                    count(i - 1, j) for j in range(step.factor * t + 1)
                )
        return memo[i, t]

    return count(len(steps) - 1, 1)


# ---------------------------------------------------------------------------
# parameter reports
# ---------------------------------------------------------------------------

def recipe_distance_bound(recipe: ConstructionRecipe, q: int) -> Fraction:
    """Upper bound (1 - 1/(q-1))^|I| on the relative minimum distance."""
    segments = len(recipe.segment_positions())
    return (1 - Fraction(1, q - 1)) ** segments


def recipe_params(recipe: ConstructionRecipe, q: int) -> CodeParams:
    """CodeParams of a recipe over GF(q) from the formulas alone; builds no field."""
    d = d_recipe(recipe, q)
    k = dim_recipe(recipe)
    n_block = (q - 1) ** recipe.n
    rel = Fraction(d, n_block)
    bound = recipe_distance_bound(recipe, q)
    if rel > bound:
        raise AssertionError(
            f"relative distance {rel} exceeds the structural bound {bound}"
        )
    return CodeParams(
        N=n_block,
        k=k,
        d=d,
        relative_distance=rel,
        rate=Fraction(k, n_block),
        exact=True,
        rel_distance_bound=bound,
    )


def params_report(
    obj,
    field: FieldSpec,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> CodeParams:
    """Assemble CodeParams for a recipe (formula d) or a polytope (search d)."""
    if isinstance(obj, ConstructionRecipe):
        return recipe_params(obj, field.q)
    if isinstance(obj, LatticePolytope):
        code = build_code(obj, field)
        result = min_distance(code, method=method, budget=budget)
        n_block = code.block_length
        return CodeParams(
            N=n_block,
            k=code.k,
            d=result.d,
            relative_distance=Fraction(result.d, n_block),
            rate=Fraction(code.k, n_block),
            exact=result.exact,
        )
    raise TypeError(f"expected a ConstructionRecipe or LatticePolytope, got {type(obj)!r}")
