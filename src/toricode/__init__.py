"""Toric codes from lattice polytopes over finite fields.

Build the evaluation code of a polytope, compute exact [N, k, d] by
exhaustive or information-set search, and evaluate the closed-form
minimum-distance formulas for products, dilated pyramids and step recipes.
"""

from .codes import Codeword, ToricCode, build_code, evaluate, rank_check
from .formulas import (
    CodeParams,
    DecreaseCheck,
    check_decrease,
    d_box,
    d_cross,
    d_double_pyramid,
    d_product,
    d_pyr_cube,
    d_pyramid_dilate,
    d_pyramid_upper_bound,
    d_recipe,
    dim_product,
    dim_pyramid_dilate,
    dim_recipe,
    params_report,
    recipe_valid_for,
)
from .gf import FieldSpec, field_for_order, make_field, parse_field, torus_exponents
from .mindist import (
    DEFAULT_BUDGET,
    MinDistResult,
    min_distance,
    min_distance_exhaustive,
    min_distance_isd,
)
from .polytopes import (
    ConstructionRecipe,
    LatticePolytope,
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

__version__ = "0.1.0"
