"""Generator matrix construction and codeword evaluation tests."""

import random

import numpy as np
import pytest

from toricode import codes as codes_module
from toricode import gf as gf_module
from toricode.codes import Codeword, build_code, evaluate, rank_check
from toricode.gf import field_for_order, make_field, torus_exponents
from toricode.polytopes import (
    box,
    dilate,
    from_vertices,
    product,
    pyramid,
    realize_recipe,
    recipe_from_dict,
    standard_simplex,
    unimodular_transform,
)

TRIANGLE = [(1, 0), (0, 3), (3, 1)]
EX4_VERTICES = [(0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3)]


def triangle_code(q=5, m=1, p=None):
    field = make_field(p or q, m)
    return build_code(from_vertices(2, TRIANGLE), field)


def message_for_monomials(code, coeff_by_monomial):
    msg = [0] * len(code.monomials)
    for mono, c in coeff_by_monomial.items():
        msg[code.monomials.index(mono)] = c
    return msg


# ---------------------------------------------------------------------------
# build_code
# ---------------------------------------------------------------------------

def test_triangle_code_dimensions():
    code = triangle_code()
    assert code.block_length == 16
    assert code.k == 6
    assert code.generator.shape == (6, 16)


def test_origin_code_is_all_ones_row():
    field = make_field(5)
    code = build_code(from_vertices(1, [(0,)]), field)
    assert code.k == 1
    assert code.block_length == 4
    assert np.array_equal(code.generator, np.ones((1, 4), dtype=np.int64))


def test_ex4_code_dimensions():
    code = build_code(from_vertices(3, EX4_VERTICES), make_field(5))
    assert code.block_length == 64
    assert code.k == 13


def test_cube_violation_names_vertex_coordinate():
    with pytest.raises(ValueError, match=r"vertex \(0, 3\) has coordinate 3"):
        triangle_code(q=4, p=2, m=2)


def test_allow_outside_cube_defines_k_as_rank():
    # [0, q-1] leaves the cube; x^{q-1} agrees with 1 on the torus
    field = make_field(3)
    seg = from_vertices(1, [(0,), (2,)])
    code = build_code(seg, field, allow_outside_cube=True)
    assert len(code.monomials) == 3
    assert code.k == 2
    assert rank_check(code) == 2


def test_generator_entries_match_direct_evaluation():
    field = make_field(5)
    code = triangle_code()
    exps = torus_exponents(field, 2)
    for r, mono in enumerate(code.monomials):
        for c in range(code.block_length):
            # (g^j)^m = g^(j m), and g^i = exp[i mod (q - 1)]
            expected = field.mul(
                int(field.exp[int(exps[c, 0]) * mono[0] % (field.q - 1)]),
                int(field.exp[int(exps[c, 1]) * mono[1] % (field.q - 1)]),
            )
            assert code.generator[r, c] == expected


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 27, 257, 1 << 16])
def test_blocked_generator_matches_one_piece_evaluation(q, rows, monkeypatch):
    field = field_for_order(q)
    polys = [from_vertices(1, [(-2,), (3,)])]  # negative exponents too
    if q <= 27:
        polys += [
            from_vertices(2, [(-1, 1), (2, 0), (0, 2)]),
            from_vertices(3, EX4_VERTICES),
        ]
    if q == 5:  # n = 4: three outer sums per chunk
        polys.append(realize_recipe(recipe_from_dict({"steps": [
            {"segment": 1}, {"segment": 1}, {"segment": 1}, {"pyramid_scale": 1},
        ]})))
    dtype = np.uint8 if q <= 256 else np.uint16
    for poly in polys:
        cols = (q - 1) ** poly.dim
        if rows is not None:  # chunks of `rows` generator rows
            monkeypatch.setattr(codes_module, "_CHUNK_ENTRIES", rows * cols)
        code = build_code(poly, field, allow_outside_cube=True)
        mon = np.array(poly.lattice_points, dtype=np.int64)
        want = field.exp.astype(dtype)[(mon @ torus_exponents(field, poly.dim).T) % (q - 1)]
        assert code.generator.dtype == dtype
        assert np.array_equal(code.generator, want)


def test_generator_cap_is_checked_before_building(monkeypatch):
    # [S1,P1,S1] over GF(257): 6 x 256^3 = 100.7 M entries
    poly = realize_recipe(recipe_from_dict({"steps": [
        {"segment": 1}, {"pyramid_scale": 1}, {"segment": 1},
    ]}))
    field = make_field(257)
    monkeypatch.setattr(field, "exp", None)  # the build reads it after the check
    with pytest.raises(ValueError, match=r"^generator of 6 x 16777216 entries exceeds the cap 16777216$"):
        build_code(poly, field)


def test_torus_over_the_cap_is_refused_before_lattice_points():
    # 65,535^2 columns; the triangle has 2.1e9 lattice points, never enumerated
    big = from_vertices(2, [(0, 0), (65534, 0), (0, 65534)])
    with pytest.raises(ValueError, match=r"^generator of k x 4294836225 entries exceeds the cap"):
        build_code(big, make_field(2, 16))
    assert "lattice_points" not in vars(big)


def test_bounding_box_over_the_cap_is_refused_before_lattice_points():
    # outside the cube: a box of 3001^3 = 2.7e10 points over GF(5)
    big = from_vertices(3, [(0, 0, 0), (3000, 0, 0), (0, 3000, 0), (0, 0, 3000)])
    with pytest.raises(ValueError, match=r"^bounding box of 27027009001 points exceeds the cap"):
        build_code(big, make_field(5), allow_outside_cube=True)
    assert "lattice_points" not in vars(big)


def test_tall_generator_is_ranked():
    # 100,001 monomials on N = 2 columns: k is the rank of a tall generator
    seg = from_vertices(1, [(0,), (100000,)])
    code = build_code(seg, make_field(3), allow_outside_cube=True)
    assert code.generator.shape == (100001, 2)
    assert code.k == 2


def test_generator_at_the_cap_is_built(monkeypatch):
    monkeypatch.setattr(codes_module, "GENERATOR_CAP", 6 * 16)
    assert triangle_code().generator.shape == (6, 16)
    monkeypatch.setattr(codes_module, "GENERATOR_CAP", 6 * 16 - 1)
    with pytest.raises(ValueError, match="exceeds the cap 95"):
        triangle_code()


# ---------------------------------------------------------------------------
# evaluate / weight
# ---------------------------------------------------------------------------

def test_zero_message_gives_zero_codeword():
    code = triangle_code()
    cw = evaluate(code, [0] * code.k)
    assert cw.weight == 0
    assert np.count_nonzero(cw.values == 0) == code.block_length


def test_single_monomial_has_full_weight():
    code = triangle_code()
    for i in range(code.k):
        msg = [0] * code.k
        msg[i] = 1
        cw = evaluate(code, msg)
        assert cw.weight == code.block_length


def test_example1_witness_weight():
    # f = x y (x - 1)(x - 2) = x^3 y + 2 x^2 y + 2 x y over GF(5)
    code = triangle_code()
    msg = message_for_monomials(code, {(3, 1): 1, (2, 1): 2, (1, 1): 2})
    cw = evaluate(code, msg)
    assert cw.weight == 8  # (q-1)(q-3) for q = 5
    assert code.block_length - cw.weight == 8


def test_weight_plus_zero_count_is_block_length():
    code = triangle_code()
    rng = random.Random(11)
    for _ in range(10):
        msg = [rng.randrange(5) for _ in range(code.k)]
        cw = evaluate(code, msg)
        assert cw.weight + int(np.count_nonzero(cw.values == 0)) == code.block_length
        assert isinstance(cw, Codeword)


def test_evaluate_rejects_bad_messages():
    code = triangle_code()
    with pytest.raises(ValueError, match="length"):
        evaluate(code, [0, 1])
    with pytest.raises(ValueError, match="canonical"):
        evaluate(code, [7] * code.k)


@pytest.mark.parametrize("bad", [1.5, True, np.True_, "2", None],
                         ids=["float", "bool", "numpy bool", "str", "None"])
def test_evaluate_rejects_non_integer_coefficients(bad):
    """A coefficient is never truncated: 1.5 is not the message of 1."""
    code = triangle_code()
    msg = [0] * code.k
    msg[0] = bad
    with pytest.raises(ValueError, match=r"^a message coefficient must be an integer, got "):
        evaluate(code, msg)


def test_evaluate_accepts_numpy_integers():
    code = triangle_code()
    msg = [0] * code.k
    msg[0], msg[1] = np.int64(3), np.uint8(2)
    want = evaluate(code, [3, 2] + [0] * (code.k - 2))
    for cw in (evaluate(code, msg), evaluate(code, np.array(msg, dtype=np.uint8))):
        assert np.array_equal(cw.values, want.values)
        assert cw.coefficients.tolist() == want.coefficients.tolist()
    # an integer far outside the field is refused as such, not as an overflow
    with pytest.raises(ValueError, match="canonical"):
        evaluate(code, [2**70] + [0] * (code.k - 1))


def test_scalar_multiples_preserve_weight():
    code = triangle_code()
    rng = random.Random(13)
    field = code.field
    for _ in range(10):
        msg = [rng.randrange(5) for _ in range(code.k)]
        w = evaluate(code, msg).weight
        for s in range(1, 5):
            scaled = [field.mul(s, c) for c in msg]
            assert evaluate(code, scaled).weight == w


def test_hyperplane_slices_partition_zeroes():
    # prism over the triangle: group torus columns by the exponent of the
    # last coordinate and compare per-slice zero counts against independent
    # evaluation of the substituted polynomial
    field = make_field(5)
    prism = product(from_vertices(2, TRIANGLE), box([1]))
    code = build_code(prism, field)
    rng = random.Random(17)
    msg = [rng.randrange(5) for _ in range(code.k)]
    cw = evaluate(code, msg)

    from toricode.gf import torus_exponents

    exps = torus_exponents(field, 3)
    total = 0
    for jn in range(field.q - 1):
        cols = np.where(exps[:, 2] == jn)[0]
        slice_zeroes = int(np.sum(cw.values[cols] == 0))
        # substitute x_3 = g^{jn}: collapse the monomials onto their (m1, m2) part
        coeff2d: dict[tuple[int, int], int] = {}
        for mono, c in zip(code.monomials, msg):
            key = (mono[0], mono[1])
            term = field.mul(c, int(field.exp[jn * mono[2] % (field.q - 1)]))
            coeff2d[key] = field.add(coeff2d.get(key, 0), term)
        base = build_code(from_vertices(2, TRIANGLE), field)
        msg2d = [coeff2d.get(mono, 0) for mono in base.monomials]
        assert slice_zeroes == base.block_length - evaluate(base, msg2d).weight
        total += slice_zeroes
    assert total == code.block_length - cw.weight


def test_unimodular_equivalent_codes_share_weight_distribution():
    field = make_field(2, 2)
    square = box([1, 1])
    sheared = unimodular_transform(square, [(1, 1), (0, 1)], (0, 0))
    code_a = build_code(square, field)
    code_b = build_code(sheared, field)
    assert code_a.k == code_b.k == 4

    def distribution(code):
        q = code.field.q
        dist: dict[int, int] = {}
        for idx in range(q**code.k):
            msg = []
            v = idx
            for _ in range(code.k):
                msg.append(v % q)
                v //= q
            w = evaluate(code, msg).weight
            dist[w] = dist.get(w, 0) + 1
        return dist

    assert distribution(code_a) == distribution(code_b)


# ---------------------------------------------------------------------------
# rank checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "poly_factory,q,m,p",
    [
        (lambda: from_vertices(2, TRIANGLE), 5, 1, 5),
        (lambda: from_vertices(2, TRIANGLE), 8, 3, 2),
        (lambda: product(from_vertices(2, TRIANGLE), box([1])), 5, 1, 5),
        (lambda: pyramid(from_vertices(2, TRIANGLE)), 5, 1, 5),
        (lambda: from_vertices(3, EX4_VERTICES), 5, 1, 5),
        (lambda: dilate(standard_simplex(2), 2), 5, 1, 5),
    ],
)
def test_rank_equals_lattice_point_count(poly_factory, q, m, p):
    poly = poly_factory()
    code = build_code(poly, make_field(p, m))
    assert rank_check(code) == len(poly.lattice_points) == code.k


def test_rank_of_prism_is_twelve():
    prism = product(from_vertices(2, TRIANGLE), box([1]))
    assert rank_check(build_code(prism, make_field(5))) == 12


def test_rank_check_of_full_rank_generator_needs_no_product(monkeypatch):
    # [S1,S1,S1,P3] over GF(16): k = 100, N = 50,625; the natural-order
    # pivots reach column 10,845, the strided first block holds all of them
    poly = realize_recipe(recipe_from_dict({"steps": [
        {"segment": 1}, {"segment": 1}, {"segment": 1}, {"pyramid_scale": 3},
    ]}))
    code = build_code(poly, make_field(2, 4))
    calls = []
    matmul = gf_module._Arith.matmul

    def counted(self, a, b):
        calls.append(a.shape)
        return matmul(self, a, b)

    monkeypatch.setattr(gf_module._Arith, "matmul", counted)
    assert rank_check(code) == code.k == 100
    assert calls == []
