"""Finite field construction and arithmetic tests."""

import itertools
import random
import re

import numpy as np
import pytest

from toricode import gf as gf_module
from toricode.codes import build_code
from toricode.gf import (
    as_prime_power,
    field_for_order,
    gf_matmul,
    gf_matvec,
    gf_rank,
    make_field,
    parse_field,
    row_reduce,
    torus_exponents,
)
from toricode.polytopes import from_vertices


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def poly_mul_mod(a, b, modulus, p):
    """Schoolbook polynomial product reduced mod a monic modulus over GF(p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    dm = len(modulus) - 1
    for i in range(len(prod) - 1, dm - 1, -1):
        c = prod[i]
        if c:
            for j, mj in enumerate(modulus):
                prod[i - dm + j] = (prod[i - dm + j] - c * mj) % p
    return prod[:dm]


def smallest_irreducible_cubic_gf2():
    """Enumerate monic cubics over GF(2) by integer encoding and return the
    first with no root in GF(2) (equivalently: no degree-1 factor)."""
    for t in range(8):
        c0, c1, c2 = t & 1, (t >> 1) & 1, (t >> 2) & 1
        coeffs = [c0, c1, c2, 1]
        has_root = any(
            (c0 + c1 * x + c2 * x * x + x * x * x) % 2 == 0 for x in (0, 1)
        )
        if not has_root:
            return coeffs
    raise AssertionError


def element_order(spec, a):
    order = 1
    x = a
    while x != 1:
        x = spec.mul(x, a)
        order += 1
    return order


# ---------------------------------------------------------------------------
# make_field
# ---------------------------------------------------------------------------

def test_prime_field_trivial_modulus():
    f = make_field(5, 1)
    assert (f.p, f.m, f.q) == (5, 1, 5)
    assert f.modulus == (0, 1)


def test_gf8_modulus_matches_enumeration_oracle():
    oracle = smallest_irreducible_cubic_gf2()
    assert oracle == [1, 1, 0, 1]  # x^3 + x + 1
    f = make_field(2, 3)
    assert list(f.modulus) == oracle


def test_non_prime_p_rejected():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4, 1)


def test_bad_exponent_and_cap():
    with pytest.raises(ValueError):
        make_field(5, 0)
    with pytest.raises(ValueError, match="cap"):
        make_field(2, 17)


@pytest.mark.parametrize("make, text", [
    (lambda: make_field(10**16 + 61), "10000000000000061^1"),
    (lambda: make_field(65537), "65537^1"),
    (lambda: parse_field("2^10000000000"), "2^10000000000"),
    (lambda: parse_field("3^17"), "3^17"),
])
def test_cap_is_checked_before_primality(make, text, monkeypatch):
    def bounded(q):
        assert q <= gf_module.FIELD_CAP, "primality tested above the cap"
        return as_prime_power(q)

    monkeypatch.setattr(gf_module, "as_prime_power", bounded)
    with pytest.raises(ValueError, match=rf"^q = {re.escape(text)} exceeds the supported cap 65536$"):
        make()


def test_parse_field():
    assert parse_field("5").q == 5
    assert parse_field("2^3").q == 8
    assert parse_field(" 7 ").q == 7


def test_large_extension_field_within_cap():
    f = make_field(2, 16)
    assert f.q == 65536
    g = f.generator
    assert f.exp[1] == g
    assert f.mul(int(f.exp[-1]), g) == 1  # g^(q-1) = 1
    assert f.exp[(f.q - 1) // 257] != 1  # 257 divides 2^16 - 1


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_mod5_add():
    f = make_field(5)
    assert f.add(3, 4) == 2


def test_gf8_product_reduction_oracle():
    f = make_field(2, 3)
    # x * x^2 = x^3 = x + 1 under x^3 + x + 1
    oracle = poly_mul_mod([0, 1], [0, 0, 1], list(f.modulus), 2)
    assert oracle == [1, 1, 0]
    assert f.mul(2, 4) == 3


def test_gf5_inverse():
    f = make_field(5)
    assert f.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive_small(p, m):
    f = make_field(p, m)
    elems = range(f.q)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, int(f.neg_arrays(a))) == 0
        if b:
            assert f.mul(b, f.inv(b)) == 1
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 4), (5, 2), (13, 1), (3, 4)])
def test_field_axioms_sampled_larger(p, m):
    f = make_field(p, m)
    rng = random.Random(20240907)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_array_ops_match_scalar_ops():
    for (p, m) in [(5, 1), (2, 3), (3, 2)]:
        f = make_field(p, m)
        a = np.arange(f.q).repeat(f.q)
        b = np.tile(np.arange(f.q), f.q)
        add = f.add_arrays(a, b)
        mul = f.mul_arrays(a, b)
        sub = f.sub_arrays(a, b)
        for i in range(f.q * f.q):
            assert add[i] == f.add(int(a[i]), int(b[i]))
            assert mul[i] == f.mul(int(a[i]), int(b[i]))
            assert f.add(int(sub[i]), int(b[i])) == a[i]


def test_kernel_tables_consistent():
    f = make_field(2, 3)
    add_t, sub_t = f.kernel_tables()
    assert add_t.dtype == np.uint8
    for a in range(8):
        for b in range(8):
            assert add_t[a, b] == f.add(a, b)
            assert f.add(sub_t[a, b], b) == a
    with pytest.raises(ValueError, match="kernels"):
        make_field(2, 9).kernel_tables()


# ---------------------------------------------------------------------------
# primitive element and torus enumeration
# ---------------------------------------------------------------------------

def test_primitive_element_gf5():
    f = make_field(5)
    # brute-force orders: 2 has order 4, so 2 is the smallest generator
    assert element_order(f, 2) == 4
    assert f.generator == 2


def test_primitive_element_gf7():
    f = make_field(7)
    assert element_order(f, 2) == 3
    assert element_order(f, 3) == 6
    assert f.generator == 3


def test_primitive_element_gf2():
    f = make_field(2)
    assert element_order(f, 1) == 1
    assert f.generator == 1


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_generator_powers_enumerate_nonzero_elements(p, m):
    f = make_field(p, m)
    assert f.exp[1] == f.generator
    assert set(f.exp.tolist()) == set(range(1, f.q))
    # smallest element of full order
    for a in range(1, f.generator):
        assert element_order(f, a) < f.q - 1


def torus_points(f, n):
    """Torus points (g^{j_1}, ..., g^{j_n}) as canonical integers, in the
    frozen order of torus_exponents."""
    return f.exp[torus_exponents(f, n)]


def test_torus_points_gf3_line():
    f = make_field(3)
    assert torus_points(f, 1).tolist() == [[1], [2]]


def test_torus_points_gf5_plane_endpoints():
    f = make_field(5)
    pts = torus_points(f, 2)
    assert pts.shape == (16, 2)
    g = f.generator
    assert pts[0].tolist() == [1, 1]
    assert pts[-1].tolist() == [f.mul(g, f.mul(g, g))] * 2


def test_torus_points_gf2_cube():
    pts = torus_points(make_field(2), 3)
    assert pts.tolist() == [[1, 1, 1]]


def test_torus_points_no_duplicates():
    f = make_field(5)
    pts = torus_points(f, 2)
    keys = {tuple(t) for t in pts.tolist()}
    assert len(keys) == len(pts) == (f.q - 1) ** 2
    assert all(0 < c < f.q for t in keys for c in t)


def test_torus_exponents_lexicographic():
    f = make_field(5)
    ex = torus_exponents(f, 2)
    assert ex.shape == (16, 2)
    as_tuples = [tuple(r) for r in ex]
    assert as_tuples == sorted(as_tuples)
    with pytest.raises(ValueError):
        torus_exponents(f, 0)


# ---------------------------------------------------------------------------
# GF linear algebra
# ---------------------------------------------------------------------------

def test_row_reduce_and_rank():
    f = make_field(5)
    mat = np.array([[1, 2, 3], [2, 4, 1], [0, 0, 4]], dtype=np.int64)
    red, t, pivots = row_reduce(f, mat)
    assert pivots == [0, 2]
    assert gf_rank(f, mat) == 2
    # transform really maps mat to red
    for i in range(3):
        assert np.array_equal(gf_matvec(f, t[i], mat), red[i])


def reference_row_reduce(spec, mat):
    """The plain Gauss-Jordan loop, one column and one row at a time."""
    m = np.array(mat, dtype=np.int64)
    rows, cols = m.shape
    t = np.eye(rows, dtype=np.int64)
    r = 0
    pivots = []
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i, c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
            t[[r, pivot]] = t[[pivot, r]]
        s = spec.inv(int(m[r, c]))
        if s != 1:
            m[r] = spec.mul_arrays(s, m[r])
            t[r] = spec.mul_arrays(s, t[r])
        for i in range(rows):
            f = int(m[i, c])
            if i != r and f:
                m[i] = spec.sub_arrays(m[i], spec.mul_arrays(f, m[r]))
                t[i] = spec.sub_arrays(t[i], spec.mul_arrays(f, t[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, t, pivots


def random_matrices(q, rng):
    """Empty, full-rank, rank-deficient and tall matrices, and column subsets."""
    yield np.zeros((0, 3), dtype=np.int64)
    yield np.zeros((2, 0), dtype=np.int64)
    for trial in range(8):
        k = rng.randint(1, 7)
        n = rng.randint(1, 14) if trial % 4 != 3 else rng.randint(1, k)  # tall
        mat = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if trial % 2:  # rank-deficient: a zero row and a repeated or second zero row
            mat[rng.randrange(k)] = 0
            if k > 2:
                mat[0] = mat[1] if rng.random() < 0.5 else 0
        if trial % 3 == 2:  # repeated runs of equal columns
            mat[:, n // 2:] = mat[:, : n - n // 2]
        if trial >= 4:  # a subset of the columns, in shuffled order
            mat = mat[:, rng.sample(range(n), rng.randint(1, n))]
        yield mat


@pytest.mark.parametrize("block", [1, 3, None])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 257, 729, 1 << 10])
def test_row_reduce_identical_to_reference_loop(q, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(gf_module, "_BLOCK_COLUMNS", block)
    f = field_for_order(q)
    rng = random.Random(q * 31 + (block or 0))
    for mat in random_matrices(q, rng):
        red, t, pivots = row_reduce(f, mat)
        want_red, want_t, want_pivots = reference_row_reduce(f, mat)
        assert pivots == want_pivots
        assert np.array_equal(t, want_t)
        assert np.array_equal(red, want_red)
        assert red.dtype == t.dtype == np.int64
        assert gf_rank(f, mat) == len(want_pivots)
        assert np.array_equal(gf_matmul(f, want_t, mat), want_red)
        if len(mat):
            assert np.array_equal(gf_matvec(f, want_t[-1], mat), want_red[-1])


def reference_log_tables(spec):
    """exp and log by repeated multiplication with the schoolbook product."""
    modulus = list(spec.modulus)
    g = [(spec.generator // spec.p**i) % spec.p for i in range(spec.m)]
    exp, log = [], {}
    x = [1] + [0] * (spec.m - 1)
    for i in range(spec.q - 1):
        v = sum(c * spec.p**j for j, c in enumerate(x))
        exp.append(v)
        log[v] = i
        x = poly_mul_mod(x, g, modulus, spec.p) if spec.m > 1 else [x[0] * g[0] % spec.p]
        x += [0] * (spec.m - len(x))
    return exp, log


def reference_prime_power(q):
    """(p, m) with p the smallest divisor above 1, found by trying every p up to q."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    return None


@pytest.mark.parametrize("block", [1, 3, 7])
def test_strided_rank_matches_reference_on_toric_generators(block, monkeypatch):
    monkeypatch.setattr(gf_module, "_BLOCK_COLUMNS", block)
    ex4 = from_vertices(3, [(0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3)])
    cases = [
        # full rank, natural-order pivots spread over many blocks
        (make_field(5), ex4, False),
        (make_field(2, 3), from_vertices(2, [(1, 0), (0, 3), (3, 1)]), False),
        # rank-deficient: x^{q-1} agrees with 1 on the torus
        (make_field(3), from_vertices(2, [(0, 0), (2, 0), (0, 2)]), True),
        (make_field(2, 2), from_vertices(1, [(-1,), (4,)]), True),
    ]
    for field, poly, outside in cases:
        code = build_code(poly, field, allow_outside_cube=outside)
        _, _, want = reference_row_reduce(field, code.generator)
        if not outside:
            assert len(set(p // block for p in want)) > 1
        assert gf_rank(field, code.generator) == len(want) == code.k
        if outside:
            assert len(want) < len(code.monomials)


def test_as_prime_power_matches_trial_division_to_q():
    for q in list(range(-2, 5000)) + [65521, 65535, 65536, 65537]:
        assert as_prime_power(q) == reference_prime_power(q), q
    assert as_prime_power(65537) == (65537, 1)
    assert as_prime_power(65536) == (2, 16)
    assert as_prime_power(65535) is None


PRIME_POWERS_TO_256 = [q for q in range(2, 257) if as_prime_power(q)]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_256)
def test_field_tables_match_scalar_reference(q):
    f = field_for_order(q)
    exp, log = reference_log_tables(f)
    assert f.exp.tolist() == exp
    assert all(f.log[v] == i for v, i in log.items())
    add_t, sub_t = f.kernel_tables()
    mul_t = f.mul_table()
    assert mul_t.dtype == np.uint8
    a, b = np.divmod(np.arange(q * q), q)
    assert np.array_equal(mul_t.ravel(), f.mul_arrays(a, b))
    assert np.array_equal(add_t.ravel(), f.add_arrays(a, b))
    for x in range(1, q):
        assert f.mul(x, f.inv(x)) == 1


def test_field_tables_spot_checks_gf_2_16():
    f = make_field(2, 16)
    rng = random.Random(16)
    g = [(f.generator >> i) & 1 for i in range(16)]
    for _ in range(20):
        i = rng.randrange(f.q - 1)
        x = [1] + [0] * 15
        e = i
        base = g
        while e:  # square and multiply with the schoolbook product
            if e & 1:
                x = poly_mul_mod(x, base, list(f.modulus), 2)
            base = poly_mul_mod(base, base, list(f.modulus), 2)
            e >>= 1
        v = sum(c << j for j, c in enumerate(x))
        assert f.exp[i] == v
        assert f.log[v] == i
    assert sorted(f.exp.tolist()) == list(range(1, f.q))
