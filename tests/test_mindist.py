"""Minimum distance search tests: exhaustive, information-set, kernels.

The kernels are checked against one plain reference loop that sums each
message's codeword row by row through the addition table.
"""

import itertools
import random
from math import comb

import numpy as np
import pytest

from toricode import kernels
from toricode.codes import build_code, evaluate
from toricode.gf import field_for_order, make_field
from toricode.mindist import (
    min_distance,
    min_distance_exhaustive,
    min_distance_isd,
)
from toricode.polytopes import (
    ConstructionRecipe,
    PyramidScale,
    Segment,
    box,
    dilate,
    from_vertices,
    product,
    pyramid,
    realize_recipe,
    standard_simplex,
)

TRIANGLE = [(1, 0), (0, 3), (3, 1)]
EX4_VERTICES = [(0, 3, 0), (1, 0, 0), (3, 1, 0), (1, 1, 2), (2, 3, 3)]


def triangle_code(field):
    return build_code(from_vertices(2, TRIANGLE), field)


# ---------------------------------------------------------------------------
# plain reference: messages in the kernels' documented order
# ---------------------------------------------------------------------------

def normalized_messages(k, q):
    """Every message with leading coefficient 1, in exhaustive-scan order."""
    for lead in range(k):
        for tail in itertools.product(range(q), repeat=k - 1 - lead):
            yield (0,) * lead + (1,) + tail


def support_patterns(support, k, q):
    """Messages on `support` in ISD pattern order: 1 on the first row, 1..q-1 after."""
    for values in itertools.product(range(1, q), repeat=len(support) - 1):
        msg = [0] * k
        for row, val in zip(support, (1,) + values):
            msg[row] = val
        yield msg


def reference_min(scaled, add_t, messages):
    """(weight, first index) of the lightest codeword, summed row by row."""
    best = None
    for idx, msg in enumerate(messages):
        cw = np.zeros(scaled.shape[2], dtype=np.uint8)
        for row, val in enumerate(msg):
            if val:
                cw = add_t[cw, scaled[row, val]]
        weight = int(np.count_nonzero(cw))
        if best is None or weight < best[0]:
            best = (weight, idx)
    return best


def reference_distance(code):
    """(d, first message of weight d) over every normalized message."""
    add_t, _ = code.field.kernel_tables()
    messages = list(normalized_messages(code.k, code.field.q))
    scaled = kernels.scaled_rows(code.field, code.generator)
    d, idx = reference_min(scaled, add_t, messages)
    return d, list(messages[idx])


# ---------------------------------------------------------------------------
# golden examples
# ---------------------------------------------------------------------------

def test_triangle_gf5_distance_eight():
    r = min_distance_exhaustive(triangle_code(make_field(5)))
    assert (r.d, r.z_p, r.exact) == (8, 8, True)
    assert evaluate(triangle_code(make_field(5)), r.witness).weight == 8


def test_triangle_gf8_distance_28():
    code = triangle_code(make_field(2, 3))
    r = min_distance_exhaustive(code)
    assert (r.d, r.z_p, r.exact) == (28, 21, True)


def test_origin_code_distance_is_block_length():
    code = build_code(from_vertices(1, [(0,)]), make_field(5))
    r = min_distance_exhaustive(code)
    assert r.d == 4 == code.block_length


def test_prism_isd_24():
    code = build_code(product(from_vertices(2, TRIANGLE), box([1])), make_field(5))
    r = min_distance_isd(code)
    assert (r.d, r.exact) == (24, True)


def test_pyramid_isd_32():
    code = build_code(pyramid(from_vertices(2, TRIANGLE)), make_field(5))
    r = min_distance_isd(code)
    assert (r.d, r.exact) == (32, True)


def test_ex4_isd_31():
    code = build_code(from_vertices(3, EX4_VERTICES), make_field(5))
    r = min_distance_isd(code)
    assert (r.d, r.exact) == (31, True)
    assert evaluate(code, r.witness).weight == 31


# ---------------------------------------------------------------------------
# method agreement and witness contracts
# ---------------------------------------------------------------------------

# normalized messages; keeps the exhaustive reference cheap
EXHAUSTIVE_CASE_CAP = 1 << 21


def small_code_instances():
    cases = []
    for p, m in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2)]:
        field = make_field(p, m)
        q = field.q
        polys = [
            from_vertices(1, [(0,), (min(2, q - 2),)]) if q > 3 else box([1]),
            box([1, 1]) if q >= 3 else None,
            dilate(standard_simplex(2), 2) if q >= 5 else None,
            from_vertices(2, TRIANGLE) if q >= 5 else None,
        ]
        for poly in polys:
            if poly is None or not poly.fits_in_cube(q):
                continue
            if (q ** len(poly.lattice_points) - 1) // (q - 1) > EXHAUSTIVE_CASE_CAP:
                continue
            cases.append((field, poly))
    return cases


@pytest.mark.parametrize("field,poly", small_code_instances())
def test_exhaustive_and_isd_agree(field, poly):
    code = build_code(poly, field)
    r_ex = min_distance_exhaustive(code)
    r_isd = min_distance_isd(code)
    assert r_ex.exact and r_isd.exact
    assert r_ex.d == r_isd.d
    assert evaluate(code, r_ex.witness).weight == r_ex.d
    assert evaluate(code, r_isd.witness).weight == r_isd.d


def test_witness_is_first_in_enumeration_order():
    code = build_code(box([1, 1]), make_field(3))
    d, first = reference_distance(code)
    assert evaluate(code, first).weight == d
    r = min_distance_exhaustive(code)
    assert r.d == d
    assert list(r.witness) == first


def test_singleton_bound_holds():
    for field, poly in small_code_instances():
        code = build_code(poly, field)
        r = min_distance(code)
        assert code.k + r.d <= code.block_length + 1


def test_distance_antitone_under_dilation():
    # L(P) grows with P, so d cannot increase along nested dilates
    field = make_field(7)
    prev = None
    for k in range(0, 4):
        code = build_code(dilate(standard_simplex(2), k), field)
        d = min_distance(code).d
        if prev is not None:
            assert d <= prev
        prev = d


# ---------------------------------------------------------------------------
# budget handling
# ---------------------------------------------------------------------------

def test_exhaustive_budget_prefix_is_nonexact_upper_bound():
    code = triangle_code(make_field(5))
    full = min_distance_exhaustive(code)
    capped = min_distance_exhaustive(code, budget=code.block_length * 50)
    assert not capped.exact
    assert capped.work_count == 50
    assert capped.lower == 1
    assert capped.upper >= full.d
    assert evaluate(code, capped.witness).weight == capped.d


def test_exhaustive_budget_too_small():
    code = triangle_code(make_field(5))
    with pytest.raises(ValueError, match="budget"):
        min_distance_exhaustive(code, budget=3)


def test_isd_budget_interval():
    code = build_code(product(from_vertices(2, TRIANGLE), box([1])), make_field(5))
    r = min_distance_isd(code, budget=5000 * code.block_length)
    if not r.exact:
        assert 1 <= r.lower <= r.upper
        assert evaluate(code, r.witness).weight == r.upper
    full = min_distance_isd(code)
    assert full.exact and full.d == 24
    assert r.upper >= full.d >= r.lower
    # budgets for exactly the messages of levels 1 and 1..2: a stopped
    # search reports the translation bound ceil(N (w + 1) / k) of its last level
    for field, poly in small_code_instances():
        code = build_code(poly, field)
        n_block, k, q = code.block_length, code.k, field.q
        d = min_distance_exhaustive(code).d
        for levels in (1, 2):
            messages = k + (levels - 1) * comb(k, 2) * (q - 1)
            r = min_distance_isd(code, budget=messages * n_block)
            case = (q, poly.vertices, levels)
            assert -(-n_block // k) <= r.lower <= d <= r.upper == r.d, case
            assert evaluate(code, r.witness).weight == r.upper, case
            if not r.exact:
                assert r.work_count == messages, case
                assert r.lower == -(-n_block * (levels + 1) // k), case


def test_isd_exact_on_2_simplex3_gf7():
    # the translation bound needs levels 1..6, about 2.0 M messages
    code = build_code(dilate(standard_simplex(3), 2), make_field(7))
    r = min_distance_isd(code, budget=2**31)
    assert (code.block_length, code.k) == (216, 10)
    assert (r.d, r.exact, r.lower, r.upper) == (144, True, 144, 144)


# (polytope, q, budget, (d, lower, upper, exact, work_count, witness)): the
# results of the per-prefix ISD kernel, recorded before its level scan was
# batched by last row; every kernel must reproduce each field
S1P1P2 = realize_recipe(ConstructionRecipe((Segment(1), PyramidScale(1), PyramidScale(2))))
S1S1S1 = realize_recipe(ConstructionRecipe((Segment(1), Segment(1), Segment(1))))
S1P2 = realize_recipe(ConstructionRecipe((Segment(1), PyramidScale(2))))
PINNED_ISD = [
    pytest.param(
        from_vertices(3, EX4_VERTICES), 5, 2**27,
        (31, 30, 31, False, 380_133, [0, 0, 1, 1, 3, 3, 2, 3, 2, 4, 1, 0, 0]),
        id="example4-gf5-capped",
    ),
    pytest.param(
        from_vertices(3, EX4_VERTICES), 5, 2**34,
        (31, 31, 31, True, 2_137_317, [0, 0, 1, 1, 3, 3, 2, 3, 2, 4, 1, 0, 0]),
        id="example4-gf5",
    ),
    pytest.param(
        S1P1P2, 7, 2**27,
        (144, 130, 144, False, 376_552, [4, 4, 6, 0, 0, 0, 0, 0, 0, 0]),
        id="s1p1p2-gf7-capped",
    ),
    pytest.param(
        S1S1S1, 7, 2**27,
        (125, 125, 125, True, 17_312, [6, 5, 5, 3, 5, 3, 3, 6]),
        id="s1s1s1-gf7",
    ),
    pytest.param(
        S1P2, 9, 2**27,
        (48, 48, 48, True, 9_086, [8, 5, 2, 0, 0, 0]),
        id="s1p2-gf9",
    ),
    pytest.param(
        from_vertices(2, TRIANGLE), 8, 2**27,
        (28, 28, 28, True, 1_091, [1, 1, 0, 0, 0, 1]),
        id="example1-gf8",
    ),
]


@pytest.mark.parametrize("poly,q,budget,want", PINNED_ISD)
def test_isd_results_are_pinned(poly, q, budget, want):
    r = min_distance(build_code(poly, field_for_order(q)), budget=budget)
    got = (r.d, r.lower, r.upper, r.exact, r.work_count, r.witness.tolist())
    assert got == want


def test_auto_method_dispatch():
    # auto is the ISD on every code; its levels never scan more messages
    # than exhaustive, which stays the cross-check
    for field, poly in small_code_instances():
        code = build_code(poly, field)
        auto = min_distance(code, method="auto")
        isd = min_distance_isd(code)
        case = (field.q, poly.vertices)
        assert auto.method == isd.method == "isd", case
        assert (auto.d, auto.work_count, auto.exact, auto.lower, auto.upper) == (
            isd.d, isd.work_count, isd.exact, isd.lower, isd.upper), case
        assert np.array_equal(auto.witness, isd.witness), case
        assert auto.d == min_distance_exhaustive(code).d, case
        assert auto.work_count <= (field.q**code.k - 1) // (field.q - 1), case
    with pytest.raises(ValueError):
        min_distance(triangle_code(make_field(5)), method="nonsense")


def test_rejects_rank_deficient_code():
    field = make_field(3)
    seg = from_vertices(1, [(0,), (2,)])
    code = build_code(seg, field, allow_outside_cube=True)
    with pytest.raises(ValueError, match="full-rank"):
        min_distance_exhaustive(code)


# ---------------------------------------------------------------------------
# kernels against the plain reference
# ---------------------------------------------------------------------------

# (p, m, k): every field family, k small enough for the reference loop
KERNEL_CASES = [
    (2, 1, 8), (3, 1, 6), (2, 2, 5), (5, 1, 5), (7, 1, 4),
    (2, 3, 4), (3, 2, 4), (2, 4, 3), (5, 2, 3), (3, 3, 3),
]


def random_scaled(field, k, seed, n_cols=None):
    """Scaled rows of a random generator drawn from three values, so weights tie."""
    rng = np.random.default_rng(seed)
    values = rng.choice(field.q, size=min(field.q, 3), replace=False)
    if n_cols is None:
        n_cols = int(rng.integers(5, 30))
    generator = rng.choice(values, size=(k, n_cols))
    return kernels.scaled_rows(field, generator.astype(np.int64))


@pytest.mark.parametrize("p,m,k", KERNEL_CASES)
def test_scaled_rows_are_scalar_products(p, m, k):
    field = make_field(p, m)
    rng = np.random.default_rng(field.q)
    generator = rng.integers(0, field.q, size=(k, 7)).astype(np.uint8)
    scaled = kernels.scaled_rows(field, generator)
    assert scaled.dtype == np.uint8 and scaled.shape == (k, field.q, 7)
    for i, v, t in np.ndindex(scaled.shape):
        assert scaled[i, v, t] == field.mul(v, int(generator[i, t]))


@pytest.mark.parametrize("p,m,k", KERNEL_CASES)
def test_exhaustive_scan_matches_reference(p, m, k, monkeypatch):
    field = make_field(p, m)
    q = field.q
    add_t, sub_t = field.kernel_tables()
    scaled = random_scaled(field, k, seed=q)
    messages = list(normalized_messages(k, q))
    total = len(messages)
    # the default step puts every free row in one block; a step of 1 gives
    # one-row blocks, so the head loop runs
    for step in (kernels._STEP_BYTES, 1):
        monkeypatch.setattr(kernels, "_STEP_BYTES", step)
        for max_messages in (total, total // 3 + 1, 1):
            got = kernels.exhaustive_scan(scaled, add_t, sub_t, q, max_messages)
            assert got == reference_min(scaled, add_t, messages[:max_messages])


# (p, m, k, columns, step): every KERNEL_CASES entry at a random width, plus
# two more: N' > 255, where the accumulator is uint16, and a step of 200
# bytes, which cuts the one 64-head prefix of level 5 into tiles
ISD_CASES = [pytest.param(p, m, k, None, None, id=f"{p}-{m}-{k}") for p, m, k in KERNEL_CASES] + [
    pytest.param(3, 1, 4, 300, None, id="3-1-4-uint16"),
    pytest.param(5, 1, 5, 20, 200, id="5-1-5-split-tiles"),
]


@pytest.mark.parametrize("p,m,k,n_cols,split_step", ISD_CASES)
def test_isd_level_scan_matches_reference(p, m, k, n_cols, split_step, monkeypatch):
    field = make_field(p, m)
    q = field.q
    add_t, sub_t = field.kernel_tables()
    scaled = random_scaled(field, k, seed=q + 1, n_cols=n_cols)
    levels = []
    for level in range(1, k + 1):
        supports = list(itertools.combinations(range(k), level))
        ref = [reference_min(scaled, add_t, support_patterns(s, k, q)) for s in supports]
        levels.append((supports, ref))
    # the default step uses row-pair suffixes from level 3 on and whole
    # prefixes per tile; a step of 1 forces last-row suffixes and one head
    # per tile, so the argmin carries across tiles
    steps = (kernels._STEP_BYTES, 1) + ((split_step,) if split_step else ())
    for step in steps:
        monkeypatch.setattr(kernels, "_STEP_BYTES", step)
        for supports, ref in levels:
            out_w, out_idx = kernels.isd_level_scan(scaled, add_t, sub_t, np.array(supports))
            # the support rows are the pivot columns each message hits
            want = [(w + len(s), j) for s, (w, j) in zip(supports, ref)]
            got = list(zip(out_w.tolist(), out_idx.tolist()))
            assert got == want, step
    if split_step:
        # level k has one support, so one prefix of (q-1)^(k-2) heads; the
        # case's step cuts it into several tiles
        tiles = []
        count = kernels._weights

        def spy(block, neg_heads, acc):
            tiles.append(neg_heads.shape[1])
            return count(block, neg_heads, acc)

        monkeypatch.setattr(kernels, "_STEP_BYTES", split_step)
        monkeypatch.setattr(kernels, "_weights", spy)
        kernels.isd_level_scan(scaled, add_t, sub_t, np.array([range(k)]))
        assert len(tiles) > 1 and sum(tiles) == (q - 1) ** (k - 2), tiles


def test_isd_level_scan_weight_beyond_accumulator():
    """N' = 255 fits the uint8 accumulator; 255 plus the pivots does not."""
    field = make_field(5)
    add_t, sub_t = field.kernel_tables()
    generator = np.zeros((2, 255), dtype=np.int64)
    generator[0] = 1  # every message on rows {0, 1} is nonzero everywhere
    scaled = kernels.scaled_rows(field, generator)
    out_w, out_idx = kernels.isd_level_scan(scaled, add_t, sub_t, np.array([(0, 1)]))
    assert (out_w.tolist(), out_idx.tolist()) == ([257], [0])


# ---------------------------------------------------------------------------
# randomized cross-check against direct evaluation
# ---------------------------------------------------------------------------

def test_random_codes_match_direct_minimum():
    rng = random.Random(101)
    for _ in range(6):
        q = rng.choice([3, 4, 5])
        field = make_field(2, 2) if q == 4 else make_field(q)
        pts = [
            tuple(rng.randrange(0, q - 1) for _ in range(2))
            for _ in range(rng.randrange(2, 5))
        ]
        poly = from_vertices(2, pts)
        code = build_code(poly, field)
        if code.k > 6:
            continue
        ref, _ = reference_distance(code)
        assert min_distance_exhaustive(code).d == ref
        assert min_distance_isd(code).d == ref
