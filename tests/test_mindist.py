"""Minimum distance search tests: exhaustive, information-set, kernels.

The kernels are checked against one plain reference loop that sums each
message's codeword row by row through a dense addition table built from
`add_arrays`, apart from the kernels' arithmetic.
"""

import inspect
import itertools
import random
from math import comb

import numpy as np
import pytest

from toricode import gf as gf_module
from toricode import kernels, mindist
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


def add_table(field):
    """Dense (q, q) uint8 addition table from the int64 `add_arrays`."""
    a, b = np.divmod(np.arange(field.q**2), field.q)
    return field.add_arrays(a, b).astype(np.uint8).reshape(field.q, field.q)


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
    add_t = add_table(code.field)
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


@pytest.mark.parametrize("method", ["exhaustive", "isd"])
def test_scaled_table_over_the_cap_is_refused_before_it_is_built(method, monkeypatch):
    code = triangle_code(make_field(5))
    size = code.k * code.field.q * code.block_length

    def refuse(*_):
        raise AssertionError("scaled rows built over the cap")

    monkeypatch.setattr(mindist, "SCALED_CAP", size - 1)
    monkeypatch.setattr(kernels, "scaled_rows", refuse)
    with pytest.raises(ValueError, match=f"k x q x N = {size} bytes exceeds the cap {size - 1}"):
        min_distance(code, method=method)
    monkeypatch.undo()
    monkeypatch.setattr(mindist, "SCALED_CAP", size)  # a table at the cap is built
    assert min_distance(code, method=method).d == 8


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


def test_kernel_signatures_keep_the_benchmark_bindings():
    """The benchmark tracer binds kernel arguments by name and reads
    scaled.shape[1:] as (q, N); a rename would surface only as a crash in a
    traced run."""
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"scaled", "q", "max_messages"} <= params(kernels.exhaustive_scan)
    assert {"scaled", "supports"} <= params(kernels.isd_level_scan)
    field = make_field(3, 2)
    generator = np.arange(2 * 5).reshape(2, 5) % field.q
    assert kernels.scaled_rows(field, generator).shape == (2, field.q, 5)


# (p, m, k, columns, steps): every KERNEL_CASES entry at a random width,
# plus N = 300 > 255, where the counts take two chunks, under steps that
# give the last row as a view block with one swept head row and two heads
# per comparison, and the same block compared three columns at a time
EXHAUSTIVE_CASES = [
    pytest.param(p, m, k, None, (), id=f"{p}-{m}-{k}") for p, m, k in KERNEL_CASES
] + [pytest.param(5, 1, 5, 300, (3000, 1000), id="5-1-5-wide")]


@pytest.mark.parametrize("p,m,k,n_cols,more_steps", EXHAUSTIVE_CASES)
def test_exhaustive_scan_matches_reference(p, m, k, n_cols, more_steps, monkeypatch):
    field = make_field(p, m)
    q = field.q
    add_t = add_table(field)
    scaled = random_scaled(field, k, seed=q, n_cols=n_cols)
    messages = list(normalized_messages(k, q))
    total = len(messages)
    # the default step puts every free row in one block; a step of 1 gives
    # the last row as a view block and one head per tile
    for step in (kernels._STEP_BYTES, 1) + more_steps:
        monkeypatch.setattr(kernels, "_STEP_BYTES", step)
        for max_messages in (total, total // 3 + 1, 1):
            got = kernels.exhaustive_scan(scaled, field.arith, q, max_messages)
            assert got == reference_min(scaled, add_t, messages[:max_messages]), step


@pytest.mark.parametrize("sizes", [(3,), (3, 1), (3, 1, 4)], ids=["1", "2", "3"])
@pytest.mark.parametrize("batch", [(), (4,)], ids=["plain", "batch"])
def test_combos_is_product_order(sizes, batch):
    """Entry c of _combos, a row of N = 5 symbols, is the sum picked by the
    c-th itertools.product tuple, through the addition table (GF(9)) and
    through XOR (GF(8))."""
    for field in (make_field(3, 2), make_field(2, 3)):
        rng = np.random.default_rng(len(sizes))
        tables = [rng.integers(0, field.q, size=(*batch, v, 5), dtype=np.uint8) for v in sizes]
        got = kernels._combos(field.arith, tables)
        assert got.shape == (*batch, np.prod(sizes), 5)
        for c, picks in enumerate(itertools.product(*map(range, sizes))):
            want = tables[0][..., picks[0], :]
            for table, i in zip(tables[1:], picks[1:]):
                want = field.add_arrays(want, table[..., i, :])
            assert np.array_equal(got[..., c, :], want), (field, picks)


@pytest.mark.parametrize("p,m", [(3, 2), (2, 3)], ids=["lookup", "xor"])
def test_combos_of_transposed_rows_is_c_ordered(p, m):
    """The exhaustive block is built from rows of `scaled` as they are,
    (q, N) views that are not C-ordered (`scaled` is a transposed view);
    each sum must come out C-ordered, or the reshape to (q^t, N) copies it."""
    field = make_field(p, m)
    ar = field.arith
    generator = np.random.default_rng(m).integers(0, field.q, size=(3, 11))
    rows = list(kernels.scaled_rows(field, generator))
    assert not rows[0].flags.c_contiguous
    assert ar.add(rows[0][:, None, :], rows[1][None, :, :]).flags.c_contiguous
    for t in (2, 3):
        block = kernels._combos(ar, rows[:t])
        assert block.shape == (field.q**t, 11) and block.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 254, 255, 256, 510, 511, 600])
@pytest.mark.parametrize("n_block,n_heads", [(5, 3), (3, 5)], ids=["block-wider", "heads-wider"])
def test_weights_match_direct_count(n, n_block, n_heads):
    """Counts up to N in both orientations, across the 255-symbol chunks."""
    rng = np.random.default_rng(n)
    block = rng.integers(0, 2, size=(n, n_block), dtype=np.uint8)
    heads = rng.integers(0, 2, size=(n, n_heads), dtype=np.uint8)
    block[:, 0] = 1  # every symbol differs: weight N exactly
    heads[:, 0] = 0
    heads[:, 1] = block[:, 1]  # every symbol agrees: weight 0
    acc = np.min_scalar_type(n)
    got = kernels._weights(block, heads, acc)
    want = (block[:, None, :] != heads[:, :, None]).sum(axis=0)
    assert got.shape == (n_heads, n_block) and got.dtype == acc
    assert (got == want).all()
    assert got[0, 0] == n and got[1, 1] == 0


@pytest.mark.parametrize("step", [3000, 1000, 1])
def test_exhaustive_scan_tables_fit_the_step(step, monkeypatch):
    """No block or head table that the scan builds exceeds max(step, N) bytes."""
    field = make_field(5)
    q, k, n_cols = field.q, 5, 300
    scaled = random_scaled(field, k, seed=q, n_cols=n_cols)
    sizes = []
    add = gf_module._Arith.add

    def spy(self, a, b):
        out = add(self, a, b)
        sizes.append(out.nbytes)
        return out

    monkeypatch.setattr(kernels, "_STEP_BYTES", step)
    monkeypatch.setattr(gf_module._Arith, "add", spy)
    kernels.exhaustive_scan(scaled, field.arith, q, (q**k - 1) // (q - 1))
    assert sizes and max(sizes) <= max(step, n_cols), sizes


# the benchmark's exhaustive workload: one code per field family, with the
# results of the scan before its counting and head build were batched
EXHAUSTIVE_PINS = [
    pytest.param(lambda: box([1, 1, 1]), (7, 1), 125, [1] * 8, 960800, id="cube@GF(7)"),
    pytest.param(lambda: dilate(standard_simplex(2), 2), (2, 4), 195, [1, 0, 0, 1, 0, 1],
                 1118481, id="2simplex2@GF(16)"),
    pytest.param(
        lambda: realize_recipe(ConstructionRecipe((Segment(1), Segment(2), PyramidScale(1)))),
        (3, 2), 336, [1, 0, 0, 1, 1, 0, 1], 597871, id="S1S2P1@GF(9)",
    ),
]


@pytest.mark.parametrize("polytope,field,d,witness,work", EXHAUSTIVE_PINS)
def test_exhaustive_results_are_pinned(polytope, field, d, witness, work):
    r = min_distance_exhaustive(build_code(polytope(), make_field(*field)))
    assert (r.d, r.witness.tolist(), r.work_count, r.exact) == (d, witness, work, True)
    assert (r.lower, r.upper) == (d, d)


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
    add_t = add_table(field)
    scaled = random_scaled(field, k, seed=q + 1, n_cols=n_cols)
    levels = []
    for level in range(1, k + 1):
        supports = list(itertools.combinations(range(k), level))
        ref = [reference_min(scaled, add_t, support_patterns(s, k, q)) for s in supports]
        levels.append((supports, ref))
    # the default step uses row-pair suffixes from level 3 on and whole
    # prefixes per tile; a step of 1 forces last-row suffixes (no pair
    # table) and one head per tile, so the argmin carries across tiles
    default = kernels._STEP_BYTES
    steps = (default, 1) + ((split_step,) if split_step else ())
    for step in steps:
        monkeypatch.setattr(kernels, "_STEP_BYTES", step)
        pairs = kernels.row_pair_table(scaled, field.arith)  # once, as a search does
        assert (pairs is not None) == (step == default), step
        for supports, ref in levels:
            out_w, out_idx = kernels.isd_level_scan(scaled, field.arith, np.array(supports), pairs)
            # the support rows are the pivot columns each message hits
            want = [(w + len(s), j) for s, (w, j) in zip(supports, ref)]
            got = list(zip(out_w.tolist(), out_idx.tolist()))
            assert got == want, step
    # at the default step every level from 3 on compares against views of
    # the pair table, the row-pair suffix
    monkeypatch.setattr(kernels, "_STEP_BYTES", default)
    pairs = kernels.row_pair_table(scaled, field.arith)
    blocks = []
    count = kernels._weights

    def spy_blocks(block, neg_heads, acc):
        blocks.append(block)
        return count(block, neg_heads, acc)

    monkeypatch.setattr(kernels, "_weights", spy_blocks)
    for supports, _ in levels[2:]:
        blocks.clear()
        kernels.isd_level_scan(scaled, field.arith, np.array(supports), pairs)
        assert blocks and all(np.shares_memory(b, pairs) for b in blocks), len(supports[0])
    if split_step:
        # level k has one support, so one prefix of (q-1)^(k-2) heads; the
        # case's step cuts it into several tiles
        tiles = []

        def spy(block, neg_heads, acc):
            tiles.append(neg_heads.shape[1])
            return count(block, neg_heads, acc)

        monkeypatch.setattr(kernels, "_STEP_BYTES", split_step)
        monkeypatch.setattr(kernels, "_weights", spy)
        pairs = kernels.row_pair_table(scaled, field.arith)
        kernels.isd_level_scan(scaled, field.arith, np.array([range(k)]), pairs)
        assert len(tiles) > 1 and sum(tiles) == (q - 1) ** (k - 2), tiles


@pytest.mark.parametrize("step", [1 << 20, 3000, 200])
def test_isd_tables_fit_the_step(step, monkeypatch):
    """The ISD counterpart of test_exhaustive_scan_tables_fit_the_step: a
    search builds the row-pair table once, not once per level, and within
    its gate; no head table exceeds max(step, one prefix's heads) bytes,
    one prefix's heads being (q-1)^(w-s-1) x N'."""
    field = make_field(5)
    q = field.q
    code = build_code(product(from_vertices(2, TRIANGLE), box([1])), field)
    build_pairs, scan, combos = kernels.row_pair_table, kernels.isd_level_scan, kernels._combos
    pair_tables, bounds, heads = [], [], []

    def spy_pairs(scaled, ar):
        pair_tables.append(build_pairs(scaled, ar))
        return pair_tables[-1]

    def spy_scan(scaled, ar, supports, pairs):
        w = supports.shape[1]
        s = 2 if w >= 3 and pairs is not None else 1
        bounds.append(max(step, (q - 1) ** (w - s - 1) * scaled.shape[2]))
        try:
            return scan(scaled, ar, supports, pairs)
        finally:
            bounds.pop()

    def spy_combos(ar, tables):
        out = combos(ar, tables)
        if bounds and len(tables) > 1:
            heads.append((out.nbytes, bounds[-1]))
        return out

    monkeypatch.setattr(kernels, "_STEP_BYTES", step)
    monkeypatch.setattr(kernels, "row_pair_table", spy_pairs)
    monkeypatch.setattr(kernels, "isd_level_scan", spy_scan)
    monkeypatch.setattr(kernels, "_combos", spy_combos)
    r = min_distance_isd(code)
    assert (r.d, r.exact) == (24, True)
    assert len(pair_tables) == 1
    assert (pair_tables[0] is None) == (step < (1 << 20))
    assert pair_tables[0] is None or pair_tables[0].nbytes <= step
    assert heads and all(size <= bound for size, bound in heads), heads


def test_isd_level_scan_weight_beyond_accumulator():
    """N' = 255 fits the uint8 accumulator; 255 plus the pivots does not."""
    field = make_field(5)
    generator = np.zeros((2, 255), dtype=np.int64)
    generator[0] = 1  # every message on rows {0, 1} is nonzero everywhere
    scaled = kernels.scaled_rows(field, generator)
    out_w, out_idx = kernels.isd_level_scan(scaled, field.arith, np.array([(0, 1)]), None)
    assert (out_w.tolist(), out_idx.tolist()) == ([257], [0])


@pytest.mark.parametrize("p,m", [(5, 1), (2, 2), (3, 2)], ids=["GF(5)", "GF(4)", "GF(9)"])
def test_isd_when_every_column_is_a_pivot(p, m):
    """The segment [0, q-2] has k = N, so every column is a pivot and the
    ISD scans N' = 0 columns: the code is the whole space, d = 1. The
    kernels take the empty rows and the empty pair table at every level."""
    field = make_field(p, m)
    q = field.q
    code = build_code(box([q - 2]), field)
    assert code.k == code.block_length
    r, ex = min_distance_isd(code), min_distance_exhaustive(code)
    assert (r.d, r.exact, r.lower, r.upper) == (1, True, 1, 1)
    assert (ex.d, ex.exact) == (r.d, True)
    k = code.k
    scaled = kernels.scaled_rows(field, np.zeros((k, 0), dtype=np.int64))
    pairs = kernels.row_pair_table(scaled, field.arith)
    assert pairs.shape == (0, comb(k, 2), (q - 1) ** 2)
    for level in range(1, k + 1):
        supports = np.array(list(itertools.combinations(range(k), level)))
        out_w, out_idx = kernels.isd_level_scan(scaled, field.arith, supports, pairs)
        assert (out_w == level).all() and (out_idx == 0).all(), level


def test_isd_on_the_cube_where_every_column_is_a_pivot():
    """[0, 2]^3 over GF(4): k = N = 27, the whole space, d = 1."""
    code = build_code(box([2, 2, 2]), make_field(2, 2))
    assert code.k == code.block_length == 27
    r = min_distance_isd(code)
    assert (r.d, r.exact, r.work_count) == (1, True, 27)


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
