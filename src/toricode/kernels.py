"""Codeword-enumeration kernels: one numpy kernel per search.

The comparison identity
-----------------------
Every message a kernel scans is written as a head h plus a row b of a shared
block, both vectors of length N over GF(q) stored as uint8 element codes.
Symbol t of h + b is zero exactly when b_t = -h_t, because -h_t is the one
additive inverse of h_t in the additive group of GF(p^m). So

    weight(h + b) = #{t : b_t != -h_t},

one uint8 comparison of the block against the negated head -h followed by
a sum over symbols. The identity uses nothing but the group law, so it is
exact over every field the kernels accept (q <= 256, any p and m) and does
no field arithmetic. The kernels take the field's one array arithmetic,
`FieldSpec.arith` (`scaled` is its table of multiples), and read two parts
of it: `add`, which builds the blocks and the heads (a small fraction of the
symbols compared), and the negation map `neg`, neg[v] = -v, which picks the
rows of `scaled` that the negated heads sum. Tables are built with symbols
innermost, (rows, N), so every add runs along whole rows of N symbols, and
compared symbol-major, (N, rows), so the sum over symbols adds contiguous
planes: `_weights` reads each table through one transpose (see Tables).

The count casts nothing: the comparison's bool array is read as uint8 (a
view) and summed in uint8 over chunks of at most 255 symbols, so no chunk
count wraps; the chunk sums are added in the narrowest unsigned dtype that
holds N, the largest weight. `_weights` is this one counting primitive.

Enumeration order and tie-break
-------------------------------
Exhaustive scan: messages are projectively normalized (first nonzero
coefficient = 1) and ordered by the position of that leading coefficient,
then lexicographically by the remaining digits 0..q-1 (last digit fastest).
The block holds every digit combination of the last t rows, so message
index = base(lead) + head index * q^t + block row.

ISD level scan: for each support (rows r_0 < ... < r_{w-1}) the value on
r_0 is 1 and the values on r_1..r_{w-1} run over 1..q-1 lexicographically
(last fastest); the pattern index is that mixed-radix number.

Both kernels return the least (weight, index), an ISD index being the pair
(support index, pattern index), so results do not depend on block or step
sizes. `work_count` in `mindist` is computed from the message counts.

Tables
------
Every block, head and suffix table is a Cartesian sum of rows of `scaled`
in product order, built by `_combos`, one `add` per row: rows of `scaled`
go in as they are, (values, N), and the table comes out (..., entries, N).
Heads are built negated: negation is additive and -(v g) = (-v) g, so a
negated head sums rows of `scaled` at negated values. The transpose to
symbol-major is made once per search for the exhaustive block and for the
ISD row-pair table, and once per tile for heads (a view for one head).

The exhaustive scan has one block, every digit combination of the last t
rows, where t >= 1 is the most rows whose q^t columns fit `_STEP_BYTES`
(the last row itself when t = 1). A lead with f < t free rows
uses the block's first q^f columns, whose leading digits are 0. A lead's
heads are 1 on the lead row and every digit combination of the rows
between it and the block. A tile fixes the digits of the earlier of those
rows and takes every value of the last j, j again the most rows that fit
`_STEP_BYTES`, so consecutive tiles hold consecutive heads. A comparison
takes as many block columns as fit the budget against one head, or the
whole block against as many heads as fit, so the flat argmin of its
weights is the first minimum in message order.

Prefix batching (ISD)
---------------------
A support splits into a prefix and a suffix of s rows: s = 2 (a row pair)
from level 3 on when the table of every pair's (q-1)^2 value patterns fits
`_STEP_BYTES`, else s = 1. That pair table depends only on `scaled`, so
`mindist.min_distance_isd` builds it once per search, with
`row_pair_table`, and passes it to every level; a level with s = 1 makes
one symbol-major copy of the rows that can end a support, the last-row
suffixes. A prefix's heads are value 1 on r_0 and every pattern on
the rest of the prefix.

The supports of one call are every w-subset of range(k) in `combinations`
order, so those sharing a prefix are contiguous, and a prefix ending at
row a is completed by exactly the s-subsets of rows a+1..k-1, each once
and in `combinations` order. In the table of every s-subset of range(k) in
that order (rows for s = 1, `np.triu_indices` pairs for s = 2) those are
the last C(k-1-a, s) entries, since every earlier entry contains a row at
most a. So every prefix that ends at row a has the same suffix block: the
last m = C(k-1-a, s) columns of that table, a view.

The kernel therefore scans one batch per last row a: the heads of all the
prefixes ending at a against that one block. Heads are built for as many
prefixes as fit `_STEP_BYTES` (at least one), and compared in tiles of
`step` of their rows, the most that fit `_STEP_BYTES` against the block,
with no regard for prefix boundaries. A tile whose minimum is above the
best weight is skipped after one `min`. In any other, head h of prefix i
against pattern p of its j-th suffix is support first(i) + j, first(i) the
index of the prefix's first support, and pattern h (q-1)^s + p; the least
(weight, support, pattern) key of the tile's minima replaces the best one
if less. So the kernel returns the level's least key whatever the tiling.

The key, not scan order, breaks ties: a tile's flat order is (prefix,
head, suffix, pattern), and batches do not come in `combinations` order.
At k = 5, level 3, with last-row suffixes, batch a = 2 holds supports 3,
4, 6 and 7 and batch a = 3 holds supports 5, 8 and 9, so support 5 is
scanned after support 6, which "a strictly lower weight replaces, in scan
order" would report when both attain the minimum.
"""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np

# bytes of the uint8 tables and comparisons of one vectorised step: an
# exhaustive block, head tile or comparison, an ISD head table, pair table
# or comparison. Only an item that is larger by itself exceeds it: the last
# row of `scaled` as the block, one head against a block, one prefix's
# heads. The add that builds a table holds one chunk of `gf._ADD_CHUNK`
# outputs more while it runs for odd q (840 KiB measured), none for q = 2^m
_STEP_BYTES = 1 << 20


def scaled_rows(spec, generator: np.ndarray) -> np.ndarray:
    """(k, q, N) uint8 table: scaled[i, v, :] = v * generator[i, :] over GF(q).

    A transposed view of the field's (q, k, N) multiples, no copy: each
    scaled[i, v] row is still contiguous.
    """
    return spec.arith.multiples(generator).transpose(1, 0, 2)


def _combos(ar, tables):
    """Every sum of one entry of each (..., entries, N) table, the first
    table most significant (product order), as a (..., entries product, N)
    table; leading axes are batch axes. Symbols are innermost, so each add
    runs along rows of N. One table is returned as it is. Each sum is
    C-ordered, so its reshape is a view."""
    out = tables[0]
    for table in tables[1:]:
        out = ar.add(out[..., :, None, :], table[..., None, :, :])
        *lead, e1, e2, n = out.shape
        out = out.reshape(*lead, e1 * e2, n)  # no -1: N may be 0
    return out


def _weights(block, neg_heads, acc):
    """weights[i, j] = #{t : block[t, j] != neg_heads[t, i]}.

    Both operands are symbol-major, (N, rows): the sum over symbols then adds
    whole contiguous planes, which numpy vectorises, instead of reducing
    short rows one by one. The longer of the two row axes is the innermost
    one, so every comparison runs along a long contiguous line.

    The comparison's bool array is read as uint8 (a view, no cast) and its
    planes are summed in uint8 over chunks of at most 255 symbols: a chunk
    count is at most 255, so it cannot wrap. The chunk sums are added in
    `acc`, the narrowest unsigned dtype holding N, the largest possible
    weight, so the total is exact too; for N <= 255 there is one chunk and
    nothing is widened.
    """
    if neg_heads.shape[1] <= block.shape[1]:
        a, b, flip = block[:, None, :], neg_heads[:, :, None], False
    else:
        a, b, flip = block[:, :, None], neg_heads[:, None, :], True
    ne = (a != b).view(np.uint8)
    full = len(ne) - len(ne) % 255
    weights = ne[full:].sum(axis=0, dtype=np.uint8)
    if full:
        chunks = ne[:full].reshape(-1, 255, *ne.shape[1:]).sum(axis=1, dtype=np.uint8)
        weights = np.add(chunks.sum(axis=0, dtype=acc), weights, dtype=acc)
    return weights.T if flip else weights


def exhaustive_scan(scaled, ar, q, max_messages):
    """Minimum weight over the first max_messages normalized messages.

    Returns (weight, enumeration_index); the index is the first one attaining
    the minimum.
    """
    k, _, n_cols = scaled.shape
    acc = np.min_scalar_type(n_cols)
    fit = 0  # the most rows whose digit combinations fit _STEP_BYTES
    while q ** (fit + 1) * n_cols <= _STEP_BYTES:
        fit += 1
    # the one block (N, q^t): every digit combination of the last t rows,
    # the last row when t = 1; a lead with f < t free rows uses its first
    # q^f columns, whose leading digits are 0
    t = max(1, min(k - 1, fit))
    block = np.ascontiguousarray(_combos(ar, list(scaled[k - t :])).T)
    best_w, best_idx = n_cols + 1, -1
    base = 0
    for lead in range(k):
        if base >= max_messages:
            break
        free = k - 1 - lead
        count = min(q**free, max_messages - base)
        span = q ** min(free, t)
        # a tile of heads fixes the digits of the first n_fixed head rows
        # and sweeps every value of the rest
        head_rows = range(lead + 1, k - t)
        n_fixed = max(0, len(head_rows) - fit)
        swept = [scaled[r, ar.neg] for r in head_rows[n_fixed:]]  # -(v g) = (-v) g
        tile = q ** len(swept)
        # block columns and heads per comparison within _STEP_BYTES
        cols = min(span, max(1, _STEP_BYTES // n_cols))
        per_call = max(1, _STEP_BYTES // (n_cols * cols))
        for i, digits in enumerate(product(range(q), repeat=n_fixed)):
            if i * tile * span >= count:
                break
            # negated heads (N, tile), 1 on the lead row; a zero row adds nothing
            fixed = [scaled[r, ar.neg[d], None] for r, d in zip(head_rows, digits) if d]
            heads = _combos(ar, [scaled[lead, ar.neg[1], None], *fixed, *swept])
            heads = np.ascontiguousarray(heads.T)
            for c0, b0 in product(range(0, tile, per_call), range(0, span, cols)):
                off = (i * tile + c0) * span + b0
                if off >= count:
                    break
                weights = _weights(block[:, b0 : b0 + cols], heads[:, c0 : c0 + per_call], acc)
                weights = weights.ravel()[: count - off]
                j = int(weights.argmin())
                if int(weights[j]) < best_w:
                    best_w, best_idx = int(weights[j]), base + off + j
        base += q**free
    return best_w, best_idx


def row_pair_table(scaled, ar):
    """The row-pair suffix table, symbol-major (N, pairs, (q-1)^2): column
    (i, c) holds the value patterns of the i-th row pair of range(k) in
    `combinations` order, in pattern order. None when it would exceed
    _STEP_BYTES; the ISD then takes last-row suffixes. It depends only on
    `scaled`, so a search builds it once and passes it to every level."""
    k, q, n_cols = scaled.shape
    r1, r2 = np.triu_indices(k, 1)  # row pairs in combinations order
    if len(r1) * (q - 1) ** 2 * n_cols > _STEP_BYTES:
        return None
    rows = scaled[:, 1:]
    return np.ascontiguousarray(_combos(ar, [rows[r1], rows[r2]]).transpose(2, 0, 1))


def isd_level_scan(scaled, ar, supports, pairs):
    """The level's first minimum over all nonzero value patterns.

    `scaled` holds the rows of a systematic basis on the non-pivot columns
    only; the weight on the pivot columns is the support size and is added
    by the kernel. `supports` must be every w-subset of range(k) in
    `combinations` order (see Prefix batching). `pairs` is
    `row_pair_table(scaled, ar)`: when it is a table, levels from 3 on take
    row-pair suffixes, and when it is None, last-row ones. Returns the
    least (weight, support index, pattern index) as Python ints, a key
    since batches do not come in `combinations` order (see Prefix batching).
    """
    w = supports.shape[1]
    k, q, n_cols = scaled.shape
    acc = np.min_scalar_type(n_cols)
    rows = scaled[:, 1:]  # rows[i, v - 1] = v g_i
    if w == 1:
        weights = np.count_nonzero(rows[supports[:, 0], 0], axis=1)
        i = int(weights.argmin())
        return w + int(weights[i]), i, 0
    # suffix = the last s rows of a support; suffixes[:, i] holds the value
    # patterns of the i-th s-subset in combinations order, in pattern
    # order: of range(k) for pairs, of rows w-1..k-1 (the rows that can
    # end a support) for last rows
    if w >= 3 and pairs is not None:
        s, suffixes = 2, pairs
    else:
        s, suffixes = 1, np.ascontiguousarray(rows[w - 1 :].transpose(2, 0, 1))
    neg = ar.neg[1:]  # scaled[i, neg[v - 1]] = -(v g_i)
    n_pat = (q - 1) ** s
    n_head = (q - 1) ** (w - s - 1)  # heads per prefix
    last = supports[:, -s - 1]  # the last row of each support's prefix
    best = (n_cols + 1, 0, 0)  # (weight off the pivots, support, pattern)
    for a in range(w - s - 1, k - s):
        # each prefix ending at row a, by its first support (see Prefix batching)
        m = comb(k - 1 - a, s)
        first = np.flatnonzero(last == a)[::m]
        block = suffixes[:, -m:].reshape(n_cols, m * n_pat)
        # tiles of `step` head rows; heads built for as many prefixes as fit
        step = max(1, _STEP_BYTES // max(1, block.size))
        n_build = max(1, _STEP_BYTES // max(1, n_head * n_cols))
        for b0 in range(0, len(first), n_build):
            # negated heads (prefixes x heads, N'), 1 on the first row and
            # every pattern after; -(v g) = (-v) g
            pre = supports[first[b0 : b0 + n_build], : w - s]
            tables = [scaled[pre[:, i, None], neg] for i in range(1, w - s)]
            heads = _combos(ar, [scaled[pre[:, :1], neg[0]], *tables])
            heads = heads.reshape(len(pre) * n_head, n_cols)  # no -1: N' may be 0
            for r0 in range(0, len(heads), step):
                weights = _weights(block, np.ascontiguousarray(heads[r0 : r0 + step].T), acc)
                low = int(weights.min())
                if low > best[0]:
                    continue
                # the tile's minima as (support, pattern) keys (see Prefix batching)
                r, c = np.nonzero(weights == low)
                i, h = np.divmod(r0 + r, n_head)
                j, p = np.divmod(c, n_pat)
                sup, pat = first[b0 + i] + j, h * n_pat + p
                t = int(np.argmin(sup * (n_head * n_pat) + pat))
                best = min(best, (low, int(sup[t]), int(pat[t])))
    return w + best[0], best[1], best[2]
