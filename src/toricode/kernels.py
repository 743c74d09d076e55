"""Codeword-enumeration kernels: one numpy kernel per search.

The comparison identity
-----------------------
Every message a kernel scans is written as a head h plus a row b of a shared
block, both vectors of length N over GF(q) stored as uint8 element codes.
Symbol t of h + b is zero exactly when b_t = -h_t, because -h_t is the one
additive inverse of h_t in the additive group of GF(p^m). So

    weight(h + b) = #{t : b_t != -h_t},

one uint8 comparison of the block against the negated head `neg[h]`
(`neg = sub_t[0]`) followed by a sum over symbols. The identity uses nothing
but the group law, so it is exact over every field the kernels accept
(q <= 256, any p and m) and does no field arithmetic. The addition table
`add_t` is used only to build the blocks and the heads, which hold a small
fraction of the symbols compared. Blocks and heads are stored symbol-major,
(N, rows), so the sum over symbols adds contiguous planes.

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

Both kernels return the minimum weight and the first index attaining it,
compared as (weight, index), so results do not depend on block or step
sizes. `work_count` in `mindist` is computed from the message counts.

Prefix batching (ISD)
---------------------
A support splits into a prefix and a suffix of s rows: s = 2 (a row pair)
from level 3 on when the table of every pair's (q-1)^2 value patterns is
small, else s = 1. A prefix's heads are value 1 on r_0 and every pattern on
the rest of the prefix. Pattern index = head index * (q-1)^s + suffix
pattern, so a per-support argmin over heads (outer) and suffix patterns
(inner) recovers the first minimum.

The supports of one call are every w-subset of range(k) in `combinations`
order, so those sharing a prefix are contiguous, and a prefix ending at
row a is completed by exactly the s-subsets of rows a+1..k-1, each once
and in `combinations` order. In the table of every s-subset of range(k) in
that order (rows for s = 1, `np.triu_indices` pairs for s = 2) those are
the last C(k-1-a, s) entries, since every earlier entry contains a row at
most a. So every prefix that ends at row a has the same suffix block: the
last m = C(k-1-a, s) columns of that table, a view.

The kernel therefore scans one batch per last row a: the heads of all the
prefixes ending at a against that one block. A batch is cut into tiles of
whole prefixes, or of equal parts of one prefix when a prefix alone
exceeds the step budget `_STEP_BYTES`, sized by what the tile's way of
counting holds per head (below). Each (prefix, support) keeps its minimum
across the tiles, and only a strictly lower weight replaces it, so the
tiling never changes the first minimum.

Counting equal symbols with BLAS
--------------------------------
weight(h + b) = N - eq with eq = #{t : b_t = -h_t}, and

    eq = sum over (value v, symbol t) of [-h_t = v] * [b_t = v],

the product of two one-hot matrices indexed by (value, symbol). It costs
2q flops per comparison, so it pays only on small fields: a batch over
GF(q), q <= `_BLAS_MAX_Q`, with at least `_BLAS_MIN_HEADS` heads counts
with float32 matmuls. Its tiles keep the float32 counts and their copies,
about 16 bytes per head and block row, within half the step budget, and
each matmul takes a chunk of symbols whose one-hot operands fit in the
other half. Every other batch compares and sums, a tile's uint8
comparisons within the step budget; so does the exhaustive scan, which
passes one head per call and stays a plain cross-check that does not
depend on BLAS. Whole ISD searches over GF(5) ran faster with the
matmuls. Over GF(7) they won on some codes and lost on others, and from
GF(8) on they lose to compare-and-sum on most tile shapes measured, from
GF(16) on on every one.

The count is exact. Every product is 0 or 1, so every partial sum, in any
order, is an integer between 0 and N. `codes.GENERATOR_CAP` bounds k * N by
2^24, so N <= 2^24, and float32 holds every integer up to 2^24 exactly. No
partial sum is ever rounded, so neither BLAS's blocking nor the threads of
numpy's BLAS can change a weight.
"""

from __future__ import annotations

from itertools import product
from math import comb

import numpy as np

from .gf import table_lookup

# bytes of the temporaries of one vectorised step: the uint8 comparisons of
# an exhaustive block or an ISD tile, an ISD tile's float32 counts and
# one-hot operands; also caps the ISD pair table
_STEP_BYTES = 1 << 20
# an ISD batch counts equal symbols with float32 matmuls when q is at most
# _BLAS_MAX_Q and it holds at least _BLAS_MIN_HEADS heads; otherwise it
# compares and sums (see Counting equal symbols with BLAS)
_BLAS_MAX_Q = 5
_BLAS_MIN_HEADS = 64


def scaled_rows(spec, generator: np.ndarray) -> np.ndarray:
    """(k, q, N) uint8 table: scaled[i, v, :] = v * generator[i, :] over GF(q)."""
    table = np.take(spec.mul_table(), generator, axis=1)  # (q, k, N)
    return np.ascontiguousarray(table.transpose(1, 0, 2))


def _weights(block, neg_heads, acc):
    """weights[i, j] = #{t : block[t, j] != neg_heads[t, i]}.

    Both operands are symbol-major, (N, rows): the sum over symbols then adds
    whole contiguous planes, which numpy vectorises, instead of reducing
    short rows one by one. The longer of the two row axes is the innermost
    one, so every comparison runs along a long contiguous line. `acc` is the
    narrowest unsigned dtype holding N, the largest possible weight, so the
    narrow sum is exact.
    """
    if neg_heads.shape[1] <= block.shape[1]:
        return (block[:, None, :] != neg_heads[:, :, None]).sum(axis=0, dtype=acc)
    return (block[:, :, None] != neg_heads[:, None, :]).sum(axis=0, dtype=acc).T


def _blas_weights(block, neg_heads, acc, q):
    """`_weights` as N - eq, eq from float32 matmuls of one-hot operands.

    One matmul per chunk of symbols that keeps the two one-hot operands,
    bool and float32, within half of `_STEP_BYTES` (see Counting
    equal symbols with BLAS).
    """
    n_cols, n_rows = block.shape
    n_heads = neg_heads.shape[1]
    values = np.arange(q, dtype=np.uint8)[:, None, None]
    chunk = max(1, _STEP_BYTES // (10 * q * (n_heads + n_rows)))  # symbols
    # block rows outer: measured to touch less of BLAS's packing buffers
    eq = np.zeros((n_rows, n_heads), dtype=np.float32)
    for t0 in range(0, n_cols, chunk):
        # one-hot, index (value, symbol): 1.0 where the symbol has the value
        a = (neg_heads[None, t0 : t0 + chunk] == values).astype(np.float32)
        b = (block[None, t0 : t0 + chunk] == values).astype(np.float32)
        eq += b.reshape(-1, n_rows).T @ a.reshape(-1, n_heads)
    return (n_cols - eq).astype(acc).T


def exhaustive_scan(scaled, add_t, sub_t, q, max_messages):
    """Minimum weight over the first max_messages normalized messages.

    Returns (weight, enumeration_index); the index is the first one attaining
    the minimum.
    """
    k, _, n_cols = scaled.shape
    neg = sub_t[0]
    acc = np.min_scalar_type(n_cols)
    # blocks[t]: (N, q^t), every digit combination of the last t rows, first
    # row most significant; built once and shared by every lead
    blocks = [np.zeros((n_cols, 1), dtype=np.uint8)]
    while len(blocks) < k and (len(blocks) == 1 or q * blocks[-1].size <= _STEP_BYTES):
        row = scaled[k - len(blocks)].T
        block = table_lookup(add_t, row[:, :, None], blocks[-1][:, None, :])
        blocks.append(block.reshape(n_cols, -1))
    best_w, best_idx = n_cols + 1, -1
    base = 0
    for lead in range(k):
        if base >= max_messages:
            break
        free = k - 1 - lead
        count = min(q**free, max_messages - base)
        t = min(free, len(blocks) - 1)
        block, span = blocks[t], q**t
        head_rows = range(lead + 1, k - t)
        for combo_idx, combo in enumerate(product(range(q), repeat=len(head_rows))):
            off = combo_idx * span
            if off >= count:
                break
            head = scaled[lead, 1]
            for row, val in zip(head_rows, combo):
                if val:
                    head = table_lookup(add_t, head, scaled[row, val])
            weights = _weights(block[:, : count - off], neg[head][:, None], acc)[0]
            j = int(weights.argmin())
            if int(weights[j]) < best_w:
                best_w, best_idx = int(weights[j]), base + off + j
        base += q**free
    return best_w, best_idx


def isd_level_scan(scaled, add_t, sub_t, supports):
    """Per-support minimum weight over all nonzero value patterns.

    `scaled` holds the rows of a systematic basis on the non-pivot columns
    only; the weight on the pivot columns is the support size and is added
    by the kernel. `supports` must be every w-subset of range(k) in
    `combinations` order (see Prefix batching). Returns (weights, pattern
    indices), one per support.
    """
    supports = np.ascontiguousarray(supports, dtype=np.int64)
    n_sup, w = supports.shape
    k, q, n_cols = scaled.shape
    acc = np.min_scalar_type(n_cols)
    if w == 1:
        weights = np.count_nonzero(scaled[supports[:, 0], 1], axis=1)
        return w + weights, np.zeros(n_sup, dtype=np.int64)
    rows = np.ascontiguousarray(scaled[:, 1:].transpose(2, 0, 1))  # (N, k, q-1)
    neg_rows = sub_t[0][rows]
    # suffix = the last s rows of a support: a row pair when the table of
    # every pair's value patterns is small, else the last row alone;
    # suffixes[:, i] holds the value patterns of the i-th s-subset of
    # range(k) in combinations order, in pattern order
    r1, r2 = np.triu_indices(k, 1)  # row pairs in combinations order
    if w >= 3 and len(r1) * (q - 1) ** 2 * n_cols <= _STEP_BYTES:
        s = 2
        suffixes = table_lookup(add_t, rows[:, r1, :, None], rows[:, r2, None, :])
        suffixes = suffixes.reshape(n_cols, len(r1), -1)
    else:
        s = 1
        suffixes = rows
    n_pat = (q - 1) ** s
    n_head = (q - 1) ** (w - s - 1)  # heads per prefix
    # supports grouped by the last row of their prefix, each group in
    # combinations order: prefix by prefix, m supports each (see Prefix batching)
    prefixes = supports[:, :-s]
    last = prefixes[:, -1]
    order = np.argsort(last, kind="stable")
    grouped = prefixes[order]
    found_w, found_j = [], []
    lo = 0
    for a, count in enumerate(np.bincount(last, minlength=k).tolist()):
        if not count:
            continue
        m = comb(k - 1 - a, s)
        batch = grouped[lo : lo + count : m]  # the prefixes ending at row a
        lo += count
        block = suffixes[:, -m:].reshape(n_cols, m * n_pat)
        n_rows = block.shape[1]
        # one way of counting per batch, and tiles of whole prefixes, or of
        # equal parts of one prefix, whose temporaries fit in _STEP_BYTES
        # bytes: the comparisons, or the float32 counts and their copies
        # (16 bytes per head and block row) with half the budget
        blas = q <= _BLAS_MAX_Q and len(batch) * n_head >= _BLAS_MIN_HEADS
        step = max(1, _STEP_BYTES // (32 * n_rows if blas else block.size))
        n_grp = max(1, step // n_head)
        parts = -(-n_head // step)
        step = -(-n_head // parts)
        for g0 in range(0, len(batch), n_grp):
            # negated heads (N, prefixes, heads), 1 on the first row and every
            # pattern after; negation is additive, so add the negated rows
            pre = batch[g0 : g0 + n_grp]
            n_pre = len(pre)
            heads = neg_rows[:, pre[:, 0], :1]
            for i in range(1, pre.shape[1]):
                heads = table_lookup(add_t, heads[:, :, :, None], neg_rows[:, pre[:, i], None, :])
                heads = heads.reshape(n_cols, n_pre, -1)
            for h0 in range(0, n_head, step):
                tile = heads[:, :, h0 : h0 + step].reshape(n_cols, -1)
                if blas:
                    weights = _blas_weights(block, tile, acc, q)
                else:
                    weights = _weights(block, tile, acc)
                # (prefixes, heads, supports, suffix patterns) -> per prefix
                # and support, heads outer and suffix patterns inner
                weights = weights.reshape(n_pre, -1, m, n_pat).transpose(0, 2, 1, 3)
                weights = weights.reshape(n_pre, m, -1)
                wmin = weights.min(axis=2)
                j = h0 * n_pat + weights.argmin(axis=2)
                if h0:  # a later part of the same prefixes
                    better = wmin < best_w
                    best_w = np.where(better, wmin, best_w)
                    best_j = np.where(better, j, best_j)
                else:
                    best_w, best_j = wmin, j
            found_w.append(best_w.ravel())
            found_j.append(best_j.ravel())
    out_w = np.empty(n_sup, dtype=np.int64)
    out_idx = np.empty(n_sup, dtype=np.int64)
    out_w[order] = w + np.concatenate(found_w).astype(np.int64)
    out_idx[order] = np.concatenate(found_j)
    return out_w, out_idx
