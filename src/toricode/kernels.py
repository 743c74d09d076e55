"""Codeword-enumeration kernels: one comparison-based numpy kernel per search.

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
small, else s = 1. The supports of one call are every w-subset of
range(k) in `combinations` order, so those sharing a prefix are contiguous.
Their heads (value 1 on r_0, every pattern on the rest of the prefix) are
built once and compared against the suffix patterns of every support in
the group at once. Pattern index = head index * (q-1)^s + suffix pattern,
so a per-support argmin over heads (outer) and suffix patterns (inner)
recovers the first minimum.

A group whose prefix ends at row a holds exactly the s-subsets of rows
a+1..k-1, each once and in `combinations` order. In the table of every
s-subset of range(k) in that order (rows for s = 1, `np.triu_indices`
pairs for s = 2) those are the last C(k-1-a, s) entries, since every
earlier entry contains a row at most a. So the group's suffix block is the
last m columns of that table, a view; no per-group gather is made.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .gf import table_lookup

# symbols compared per vectorised step; also caps the exhaustive blocks and
# the ISD pair table
_STEP_SYMBOLS = 1 << 20


def scaled_rows(spec, generator: np.ndarray) -> np.ndarray:
    """(k, q, N) uint8 table: scaled[i, v, :] = v * generator[i, :] over GF(q)."""
    table = np.take(spec.mul_table(), generator, axis=1)  # (q, k, N)
    return np.ascontiguousarray(table.transpose(1, 0, 2))


def _weights(block, neg_heads, acc):
    """weights[i, j] = #{t : block[t, j] != neg_heads[t, i]}.

    Both operands are symbol-major, (N, rows): the sum over symbols then adds
    whole contiguous planes, which numpy vectorises, instead of reducing
    short rows one by one. `acc` is the narrowest unsigned dtype holding N,
    the largest possible weight, so the narrow sum is exact.
    """
    return (block[:, None, :] != neg_heads[:, :, None]).sum(axis=0, dtype=acc)


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
    while len(blocks) < k and (len(blocks) == 1 or q * blocks[-1].size <= _STEP_SYMBOLS):
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
    if w >= 3 and len(r1) * (q - 1) ** 2 * n_cols <= _STEP_SYMBOLS:
        s = 2
        suffixes = table_lookup(add_t, rows[:, r1, :, None], rows[:, r2, None, :])
        suffixes = suffixes.reshape(n_cols, len(r1), -1)
    else:
        s = 1
        suffixes = rows
    n_pat = (q - 1) ** s
    out_w = np.empty(n_sup, dtype=np.int64)
    out_idx = np.empty(n_sup, dtype=np.int64)
    prefixes = supports[:, :-s]
    new_prefix = np.any(prefixes[1:] != prefixes[:-1], axis=1)
    starts = np.flatnonzero(np.concatenate(([True], new_prefix)))
    for lo, hi in zip(starts, np.append(starts[1:], n_sup)):
        prefix = prefixes[lo]
        neg_heads = neg_rows[:, prefix[0], :1]  # (N, heads)
        for row in prefix[1:]:
            neg_heads = table_lookup(add_t, neg_heads[:, :, None], neg_rows[:, row, None, :])
            neg_heads = neg_heads.reshape(n_cols, -1)
        # the group's suffixes are the last m s-subsets (see Prefix batching)
        m = hi - lo
        block = suffixes[:, -m:].reshape(n_cols, m * n_pat)
        best_w = np.full(m, n_cols + 1, dtype=np.int64)
        best_j = np.zeros(m, dtype=np.int64)
        step = max(1, _STEP_SYMBOLS // block.size)
        for h0 in range(0, neg_heads.shape[1], step):
            weights = _weights(block, neg_heads[:, h0 : h0 + step], acc)
            # (heads, supports, suffix patterns) -> per support, pattern order
            weights = weights.reshape(-1, m, n_pat).transpose(1, 0, 2).reshape(m, -1)
            j = weights.argmin(axis=1)
            wmin = weights[np.arange(m), j]
            better = wmin < best_w
            best_w[better] = wmin[better]
            best_j[better] = h0 * n_pat + j[better]
        out_w[lo:hi] = w + best_w
        out_idx[lo:hi] = best_j
    return out_w, out_idx
