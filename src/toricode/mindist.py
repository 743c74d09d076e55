"""Exact minimum distance of a toric code.

Two routes:

* exhaustive -- walk all (q^k - 1)/(q - 1) projectively normalized messages
  (leading coefficient 1; scaling preserves weight);
* isd -- an information-set method: one row reduction gives an information
  set S, messages of growing weight on S are enumerated level by level, and
  the search stops once ceil(N (w + 1) / k) -- the bound that the torus
  translations of S give after level w -- meets the best weight found.
  Exact whenever it terminates within budget.

`auto` is the ISD. Its levels split the exhaustive message set exactly,
sum_{l=1..k} C(k, l) (q-1)^(l-1) = (q^k - 1)/(q - 1), so it never scans
more messages than exhaustive; and a budget that covers every message
covers every level, where level k gives ceil(N (k + 1) / k) > N >= the
best weight, so the ISD is then exact. Exhaustive runs only when asked for
by name, as the plain cross-check of the ISD.

Both report a deterministic witness: the first message in enumeration order
attaining the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import kernels
from .codes import ToricCode, evaluate
from .gf import gf_matvec, row_reduce

DEFAULT_BUDGET = 2**34  # codeword-symbol operations
# bytes of the (k, q, N) table of scaled generator rows, refused before
# anything is built. A search holds the table itself and, in the ISD, one
# row-pair table of at most kernels._STEP_BYTES; while a level takes
# last-row suffixes it also holds their symbol-major copy, under the table
SCALED_CAP = 1 << 25


@dataclass(frozen=True)
class MinDistResult:
    d: int
    z_p: int
    witness: np.ndarray
    method: str
    work_count: int
    exact: bool
    lower: int
    upper: int

    def __repr__(self) -> str:
        flag = "exact" if self.exact else f"bounds [{self.lower}, {self.upper}]"
        return f"MinDistResult(d={self.d}, method={self.method}, {flag})"


def _prepare(code: ToricCode):
    spec = code.field
    if code.k < 1:
        raise ValueError("the code has dimension zero")
    if code.k != len(code.monomials):
        raise ValueError(
            "minimum-distance search needs a full-rank generator; "
            "build the code inside the cube [0, q-2]^n"
        )
    size = code.k * spec.q * code.block_length
    if size > SCALED_CAP:
        raise ValueError(
            f"scaled-row table of k x q x N = {size} bytes exceeds the cap {SCALED_CAP}"
        )
    return spec


def _decode_message(k: int, q: int, idx: int) -> np.ndarray:
    lead = 0
    while True:
        size = q ** (k - 1 - lead)
        if idx < size:
            break
        idx -= size
        lead += 1
    msg = np.zeros(k, dtype=np.int64)
    msg[lead] = 1
    for pos in range(k - 1, lead, -1):
        msg[pos] = idx % q
        idx //= q
    return msg


def _checked_result(code, d, witness, method, work, exact, lower, upper):
    cw = evaluate(code, witness)
    if cw.weight != d:
        raise AssertionError(
            f"witness weight {cw.weight} does not match reported distance {d}"
        )
    n_block = code.block_length
    return MinDistResult(
        d=d,
        z_p=n_block - d,
        witness=witness,
        method=method,
        work_count=work,
        exact=exact,
        lower=lower,
        upper=upper,
    )


def min_distance_exhaustive(
    code: ToricCode,
    budget: int = DEFAULT_BUDGET,
) -> MinDistResult:
    """Enumerate every normalized message; exact within budget.

    If the budget caps the enumeration, the result covers a deterministic
    prefix of the message order and is flagged non-exact (d is an upper
    bound).
    """
    spec = _prepare(code)
    q = spec.q
    k = code.k
    n_block = code.block_length
    total = (q**k - 1) // (q - 1)
    max_messages = min(total, budget // n_block)
    if max_messages < 1:
        raise ValueError(
            f"budget {budget} cannot scan a single codeword of length {n_block}"
        )
    scaled = kernels.scaled_rows(spec, code.generator)
    best_w, best_idx = kernels.exhaustive_scan(scaled, spec.arith, q, max_messages)
    witness = _decode_message(k, q, best_idx)
    exact = max_messages == total
    return _checked_result(
        code,
        d=best_w,
        witness=witness,
        method="exhaustive",
        work=max_messages,
        exact=exact,
        lower=best_w if exact else 1,
        upper=best_w,
    )


def _isd_witness(support, pattern_idx: int, k: int, q: int) -> np.ndarray:
    """Message on the information set: 1 on the first support row, the pattern after."""
    w = len(support)
    msg = np.zeros(k, dtype=np.int64)
    msg[support[0]] = 1
    for i in range(w - 1, 0, -1):
        msg[support[i]] = 1 + pattern_idx % (q - 1)
        pattern_idx //= q - 1
    return msg


def min_distance_isd(
    code: ToricCode,
    budget: int = DEFAULT_BUDGET,
) -> MinDistResult:
    """Information-set search bounded by the torus translations.

    One row reduction of the generator, in natural column order, gives an
    information set S of k pivot columns and a systematic basis whose rows
    are the identity on S. Level w enumerates every message with w nonzero
    coefficients, that is every codeword (up to scaling) with exactly w
    nonzeros on S. After level w every codeword not yet scanned has weight
    at least ceil(N (w + 1) / k); before level 1 the bound is ceil(N / k).
    The search stops as soon as that bound reaches the best weight found,
    and returns a non-exact [lower, upper] interval if the budget runs out
    first.

    Why the bound is sound: shifting the torus exponents, j -> j + t,
    permutes the columns and maps the code to itself, because it scales
    monomial m by g^<m, t>. The N shifts act regularly on the columns, so
    each column lies in exactly k translates S + t, and each translate is
    an information set. If a codeword c has at most w nonzeros on some
    S + t, its shift by -t has the same weight and at most w nonzeros on
    S, so a codeword of weight wt(c) has been scanned. Every other codeword
    has at least w + 1 nonzeros on each of the N translates; summing over
    them counts each nonzero of c exactly k times, so k wt(c) >= N (w + 1).
    """
    spec = _prepare(code)
    q = spec.q
    k = code.k
    n_block = code.block_length
    if k * n_block > budget:
        raise ValueError(f"budget {budget} cannot scan the weight-1 level")
    reduced, transform, pivots = row_reduce(spec, code.generator)
    if len(pivots) != k:
        raise ValueError("generator matrix is not full rank")
    # the weight on S is the support size, so the kernel scans the other columns
    rest = np.setdiff1d(np.arange(n_block), pivots)
    scaled = kernels.scaled_rows(spec, reduced[:, rest])

    ub = n_block + 1
    lb = -(-n_block // k)  # ceil(N (w + 1) / k) after level w
    best = None  # (support, pattern index)
    work = 0
    exact = False
    pairs = None  # the row-pair suffix table, built once for levels 3 on
    for level in range(1, k + 1):
        level_messages = comb(k, level) * (q - 1) ** (level - 1)
        if (work + level_messages) * n_block > budget:
            break
        supports = np.array(list(combinations(range(k), level)), dtype=np.int64)
        if level == 3:
            pairs = kernels.row_pair_table(scaled, spec.arith)
        out_w, out_idx = kernels.isd_level_scan(scaled, spec.arith, supports, pairs)
        work += level_messages
        s_best = int(np.argmin(out_w))
        if int(out_w[s_best]) < ub:
            ub = int(out_w[s_best])
            best = (supports[s_best], int(out_idx[s_best]))
        lb = -(-n_block * (level + 1) // k)
        if lb >= ub:
            exact = True
            break

    witness = gf_matvec(spec, _isd_witness(*best, k, q), transform)
    return _checked_result(code, ub, witness, "isd", work, exact, ub if exact else lb, ub)


def min_distance(
    code: ToricCode,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> MinDistResult:
    """Dispatch: 'exhaustive', or 'isd' (also named 'auto')."""
    if method == "exhaustive":
        return min_distance_exhaustive(code, budget=budget)
    if method in ("auto", "isd"):
        return min_distance_isd(code, budget=budget)
    raise ValueError(f"unknown method {method!r}")
