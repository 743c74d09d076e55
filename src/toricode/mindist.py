"""Exact minimum distance of a toric code.

Two routes:

* exhaustive -- walk all (q^k - 1)/(q - 1) projectively normalized messages
  (leading coefficient 1; scaling preserves weight);
* isd -- an information-set method: build disjoint pivot-column sets by
  repeated row reduction, enumerate messages of growing weight per set, and
  stop once the combined lower bound meets the best weight found. Exact
  whenever it terminates within budget.

Both report a deterministic witness: the first message in enumeration order
attaining the minimum.

Every entry point takes `threads`; it has no effect today, because the
kernels are single-threaded numpy, and results never depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import kernels
from .codes import ToricCode, evaluate
from .gf import gf_matmul, gf_matvec, row_reduce

DEFAULT_BUDGET = 2**34          # codeword-symbol operations
AUTO_EXHAUSTIVE_CAP = 1 << 22   # below this work, auto prefers exhaustive
MAX_INFORMATION_SETS = 128
SET_SHUFFLE_RETRIES = 8         # random column orders tried per information set
SET_SHUFFLE_SEED = 0x5EED


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
    add_t, sub_t = spec.kernel_tables()
    return spec, add_t, sub_t


def _total_messages(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


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
    threads: int | None = None,
) -> MinDistResult:
    """Enumerate every normalized message; exact within budget.

    If the budget caps the enumeration, the result covers a deterministic
    prefix of the message order and is flagged non-exact (d is an upper
    bound).
    """
    spec, add_t, sub_t = _prepare(code)
    q = spec.q
    k = code.k
    n_block = code.block_length
    total = _total_messages(q, k)
    max_messages = min(total, budget // n_block)
    if max_messages < 1:
        raise ValueError(
            f"budget {budget} cannot scan a single codeword of length {n_block}"
        )
    scaled = kernels.scaled_rows(spec, code.generator)
    best_w, best_idx = kernels.exhaustive_scan(scaled, add_t, sub_t, q, max_messages)
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


@dataclass
class _InfoSet:
    sub: np.ndarray         # k x (#non-pivot columns) uint8, systematic basis
    transform: np.ndarray   # k x k: systematic basis = transform @ generator
    rank: int
    level: int = 0
    _scaled: np.ndarray | None = field(default=None, repr=False)

    def bound_term(self, k: int) -> int:
        return max(0, self.level + 1 - (k - self.rank))

    def scaled(self, spec) -> np.ndarray:
        if self._scaled is None:
            self._scaled = kernels.scaled_rows(spec, self.sub.astype(np.int64))
        return self._scaled


def _build_information_sets(spec, generator) -> list[_InfoSet]:
    """Disjoint pivot-column sets by repeated row reduction.

    Greedy column order often leaves later sets badly rank-deficient, which
    stalls the lower bound; a few seeded shuffles of the remaining columns
    are tried per set and the highest-rank draw wins (deterministically).
    """
    import random as _random

    k, n_block = generator.shape
    sets: list[_InfoSet] = []
    current = generator
    transform = np.eye(k, dtype=np.int64)
    remaining = list(range(n_block))
    rng = _random.Random(SET_SHUFFLE_SEED)
    potential = 0  # best lower bound these sets could ever deliver
    while remaining and len(sets) < MAX_INFORMATION_SETS and potential <= n_block:
        best = None
        order = list(remaining)
        for _ in range(1 + SET_SHUFFLE_RETRIES):
            reduced, step, pivots = row_reduce(spec, current, columns=order)
            if best is None or len(pivots) > len(best[2]):
                best = (reduced, step, pivots)
            if len(best[2]) == k:
                break
            order = list(remaining)
            rng.shuffle(order)
        reduced, step, pivots = best
        if not pivots:
            break
        transform = gf_matmul(spec, step, transform)
        pivot_set = set(pivots)
        rest = [c for c in range(n_block) if c not in pivot_set]
        # weight on the pivot columns equals the number of support rows below
        # the rank, so the kernels scan only the non-pivot part
        sets.append(
            _InfoSet(
                sub=np.ascontiguousarray(reduced[:, rest]).astype(np.uint8),
                transform=transform.copy(),
                rank=len(pivots),
            )
        )
        if len(sets) == 1 and len(pivots) != k:
            raise ValueError("generator matrix is not full rank")
        potential += len(pivots) + 1
        remaining = [c for c in remaining if c not in pivot_set]
        current = reduced
    return sets


def _isd_witness(spec, info: _InfoSet, support, pattern_idx: int, k: int, q: int):
    w = len(support)
    msg = np.zeros(k, dtype=np.int64)
    msg[support[0]] = 1
    for i in range(w - 1, 0, -1):
        msg[support[i]] = 1 + pattern_idx % (q - 1)
        pattern_idx //= q - 1
    return gf_matvec(spec, msg, info.transform)


def min_distance_isd(
    code: ToricCode,
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> MinDistResult:
    """Information-set search with matching lower/upper bounds.

    Terminates exactly when the lower bound from enumerated weight levels
    reaches the best seen codeword weight; returns a non-exact
    [lower, upper] interval if the budget runs out first.
    """
    spec, add_t, sub_t = _prepare(code)
    q = spec.q
    k = code.k
    n_block = code.block_length
    if k * n_block > budget:
        raise ValueError(f"budget {budget} cannot scan the weight-1 level")
    sets = _build_information_sets(spec, code.generator)

    ub = n_block + 1
    best = None  # (set index, support, pattern index)
    work = 0
    exact = False

    def lower_bound() -> int:
        return sum(s.bound_term(k) for s in sets)

    for level in range(1, k + 1):
        supports = np.array(list(combinations(range(k), level)), dtype=np.int64)
        level_messages = comb(k, level) * (q - 1) ** (level - 1)
        for si, info in enumerate(sets):
            if level + 1 - (k - info.rank) <= 0:
                continue  # cannot raise this set's bound term yet; skip its cost
            if (work + level_messages) * n_block > budget:
                lb = min(max(lower_bound(), 1), ub)
                witness = _isd_witness(spec, sets[best[0]], best[1], best[2], k, q)
                return _checked_result(code, ub, witness, "isd", work, False, lb, ub)
            out_w, out_idx = kernels.isd_level_scan(
                info.scaled(spec), add_t, sub_t, supports, info.rank
            )
            work += level_messages
            info.level = level
            wmin = int(out_w.min())
            if wmin < ub:
                ub = wmin
                s_best = int(np.argmin(out_w))
                best = (si, supports[s_best].copy(), int(out_idx[s_best]))
            if lower_bound() >= ub:
                exact = True
                break
        if exact or sets[0].level == k:
            break

    witness = _isd_witness(spec, sets[best[0]], best[1], best[2], k, q)
    return _checked_result(code, ub, witness, "isd", work, True, ub, ub)


def min_distance(
    code: ToricCode,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> MinDistResult:
    """Dispatch: 'exhaustive', 'isd', or 'auto' (exhaustive when cheap)."""
    if method == "exhaustive":
        return min_distance_exhaustive(code, budget=budget, threads=threads)
    if method == "isd":
        return min_distance_isd(code, budget=budget, threads=threads)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    total_work = _total_messages(code.field.q, code.k) * code.block_length
    if total_work <= AUTO_EXHAUSTIVE_CAP:
        return min_distance_exhaustive(code, budget=budget, threads=threads)
    result = min_distance_isd(code, budget=budget, threads=threads)
    if not result.exact and total_work <= budget:
        return min_distance_exhaustive(code, budget=budget, threads=threads)
    return result


def max_zeroes(
    code: ToricCode,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    threads: int | None = None,
) -> int:
    """Largest number of torus zeroes over nonzero polynomials: N - d."""
    result = min_distance(code, method=method, budget=budget, threads=threads)
    return code.block_length - result.d
