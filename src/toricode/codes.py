"""Toric code construction over GF(q).

The generator matrix entry for monomial m and the torus point with exponent
vector j is g^{<m, j> mod (q-1)} = prod_i g^{m_i j_i}: its log is a sum of n
per-axis logs m_i j_i mod (q-1), each taking only q-1 values per row, and one
antilog lookup maps the sum to the element. Row order is the lattice-point
order of the polytope, column order the torus order; both are frozen
contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, gf_matvec, gf_rank
from .polytopes import LatticePolytope, _as_int

GENERATOR_CAP = 1 << 24  # generator entries k x (q-1)^n, checked before building
# generator entries filled per chunk of rows, which bounds the temporaries
_CHUNK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class ToricCode:
    field: FieldSpec
    polytope: LatticePolytope
    monomials: tuple[tuple[int, ...], ...]
    generator: np.ndarray  # k x N element codes in field.dtype
    k: int

    @property
    def n(self) -> int:
        return self.polytope.dim

    @property
    def block_length(self) -> int:
        return self.generator.shape[1]

    def __repr__(self) -> str:
        return (
            f"ToricCode(q={self.field.q}, n={self.n}, "
            f"k={self.k}, N={self.block_length})"
        )


@dataclass(frozen=True)
class Codeword:
    code: ToricCode
    coefficients: np.ndarray
    values: np.ndarray

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.values))


def build_code(
    polytope: LatticePolytope,
    field: FieldSpec,
    allow_outside_cube: bool = False,
) -> ToricCode:
    """Evaluate the monomials of the polytope at every torus point.

    The polytope must lie in [0, q-2]^n so that the monomial evaluations are
    linearly independent and dim = |P o Z^n|. With allow_outside_cube the
    code is built anyway and k is defined as the generator rank.

    A generator of more than GENERATOR_CAP entries, or a bounding box of
    more than GENERATOR_CAP points, is a ValueError raised before anything
    is allocated. Under the cap (q-1)^n <= 2^24, so a sum of n per-axis
    logs is at most n(q-2) < 2^16 and fits uint16.
    """
    q = field.q
    if not allow_outside_cube:
        for v in polytope.vertices:
            for i, c in enumerate(v):
                if not 0 <= c <= q - 2:
                    raise ValueError(
                        f"polytope does not fit in [0, {q - 2}]^{polytope.dim} "
                        f"for q = {q}: vertex {v} has coordinate {c} at axis {i}"
                    )
    n = polytope.dim
    r = q - 1
    cols = r**n
    # a torus or a bounding box over the cap is refused before the lattice
    # points are enumerated; an in-cube box has at most (q-1)^n points
    if cols > GENERATOR_CAP:
        raise ValueError(f"generator of k x {cols} entries exceeds the cap {GENERATOR_CAP}")
    box = math.prod(b - a + 1 for a, b in zip(*polytope.bounding_box))
    if box > GENERATOR_CAP:
        raise ValueError(f"bounding box of {box} points exceeds the cap {GENERATOR_CAP}")
    rows = len(polytope.lattice_points)
    if rows * cols > GENERATOR_CAP:
        raise ValueError(f"generator of {rows} x {cols} entries exceeds the cap {GENERATOR_CAP}")
    monomials = polytope.lattice_points
    exp = field.exp.astype(field.dtype)
    # a log sum is at most n(q-2); ext[e] = g^(e mod (q-1)) up to there
    ext = np.resize(exp, n * (q - 2) + 1)
    assert ext.size <= 1 << 16, "log sums overflow uint16 under GENERATOR_CAP"
    mon = np.array(monomials, dtype=np.int64) % r
    generator = np.empty((len(monomials), cols), dtype=exp.dtype)
    step = max(1, _CHUNK_ENTRIES // cols)
    for start in range(0, len(monomials), step):
        # per-axis logs m_i j_i mod (q-1) for j in [0, q-2]: (rows, n, q-1)
        chunk = (mon[start : start + step, :, None] * np.arange(r) % r).astype(np.uint16)
        # outer sum over the axes, last axis fastest: the lexicographic torus order
        total = chunk[:, 0]
        for i in range(1, n):
            total = (total[:, :, None] + chunk[:, i, None, :]).reshape(len(chunk), -1)
        np.take(ext, total, out=generator[start : start + step])
    if allow_outside_cube and not polytope.fits_in_cube(q):
        k = gf_rank(field, generator)
    else:
        k = len(monomials)
    return ToricCode(field, polytope, monomials, generator, k)


def evaluate(code: ToricCode, coefficients) -> Codeword:
    """Codeword of the message vector indexed by the monomial rows."""
    coeffs = [_as_int(c, "a message coefficient") for c in coefficients]
    if len(coeffs) != len(code.monomials):
        raise ValueError(
            f"message length {len(coeffs)} != number of monomials {len(code.monomials)}"
        )
    if not all(0 <= c < code.field.q for c in coeffs):
        raise ValueError("message coefficients must be canonical field elements")
    coeffs = np.array(coeffs, dtype=np.int64)
    values = gf_matvec(code.field, coeffs, code.generator)
    return Codeword(code, coeffs, values)


def rank_check(code: ToricCode) -> int:
    """Gaussian-elimination rank of the generator over GF(q)."""
    return gf_rank(code.field, code.generator)
