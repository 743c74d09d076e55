"""Toric code construction over GF(q).

The generator matrix entry for monomial m and the torus point with exponent
vector j is g^{<m, j> mod (q-1)}: evaluation reduces to integer dot products
followed by an antilog lookup. Row order is the lattice-point order of the
polytope, column order the torus order; both are frozen contracts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import _BLOCK_COLUMNS, KERNEL_FIELD_CAP, FieldSpec, gf_matvec, gf_rank
from .polytopes import LatticePolytope


@dataclass(frozen=True)
class ToricCode:
    field: FieldSpec
    polytope: LatticePolytope
    monomials: tuple[tuple[int, ...], ...]
    generator: np.ndarray  # k x N element codes: uint8 if q <= 256, else uint16
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

    @property
    def zero_count(self) -> int:
        return int(self.values.size - np.count_nonzero(self.values))


def build_code(
    polytope: LatticePolytope,
    field: FieldSpec,
    allow_outside_cube: bool = False,
) -> ToricCode:
    """Evaluate the monomials of the polytope at every torus point.

    The polytope must lie in [0, q-2]^n so that the monomial evaluations are
    linearly independent and dim = |P o Z^n|. With allow_outside_cube the
    code is built anyway and k is defined as the generator rank.
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
    monomials = polytope.lattice_points
    mon = np.array(monomials, dtype=np.int64)
    # element codes fit the narrowest unsigned type holding q - 1
    exp = field.exp.astype(np.uint8 if q <= KERNEL_FIELD_CAP else np.uint16)
    torus = (q - 1,) * polytope.dim
    cols = (q - 1) ** polytope.dim
    generator = np.empty((len(monomials), cols), dtype=exp.dtype)
    # one block of columns at a time, so the int64 exponents stay small;
    # unravel_index in C order gives the lexicographic torus order
    for start in range(0, cols, _BLOCK_COLUMNS):
        stop = min(start + _BLOCK_COLUMNS, cols)
        powers = mon @ np.stack(np.unravel_index(np.arange(start, stop), torus))
        np.remainder(powers, q - 1, out=powers)
        generator[:, start:stop] = exp[powers]
    if allow_outside_cube and not polytope.fits_in_cube(q):
        k = gf_rank(field, generator)
    else:
        k = len(monomials)
    return ToricCode(field, polytope, monomials, generator, k)


def evaluate(code: ToricCode, coefficients) -> Codeword:
    """Codeword of the message vector indexed by the monomial rows."""
    coeffs = np.array([int(c) for c in coefficients], dtype=np.int64)
    if coeffs.shape[0] != len(code.monomials):
        raise ValueError(
            f"message length {coeffs.shape[0]} != number of monomials {len(code.monomials)}"
        )
    if coeffs.size and (coeffs.min() < 0 or coeffs.max() >= code.field.q):
        raise ValueError("message coefficients must be canonical field elements")
    values = gf_matvec(code.field, coeffs, code.generator)
    return Codeword(code, coeffs, values)


def rank_check(code: ToricCode) -> int:
    """Gaussian-elimination rank of the generator over GF(q)."""
    return gf_rank(code.field, code.generator)
