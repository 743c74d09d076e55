"""Exact arithmetic in GF(p^m) with log/antilog tables.

Elements are canonical integers in [0, q), the only element model: the
residue polynomial c_0 + c_1 x + ... + c_{m-1} x^{m-1} is encoded as
sum(c_i * p^i), and every function takes and returns plain integers or
integer arrays.
Multiplication goes through discrete logs with respect to a fixed
generator of the multiplicative group, so repeated products in hot
loops are table lookups.

Matrix arithmetic
-----------------
`gf_matmul`, `gf_matvec`, `row_reduce` and `gf_rank` share one dispatch
rule: for q <= KERNEL_FIELD_CAP elements are uint8 codes and every sum,
difference and product is a lookup in the dense q x q tables of
`FieldSpec.kernel_tables` and `FieldSpec.mul_table` (sums and differences
are XOR when p = 2); above the cap they are int64 through
`add_arrays`/`sub_arrays`/`mul_arrays`. A matrix product is a loop over the
inner index adding outer products, each one vectorised over the whole
output.

Lazy blocked elimination (soundness)
------------------------------------
`row_reduce` is Gauss-Jordan elimination with the first nonzero row at or
below the current rank as pivot, taking columns from left to right. It
keeps only the k x k transform T, the product of the row operations so far,
and takes the columns a block at a time: a block enters as T @ mat[:, block].
Every row operation (swap, scaling, elimination) acts on all columns of
mat at once, so the column c of the fully updated matrix is at every moment
T_current @ mat[:, c]. Hence the block column, when it is reached, is
exactly the column the plain column-by-column loop holds at that point;
the pivot row, the scale and the eliminated rows are the same, so T and the
pivot list are identical, and reduced = T @ mat is the plain loop's matrix.
Until the first pivot T is the identity (every row operation belongs to a
pivot), so a block that enters at rank 0 is a copy of mat[:, block] and
costs no product.
The row operations of one pivot are applied to every row at once, to the
columns of the block not yet reached and to T. Columns of a block that are
zero at and below the current rank when the block enters stay zero there
(every later pivot row lies at or below that rank and is zero in them), so
they are skipped without a test. The loop stops once every row has a pivot;
`gf_rank` needs only the pivot count and never forms T @ mat.

The argument holds for any order in which the columns are visited: the loop
is then the plain loop on mat with its columns permuted, and a column
permutation does not change the rank. `gf_rank` visits them strided: with
the stride s the smallest integer >= ceil(N / _BLOCK_COLUMNS) that is coprime
to N, block b holds columns b, b + s, b + 2s, ..., at most _BLOCK_COLUMNS of
them. A toric generator's pivots lie spread over its columns, so it usually
reaches full rank in its first block. Coprime matters there: for N = (q-1)^n
a stride sharing a factor with q - 1 meets only some values of the last
torus coordinate (s = 50 at q = 16 meets 3 of 15, and [S1,S1,S1,P3]'s first
block has rank 95 of 100). The pivot columns of `gf_rank` are therefore not
`row_reduce`'s, and it returns only their count; `row_reduce` keeps the
natural order, since its pivots are a contract.
"""

from __future__ import annotations

import math

import numpy as np

FIELD_CAP = 1 << 16
KERNEL_FIELD_CAP = 256  # dense q x q uint8 tables: search kernels and matrix arithmetic


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient tuples are low-degree-first
# ---------------------------------------------------------------------------

def _decode(v: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        digits.append(v % p)
        v //= p
    return digits


def _encode(coeffs, p: int) -> int:
    v = 0
    for c in reversed(list(coeffs)):
        v = v * p + c
    return v


def _poly_mod(a: list[int], modulus: list[int], p: int) -> list[int]:
    # modulus is monic; plain long division, remainder only
    a = list(a)
    dm = len(modulus) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j, mj in enumerate(modulus):
                a[i - dm + j] = (a[i - dm + j] - c * mj) % p
    return [c % p for c in a[:dm]] if dm > 0 else []


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            divisor = _decode(t, p, d) + [1]
            if not any(_poly_mod(coeffs, divisor, p)):
                return False
    return True


def _find_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with the smallest integer
    encoding sum(c_i p^i); for GF(8) this yields x^3 + x + 1."""
    if m == 1:
        return (0, 1)
    for t in range(p**m):
        coeffs = _decode(t, p, m) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# field objects
# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(p^m) with a fixed modulus, generator and log/antilog tables.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(int(c) for c in modulus)
        self._pw = tuple(p**i for i in range(m))
        self.generator = self._find_generator()
        self._build_log_tables()
        self._add_u8 = None
        self._sub_u8 = None
        self._mul_u8 = None

    # -- construction internals

    def _poly_mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        pa = _decode(a, self.p, self.m)
        pb = _decode(b, self.p, self.m)
        return _encode(_poly_mul_mod(pa, pb, list(self.modulus), self.p), self.p)

    def _poly_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._poly_mul(r, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        n = self.q - 1
        factors = set()
        t = n
        f = 2
        while f * f <= t:
            while t % f == 0:
                factors.add(f)
                t //= f
            f += 1
        if t > 1:
            factors.add(t)
        for g in range(1, self.q):
            if all(self._poly_pow(g, n // r) != 1 for r in factors):
                return g
        raise AssertionError("multiplicative group has no generator")

    def _build_log_tables(self) -> None:
        """exp[i] = g^i by doubling: exp[s : 2s] = exp[:s] * g^s.

        Multiplication by the fixed element c = g^s is GF(p)-linear on the
        digit vectors (c_0, ..., c_{m-1}), so each doubling step is one
        integer matrix product with the m x m matrix whose row i holds the
        digits of c * x^i, reduced mod p.
        """
        n = self.q - 1
        pw = np.array(self._pw, dtype=np.int64)
        exp = np.zeros(n, dtype=np.int64)
        exp[0] = 1
        size, c = 1, self.generator
        while size < n:
            take = min(size, n - size)
            digits = exp[:take, None] // pw % self.p
            times_c = np.array(
                [_decode(self._poly_mul(c, int(x)), self.p, self.m) for x in pw],
                dtype=np.int64,
            )
            exp[size : size + take] = digits @ times_c % self.p @ pw
            size += take
            c = self._poly_mul(c, c)
        if self._poly_mul(int(exp[-1]), self.generator) != 1:
            raise AssertionError("generator order mismatch")
        log = np.zeros(self.q, dtype=np.int64)
        log[exp] = np.arange(n, dtype=np.int64)
        self.exp = exp
        self.log = log

    # -- identity / display

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def describe(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"GF({self.q}) p={self.p} m={self.m} modulus=[{mod}] generator={self.generator}"

    # -- scalar arithmetic on canonical integers

    def add(self, a: int, b: int) -> int:
        return int(self.add_arrays(a, b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"zero has no inverse in {self!r}")
        return int(self.exp[(-self.log[a]) % (self.q - 1)])

    # -- vectorized arithmetic on integer ndarrays

    def add_arrays(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for pw in self._pw:
            out += ((a // pw + b // pw) % self.p) * pw
        return out

    def neg_arrays(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2:
            return a.copy()
        out = np.zeros(a.shape, dtype=np.int64)
        for pw in self._pw:
            out += ((-(a // pw)) % self.p) * pw
        return out

    def sub_arrays(self, a, b) -> np.ndarray:
        return self.add_arrays(a, self.neg_arrays(b))

    def mul_arrays(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        mask = (a != 0) & (b != 0)
        la = self.log[np.where(a != 0, a, 1)]
        lb = self.log[np.where(b != 0, b, 1)]
        vals = self.exp[(la + lb) % (self.q - 1)]
        return np.where(mask, vals, 0)

    def _table(self, op) -> np.ndarray:
        if self.q > KERNEL_FIELD_CAP:
            raise ValueError(
                f"search kernels support q <= {KERNEL_FIELD_CAP}, got q = {self.q}"
            )
        col = np.arange(self.q, dtype=np.int64)
        return op(col[:, None], col[None, :]).astype(np.uint8)

    def kernel_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (q, q) uint8 add and sub tables (search kernels, matrix arithmetic)."""
        if self._add_u8 is None:
            self._add_u8 = self._table(self.add_arrays)
            self._sub_u8 = self._table(self.sub_arrays)
        return self._add_u8, self._sub_u8

    def mul_table(self) -> np.ndarray:
        """Dense (q, q) uint8 multiplication table; q <= KERNEL_FIELD_CAP."""
        if self._mul_u8 is None:
            self._mul_u8 = self._table(self.mul_arrays)
        return self._mul_u8


_FIELD_CACHE: dict[tuple[int, int], FieldSpec] = {}


def check_field_cap(p: int, m: int) -> None:
    """Raise ValueError when q = p^m exceeds FIELD_CAP.

    p^m is never formed above the cap: m > 16 exceeds 2^16 for every
    p >= 2, so a huge exponent costs no huge integer.
    """
    if p > 1 and (m > 16 or p**m > FIELD_CAP):
        raise ValueError(f"q = {p}^{m} exceeds the supported cap {FIELD_CAP}")


def make_field(p: int, m: int = 1) -> FieldSpec:
    """Build GF(p^m) over the smallest-encoding monic irreducible modulus.

    The bounds come before the primality test, so a rejected descriptor
    costs neither a long trial division nor a huge integer.
    """
    p = int(p)
    m = int(m)
    if m < 1:
        raise ValueError(f"extension degree must be positive, got {m}")
    check_field_cap(p, m)
    if as_prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    key = (p, m)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldSpec(p, m, _find_modulus(p, m))
    return _FIELD_CACHE[key]


def parse_field(descriptor: str) -> FieldSpec:
    """Parse a CLI field descriptor like '5' or '2^3'."""
    text = str(descriptor).strip()
    base, caret, exp = text.partition("^")
    try:
        p, m = int(base), int(exp) if caret else 1
    except ValueError:
        raise ValueError(f"bad field {descriptor!r}; expected p or p^m") from None
    return make_field(p, m)


def as_prime_power(q: int) -> tuple[int, int] | None:
    """(p, m) with q = p^m, or None when q is not a prime power."""
    if q < 2:
        return None
    # the smallest factor above 1 is prime, and at most sqrt(q) unless q is prime
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime-power order given as a plain integer."""
    pm = as_prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return make_field(*pm)


def torus_exponents(spec: FieldSpec, n: int) -> np.ndarray:
    """All exponent vectors (j_1..j_n) in [0, q-2]^n, lexicographic order.

    Row r of the output labels torus point (g^{j_1}, ..., g^{j_n}); this is
    the frozen column order of every generator matrix.
    """
    if n < 1:
        raise ValueError(f"torus dimension must be positive, got {n}")
    r = spec.q - 1
    grids = np.meshgrid(*([np.arange(r, dtype=np.int64)] * n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, n)


# ---------------------------------------------------------------------------
# linear algebra over GF(q)
# ---------------------------------------------------------------------------

# columns taken per block by the lazy elimination of row_reduce and gf_rank
_BLOCK_COLUMNS = 1024


def table_lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for a dense (q, q) uint8 table: one lookup per element in
    its flat view. The index a * q + b stays below 2^16 because q <= 256."""
    return np.take(table.ravel(), a.astype(np.uint16) * table.shape[0] + b)


class _Arith:
    """Array arithmetic over one field, by the module's one dispatch rule."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.tables = spec.q <= KERNEL_FIELD_CAP
        if self.tables:
            self._add, self._sub = spec.kernel_tables()
            self._mul = spec.mul_table()
        self.dtype = np.uint8 if self.tables else np.int64

    def cast(self, a) -> np.ndarray:
        return np.asarray(a, dtype=self.dtype)

    def add(self, a, b) -> np.ndarray:
        if not self.tables:
            return self.spec.add_arrays(a, b)
        return a ^ b if self.spec.p == 2 else table_lookup(self._add, a, b)

    def sub(self, a, b) -> np.ndarray:
        if not self.tables:
            return self.spec.sub_arrays(a, b)
        return a ^ b if self.spec.p == 2 else table_lookup(self._sub, a, b)

    def scale(self, s: int, row) -> np.ndarray:
        """s * row for one field element s."""
        if not self.tables:
            return self.spec.mul_arrays(s, row)
        return np.take(self._mul[s], row)

    def outer(self, f, row) -> np.ndarray:
        """out[i, t] = f[i] * row[t].

        With tables: the row scaled by every field element (q x len(row)
        lookups), then whole rows picked by f, a copy per row.
        """
        if not self.tables:
            return self.spec.mul_arrays(f[:, None], row[None, :])
        return np.take(self._mul, row, axis=1)[f]

    def matmul(self, a, b) -> np.ndarray:
        """a @ b, adding the outer product of each nonzero column of a with
        the matching row of b."""
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        for col, row in zip(a.T, b):
            if col.any():
                out = self.add(out, self.outer(col, row))
        return out


def _eliminate(ar: _Arith, mat: np.ndarray, blocks):
    """(transform, pivot_columns) of the Gauss-Jordan loop over the columns
    of mat, visited as the given sequence of column slices.

    Lazy and column-blocked; the module docstring gives the argument that
    the result is the plain loop's on the columns in that order.
    """
    rows, cols = mat.shape
    t = ar.cast(np.eye(rows))
    r = 0
    pivots: list[int] = []
    for block in blocks:
        if r == rows:
            break
        x = np.array(mat[:, block], dtype=ar.dtype)  # T = I until the first pivot
        if r:
            x = ar.matmul(t, x)
        for j in np.flatnonzero(x[r:].any(axis=0)):
            below = np.flatnonzero(x[r:, j])
            if not below.size:
                continue
            pivot = r + int(below[0])
            if pivot != r:
                x[[r, pivot]] = x[[pivot, r]]
                t[[r, pivot]] = t[[pivot, r]]
            rest = slice(j + 1, None)  # block columns not reached yet
            s = ar.spec.inv(int(x[r, j]))
            if s != 1:
                x[r, rest] = ar.scale(s, x[r, rest])
                t[r] = ar.scale(s, t[r])
            f = x[:, j].copy()
            f[r] = 0
            hit = np.flatnonzero(f)
            if hit.size:
                x[hit, rest] = ar.sub(x[hit, rest], ar.outer(f[hit], x[r, rest]))
                t[hit] = ar.sub(t[hit], ar.outer(f[hit], t[r]))
            pivots.append(range(cols)[block][j])
            r += 1
            if r == rows:
                break
    return t, pivots


def row_reduce(spec: FieldSpec, mat: np.ndarray):
    """Reduced row echelon form over GF(q).

    Returns (reduced, transform, pivot_columns) with reduced = transform @ mat
    over GF(q); pivot columns are unit vectors in `reduced`. Columns are
    taken from left to right, each pivot on the first nonzero row at or
    below the current rank.
    """
    ar = _Arith(spec)
    mat = np.asarray(mat)
    cols = mat.shape[1]
    blocks = [slice(s, s + _BLOCK_COLUMNS) for s in range(0, cols, _BLOCK_COLUMNS)]
    t, pivots = _eliminate(ar, mat, blocks)
    reduced = ar.matmul(t, ar.cast(mat))
    return reduced.astype(np.int64), t.astype(np.int64), pivots


def gf_rank(spec: FieldSpec, mat: np.ndarray) -> int:
    """Rank over GF(q): the pivot count of the elimination over strided
    column blocks (module docstring), without forming reduced."""
    mat = np.asarray(mat)
    cols = mat.shape[1]
    stride = -(-cols // _BLOCK_COLUMNS)
    while math.gcd(stride, cols) > 1:
        stride += 1
    blocks = [slice(b, None, stride) for b in range(min(stride, cols))]
    _, pivots = _eliminate(_Arith(spec), mat, blocks)
    return len(pivots)


def gf_matvec(spec: FieldSpec, vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """vec @ mat over GF(q) for a length-k vector and a k x n matrix."""
    return gf_matmul(spec, np.asarray(vec)[None, :], mat)[0]


def gf_matmul(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(q)."""
    ar = _Arith(spec)
    return ar.matmul(ar.cast(a), ar.cast(b)).astype(np.int64)
