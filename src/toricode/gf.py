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
The matrix functions and the search kernels share one array arithmetic,
`FieldSpec.arith`, the only code that adds, negates or multiplies element
codes. A field's codes have one type, `FieldSpec.dtype`: uint8 up to
q = 256, uint16 above. A sum is XOR when p = 2; for odd q it is a lookup in
the dense q x q addition table up to KERNEL_FIELD_CAP and `add_arrays`,
cast back, above it. A product is a lookup in `FieldSpec.mul_table` up to
the cap and `mul_arrays` above it. `row_reduce` and `gf_matvec` return
int64. A matrix product is a loop over the inner index adding outer
products, each one vectorised over the whole output.

Nothing subtracts. The canonical code of -1 is p - 1, whose digits are
(p - 1, 0, ..., 0): the constant polynomial p - 1 = -1 of GF(p). So
-v = (p - 1) * v for every element v, the arithmetic's one negation map
`neg`, and elimination writes row_i - f_i row_r as row_i + (-f_i) row_r.

Products have one rule for every q, `FieldSpec.mul_arrays`: one antilog
lookup at log a + log b, where zero has a sentinel log (the soundness
argument is in its docstring); `mul_table` is built from it.

Elimination (soundness)
-----------------------
`row_reduce` is Gauss-Jordan elimination with the first nonzero row at or
below the current rank as pivot, taking columns from left to right: the
plain loop on [mat | I]. Each row operation (swap, scaling, elimination)
acts on both halves, so the right half is at every moment the product T of
the row operations so far, with T @ mat equal to the left half; at the end
the halves are reduced and transform, and no product is formed. A pivot is
one swap, one scaling and one outer-product add on the columns from the
pivot column on, all rows at once.

`gf_rank` runs the same loop lazily, a block of columns at a time, with T
carried as the block's trailing columns: a block enters as
[T @ mat[:, block] | T] and the next block's T is its right part. Since
every row operation acts on all columns of mat at once, the column c of the
fully updated matrix is at every moment T_current @ mat[:, c]. Hence the
block column, when it is reached, is exactly the column the plain loop holds
at that point; the pivot row, the scale and the eliminated rows are the
same, so T and the pivot list are identical. Until the first pivot T is the
identity (every row operation belongs to a pivot), so a block that enters at
rank 0 costs no product. Columns of a block that are zero at and below the
current rank when the block enters stay zero there (every later pivot row
lies at or below that rank and is zero in them), so they are skipped
without a test. The loop stops once every row has a pivot.

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

import functools
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

    The tables are fixed at construction and `arith` is built on first
    use and cached; `make_field` keeps one instance per (p, m).
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = tuple(int(c) for c in modulus)
        self._pw = tuple(p**i for i in range(m))
        # the one element-code type: uint8 up to q = 256, uint16 above
        self.dtype = np.min_scalar_type(self.q - 1)
        self.generator = self._find_generator()
        self._build_log_tables()

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
        log = np.full(self.q, 2 * n, dtype=np.int64)  # log[0]: the sentinel
        log[exp] = np.arange(n, dtype=np.int64)
        self.exp = exp
        self.log = log
        zeros = np.zeros(2 * n + 1, dtype=np.int64)
        self._antilog = np.concatenate([exp, exp, zeros]).astype(self.dtype)  # see mul_arrays

    # -- display

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def describe(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"GF({self.q}) p={self.p} m={self.m} modulus=[{mod}] generator={self.generator}"

    # -- scalar arithmetic on canonical integers

    def add(self, a: int, b: int) -> int:
        return int(self.add_arrays(a, b))

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_arrays(a, b))

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

    def mul_arrays(self, a, b) -> np.ndarray:
        """a * b = _antilog[log a + log b] as element codes, with no test
        for zero.

        _antilog is [exp, exp, 2(q-1) + 1 zeros]. Nonzero logs lie in
        [0, q-2], so the sum for two nonzero factors is at most 2q - 4 and
        indexes exp twice over: _antilog[i] = g^(i mod (q-1)). A zero factor
        has the sentinel log 2(q-1), so the sum lies in [2(q-1), 4(q-1)],
        where _antilog is 0.
        """
        return self._antilog[self.log[a] + self.log[b]]

    def mul_table(self) -> np.ndarray:
        """Dense (q, q) uint8 multiplication table; q <= KERNEL_FIELD_CAP."""
        if self.arith.mul is None:
            raise ValueError(
                f"search kernels support q <= {KERNEL_FIELD_CAP}, got q = {self.q}"
            )
        return self.arith.mul

    @functools.cached_property
    def arith(self) -> _Arith:
        """The field's array arithmetic (matrix functions, search kernels)."""
        return _Arith(self)


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
    pm = as_prime_power(p)
    if pm != (p, 1):
        hint = f"; GF({p**m}) is given as {pm[0]}^{pm[1] * m}" if pm else ""
        raise ValueError(f"{p} is not prime{hint}")
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

# columns taken per block by the lazy elimination of gf_rank
_BLOCK_COLUMNS = 1024
# outputs per addition-table lookup, the buffer size of the add's iterator:
# its operand buffers, the uint16 index and the intp copy that `np.take`
# makes of it hold at most 14 bytes per output (840 KiB peak measured)
_ADD_CHUNK = 1 << 16


class _Arith:
    """Array arithmetic over one field in its element-code type
    `FieldSpec.dtype`, by the module's one dispatch rule."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.dtype = spec.dtype
        codes = np.arange(spec.q, dtype=self.dtype)
        # dense q x q tables up to KERNEL_FIELD_CAP; the addition table for odd q
        tables = spec.q <= KERNEL_FIELD_CAP
        self.mul = spec.mul_arrays(codes[:, None], codes) if tables else None
        self._add = None
        if tables and spec.p != 2:
            self._add = spec.add_arrays(codes[:, None], codes).astype(self.dtype).ravel()
        # the negation map neg[v] = -v = (p - 1) v, row p - 1 of mul_table
        self.neg = spec.mul_arrays(spec.p - 1, codes)

    def add(self, a, b) -> np.ndarray:
        """a + b, C-ordered whatever the operands' layout. XOR when p = 2;
        above KERNEL_FIELD_CAP `add_arrays`, cast back once; otherwise a
        lookup of the uint16 index a * q + b (< 2^16) in the addition table.
        One buffered iterator broadcasts the operands and feeds the lookup
        _ADD_CHUNK outputs at a time, so nothing but a chunk is copied."""
        if self.spec.p == 2:
            return np.bitwise_xor(a, b, order="C")
        if self._add is None:
            return self.spec.add_arrays(a, b).astype(self.dtype, order="C")
        it = np.nditer(
            [a, b, None],
            flags=["buffered", "external_loop", "zerosize_ok"],
            op_flags=[["readonly"], ["readonly"], ["writeonly", "allocate"]],
            op_dtypes=[np.uint16, np.uint16, self.dtype],
            order="C",
            buffersize=_ADD_CHUNK,
        )
        with it:
            for x, y, out in it:
                index = x * self.spec.q
                index += y
                # every index is below q^2; "clip" writes into out unbuffered
                np.take(self._add, index, out=out, mode="clip")
            return it.operands[2]

    def scale(self, s: int, row) -> np.ndarray:
        """s * row for one field element s."""
        if self.mul is None:
            return self.spec.mul_arrays(s, row)
        return np.take(self.mul[s], row)

    def multiples(self, rows) -> np.ndarray:
        """out[v, ...] = v * rows for every element v; q <= KERNEL_FIELD_CAP."""
        return np.take(self.spec.mul_table(), rows, axis=1)

    def outer(self, f, row) -> np.ndarray:
        """out[i, t] = f[i] * row[t].

        With tables: the row's multiples (q x len(row) lookups), then whole
        rows picked by f, a copy per row.
        """
        if self.mul is None:
            return self.spec.mul_arrays(f[:, None], row[None, :])
        return self.multiples(row)[f]

    def matmul(self, a, b) -> np.ndarray:
        """a @ b, adding the outer product of each nonzero column of a with
        the matching row of b."""
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        for col, row in zip(a.T, b):
            if col.any():
                out = self.add(out, self.outer(col, row))
        return out


def _eliminate(ar: _Arith, mat: np.ndarray, blocks):
    """(x, pivot_columns) of the Gauss-Jordan loop over the columns of mat,
    visited as the given sequence of column slices; x is the last block
    visited, [T @ mat[:, block] | T] at the end of the loop.

    Lazy and column-blocked; the module docstring gives the argument that
    the result is the plain loop's on the columns in that order.
    """
    rows, cols = mat.shape
    x = t = np.eye(rows, dtype=ar.dtype)
    r = 0
    pivots: list[int] = []
    for block in blocks:
        x = np.asarray(mat[:, block], dtype=ar.dtype)
        width = x.shape[1]
        # [T @ mat[:, block] | T], with T = I until the first pivot
        x = np.concatenate([ar.matmul(t, x) if r else x, t], axis=1)
        for j in np.flatnonzero(x[r:, :width].any(axis=0)):
            below = np.flatnonzero(x[r:, j])
            if not below.size:
                continue
            pivot = r + int(below[0])
            if pivot != r:
                x[[r, pivot]] = x[[pivot, r]]
            rest = slice(j, None)  # the block columns from j on, and T
            s = ar.spec.inv(int(x[r, j]))
            if s != 1:
                x[r, rest] = ar.scale(s, x[r, rest])
            f = ar.neg[x[:, j]]  # the negated factors, a copy
            f[r] = 0
            hit = np.flatnonzero(f)
            if hit.size:
                x[hit, rest] = ar.add(x[hit, rest], ar.outer(f[hit], x[r, rest]))
            pivots.append(range(cols)[block][j])
            r += 1
            if r == rows:
                break
        t = x[:, width:]
        if r == rows:
            break
    return x, pivots


def row_reduce(spec: FieldSpec, mat: np.ndarray):
    """Reduced row echelon form over GF(q).

    Returns (reduced, transform, pivot_columns) with reduced = transform @ mat
    over GF(q); pivot columns are unit vectors in `reduced`. Columns are
    taken from left to right, each pivot on the first nonzero row at or
    below the current rank: the plain loop on [mat | I], whose two halves
    are reduced and transform.
    """
    mat = np.asarray(mat)
    x, pivots = _eliminate(spec.arith, mat, [slice(None)])
    x = x.astype(np.int64)
    return x[:, : mat.shape[1]], x[:, mat.shape[1] :], pivots


def gf_rank(spec: FieldSpec, mat: np.ndarray) -> int:
    """Rank over GF(q): the pivot count of the elimination over strided
    column blocks (module docstring). A tall matrix is ranked as its
    transpose, so the transform is never larger than min(rows, cols)
    squared."""
    mat = np.asarray(mat)
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    cols = mat.shape[1]
    stride = -(-cols // _BLOCK_COLUMNS)
    while math.gcd(stride, cols) > 1:
        stride += 1
    blocks = [slice(b, None, stride) for b in range(min(stride, cols))]
    _, pivots = _eliminate(spec.arith, mat, blocks)
    return len(pivots)


def gf_matvec(spec: FieldSpec, vec: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """vec @ mat over GF(q) for a length-k vector and a k x n matrix."""
    ar = spec.arith
    vec = np.asarray(vec, dtype=ar.dtype)[None, :]
    return ar.matmul(vec, np.asarray(mat, dtype=ar.dtype))[0].astype(np.int64)
