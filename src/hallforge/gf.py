"""Exact arithmetic and linear algebra over GF(p^k) for small prime powers.

`GF` is the one field type: `GF.of(p, k)` and `GF.of_q(q)` return the
cached context of a field, which checks p, k and the size cap
q <= MAX_FIELD_SIZE before it builds anything.

Field elements are integer codes 0..q-1: the code of an element with
coefficient vector (c_0, ..., c_{k-1}) (c_0 = constant term) is
sum c_i p^i.  Codes 0..p-1 are the prime field.  Increasing code order is
the canonical total order used everywhere downstream (registry canonical
forms, subspace enumeration, orbit minima).

The modulus for each (p, k) with k > 1 is fixed by MODULUS_TABLE below so
that runs are reproducible across machines; every entry is a monic
irreducible polynomial over GF(p), checked by the test suite.  Every field,
prime or not, builds its q x q ADD/MUL tables by the same loop over
coefficient vectors, and its q-entry NEG/INV tables from them.

Matrices are thin immutable wrappers over numpy uint8 code arrays.  Every
elementwise operation (sum, difference, negation, scaling, the row
operations of elimination) is a table lookup.  Matrix products all go
through `GF.matmul`, the one place that chooses between the two product
paths: an integer matmul reduced mod p for prime fields, in the narrowest
integer dtype that holds its sums exactly, and an accumulation of table
lookups over the inner index for extension fields.
Beside it, `GF.rref_stack` is the stack eliminator: it reduces an
(N, r, c) stack column by column, every row operation a table lookup over
the whole stack, and hands a stack of one to `Mat.rref`'s per-row loop,
the faster route for one small matrix.  `GF.kernel_stack` reads the RREF
kernel bases off it; `Mat.kernel_basis` is its stack of one.
`subspace_blocks` is the one enumeration of subspaces, whose order fixes
census positions, row-space ids and coproduct term order;
`subspaces_of_dim` is a view over it.
Everything is exact; there is no floating point anywhere in this package,
and every precondition is a raised error, never an `assert`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, CertificateError, SingularMatrix, SizeMismatch
from .exact import PRIME_BOUND, is_prime

MAX_FIELD_SIZE = 64  # largest q a field may have
MAX_DEGREE = 64  # p^k > MAX_FIELD_SIZE for every p >= 2 and k > MAX_DEGREE

# monic irreducible moduli: (p, k) -> coefficients of x^0..x^{k-1}; leading 1 implicit
MODULUS_TABLE = {
    (2, 2): (1, 1),            # x^2 + x + 1
    (2, 3): (1, 1, 0),         # x^3 + x + 1
    (2, 4): (1, 1, 0, 0),      # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0),   # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 1, 1, 0),  # x^6 + x^4 + x^3 + x + 1
    (3, 2): (2, 2),            # x^2 + 2x + 2
    (3, 3): (1, 2, 0),         # x^3 + 2x + 1
    (5, 2): (2, 4),            # x^2 + 4x + 2
    (7, 2): (3, 6),            # x^2 + 6x + 3
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _product_dtype(inner: int, p: int) -> type:
    """The narrowest integer dtype that holds a sum of `inner` products of
    GF(p) codes, each at most (p - 1)^2, exactly: int16 below 2^15, int32
    below 2^31, else int64."""
    top = inner * (p - 1) ** 2
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


# ---------------------------------------------------------------------------
# field context


class GF:
    """Arithmetic context for GF(p^k): lookup tables and matrix kernels."""

    _cache: dict = {}

    def __init__(self, p: int, k: int = 1):
        if k > MAX_DEGREE and p >= 2:  # p ** k could be too large to form or print
            raise CapExceeded("field_size", f"{p}^{k}", MAX_FIELD_SIZE)
        if p >= PRIME_BOUND and k >= 1:  # primality is not decided there, and q > the cap
            raise CapExceeded("field_size", p if k == 1 else f"{p}^{k}", MAX_FIELD_SIZE)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** k
        if q > MAX_FIELD_SIZE:
            raise CapExceeded("field_size", q, MAX_FIELD_SIZE)
        if k > 1 and (p, k) not in MODULUS_TABLE:
            raise ValueError(f"no fixed modulus for GF({p}^{k})")
        self.p, self.k, self.q = p, k, q
        self.modulus = MODULUS_TABLE.get((p, k), ())
        self._build_tables()

    @classmethod
    def of(cls, p: int, k: int = 1) -> "GF":
        key = (p, k)
        if key not in cls._cache:
            cls._cache[key] = cls(p, k)
        return cls._cache[key]

    @classmethod
    def of_q(cls, q: int) -> "GF":
        """GF(q) for a prime power q, factoring out the prime."""
        p = next((p for p in _SMALL_PRIMES if q % p == 0), None) if q else None
        k, m = 0, q
        while p is not None and m % p == 0:
            m //= p
            k += 1
        if p is None or m != 1:
            raise ValueError(f"{q} is not a small prime power")
        return cls.of(p, k)

    # -- scalar arithmetic on codes

    def _vec(self, code: int) -> list:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, vec: Sequence) -> int:
        c = 0
        for x in reversed(vec):
            c = c * self.p + (x % self.p)
        return c

    def coeff_vector(self, code: int) -> tuple:
        """Coefficient vector (c_0, ..., c_{k-1}) of an element code."""
        return tuple(self._vec(code))

    def _poly_mul_mod(self, a: Sequence, b: Sequence) -> list:
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for deg in range(2 * k - 2, k - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for j, mj in enumerate(self.modulus):
                    prod[deg - k + j] = (prod[deg - k + j] - c * mj) % p
        return prod[:k]

    def _build_tables(self):
        q, p = self.q, self.p
        self.ADD = np.zeros((q, q), dtype=np.uint8)
        self.MUL = np.zeros((q, q), dtype=np.uint8)
        vecs = [self._vec(c) for c in range(q)]
        for a in range(q):
            for b in range(q):
                self.ADD[a, b] = self._code([(x + y) % p for x, y in zip(vecs[a], vecs[b])])
                self.MUL[a, b] = self._code(self._poly_mul_mod(vecs[a], vecs[b]))
        self.NEG = np.array([self.ADD[a].tolist().index(0) for a in range(q)], dtype=np.uint8)
        inv = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            inv[a] = self.MUL[a].tolist().index(1)
        self.INV = inv
        # a multiplicative generator (smallest code that works)
        self.generator = next(
            g for g in range(2, q) if self._mult_order(g) == q - 1
        ) if q > 2 else 1

    def _mult_order(self, a: int) -> int:
        x, n = a, 1
        while x != 1:
            x = int(self.MUL[x, a])
            n += 1
        return n

    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ADD[a, self.NEG[b]])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise SingularMatrix("inversion of zero")
        return int(self.INV[a])

    # -- matrix product on code arrays

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b on uint8 code arrays, broadcasting stack dimensions like
        np.matmul; a prime field multiplies in `_product_dtype`."""
        if self.k == 1:
            dtype = _product_dtype(a.shape[-1], self.p)
            return ((a.astype(dtype) @ b.astype(dtype)) % self.p).astype(np.uint8)
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        acc = np.zeros(shape, dtype=np.uint8)
        for t in range(a.shape[-1]):
            acc = self.ADD[acc, self.MUL[a[..., :, t, None], b[..., t, None, :]]]
        return acc

    # -- elimination on stacks of code arrays

    def rref_stack(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced row echelon forms of an (N, r, c) stack of code arrays:
        the reduced stack, the ranks (N,) and the pivot columns as an (N, c)
        mask.  Each matrix is reduced exactly as `Mat.rref` reduces it.

        A stack of one takes `Mat.rref`'s per-row loop, which is the faster
        route for one small matrix.  A larger stack is swept column by
        column: the matrices with a nonzero entry at or below their rank
        swap their first such row up, scale it to a unit pivot and clear the
        column, all by table lookups over the whole stack at once.
        """
        a = np.asarray(a, dtype=np.uint8)
        n, rows, cols = a.shape
        pivots = np.zeros((n, cols), dtype=bool)
        if n == 1:
            red, rank, piv = Mat(self, a[0]).rref()
            pivots[0, list(piv)] = True
            return red.a[None], np.array([rank]), pivots
        work = a.copy()
        rank = np.zeros(n, dtype=np.intp)
        below = np.arange(rows)
        for c in range(cols):
            cand = (work[:, :, c] != 0) & (below >= rank[:, None])
            hit = np.flatnonzero(cand.any(axis=1))
            if not hit.size:
                continue
            k = np.arange(hit.size)
            src, dst = cand[hit].argmax(axis=1), rank[hit]
            w = work[hit, :, c:]  # the columns before c are zero in the rows at or below rank
            prow = w[k, src]
            w[k, src] = w[k, dst]
            prow = self.MUL[self.INV[prow[:, 0]][:, None], prow]
            w[k, dst] = prow
            f = self.NEG[w[:, :, 0]]  # row i -= w[i, c] * pivot row, but for the pivot row
            f[k, dst] = 0
            work[hit, :, c:] = self.ADD[w, self.MUL[f[:, :, None], prow[:, None, :]]]
            pivots[hit, c] = True
            rank[hit] += 1
        return work, rank, pivots

    def kernel_stack(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The RREF bases of the right kernels of an (N, r, c) stack, from one
        `rref_stack`: an (N, c, c) stack whose matrix i holds its basis in
        the first nullity[i] rows and zero rows after, and the nullities.

        The column-reversed matrices are eliminated: the kernel vector of a
        free column f has a unit at f and its other entries at pivot columns
        before f.  Read back with columns and rows reversed, the vectors
        have their leading unit at a column where every other vector is
        zero, in increasing order: the unique RREF basis of the kernel.
        """
        a = np.asarray(a, dtype=np.uint8)
        n, rows, cols = a.shape
        red, rank, pivots = self.rref_stack(a[:, :, ::-1])
        by_pivot = np.zeros((n, cols, cols), dtype=np.uint8)  # [i, p]: the row with pivot p
        by_pivot[pivots] = red[np.arange(rows) < rank[:, None]]
        # vectors[i, g, h] = -(entry at reversed column c-1-g of the row with
        # pivot c-1-h); the rows g of free columns, in order, form the bases
        free = ~pivots[:, ::-1]
        vectors = self.NEG[by_pivot[:, ::-1, ::-1].transpose(0, 2, 1)[free]]
        vectors[np.arange(len(vectors)), np.nonzero(free)[1]] = 1
        nullity = cols - rank
        basis = np.zeros((n, cols, cols), dtype=np.uint8)
        basis[np.arange(cols) < nullity[:, None]] = vectors
        return basis, nullity

    def ranks(self, mats: Sequence[np.ndarray]) -> np.ndarray:
        """The ranks of matrices of any shapes, from one `rref_stack` of the
        stack zero-padded to their largest shape."""
        shape = tuple(max((m.shape[i] for m in mats), default=0) for i in (0, 1))
        stack = np.zeros((len(mats),) + shape, dtype=np.uint8)
        for i, m in enumerate(mats):
            stack[i, : m.shape[0], : m.shape[1]] = m
        return self.rref_stack(stack)[1]


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable matrix of field-element codes over a GF context."""

    __slots__ = ("ctx", "a")

    def __init__(self, ctx: GF, array):
        self.ctx = ctx
        arr = np.asarray(array, dtype=np.uint8)
        if arr.ndim != 2:
            raise SizeMismatch(f"matrix must be 2d, got shape {arr.shape}")
        arr.setflags(write=False)
        self.a = arr

    # -- constructors

    @classmethod
    def zeros(cls, ctx: GF, rows: int, cols: int) -> "Mat":
        return cls(ctx, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, ctx: GF, n: int) -> "Mat":
        return cls(ctx, np.eye(n, dtype=np.uint8))

    @property
    def shape(self) -> tuple:
        return self.a.shape

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def tolist(self) -> list:
        return self.a.tolist()

    def tobytes(self) -> bytes:
        return self.a.shape[0].to_bytes(2, "big") + self.a.shape[1].to_bytes(2, "big") + self.a.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.ctx is other.ctx
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((id(self.ctx), self.tobytes()))

    def __repr__(self):
        return f"Mat(GF{self.ctx.q}, {self.tolist()})"

    # -- arithmetic

    def __add__(self, other: "Mat") -> "Mat":
        return Mat(self.ctx, self.ctx.ADD[self.a, other.a])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat(self.ctx, self.ctx.ADD[self.a, self.ctx.NEG[other.a]])

    def __neg__(self) -> "Mat":
        return Mat(self.ctx, self.ctx.NEG[self.a])

    def scale(self, c: int) -> "Mat":
        return Mat(self.ctx, self.ctx.MUL[c, self.a])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise SizeMismatch(f"matmul {self.shape} @ {other.shape}")
        return Mat(self.ctx, self.ctx.matmul(self.a, other.a))

    def is_zero(self) -> bool:
        return not self.a.any()

    # -- elimination

    def rref(self):
        """Reduced row echelon form: (R, rank, pivots)."""
        ctx = self.ctx
        work = self.a.copy()
        rows, cols = work.shape
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(work[r:, c])[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                work[[r, piv]] = work[[piv, r]]
            pv = int(work[r, c])
            if pv != 1:
                work[r] = ctx.MUL[ctx.inv(pv), work[r]]
            mask = np.nonzero(work[:, c])[0]
            for i in mask:
                if i == r:
                    continue
                f = ctx.NEG[work[i, c]]  # row i -= work[i, c] * row r
                work[i] = ctx.ADD[work[i], ctx.MUL[f, work[r]]]
            pivots.append(c)
            r += 1
        return Mat(ctx, work), r, tuple(pivots)

    def rank(self) -> int:
        return self.rref()[1]

    def kernel_basis(self) -> "Mat":
        """The RREF basis of the right kernel (`GF.kernel_stack` of one)."""
        basis, nullity = self.ctx.kernel_stack(self.a[None])
        return Mat(self.ctx, basis[0, : nullity[0]])

    def solve(self, rhs: "Mat") -> Optional["Mat"]:
        """X with self @ X = rhs, or None when inconsistent."""
        aug = Mat(self.ctx, np.concatenate([self.a, rhs.a], axis=1))
        red, rank, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        x = np.zeros((n, rhs.cols), dtype=np.uint8)
        for r, pc in enumerate(pivots):
            x[pc] = red.a[r, n:]
        return Mat(self.ctx, x)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise SizeMismatch("inverse of non-square matrix")
        inv = self.solve(Mat.identity(self.ctx, self.rows))
        if inv is None:
            raise SingularMatrix("matrix is singular")
        return inv

    def transpose(self) -> "Mat":
        return Mat(self.ctx, self.a.T.copy())

    def block_diag(self, other: "Mat") -> "Mat":
        out = np.zeros((self.rows + other.rows, self.cols + other.cols), dtype=np.uint8)
        out[: self.rows, : self.cols] = self.a
        out[self.rows:, self.cols:] = other.a
        return Mat(self.ctx, out)

    def power(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise SizeMismatch("power of non-square matrix")
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result @ base
            e >>= 1
            if e:
                base = base @ base
        return Mat.identity(self.ctx, self.rows) if result is None else result

    def row_space_contains(self, vectors: "Mat") -> bool:
        """True when every row of `vectors` lies in the row space of self (RREF rows)."""
        red, rank, pivots = self.rref()
        if rank == 0:
            return vectors.is_zero()
        coords = vectors.a[:, list(pivots)]
        recon = Mat(self.ctx, coords) @ Mat(self.ctx, red.a[:rank])
        return bool(np.array_equal(recon.a, vectors.a))


# ---------------------------------------------------------------------------
# counting and enumeration helpers


def gl_order(n: int, q: int) -> int:
    """Number of invertible n x n matrices over GF(q)."""
    if n < 0:
        raise ValueError(f"negative matrix size {n}")
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def gaussian_binomial(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of GF(q)^n (exact integer)."""
    if m < 0 or m > n:
        return 0
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise CertificateError(f"Gaussian binomial [{n} choose {m}] at q = {q}", None,
                               "an integer", Fraction(num, den))
    return num // den


def subspace_blocks(n: int, k: int, q: int, rows: Optional[int] = None
                    ) -> Iterator[Tuple[tuple, tuple, np.ndarray]]:
    """The RREF bases of the k-dimensional subspaces of GF(q)^n, as (pivot
    columns, free columns, (N, rows, n) stack, zero rows below row k) per
    pivot pattern.  The one enumeration of subspaces, in order: patterns
    lexicographically, then the entries right of the pivots in the free
    columns, row by row, as an odometer, first entry most significant."""
    rows = k if rows is None else rows
    for piv in itertools.combinations(range(n), k):
        free = tuple(c for c in range(n) if c not in piv)
        entries = [(r, c) for r in range(k) for c in free if c > piv[r]]
        block = np.zeros((q ** len(entries), rows, n), dtype=np.uint8)
        block[:, range(k), piv] = 1
        if entries:
            place = q ** np.arange(len(entries) - 1, -1, -1)
            block[(slice(None),) + tuple(zip(*entries))] = (
                np.arange(len(block))[:, None] // place % q)
        yield piv, free, block


def subspaces_of_dim(n: int, m: int, ctx: GF, caps: Caps = DEFAULT_CAPS) -> Iterator[Mat]:
    """All m-dimensional subspaces of GF(q)^n as RREF basis matrices, in
    `subspace_blocks` order.  Total count is the Gaussian binomial."""
    caps.check("subspace_enum", gaussian_binomial(n, m, ctx.q))
    for _, _, block in subspace_blocks(n, m, ctx.q):
        yield from (Mat(ctx, b) for b in block)


# ---------------------------------------------------------------------------
# polynomials over GF (dense code lists, index = degree, trimmed)


def poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mul(ctx: GF, a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return poly_trim(out)


def poly_divmod(ctx: GF, a: Sequence, b: Sequence) -> tuple:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = ctx.inv(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        factor = ctx.mul(a[-1], inv_lead)
        quot[shift] = factor
        for i, bi in enumerate(b):
            a[shift + i] = ctx.sub(a[shift + i], ctx.mul(factor, bi))
        poly_trim(a)
        if not a:
            break
    return poly_trim(quot), a


def monic_polys(ctx: GF, deg: int) -> Iterator[list]:
    for tail in itertools.product(range(ctx.q), repeat=deg):
        yield list(tail) + [1]


def monic_irreducibles(ctx: GF, max_deg: int) -> List[List[list]]:
    """Lists of monic irreducible polynomials by degree 1..max_deg (cached)."""
    cache = getattr(ctx, "_irr_cache", {})
    if max_deg in cache:
        return cache[max_deg]
    by_deg: List[List[list]] = [[]]
    for d in range(1, max_deg + 1):
        found = []
        for cand in monic_polys(ctx, d):
            irr = True
            for dd in range(1, d // 2 + 1):
                for f in by_deg[dd]:
                    if not poly_divmod(ctx, cand, f)[1]:
                        irr = False
                        break
                if not irr:
                    break
            if irr:
                found.append(cand)
        by_deg.append(found)
    cache[max_deg] = by_deg
    ctx._irr_cache = cache
    return by_deg
