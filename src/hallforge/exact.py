"""Exact elimination over Q: `row_reduce` is the one eliminator, and the
route it takes is chosen by its input.

`row_reduce(rows)` returns the RREF of a rational matrix, zero rows kept at
the bottom, and its pivot columns; `matrix_rank` and `kernel_basis_exact`
read theirs off it.  Entries come back as Fractions on both routes.

An integer ndarray, or rows whose entries are all Python ints, take a
certified modular route, chosen by the array's dtype without looking at its
entries: RREF
modulo 31-bit primes in numpy int64, Chinese remaindering and rational
reconstruction of the entries in the free columns, then a check A v = 0 over
Z, in Python ints, of the kernel basis that this RREF gives.  The
certificate is that check: rank over F_p is at most rank over Q, so the
mod-p nullity many verified vectors, each with its unit on a mod-p free
column and zeros in the other free columns, span the rational kernel; the
reconstructed rows are orthogonal to them and as many as the rank, so they
span the row space, and their zeros left of each pivot make them its RREF.
Any other rows (Fractions, or ints mixed with Fractions) take Gauss-Jordan
over Fractions, which is faster on the small rational systems they come
from.  This module imports no other hallforge module except its error type.

`is_prime` is the package's one primality test: deterministic Miller-Rabin,
exact below PRIME_BOUND; it picks those primes and checks field sizes in `gf`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import CertificateError


def row_reduce(rows) -> Tuple[List[List[Fraction]], List[int]]:
    """RREF of a rational matrix, zero rows kept at the bottom, and its
    pivot columns: modular for an integer ndarray or all-int rows,
    Gauss-Jordan otherwise."""
    if len(rows) == 0:
        return [], []
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
        return _row_reduce_int(rows)
    if all(isinstance(x, int) for r in rows for x in r):
        return _row_reduce_int(rows)
    return _gauss_jordan(rows)


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[1])


def kernel_basis_exact(rows) -> List[List[Fraction]]:
    """Right kernel basis: one vector per free column of the RREF, 1 there,
    0 in the other free columns.  An array's column count is its shape's,
    so the kernel of a zero-row array is the whole space."""
    if isinstance(rows, np.ndarray):
        cols = rows.shape[1]
    else:
        cols = len(rows[0]) if len(rows) else 0
    red, pivots = row_reduce(rows)
    return _kernel_of_rref(red, pivots, cols)


def _kernel_of_rref(red, pivots: List[int], cols: int) -> List[List[Fraction]]:
    pivot_set = set(pivots)
    out = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        out.append(vec)
    return out


def _gauss_jordan(rows: List[list]) -> Tuple[List[List[Fraction]], List[int]]:
    rows = [[Fraction(x) for x in r] for r in rows]
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[Fraction(0)] * cols for _ in range(len(rows) - r)], pivots


# ---------------------------------------------------------------------------
# primality, and the certified modular route for integer matrices


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster,
# Math. Comp. 86, 2017); bases 2..37 alone already fail at 318665857834031151167461
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality below PRIME_BOUND (about 3.3e24), by Miller-Rabin
    with the first 13 prime bases; a larger n is a ValueError."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_31() -> Iterator[int]:
    """The primes below 2^31, descending."""
    n = 2 ** 31 - 1
    while True:
        if is_prime(n):
            yield n
        n -= 2


def _rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """RREF of an int64 array with entries in [0, p), in place; p < 2^31
    keeps every product below 2^62."""
    rows, cols = a.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _reconstruct(u: int, m: int) -> Optional[Fraction]:
    """The fraction a/b with |a|, b <= sqrt(m/2) and a = b*u mod m, if any."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _row_reduce_int(rows) -> Tuple[List[List[Fraction]], List[int]]:
    """`row_reduce` of an integer matrix, computed modulo primes.

    Primes are added until the reconstructed RREF passes the kernel check
    A v = 0 over Z; a prime whose pivots are worse (lower rank, or equal
    rank with lexicographically later pivots) than an earlier prime's is
    unlucky and skipped, and a better one restarts the remaindering.
    Raises CertificateError if no RREF verifies within the number of primes
    that Hadamard's bound says suffices.
    """
    m, cols = len(rows), len(rows[0])
    # Hadamard's bound H on the minors: RREF entries are ratios of minors,
    # so a modulus above 2 H^2 reconstructs them, and at most log_p(H)
    # primes divide a nonzero minor
    if isinstance(rows, np.ndarray):
        source, exact = rows, rows.astype(object)
        # log2 H from the float row norms, rounded up past their rounding error
        log_h = float(np.log2(np.sqrt(np.square(rows, dtype=np.float64).sum(axis=1)) + 1).sum())
        bits = int(2 * (log_h * (1 + 1e-9) + 1)) + 2
    else:
        source = exact = np.array(rows, dtype=object).reshape(m, cols)
        hadamard = prod(isqrt(sum(x * x for x in r)) + 1 for r in rows)
        bits = (2 * hadamard * hadamard).bit_length()
    limit = 2 * bits // 30 + 4
    best, residues, modulus = None, None, 1
    for p in itertools.islice(_primes_31(), limit):
        red, pivots = _rref_mod((source % p).astype(np.int64, copy=False), p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        free = sorted(set(range(cols)) - set(pivots))
        vals = [int(x) for x in red[:, free].reshape(-1)]
        if best is None or key < best:
            best, residues, modulus = key, vals, p
        else:
            inv = pow(modulus, -1, p)
            residues = [x + modulus * ((y - x) * inv % p) for x, y in zip(residues, vals)]
            modulus *= p
        entries = [_reconstruct(x, modulus) for x in residues]
        if None in entries:
            continue
        rref = [[Fraction(0)] * cols for _ in range(m)]
        for r, pc in enumerate(pivots):
            rref[r][pc] = Fraction(1)
            for j, fc in enumerate(free):
                rref[r][fc] = entries[r * len(free) + j]
        scaled = []
        for vec in _kernel_of_rref(rref, pivots, cols):
            d = lcm(*(x.denominator for x in vec))
            scaled.append([int(x * d) for x in vec])
        if not scaled or not (exact @ np.array(scaled, dtype=object).T).any():
            return rref, pivots
    raise CertificateError("modular elimination", None, "an RREF with A v = 0 over Z",
                           f"none after {limit} primes")
