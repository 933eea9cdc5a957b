"""Exact elimination over Q: Gauss-Jordan on Fractions, and a certified
modular kernel for integer matrices.

`row_reduce`, `matrix_rank` and `kernel_basis_exact` run Gauss-Jordan over
Q or Q(sqrt(q)); rows hold Fraction or QNum entries and the caller passes
the field's zero and one, so this module imports no other hallforge module
except its error type.

`kernel_basis_int` returns the same canonical kernel basis for a matrix of
Python ints without Fraction arithmetic: RREF modulo 31-bit primes in numpy
int64, Chinese remaindering and rational reconstruction of the kernel
entries, then a check A v = 0 over Z in Python ints.  The certificate is
that check: rank over F_p is at most rank over Q, so the mod-p nullity many
verified vectors, each with its unit on a mod-p free column and zeros right
of it, span the rational kernel; and each one writes its free column as a
combination of earlier columns, so the mod-p pivots are the pivots over Q
and the basis is the one `kernel_basis_exact` returns.

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


def row_reduce(rows: List[list], zero) -> Tuple[List[list], List[int]]:
    """RREF of a matrix over an exact field (Fraction or QNum entries)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
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
    return rows[:r] + [[zero] * cols for _ in range(len(rows) - r)], pivots


def matrix_rank(rows: List[list], zero) -> int:
    return len(row_reduce(rows, zero)[1])


def kernel_basis_exact(rows: List[list], zero, one) -> List[list]:
    """Right kernel basis (canonical form from the RREF free columns)."""
    if not rows:
        return []
    cols = len(rows[0])
    red, pivots = row_reduce(rows, zero)
    free = [c for c in range(cols) if c not in pivots]
    out = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - red[r][fc]
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# primality, and the certified modular kernel of integer matrices


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


def kernel_basis_int(rows: List[list]) -> List[List[Fraction]]:
    """`kernel_basis_exact` of an integer matrix, computed modulo primes.

    Equal to `kernel_basis_exact([[Fraction(x) for x in r] for r in rows],
    Fraction(0), Fraction(1))`.  Primes are added until the reconstructed
    basis passes A v = 0 over Z; a prime whose pivots are worse (lower rank,
    or equal rank with lexicographically later pivots) than an earlier
    prime's is unlucky and skipped, and a better one restarts the
    remaindering.  Raises CertificateError if no basis verifies within the
    number of primes that Hadamard's bound says suffices.
    """
    if not rows:
        return []
    cols = len(rows[0])
    exact = np.array(rows, dtype=object).reshape(len(rows), cols)
    # Hadamard's bound H on the minors: kernel entries are ratios of minors,
    # so a modulus above 2 H^2 reconstructs them, and at most log_p(H)
    # primes divide a nonzero minor
    hadamard = prod(isqrt(sum(x * x for x in r)) + 1 for r in rows)
    limit = 2 * (2 * hadamard * hadamard).bit_length() // 30 + 4
    best, residues, modulus = None, None, 1
    for p in itertools.islice(_primes_31(), limit):
        red, pivots = _rref_mod(np.array(exact % p, dtype=np.int64), p)
        free = sorted(set(range(cols)) - set(pivots))
        if not free:
            return []  # rank over Q is at least the full rank over F_p
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        vals = [int(x) for x in (-red[:, free] % p).reshape(-1)]
        if best is None or key < best:
            best, residues, modulus = key, vals, p
        else:
            inv = pow(modulus, -1, p)
            residues = [x + modulus * ((y - x) * inv % p) for x, y in zip(residues, vals)]
            modulus *= p
        entries = [_reconstruct(x, modulus) for x in residues]
        if None in entries:
            continue
        basis = []
        for j, fc in enumerate(free):
            vec = [Fraction(0)] * cols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = entries[r * len(free) + j]
            basis.append(vec)
        scaled = []
        for vec in basis:
            d = lcm(*(x.denominator for x in vec))
            scaled.append([int(x * d) for x in vec])
        if not (exact @ np.array(scaled, dtype=object).T).any():
            return basis
    raise CertificateError("modular kernel", None, "a basis with A v = 0 over Z",
                           f"none after {limit} primes")
