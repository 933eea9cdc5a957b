import hashlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from childenv import child_env
from hallforge.errors import CapExceeded, CertificateError, SingularMatrix, SizeMismatch
from hallforge.exact import PRIME_BOUND
from hallforge import gf
from hallforge.gf import (GF, MODULUS_TABLE, Mat, gaussian_binomial, gl_order,
                          is_prime, monic_irreducibles, poly_divmod, subspaces_of_dim)
from hallforge.reps import rref_pivots

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]

# Every field GF.of accepts (primes to 61, and each MODULUS_TABLE entry),
# fields it rejects, and the sha256 of their tables, generators and errors
# as recorded before the two field types were folded into one.
ACCEPTED_FIELDS = [(p, 1) for p in range(2, 65) if all(p % d for d in range(2, p))] + sorted(
    MODULUS_TABLE)
REJECTED_FIELDS = [(4, 1), (2, 7), (5, 3), (67, 1), (2, 0), (1, 1)]
FIELD_LAYER_DIGEST = "716f2a25b22062ba198690f89837d62fb856875c406125cb2efaae9ce37aa357"


@pytest.mark.parametrize("p,k", FIELDS)
def test_field_axioms(p, k):
    ctx = GF.of(p, k)
    q = ctx.q
    rng = random.Random(q)
    for a in range(q):
        assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.add(a, ctx.neg(a)) == 0
    for _ in range(80):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_specific_values():
    assert GF.of(2).add(1, 1) == 0
    # GF(4) with modulus x^2+x+1: x*x = x+1, i.e. codes 2*2 = 3
    assert GF.of(2, 2).mul(2, 2) == 3
    with pytest.raises(SingularMatrix):
        GF.of(3).inv(0)


def test_field_layer_golden():
    digest = hashlib.sha256()
    for p, k in ACCEPTED_FIELDS:
        ctx = GF.of(p, k)
        digest.update(f"GF({p},{k}) generator {ctx.generator}\n".encode())
        for table in (ctx.ADD, ctx.MUL, ctx.NEG, ctx.INV):
            digest.update(f"{table.dtype.str} {table.shape}".encode() + table.tobytes())
    for p, k in REJECTED_FIELDS:
        with pytest.raises(Exception) as err:
            GF.of(p, k)
        digest.update(f"GF({p},{k}) {type(err.value).__name__}: {err.value}\n".encode())
    assert digest.hexdigest() == FIELD_LAYER_DIGEST


def test_of_q_factors_prime_powers():
    assert GF.of_q(2) is GF.of(2) and GF.of_q(64) is GF.of(2, 6) and GF.of_q(49) is GF.of(7, 2)
    # q = 0 once looped forever (0 % 2 == 0 and 0 // 2 == 0), so it runs in a
    # subprocess that a hang fails by its timeout
    code = (
        "from hallforge.gf import GF\n"
        "for q in (0, 1, 6, 12, 67, -2):\n"
        "    try:\n"
        "        GF.of_q(q)\n"
        "    except ValueError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{q} is not a small prime power" for q in (0, 1, 6, 12, 67, -2)]


def test_is_prime_matches_a_sieve():
    n = 10 ** 4
    sieve = [False, False] + [True] * (n - 1)
    for m in range(2, 101):
        if sieve[m]:
            sieve[m * m::m] = [False] * len(range(m * m, n + 1, m))
    assert [is_prime(m) for m in range(n + 1)] == sieve
    assert not any(is_prime(m) for m in range(-5, 0))
    # 3727 is prime and above 61^2: the size cap rejects GF(3727), not primality
    with pytest.raises(CapExceeded) as err:
        GF.of(3727)
    assert (err.value.what, err.value.estimate, err.value.cap) == ("field_size", 3727, 64)


def test_large_prime_meets_the_size_cap_at_once():
    # trial division to sqrt(2^61 - 1) would take minutes, so a hang fails
    # this subprocess by its timeout
    code = (
        "from hallforge.gf import GF\n"
        "from hallforge.errors import CapExceeded\n"
        "for p in (2 ** 61 - 1, 100000000000031, 10 ** 30):\n"
        "    try:\n"
        "        GF.of(p)\n"
        "    except CapExceeded as err:\n"
        "        print(err.what, err.estimate == p, err.cap)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["field_size True 64"] * 3


def test_is_prime_past_strong_pseudoprimes():
    # 561 is a Carmichael number, and the others past 2^67 - 1 are the least
    # strong pseudoprimes to the first 4, 9 and 12 prime bases (2..37); the
    # base 41 rejects the last
    assert all(is_prime(2 ** e - 1) for e in (31, 61))
    assert not any(is_prime(n) for n in (561, 2 ** 67 - 1, 3215031751, 3825123056546413051,
                                         318665857834031151167461))
    with pytest.raises(ValueError):
        is_prime(PRIME_BOUND)


def test_preconditions_raise_errors():
    f2 = GF.of(2)
    wide = Mat(f2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(SizeMismatch):
        wide.power(2)
    with pytest.raises(ValueError):
        gl_order(-1, 2)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f2, [1, 1], [0, 0])
    # [2 choose 1] at q = 1/2 is (q^2 - 1) / (q - 1) = 3/2, not an integer
    with pytest.raises(CertificateError) as err:
        gaussian_binomial(2, 1, Fraction(1, 2))
    assert err.value.got == Fraction(3, 2)


def test_moduli_irreducible():
    for (p, k), mod in MODULUS_TABLE.items():
        ctx = GF.of(p)
        full = list(mod) + [1]
        for d in range(1, k // 2 + 1):
            for f in monic_irreducibles(ctx, d)[d]:
                assert poly_divmod(ctx, full, f)[1], (p, k, f)


def _oracle_matmul(ctx, a, b):
    """Triple loop over the scalar add/mul of the field."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc = ctx.add(acc, ctx.mul(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p,k", FIELDS)
def test_matmul_matches_scalar_oracle(p, k):
    ctx = GF.of(p, k)
    rng = np.random.default_rng(ctx.q)

    def rand(*shape):
        return rng.integers(0, ctx.q, size=shape, dtype=np.uint8)

    def check(a, b):
        got = ctx.matmul(a, b)
        assert got.dtype == np.uint8 and got.shape == np.matmul(a, b).shape
        stack = got.shape[:-2]
        a, b = np.broadcast_to(a, stack + a.shape[-2:]), np.broadcast_to(b, stack + b.shape[-2:])
        for idx in np.ndindex(stack):
            assert np.array_equal(got[idx], _oracle_matmul(ctx, a[idx], b[idx]))

    r, c, n = 3, 2, 4
    check(rand(r, c), rand(c, r))               # single matrices
    check(rand(r, r), rand(n, r, c))            # (r,r) @ (N,r,c)
    check(rand(n, r, c), rand(c, c))            # (N,r,c) @ (c,c)
    check(rand(n, r, c), rand(n, c, r))         # stack @ stack
    check(rand(r, 0), rand(0, c))               # empty inner dimension
    check(rand(0, n), rand(n, c))               # no rows
    assert Mat(ctx, rand(r, 0)) @ Mat(ctx, rand(0, c)) == Mat.zeros(ctx, r, c)


@pytest.mark.parametrize("p", [p for p in gf._SMALL_PRIMES if p <= 7])
def test_prime_matmul_matches_int64_reference(p):
    # each dtype holds exactly the inner sizes it is chosen for: the largest
    # c with c * (p - 1)^2 below 2^15 (int16) or 2^31 (int32), and one past
    square = (p - 1) ** 2
    for bits, narrow, wide in ((15, np.int16, np.int32), (31, np.int32, np.int64)):
        at = ((1 << bits) - 1) // square
        assert gf._product_dtype(at, p) is narrow and gf._product_dtype(at + 1, p) is wide
    ctx, rng, at = GF.of(p), np.random.default_rng(p), ((1 << 15) - 1) // square
    for c in (1, at, at + 1):
        top = np.full((2, c), p - 1, dtype=np.uint8)  # every sum is c * (p - 1)^2
        rand = rng.integers(0, p, size=(3, 2, c), dtype=np.uint8)
        for a, b in ((top, top.T), (rand, top.T), (top, rand.transpose(0, 2, 1)),
                     (rand, rand.transpose(0, 2, 1)), (rand[:, None], top.T[None, None])):
            got = ctx.matmul(a, b)
            want = (a.astype(np.int64) @ b.astype(np.int64)) % p
            assert got.dtype == np.uint8 and np.array_equal(got, want), (c, a.shape, b.shape)


def test_rref_and_kernel():
    f2 = GF.of(2)
    ident = Mat.identity(f2, 2)
    red, rank, piv = ident.rref()
    assert red == ident and rank == 2
    kb = Mat(f2, [[1, 1]]).kernel_basis()
    assert kb.tolist() == [[1, 1]]
    assert Mat(f2, [[0, 1], [0, 0]]).rank() == 1
    rng = random.Random(9)
    for ctx in (GF.of(p, k) for p, k in FIELDS):
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)])
            red, rank, piv = m.rref()
            again, rank2, _ = red.rref()
            assert again == red and rank2 == rank  # idempotent
            assert rank + m.kernel_basis().rows == cols  # rank-nullity


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernel_basis_is_the_rref_basis_of_the_kernel(p, k):
    ctx = GF.of(p, k)
    rng = np.random.default_rng(ctx.q)
    shapes = [(0, 3), (3, 0), (0, 0)] + [tuple(rng.integers(1, 7, size=2)) for _ in range(60)]
    for rows, cols in shapes:
        # sparse entries, so that ranks below min(rows, cols) are common
        a = rng.integers(0, ctx.q, size=(rows, cols), dtype=np.uint8)
        m = Mat(ctx, a * (rng.random((rows, cols)) < 0.5))
        kb = m.kernel_basis()
        red, rank, _ = kb.rref()
        assert rank == kb.rows and Mat(ctx, red.a[:rank]) == kb, (m, kb)  # its own RREF
        assert (m @ kb.transpose()).is_zero(), (m, kb)
        assert kb.shape == (cols - m.rank(), cols), (m, kb)


@pytest.mark.parametrize("p,k", FIELDS)
def test_rref_stack_matches_rref(p, k):
    # the column sweep over a stack reduces each matrix as the per-row loop
    # of Mat.rref does, and the stacked kernel read-back gives each
    # matrix's Mat.kernel_basis, with zero rows after it
    ctx = GF.of(p, k)
    rng = np.random.default_rng(100 + ctx.q)
    shapes = [(0, 4), (4, 0), (0, 0), (3, 6), (6, 3), (5, 5), (1, 7), (7, 1), (18, 18)]
    for rows, cols in shapes:
        for n in (2, 17):
            # products through an inner dimension below min(rows, cols), and
            # sparse entries, make rank-deficient matrices common
            inner = rng.integers(0, max(min(rows, cols), 1), size=n)
            a = np.stack([ctx.matmul(rng.integers(0, ctx.q, size=(rows, d), dtype=np.uint8),
                                     rng.integers(0, ctx.q, size=(d, cols), dtype=np.uint8))
                          if i % 2 else
                          rng.integers(0, ctx.q, size=(rows, cols), dtype=np.uint8)
                          * (rng.random((rows, cols)) < 0.4)
                          for i, d in enumerate(inner)]).astype(np.uint8)
            red, rank, pivots = ctx.rref_stack(a)
            kernel, nullity = ctx.kernel_stack(a)
            assert red.shape == a.shape and kernel.shape == (n, cols, cols)
            for i in range(n):
                want_red, want_rank, want_piv = Mat(ctx, a[i]).rref()
                assert np.array_equal(red[i], want_red.a), (rows, cols, i)
                assert rank[i] == want_rank and tuple(np.flatnonzero(pivots[i])) == want_piv
                kb = Mat(ctx, a[i]).kernel_basis()
                assert nullity[i] == kb.rows == cols - want_rank
                assert np.array_equal(kernel[i, : nullity[i]], kb.a)
                assert not kernel[i, nullity[i]:].any()
                assert (Mat(ctx, a[i]) @ kb.transpose()).is_zero()
    # a stack of one takes the per-row loop; an empty stack is returned empty
    one = rng.integers(0, ctx.q, size=(1, 3, 4), dtype=np.uint8)
    red, rank, pivots = ctx.rref_stack(one)
    want_red, want_rank, want_piv = Mat(ctx, one[0]).rref()
    assert np.array_equal(red[0], want_red.a) and rank[0] == want_rank
    assert tuple(np.flatnonzero(pivots[0])) == want_piv
    red, rank, pivots = ctx.rref_stack(np.zeros((0, 3, 4), dtype=np.uint8))
    assert red.shape == (0, 3, 4) and rank.shape == (0,) and pivots.shape == (0, 4)
    # ranks of matrices of several shapes come from one zero-padded stack
    mats = [rng.integers(0, ctx.q, size=s, dtype=np.uint8)
            for s in ((2, 3), (4, 1), (0, 2), (3, 3))]
    assert ctx.ranks(mats).tolist() == [Mat(ctx, m).rank() for m in mats]


def test_solve_and_inverse():
    rng = random.Random(4)
    for ctx in (GF.of(p, k) for p, k in FIELDS):
        for _ in range(20):
            n = rng.randrange(1, 4)
            m = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
            if m.rank() == n:
                inv = m.inverse()
                assert (m @ inv) == Mat.identity(ctx, n)
            else:
                with pytest.raises(SingularMatrix):
                    m.inverse()
        # solve round trip
        for _ in range(10):
            n = rng.randrange(1, 4)
            m = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)])
            x = Mat(ctx, [[rng.randrange(ctx.q)] for _ in range(n)])
            rhs = m @ x
            sol = m.solve(rhs)
            assert sol is not None and (m @ sol) == rhs


def test_power_matches_repeated_products():
    rng = random.Random(6)
    for ctx in (GF.of(p, k) for p, k in FIELDS):
        n = rng.randrange(0, 4)
        m = Mat(ctx, np.array([rng.randrange(ctx.q) for _ in range(n * n)],
                              dtype=np.uint8).reshape(n, n))
        expected = Mat.identity(ctx, n)
        for e in range(9):
            assert m.power(e) == expected, (ctx.q, e)
            expected = expected @ m


def test_subspace_enumeration_counts():
    # oracle: the Gaussian binomial by its product formula, plus one direct
    # brute-force count of lines in F_2^3
    assert len(list(subspaces_of_dim(2, 1, GF.of(2)))) == 3
    assert len(list(subspaces_of_dim(2, 1, GF.of(3)))) == 4
    lines = set()
    for v in itertools.product(range(2), repeat=3):
        if any(v):
            lines.add(tuple(v))  # over GF(2), scaling is trivial
    assert len(lines) == 7
    assert len(list(subspaces_of_dim(3, 1, GF.of(2)))) == 7
    for (n, m, q) in [(3, 2, 2), (4, 2, 3), (3, 1, 4), (4, 3, 2)]:
        ctx = GF.of_q(q)
        subs = list(subspaces_of_dim(n, m, ctx))
        assert len(subs) == gaussian_binomial(n, m, q)
        assert len({s.tobytes() for s in subs}) == len(subs)  # each exactly once


def test_subspace_enumeration_order():
    # the order every census key and row-space id rests on: pivot patterns
    # lexicographically, then the free entries as an odometer in code order
    assert [s.tolist() for s in subspaces_of_dim(3, 1, GF.of(2))] == [
        [[1, 0, 0]], [[1, 0, 1]], [[1, 1, 0]], [[1, 1, 1]], [[0, 1, 0]], [[0, 1, 1]],
        [[0, 0, 1]]]
    assert [s.tolist() for s in subspaces_of_dim(2, 1, GF.of(3))] == [
        [[1, 0]], [[1, 1]], [[1, 2]], [[0, 1]]]
    for n, m, q in itertools.product(range(5), range(5), (2, 3, 4)):
        for s in subspaces_of_dim(n, m, GF.of_q(q)):
            assert s.shape == (m, n) and len(rref_pivots(s)) == m


def test_gl_order():
    assert gl_order(0, 5) == 1
    assert gl_order(1, 2) == 1
    # brute force over GF(2): invertible 2x2 matrices
    count = 0
    f2 = GF.of(2)
    for entries in itertools.product(range(2), repeat=4):
        if Mat(f2, [entries[:2], entries[2:]]).rank() == 2:
            count += 1
    assert count == 6 == gl_order(2, 2)
    assert gl_order(2, 3) == (9 - 1) * (9 - 3) == 48


def test_monic_irreducible_counts():
    # q=2: degrees 1..4 have 2, 1, 2, 3 irreducibles
    assert [len(x) for x in monic_irreducibles(GF.of(2), 4)] == [0, 2, 1, 2, 3]
    # q=3: 3, 3, 8, 18
    assert [len(x) for x in monic_irreducibles(GF.of(3), 4)] == [0, 3, 3, 8, 18]
