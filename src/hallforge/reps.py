"""Quiver representations over a finite field.

A representation assigns GF(q)-spaces to vertices and one matrix per
arrow; the matrix of an arrow i -> j has shape (dim_j, dim_i) and acts on
column vectors.  This module provides the exact linear algebra on
representations: intertwiner (Hom) spaces, Ext^1 dimensions through the
Euler form, direct sums, dualization, sub/quotient representations cut
out by stable subspace tuples, and the Fitting-lemma machinery for
Krull-Schmidt decompositions: the Fitting power g of a splitter
endomorphism splits m into the sub ker g and the quotient m / ker g,
which is isomorphic to the image part.  A splitter candidate costs one
elimination per vertex, the kernel of its Fitting power, whose RREF bases
both decide the split and cut out the sub.  Hom bases are the RREF bases
of the intertwiner systems' kernels.

Hom systems are filled from scatter indices cached per pair of dimension
vectors, for a whole stack of pairs at once (`hom_stack`; `hom_space` is
its stack of one).  There is one splitter search, over End basis rows
(`_basis_splits`): every basis element of a stack of representations of
one dimension vector, then the pair sums of those still unsplit, each as
one `GF.kernel_stack` per vertex.  `end_splits` runs it after solving End
for the stack, keeping each End basis as its kernel rows (`EndBasis`);
the public per-representation API (`fitting_split`, `krull_schmidt`,
`is_indecomposable`) runs it on a stack of one with the caller's basis.
The subs and quotients of the splits of a stack with one kernel dimension
vector are cut out together (`sub_quotient_stack`; `sub_quotient` is its
stack of one).

Indecomposability is certified, not guessed: a representation is
indecomposable iff its endomorphism ring is local, which is detected by a
splitter search over the endomorphism basis, pairwise sums, and (within
caps) a full scan of End(M).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CertificateError, HallforgeError, SizeMismatch
from .gf import GF, Mat
from .quiver import Quiver, dual_quiver, euler_form

_SPLIT_STACK = 1024  # representations per stack of `end_splits`
_SCAN_STACK = 4096   # End elements per stack of `scan_splitter`


@dataclass(frozen=True)
class Rep:
    quiver: Quiver
    ctx: GF
    dims: tuple
    mats: tuple  # one Mat per arrow, shape (dims[target], dims[source])

    def __post_init__(self):
        if len(self.dims) != self.quiver.n or len(self.mats) != len(self.quiver.arrows):
            raise SizeMismatch("representation data does not fit the quiver")
        for (s, t), m in zip(self.quiver.arrows, self.mats):
            if m.shape != (self.dims[t], self.dims[s]):
                raise SizeMismatch(
                    f"arrow {s}->{t} matrix has shape {m.shape}, expected "
                    f"({self.dims[t]}, {self.dims[s]})"
                )
            if m.ctx is not self.ctx:
                raise SizeMismatch("mixed field contexts in one representation")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def tobytes(self) -> bytes:
        return b"|".join(m.tobytes() for m in self.mats) + bytes(self.dims)

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.quiver == other.quiver
            and self.ctx is other.ctx
            and self.dims == other.dims
            and all(a == b for a, b in zip(self.mats, other.mats))
        )


def zero_rep(quiver: Quiver, ctx: GF) -> Rep:
    dims = (0,) * quiver.n
    mats = tuple(Mat.zeros(ctx, 0, 0) for _ in quiver.arrows)
    return Rep(quiver, ctx, dims, mats)


def simple_rep(quiver: Quiver, ctx: GF, vertex: int) -> Rep:
    """One-dimensional representation at a vertex, zero maps everywhere.

    For a loop at the vertex this is the nilpotent simple.
    """
    dims = tuple(1 if i == vertex else 0 for i in range(quiver.n))
    mats = tuple(
        Mat.zeros(ctx, dims[t], dims[s]) for (s, t) in quiver.arrows
    )
    return Rep(quiver, ctx, dims, mats)


def rep_with_dims(quiver: Quiver, ctx: GF, dims: Sequence, entries) -> Rep:
    """Build a representation from nested lists per arrow."""
    dims = quiver.check_dim(dims)
    mats = []
    for (s, t), block in zip(quiver.arrows, entries):
        mats.append(Mat(ctx, np.asarray(block, dtype=np.uint8).reshape(dims[t], dims[s])))
    return Rep(quiver, ctx, dims, tuple(mats))


def direct_sum(m: Rep, n: Rep) -> Rep:
    if m.quiver != n.quiver or m.ctx is not n.ctx:
        raise SizeMismatch("direct sum requires matching quiver and field")
    dims = tuple(a + b for a, b in zip(m.dims, n.dims))
    mats = []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        block = np.zeros((dims[t], dims[s]), dtype=np.uint8)
        block[: m.dims[t], : m.dims[s]] = m.mats[idx].a
        block[m.dims[t]:, m.dims[s]:] = n.mats[idx].a
        mats.append(Mat(m.ctx, block))
    return Rep(m.quiver, m.ctx, dims, tuple(mats))


def direct_sum_all(parts: Sequence[Rep], quiver: Quiver, ctx: GF) -> Rep:
    out = zero_rep(quiver, ctx)
    for p in parts:
        out = direct_sum(out, p)
    return out


def dualize_rep(m: Rep) -> Rep:
    """Transpose all matrices; lives over the dual quiver."""
    dq = dual_quiver(m.quiver)
    mats = tuple(mat.transpose() for mat in m.mats)
    return Rep(dq, m.ctx, m.dims, mats)


# ---------------------------------------------------------------------------
# intertwiner spaces


def digit_rows(blocks: Sequence[np.ndarray], count: int) -> np.ndarray:
    """The digit rows of `count` representations given by one matrix stack
    per arrow: each row holds the entries of its arrow blocks, in arrow
    order, row-major."""
    return np.concatenate([np.zeros((count, 0), dtype=np.uint8)]
                          + [b.reshape(count, -1) for b in blocks], axis=1)


def unique_rows(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array, numbered in order of first
    occurrence: the position of each one's first occurrence, the number of
    every row, and how often each occurs.  Rows are compared as bytes, by
    one 1-d `np.unique`."""
    a = np.ascontiguousarray(a)
    rows = a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(rows, return_index=True, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return first[order], number[inverse.ravel()], counts[order]


@functools.lru_cache(maxsize=1024)
def _hom_scatter(quiver: Quiver, mdims: tuple, ndims: tuple) -> tuple:
    """Where the digit rows of m and n go in the system whose kernel is
    Hom(m, n), for m of dimension vector `mdims` and n of `ndims`.

    Unknowns are the blocks f_i : m_i -> n_i (shape n_i x m_i), flattened
    row-major and concatenated.  The equation block of an arrow s -> t says
    f_t m_alpha = n_alpha f_s; its row (a, b) reads
    sum_c f_t[a, c] m_alpha[c, b] - sum_c n_alpha[a, c] f_s[c, b] = 0.
    Returns the system's shape and, for m and for n, the flat positions in
    the system and the digit that fills each (negated for n).
    """
    offs = np.cumsum([0] + [n * m for n, m in zip(ndims, mdims)])
    m_at = np.cumsum([0] + [mdims[s] * mdims[t] for s, t in quiver.arrows])
    n_at = np.cumsum([0] + [ndims[s] * ndims[t] for s, t in quiver.arrows])
    rows, m_part, n_part = 0, [], []
    for idx, (s, t) in enumerate(quiver.arrows):
        a, b, c = np.indices((ndims[t], mdims[s], mdims[t])).reshape(3, -1)
        m_part.append((rows + a * mdims[s] + b, offs[t] + a * mdims[t] + c,
                       m_at[idx] + c * mdims[s] + b))
        a, b, c = np.indices((ndims[t], mdims[s], ndims[s])).reshape(3, -1)
        n_part.append((rows + a * mdims[s] + b, offs[s] + c * mdims[s] + b,
                       n_at[idx] + a * ndims[s] + c))
        rows += ndims[t] * mdims[s]
    cols = int(offs[-1])
    places = []
    for part in (m_part, n_part):
        r, c, src = (np.concatenate([np.zeros(0, dtype=np.intp)] + [p[k] for p in part])
                     for k in range(3))
        places += [r * cols + c, src]
    for a in places:  # shared by every caller of the cache
        a.setflags(write=False)
    return (rows, cols), *places


def _hom_systems(ms: Sequence[Rep], ns: Sequence[Rep]) -> np.ndarray:
    """The (N, rows, cols) stack of coefficient matrices whose kernels are
    Hom(m, n), for pairs (m, n) with every m of one dimension vector and
    every n of another, filled from cached scatter indices."""
    m0, n0 = ms[0], ns[0]
    if any(x.quiver != m0.quiver or x.ctx is not m0.ctx for x in itertools.chain(ms, ns)):
        raise SizeMismatch("hom requires matching quiver and field")
    if any(m.dims != m0.dims for m in ms) or any(n.dims != n0.dims for n in ns):
        raise SizeMismatch("a stack of hom systems needs one dimension vector per side")
    ctx = m0.ctx
    m_digits, n_digits = (
        digit_rows([np.stack([a.a for a in arrow]) for arrow in zip(*(r.mats for r in side))],
                   len(side))
        for side in (ms, ns))
    shape, m_pos, m_src, n_pos, n_src = _hom_scatter(m0.quiver, m0.dims, n0.dims)
    sys = np.zeros((len(ms), shape[0] * shape[1]), dtype=np.uint8)
    sys[:, m_pos] = m_digits[:, m_src]
    # a loop's two terms may share a position, so the n part is added
    sys[:, n_pos] = ctx.ADD[sys[:, n_pos], ctx.NEG[n_digits[:, n_src]]]
    return sys.reshape((len(ms),) + shape)


def hom_stack(ms: Sequence[Rep], ns: Sequence[Rep]) -> Tuple[np.ndarray, np.ndarray]:
    """Hom(m, n) for a stack of pairs of one shape (see `_hom_systems`), from
    one `GF.kernel_stack`: the RREF basis rows of each Hom space, padded
    with zero rows, and the dimensions."""
    return ms[0].ctx.kernel_stack(_hom_systems(ms, ns))


def _hom_blocks(ctx: GF, rows: np.ndarray, mdims: tuple, ndims: tuple) -> list:
    """Hom basis rows as tuples of per-vertex blocks f_i : m_i -> n_i."""
    ends = np.cumsum([0] + [n * m for n, m in zip(ndims, mdims)]).tolist()
    return [tuple(Mat(ctx, row[lo:hi].reshape(n, m))
                  for lo, hi, n, m in zip(ends, ends[1:], ndims, mdims))
            for row in rows]


class EndBasis(Sequence):
    """An End basis as `end_splits` solved it, kept as its kernel rows; the
    per-vertex Mat blocks of its elements are made on first use, as most
    candidates a build splits need only the basis length."""

    def __init__(self, ctx: GF, rows: np.ndarray, dims: tuple):
        self.ctx, self.rows, self.dims = ctx, rows, dims
        self._blocks: Optional[list] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if self._blocks is None:
            self._blocks = _hom_blocks(self.ctx, self.rows, self.dims, self.dims)
        return self._blocks[i]

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def hom_space(m: Rep, n: Rep) -> Tuple[int, list]:
    """Dimension and basis of Hom(m, n); basis entries are tuples of Mat."""
    kernel, dims = hom_stack([m], [n])
    return int(dims[0]), _hom_blocks(m.ctx, kernel[0, : dims[0]], m.dims, n.dims)


def hom_dim(m: Rep, n: Rep) -> int:
    return int(hom_stack([m], [n])[1][0])


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1 = hom(m, n) - <dim m, dim n>; nonnegative for path algebras."""
    val = hom_dim(m, n) - euler_form(m.quiver, m.dims, n.dims)
    if val < 0:
        raise CertificateError(f"ext1 dimension from {m.dims} to {n.dims}", None,
                               "a nonnegative value", val)
    return val


def end_basis(m: Rep) -> list:
    return hom_space(m, m)[1]


def hom_combinations(basis: list, q: int, zero: tuple):
    """All linear combinations of hom-basis tuples, the zero one first."""
    for combo in itertools.product(range(q), repeat=len(basis)):
        f = None
        for c, b in zip(combo, basis):
            if c:
                part = tuple(bi.scale(c) for bi in b)
                f = part if f is None else tuple(x + y for x, y in zip(f, part))
        yield zero if f is None else f


# ---------------------------------------------------------------------------
# nilpotency


def is_nilpotent_rep(m: Rep) -> bool:
    """True when iterating all arrows eventually kills every vector.

    Computed as the stabilization of the chain W <- span of arrow images
    of W, starting from the full spaces; nilpotent iff the chain reaches
    zero.  On acyclic quivers every representation is nilpotent.
    """
    bases = [Mat.identity(m.ctx, d) for d in m.dims]  # rows span W_i
    for _ in range(m.total_dim + 1):
        new_rows = [[] for _ in range(m.quiver.n)]
        for idx, (s, t) in enumerate(m.quiver.arrows):
            if bases[s].rows and m.dims[t]:
                img = (m.mats[idx] @ bases[s].transpose()).transpose()
                new_rows[t].append(img.a)
        new_bases = []
        for i in range(m.quiver.n):
            if not new_rows[i]:
                new_bases.append(Mat.zeros(m.ctx, 0, m.dims[i]))
                continue
            stacked = Mat(m.ctx, np.concatenate(new_rows[i], axis=0))
            red, rank, _ = stacked.rref()
            new_bases.append(Mat(m.ctx, red.a[:rank]))
        if all(b.rows == 0 for b in new_bases):
            return True
        if all(a.rows == b.rows for a, b in zip(bases, new_bases)):
            return False
        bases = new_bases
    return False


# ---------------------------------------------------------------------------
# sub- and quotient representations from stable subspace tuples


def is_stable(m: Rep, sub_bases: Sequence[Mat]) -> bool:
    """Do the row-span subspaces form a subrepresentation?"""
    for idx, (s, t) in enumerate(m.quiver.arrows):
        if sub_bases[s].rows == 0:
            continue
        image = (m.mats[idx] @ sub_bases[s].transpose()).transpose()
        if not sub_bases[t].row_space_contains(image):
            return False
    return True


def rref_pivots(b: Mat) -> List[int]:
    """Pivot columns of a basis in reduced row echelon form.

    Reads them off the leading entry of each row, and raises HallforgeError
    when the rows are not an RREF basis: a zero row, a leading entry other
    than 1, pivots not increasing, or another nonzero in a pivot column.
    """
    rows = b.a.tolist()
    piv: List[int] = []
    for row in rows:
        c = next((j for j, x in enumerate(row) if x), None)
        if (c is None or row[c] != 1 or (piv and c <= piv[-1])
                or sum(1 for r in rows if r[c]) != 1):
            raise HallforgeError(f"expected an RREF basis, got {rows}")
        piv.append(c)
    return piv


def sub_quotient(m: Rep, sub_bases: Sequence[Mat]) -> Tuple[Rep, Rep]:
    """Subrepresentation on the given RREF bases and the quotient by it.

    The quotient uses the canonical complement spanned by the non-pivot
    coordinate vectors.  Pivots are read off the bases (`rref_pivots`);
    the blocks are `sub_quotient_stack`'s on a stack of one.
    """
    ctx = m.ctx
    piv = [rref_pivots(b) for b in sub_bases]
    subs, quots = sub_quotient_stack(m.quiver, ctx, [a.a[None] for a in m.mats],
                                     [b.a[None] for b in sub_bases])
    sub = Rep(m.quiver, ctx, tuple(len(p) for p in piv), tuple(Mat(ctx, b[0]) for b in subs))
    quot = Rep(m.quiver, ctx, tuple(d - len(p) for d, p in zip(m.dims, piv)),
               tuple(Mat(ctx, b[0]) for b in quots))
    return sub, quot


def sub_quotient_stack(quiver: Quiver, ctx: GF, mats: Sequence[np.ndarray],
                       bases: Sequence[np.ndarray]
                       ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The subs and quotients of N representations of one dimension vector
    on stable subspace tuples of one dimension vector k: `mats` holds one
    (N, d_t, d_s) stack per arrow and `bases` one (N, k_v, d_v) stack of
    RREF bases per vertex.  Returns per arrow the (N, k_t, k_s) stack of sub
    blocks img[piv_t] for img = A B_s^T, and the stack of quotient blocks
    w - B_t^T w[piv_t] on the free rows of t for w = A on the free columns
    of s.  Pivots are each row's leading entry, gathered per matrix.
    """
    at = np.arange(len(bases[0]))[:, None]  # the stack position of each row
    piv, free = [], []
    for b in bases:
        n, k, d = b.shape
        lead = (b != 0).argmax(axis=2) if k else np.zeros((n, 0), dtype=np.intp)
        rest = np.ones((n, d), dtype=bool)
        rest[at, lead] = False
        piv.append(lead)
        free.append(np.nonzero(rest)[1].reshape(n, d - k))
    subs, quots = [], []
    for a, (s, t) in zip(mats, quiver.arrows):
        subs.append(ctx.matmul(a, bases[s].transpose(0, 2, 1))[at, piv[t]])
        w = a.transpose(0, 2, 1)[at, free[s]].transpose(0, 2, 1)  # A on the free columns of s
        corr = ctx.matmul(bases[t].transpose(0, 2, 1), w[at, piv[t]])
        quots.append(ctx.ADD[w, ctx.NEG[corr]][at, free[t]])
    return subs, quots


# ---------------------------------------------------------------------------
# Fitting splits and Krull-Schmidt


def _first_splitters(m: Rep, cands: np.ndarray, owner: np.ndarray, count: int) -> list:
    """For each of `count` owners, the per-vertex Fitting kernels of its
    first candidate (rows of `cands`, endomorphisms of m as End basis rows,
    with that `owner`) that splits m, or None when none of them does: f
    splits m when the nullity of its Fitting power is neither 0 nor dim m.

    At each vertex the blocks f_i of all candidates are raised to the power
    d_i by broadcasting `GF.matmul` and eliminated as one stack
    (`GF.kernel_stack`).
    """
    ctx, ends = m.ctx, np.cumsum([0] + [d * d for d in m.dims]).tolist()
    kernels, nullity = [], np.zeros((len(cands), len(m.dims)), dtype=np.intp)
    for v, (lo, hi, d) in enumerate(zip(ends, ends[1:], m.dims)):
        block = cands[:, lo:hi].reshape(len(cands), d, d)
        power, e = None, d
        while e:  # block ** d by repeated squaring
            if e & 1:
                power = block if power is None else ctx.matmul(power, block)
            e >>= 1
            if e:
                block = ctx.matmul(block, block)
        kernel, nullity[:, v] = ctx.kernel_stack(block if power is None else power)
        kernels.append(kernel)
    total = nullity.sum(axis=1)
    hits = np.flatnonzero((total > 0) & (total < m.total_dim))
    found = [None] * count
    owners, first = np.unique(owner[hits], return_index=True)
    for o, i in zip(owners.tolist(), hits[first].tolist()):
        found[o] = [Mat(ctx, k[i, :z]) for k, z in zip(kernels, nullity[i].tolist())]
    return found


def _basis_splits(m: Rep, rows: np.ndarray, h: np.ndarray) -> list:
    """For each of len(h) representations of m's dimension vector, whose End
    bases are the next h[i] of `rows`, the Fitting kernels of its first
    basis element or else pair sum (in `itertools.combinations` order) that
    splits it, or None: the basis elements of all of them as one stack,
    then the pair sums of those still unsplit (`_first_splitters`)."""
    kers = _first_splitters(m, rows, np.repeat(np.arange(len(h)), h), len(h))
    starts = np.cumsum(h) - h
    left = [i for i, k in enumerate(kers) if k is None and h[i] > 1]
    if left:
        pairs = [np.triu_indices(h[i], 1) for i in left]  # itertools.combinations order
        first = np.concatenate([starts[i] + a for i, (a, _) in zip(left, pairs)])
        second = np.concatenate([starts[i] + b for i, (_, b) in zip(left, pairs)])
        owner = np.repeat(left, [len(a) for a, _ in pairs])
        found = _first_splitters(m, m.ctx.ADD[rows[first], rows[second]], owner, len(h))
        for i in left:
            kers[i] = found[i]
    return kers


def end_splits(reps: Sequence[Rep]) -> List[Tuple[EndBasis, Optional[List[Mat]]]]:
    """For each representation of a stack of one dimension vector, its End
    basis (an `EndBasis`) and the Fitting kernels of its first basis
    element or pair sum that splits it, or None when none does
    (`_basis_splits`).  End is solved for the whole stack by one
    `hom_stack`.  A representation with None is indecomposable unless
    `scan_splitter` finds a splitter.
    """
    if len(reps) > _SPLIT_STACK:  # bounds the stacks' memory
        return [split for lo in range(0, len(reps), _SPLIT_STACK)
                for split in end_splits(reps[lo: lo + _SPLIT_STACK])]
    m = reps[0]
    kernel, h = hom_stack(reps, reps)
    kers = _basis_splits(m, kernel[np.arange(kernel.shape[1]) < h[:, None]], h)
    return [(EndBasis(m.ctx, kernel[i, : h[i]].copy(), m.dims), k) for i, k in enumerate(kers)]


def scan_splitter(m: Rep, basis: EndBasis, caps: Caps) -> Optional[List[Mat]]:
    """For m that no element or pair sum of `basis` splits (`end_splits`
    gave it None), the Fitting kernels of the first element of End(m), in
    `hom_combinations` order, that splits m, or None when m is certified
    indecomposable; the scan is checked against the end-scan cap first.

    The elements are tried in stacks of `_SCAN_STACK`, skipping those
    known not to split: every element whose leading coefficient is not 1
    (c*f has the Fitting kernels of f and comes after it), and the basis
    elements and pair sums themselves.
    """
    q, h = m.ctx.q, len(basis)
    caps.check("end_scan", q ** h)
    for lo in range(1, q ** h, _SCAN_STACK):
        combos = np.stack(np.unravel_index(np.arange(lo, min(lo + _SCAN_STACK, q ** h)),
                                           (q,) * h), axis=1).astype(np.uint8)
        lead = combos[np.arange(len(combos)), (combos != 0).argmax(axis=1)]
        tried = (combos <= 1).all(axis=1) & ((combos != 0).sum(axis=1) <= 2)
        combos = combos[(lead == 1) & ~tried]
        if len(combos):
            found = _first_splitters(m, m.ctx.matmul(combos, basis.rows),
                                     np.zeros(len(combos), int), 1)
            if found[0] is not None:
                return found[0]
    return None


def fitting_split(m: Rep, basis: list, caps: Caps = DEFAULT_CAPS) -> Optional[Tuple[Rep, Rep]]:
    """Split m once by the Fitting power g of a splitter endomorphism.

    `basis` is a basis of End(m), searched in its order: its elements and
    pair sums as `end_splits` searches a stack (`_basis_splits`, here on a
    stack of one), then the full scan (`scan_splitter`).  Returns the sub
    ker g and the quotient m / ker g, both nonzero, or None when m is
    certified indecomposable.  The search already holds the RREF bases of
    ker g, so the split makes no elimination of its own.  As
    m = ker g (+) im g with both summands stable, the quotient is
    isomorphic to the image part.
    """
    rows = np.array([np.concatenate([fi.a.ravel() for fi in f]) for f in basis],
                    dtype=np.uint8).reshape(len(basis), sum(d * d for d in m.dims))
    kers = _basis_splits(m, rows, np.array([len(basis)]))[0]
    if kers is None:
        kers = scan_splitter(m, EndBasis(m.ctx, rows, m.dims), caps)
    return None if kers is None else sub_quotient(m, kers)


def krull_schmidt(m: Rep, caps: Caps = DEFAULT_CAPS) -> List[Rep]:
    """Indecomposable direct summands, with multiplicity, via Fitting splits."""
    if m.total_dim == 0:
        return []
    halves = fitting_split(m, end_basis(m), caps)
    if halves is None:
        return [m]
    return krull_schmidt(halves[0], caps) + krull_schmidt(halves[1], caps)


def is_indecomposable(m: Rep, caps: Caps = DEFAULT_CAPS) -> bool:
    if m.total_dim == 0:
        raise ValueError("the zero representation is not indecomposable")
    return fitting_split(m, end_basis(m), caps) is None


def iso_indecomposables(m: Rep, n: Rep) -> bool:
    """Isomorphism test for two certified-indecomposable representations."""
    if m.dims != n.dims:
        return False
    return m.total_dim == 0 or first_isomorphic(m, [n]) == 0


def first_isomorphic(m: Rep, others: Sequence[Rep]) -> Optional[int]:
    """The position of the first of `others` isomorphic to m, or None; m and
    `others` are certified-indecomposable representations of one nonzero
    dimension vector.

    If m and n are isomorphic indecomposables, some basis element of
    Hom(m, n) must be invertible (the non-invertible homs form a proper
    subspace), so scanning the basis is a complete test.  Hom is solved for
    all pairs as one stack (`hom_stack`) and the blocks of every basis
    element are ranked by one `GF.ranks`.
    """
    if not others:
        return None
    kernel, dims = hom_stack([m] * len(others), others)
    ends = np.cumsum([0] + [d * d for d in m.dims]).tolist()
    rows = kernel[np.arange(kernel.shape[1]) < dims[:, None]]
    ranks = m.ctx.ranks([row[lo:hi].reshape(d, d) for row in rows
                         for lo, hi, d in zip(ends, ends[1:], m.dims)])
    invertible = (ranks.reshape(len(rows), len(m.dims)) == np.array(m.dims)).all(axis=1)
    owners = np.repeat(np.arange(len(others)), dims)[invertible]
    return int(owners[0]) if owners.size else None


def residue_degree(m: Rep, basis: list) -> int:
    """Degree t over GF(q) of the residue field End(m)/rad for indecomposable
    m, given a basis of End(m).

    End(m) being local, an endomorphism is nilpotent exactly when its image
    in the residue field F_{q^t} is zero, so the image of f lies in F_{q^d}
    exactly when f^(q^d) - f is nilpotent.  The least such d (at most
    dim m, as m / rad(End m) m is a nonzero F_{q^t}-space) is the degree of
    that image, and the images of a basis generate the residue field, so t
    is the lcm of these degrees.
    """
    q, n = m.ctx.q, m.total_dim
    t = 1
    for f in basis:
        frob = f
        for d in range(1, n + 1):
            frob = [gi.power(q) for gi in frob]
            if all((gi - fi).power(fi.rows).is_zero() for gi, fi in zip(frob, f)):
                break
        else:
            raise CertificateError("residue degree", m.dims, f"a degree <= {n}", "none")
        t = math.lcm(t, d)
    return t


def aut_order_from_summands(h_end: int, summands: Sequence[Tuple[int, int]], q: int) -> int:
    """|Aut(M)| from dim End(M) and the (multiplicity, residue degree) data.

    End(M)/rad is a product of matrix algebras M_{m_a}(F_{q^{t_a}}), so
    |Aut(M)| = q^(dim rad) * prod |GL_{m_a}(F_{q^{t_a}})|.
    """
    reductive = sum(mult * mult * t for (mult, t) in summands)
    out = q ** (h_end - reductive)
    for mult, t in summands:
        qq = q ** t
        for i in range(mult):
            out *= qq ** mult - qq ** i
    return out


# ---------------------------------------------------------------------------
# defect bookkeeping


def pri_of_defect(value: int) -> str:
    if value < 0:
        return "preprojective"
    if value > 0:
        return "preinjective"
    return "regular"
