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
elimination per vertex, `Mat.kernel_basis` of its Fitting power, whose
RREF bases both decide the split and cut out the sub.  Hom bases are the
RREF bases of the intertwiner systems' kernels.

Indecomposability is certified, not guessed: a representation is
indecomposable iff its endomorphism ring is local, which is detected by a
splitter search over the endomorphism basis, pairwise sums, and (within
caps) a full scan of End(M).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CertificateError, HallforgeError, SizeMismatch
from .gf import GF, Mat
from .quiver import Quiver, dual_quiver, euler_form


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

    def __hash__(self):
        return hash((self.quiver, id(self.ctx), self.tobytes()))


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


def _hom_system(m: Rep, n: Rep) -> Mat:
    """Coefficient matrix whose kernel is Hom(m, n).

    Unknowns are the blocks f_i : m_i -> n_i (shape n.dims[i] x m.dims[i]),
    flattened row-major and concatenated; one equation block per arrow
    says f_j m_alpha = n_alpha f_i.
    """
    ctx = m.ctx
    offs, total = [], 0
    for i in range(m.quiver.n):
        offs.append(total)
        total += n.dims[i] * m.dims[i]
    rows = sum(n.dims[t] * m.dims[s] for (s, t) in m.quiver.arrows)
    sys = np.zeros((rows, total), dtype=np.uint8)
    r0 = 0
    for idx, (s, t) in enumerate(m.quiver.arrows):
        nrows = n.dims[t] * m.dims[s]
        if nrows:
            # + I_{n_t} (x) m_alpha^T acting on vec(f_t)
            if n.dims[t] and m.dims[t]:
                blk = np.kron(np.eye(n.dims[t], dtype=np.uint8), m.mats[idx].a.T)
                sys[r0: r0 + nrows, offs[t]: offs[t] + n.dims[t] * m.dims[t]] = blk
            # - n_alpha (x) I_{m_s} acting on vec(f_s)
            if n.dims[s] and m.dims[s]:
                blk = np.kron(ctx.NEG[n.mats[idx].a], np.eye(m.dims[s], dtype=np.uint8))
                base = sys[r0: r0 + nrows, offs[s]: offs[s] + n.dims[s] * m.dims[s]]
                sys[r0: r0 + nrows, offs[s]: offs[s] + n.dims[s] * m.dims[s]] = ctx.ADD[base, blk]
        r0 += nrows
    return Mat(ctx, sys)


def hom_space(m: Rep, n: Rep) -> Tuple[int, list]:
    """Dimension and basis of Hom(m, n); basis entries are tuples of Mat."""
    if m.quiver != n.quiver or m.ctx is not n.ctx:
        raise SizeMismatch("hom requires matching quiver and field")
    kernel = _hom_system(m, n).kernel_basis()
    basis = []
    for row in kernel.a:
        blocks, pos = [], 0
        for i in range(m.quiver.n):
            size = n.dims[i] * m.dims[i]
            blocks.append(Mat(m.ctx, row[pos: pos + size].reshape(n.dims[i], m.dims[i])))
            pos += size
        basis.append(tuple(blocks))
    return kernel.rows, basis


def hom_dim(m: Rep, n: Rep) -> int:
    sys = _hom_system(m, n)
    return sys.cols - sys.rank()


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
    coordinate vectors.  Pivots are read off the bases (`rref_pivots`).
    """
    ctx = m.ctx
    piv = [rref_pivots(b) for b in sub_bases]
    free = [[c for c in range(d) if c not in p] for d, p in zip(m.dims, piv)]
    sub_mats, quot_mats = [], []
    for idx, (s, t) in enumerate(m.quiver.arrows):
        a = m.mats[idx]
        if piv[s]:
            img = (a @ sub_bases[s].transpose()).a  # (d_t, sub_s)
            sub_mats.append(Mat(ctx, img[piv[t], :]))
        else:
            sub_mats.append(Mat.zeros(ctx, len(piv[t]), 0))
        # quotient: push forward the free coordinate vectors and reduce mod the sub
        w = a.a[:, free[s]]
        if piv[t] and free[s]:
            corr = (sub_bases[t].transpose() @ Mat(ctx, w[piv[t], :])).a
            w = ctx.ADD[w, ctx.NEG[corr]]
        quot_mats.append(Mat(ctx, w[free[t], :]))
    sub = Rep(m.quiver, ctx, tuple(len(p) for p in piv), tuple(sub_mats))
    quot = Rep(m.quiver, ctx, tuple(len(f) for f in free), tuple(quot_mats))
    return sub, quot


# ---------------------------------------------------------------------------
# Fitting splits and Krull-Schmidt


def _find_splitter(m: Rep, basis: list, caps: Caps) -> Optional[List[Mat]]:
    """The RREF kernel bases of the Fitting power g of an endomorphism that
    is neither nilpotent nor invertible, one per vertex, or None when m is
    certified indecomposable.

    The basis and its pairwise sums are tried first; when none splits, a
    full scan of End(m) (within the end-scan cap) proves locality.  Each
    candidate costs one elimination per vertex: g splits m exactly when
    its total nullity lies strictly between 0 and dim m.
    """
    total = m.total_dim

    def fitting_power(f):
        # on a d-dimensional space the kernel and image of f^k are stable
        # from k = d on, so f_i^(d_i) is the Fitting power at vertex i
        kers = [fi.power(fi.rows).kernel_basis() for fi in f]
        return kers if 0 < sum(k.rows for k in kers) < total else None

    pair_sums = (tuple(a + b for a, b in zip(basis[i], basis[j]))
                 for i, j in itertools.combinations(range(len(basis)), 2))
    for f in itertools.chain(basis, pair_sums):
        kers = fitting_power(f)
        if kers is not None:
            return kers
    caps.check("end_scan", m.ctx.q ** len(basis))
    zero = tuple(Mat.zeros(m.ctx, d, d) for d in m.dims)
    for f in itertools.islice(hom_combinations(basis, m.ctx.q, zero), 1, None):
        kers = fitting_power(f)
        if kers is not None:
            return kers
    return None


def fitting_split(m: Rep, basis: list, caps: Caps = DEFAULT_CAPS) -> Optional[Tuple[Rep, Rep]]:
    """Split m once by the Fitting power g of a splitter endomorphism.

    `basis` is a basis of End(m), searched in its order.  Returns the sub
    ker g and the quotient m / ker g, both nonzero, or None when m is
    certified indecomposable.  The splitter search already holds the RREF
    bases of ker g, so the split makes no elimination of its own.  As
    m = ker g (+) im g with both summands stable, the quotient is
    isomorphic to the image part.
    """
    kers = _find_splitter(m, basis, caps)
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
    return _find_splitter(m, end_basis(m), caps) is None


def iso_indecomposables(m: Rep, n: Rep) -> bool:
    """Isomorphism test for two certified-indecomposable representations.

    If m and n are isomorphic indecomposables, some basis element of
    Hom(m, n) must be invertible (the non-invertible homs form a proper
    subspace), so scanning the basis is a complete test.
    """
    if m.dims != n.dims:
        return False
    dim, basis = hom_space(m, n)
    if dim == 0:
        return m.total_dim == 0
    for f in basis:
        if all(fi.rank() == d for fi, d in zip(f, m.dims)):
            return True
    return False


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
