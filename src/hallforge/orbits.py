"""Orbit walks of base-change groups on base-q codes of representations.

A point of a grade is a tuple of arrow blocks; its code reads the blocks'
entries, arrow by arrow and row by row, as base-q digits, first digit most
significant (`_spans`, `_encode_batch`, `_decode_batch`).  `_walk_orbits`
is the one breadth-first walk: it labels the points of an array by orbit
in order of first point, given the images of a frontier under every
generator.  The registry uses it for orbit slices, and `SinkExtensions`
to group the extension cocycles of a constructive build under Aut of
their base class.

On points, a generator (v, g) of prod_v GL(d_v) acts on each arrow block
on its own (M -> gM into v, M -> Mg^-1 out of v, both on a loop), so one
table per (generator, arrow at v), built once per grade, maps each block
code to the shift of the point's code, and an image is the code plus one
table entry per block at v (`_base_change_images`).  Each table is filled
over runs of `_BLOCK` block codes.  The tables, each no larger than the
ambient space, are counted with the walk's dense arrays against the memory
cap.  An orbit slice's class table, the labels of its walk, is int32: 4
bytes a point.

At a loop-free sink or source v of a grade's support the same walk and
images builder move the row spaces of the blocks at v instead of points
(`_RowSpaces`): 211 subspaces in place of 531,441 points for Kronecker
(2,3) over GF(3), with the point walk's canonical representatives, orbit
sizes and class order.  Its class table has one entry per reduced code,
211 there, and a point's class is the entry at the reduced code of its
digit row (`_RowSpaces.codes`).  The subspaces, their ids and the span
table's hyperplanes come from `gf.subspace_blocks`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import Caps
from .errors import CertificateError
from .gf import GF, Mat, gaussian_binomial, subspace_blocks
from .quiver import Quiver
from .reps import Rep, end_basis

_BLOCK = 1 << 12  # codes per block of a first-point scan or a table fill


def _entry_count(quiver: Quiver, dims: Sequence) -> int:
    return sum(dims[s] * dims[t] for (s, t) in quiver.arrows)


def _spans(quiver: Quiver, dims: Sequence, skip: Optional[int] = None) -> List[tuple]:
    """(start, stop, rows, cols) of each arrow's block of the digit vector;
    the blocks of the arrows at vertex `skip` are left out (empty)."""
    out, pos = [], 0
    for (s, t) in quiver.arrows:
        size = 0 if skip in (s, t) else dims[t] * dims[s]
        out.append((pos, pos + size, dims[t], dims[s]))
        pos += size
    return out


def _decode_batch(codes: np.ndarray, e: int, q: int) -> np.ndarray:
    out = np.empty((codes.size, e), dtype=np.uint8)
    c = codes.astype(np.int64).copy()
    for t in range(e - 1, -1, -1):
        out[:, t] = c % q
        c //= q
    return out


def _encode_batch(digits: np.ndarray, q: int) -> np.ndarray:
    """The base-q codes of the digit rows of the last axis, first digit most
    significant: one int64 product with the place values (wrapping as
    c * q + d would)."""
    return digits @ q ** np.arange(digits.shape[-1] - 1, -1, -1, dtype=np.int64)


def _walk_orbits(labels: np.ndarray, images: Callable[[np.ndarray], np.ndarray]
                 ) -> Tuple[List[int], List[int]]:
    """Label the unlabeled points (-1) of `labels` by orbit number, in order
    of first point, and return the first point and size of each orbit.

    `images(points)` returns the images of `points` under every generator,
    as one array; the walk is breadth-first from each orbit's first point.
    Points with another negative label are excluded and stay as they are.
    Every step is an array pass: the next first point is found by scanning
    blocks of `_BLOCK` labels, and each frontier is deduplicated by
    writing a distinct tag (-3, -4, ...) per unlabeled image and keeping the
    one image per point whose tag survived.
    """
    firsts, sizes = [], []
    start = 0
    while True:
        while start < labels.size:
            hit = np.flatnonzero(labels[start:start + _BLOCK] == -1)
            if hit.size:
                start += int(hit[0])
                break
            start += _BLOCK
        if start >= labels.size:
            return firsts, sizes
        labels[start] = len(firsts)
        frontier, size = np.array([start]), 1
        while frontier.size:
            found = images(frontier)
            found = found[labels[found] == -1]
            tags = -3 - np.arange(found.size)
            labels[found] = tags
            frontier = found[labels[found] == tags]
            labels[frontier] = len(firsts)
            size += frontier.size
        firsts.append(start)
        sizes.append(size)


def _gl_generators(ctx: GF, n: int) -> List[Mat]:
    """Small generating set of GL_n(q) (as a semigroup it still generates)."""
    if n == 0:
        return []
    gens = []
    if ctx.q > 2:
        d = np.eye(n, dtype=np.uint8)
        d[0, 0] = ctx.generator
        gens.append(Mat(ctx, d))
    if n >= 2:
        cyc = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            cyc[i, (i + 1) % n] = 1
        gens.append(Mat(ctx, cyc))
        tv = np.eye(n, dtype=np.uint8)
        tv[0, 1] = 1
        gens.append(Mat(ctx, tv))
    return gens


def _runs(lo: int, hi: int, width: int):
    """range(lo, hi) as consecutive aranges of about `_BLOCK` // width
    entries (at least one)."""
    step = max(1, _BLOCK // width)
    for start in range(int(lo), int(hi), step):
        yield np.arange(start, min(start + step, int(hi)))


class _RowSpaces:
    """The row spaces that stand for the GL(d_v)-orbits at a loop-free sink
    or source v of a grade's support, where v is the reduced vertex of an
    orbit walk.

    At a sink GL(d_v) acts only on the blocks of the arrows into v, by left
    multiplication on X = [A_alpha] (the blocks side by side, in arrow
    order; d_v x m); at a source it acts on X = [A_alpha^T] over the arrows
    out of v by g.X = g^-T X.  Two points with equal other blocks are in one
    GL(d_v)-orbit exactly when their X have the same row space W, so the
    G-orbits of points are the orbits of the other vertices' groups on the
    pairs (W, other blocks): the reduced codes id(W) * q^e' + (code of the
    other blocks, in arrow order).  Those groups move W to W.D, where D
    acts on the columns of each block by g_u^-1 at a sink and g_u^T at a
    source.

    id(W) is the position of W among the subspaces of F_q^m of dimension
    <= d_v, by dimension, each dimension in `gf.subspace_blocks` order.  The
    span table holds id(W + F.x) * q^m at id(W) * q^m + x, for dim W < d_v
    and every row code x (base q, column 0 most significant), so the id of
    the row space of any stack of at most d_v rows is one add and one
    gather per row, from the zero subspace.

    The constructor only counts: `build` enumerates the subspaces and fills
    the span table, once the walk's memory is checked
    (`_base_change_images`).  The orbit slice of a reduced walk keeps its
    `_RowSpaces` to code the points it identifies (`codes`).
    """

    def __init__(self, quiver: Quiver, ctx: GF, grade: tuple, v: int, sink: bool):
        self.ctx, self.v, self.sink = ctx, v, sink
        q, self.d = ctx.q, grade[v]
        self.groups: List[Tuple[int, int, int]] = []  # (other vertex u, columns lo, hi) per block
        rows = []  # per block, the digit positions of its part of each row of X
        for (lo, hi, r, c), (s, t) in zip(_spans(quiver, grade), quiver.arrows):
            if hi > lo and v in (s, t):  # an arrow into a sink or out of a source
                pos = np.arange(lo, hi).reshape(r, c)
                part = pos if sink else pos.T
                width = sum(p.shape[1] for p in rows)
                self.groups.append((s if sink else t, width, width + part.shape[1]))
                rows.append(part)
        rows_at = np.concatenate(rows, axis=1) if rows else np.zeros((self.d, 0), int)
        self.m = m = rows_at.shape[1]
        others = np.ones(_entry_count(quiver, grade), dtype=bool)
        others[rows_at] = False
        others = np.flatnonzero(others)
        # a digit's place value in the code of its row of X (columns < d_v)
        # or in the code of the other blocks (column d_v)
        self.place = np.zeros((others.size + rows_at.size, self.d + 1), dtype=np.int64)
        self.place[rows_at, np.arange(self.d)[:, None]] = q ** np.arange(m - 1, -1, -1)
        self.place[others, self.d] = q ** np.arange(others.size - 1, -1, -1)
        self.kmax = min(self.d, m)
        self.offsets = np.cumsum([0] + [gaussian_binomial(m, k, q) for k in range(self.kmax + 1)])
        self.count = int(self.offsets[-1])
        self.growable = int(self.offsets[min(self.d, self.kmax + 1)])  # subspaces of dim < d_v
        self.tail = q ** others.size  # the number of codes of the other blocks
        self.reduced = self.count * self.tail

    def nbytes(self) -> int:
        """The class table of the reduced codes and the span table, 8 bytes
        an entry (an upper bound: class table entries take 4), and the RREF
        bases; the span fill's stacks are bounded by `_BLOCK`."""
        spans = self.growable * self.ctx.q ** self.m
        return 8 * (self.reduced + spans) + self.count * self.kmax * self.m

    def build(self) -> None:
        """Enumerate the subspaces (`gf.subspace_blocks`) and fill the span
        table, one dimension k of W at a time: W + F.x is W for the q^k
        vectors x of W, and for x outside W it is the one U of dimension
        k + 1 with W a hyperplane of U and x in U.  So each U writes its id
        at (W, x) for each of its hyperplanes W and the vectors x of U
        outside W; the hyperplanes are the row spaces of H.C over the
        hyperplanes H of F^(k+1), for the RREF basis C of U, identified by
        gathers in the rows of smaller dimension.  Every entry is written
        once, by scatters of about `_BLOCK` entries; nothing is eliminated."""
        ctx, q, m, kmax = self.ctx, self.ctx.q, self.m, self.kmax
        self.bases = np.concatenate([b for k in range(kmax + 1)
                                     for _, _, b in subspace_blocks(m, k, q, kmax)])
        self.span = np.full(self.growable * q ** m, -1, dtype=np.int64)
        for k in range(kmax + 1):
            if self.offsets[k] >= self.growable:
                break
            inner = _decode_batch(np.arange(q ** k), k, q)
            for part in _runs(self.offsets[k], self.offsets[k + 1], q ** k):
                inside = _encode_batch(ctx.matmul(inner, self.bases[part, :k]), q)
                self.span[part[:, None] * q ** m + inside] = part[:, None] * q ** m
            if k == kmax:  # W is all of F^m
                continue
            hyper = np.concatenate([b for _, _, b in subspace_blocks(k + 1, k, q)])
            coeffs = _decode_batch(np.arange(q ** (k + 1)), k + 1, q)
            member = np.zeros((len(hyper), coeffs.shape[0]), dtype=bool)
            member[np.arange(len(hyper))[:, None],
                   _encode_batch(ctx.matmul(inner, hyper), q)] = True
            outside = np.nonzero(~member)[1].reshape(len(hyper), -1)  # coefficient codes off H
            for part in _runs(self.offsets[k + 1], self.offsets[k + 2], outside.size):
                basis = self.bases[part, : k + 1]
                vectors = _encode_batch(ctx.matmul(coeffs, basis), q)
                planes = _encode_batch(ctx.matmul(hyper, basis[:, None]), q)  # (U, H, k) rows
                planes = np.asarray(self.ids(np.moveaxis(planes, -1, 0)))[..., None]  # 0 if k = 0
                self.span[planes * q ** m + vectors[:, outside]] = part[:, None, None] * q ** m

    def ids(self, rows) -> np.ndarray:
        """The ids of the row spaces of n stacks of at most d_v rows, given
        as row codes with row i of every stack in rows[i] (no rows: 0, the
        zero subspace)."""
        w = 0
        for row in rows:
            w = self.span.take(w + row)
        return w // self.ctx.q ** self.m

    def act(self, u: int, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
        """The table id(W) -> id(W.D) of the generator g at vertex u."""
        moved = self.bases.copy()
        for w, lo, hi in self.groups:
            if w == u:
                moved[..., lo:hi] = self.ctx.matmul(moved[..., lo:hi], ginv if self.sink else g.T)
        return self.ids(_encode_batch(moved, self.ctx.q).T)

    def codes(self, digits: np.ndarray) -> np.ndarray:
        """The reduced codes of points given as digit rows, one row a point:
        the codes of their parts are one product with `place`."""
        return self.join(self.place.T @ digits.T)

    def join(self, parts: np.ndarray) -> np.ndarray:
        """The reduced codes of points given by the codes of their parts, one
        column a point (the rows of X, then the other blocks): the id of the
        row space of X, by d_v span gathers, times q^e' plus the code of the
        other blocks."""
        return self.ids(parts[:-1]) * self.tail + parts[-1]

    def classes(self, labels: np.ndarray) -> Tuple[np.ndarray, List[int], List[int]]:
        """The class table of the reduced codes, and the first points and
        sizes of the G-orbits of points, from the labels of the walk of the
        reduced codes.

        Orbits are met by scanning the points in code order, in blocks of
        q^low consecutive codes, low digits as many as fit in `_BLOCK`.  The
        codes of a point's parts are linear in its digits, so a block's are
        one table over its low digits plus one column of a table over the
        high ones, and its reduced codes one `join`.  The labels are ranked by
        the orbit's first point, so class order is the point walk's.  An
        orbit's size sums, over its reduced codes, the number of X with row
        space W: prod_{i < dim W} (q^d_v - q^i)."""
        q, d, n = self.ctx.q, self.d, int(labels.max()) + 1
        e = self.place.shape[0]
        low = 0
        while low < e and q ** (low + 1) <= _BLOCK:
            low += 1

        def parts(lo, hi):  # the part codes of digits lo..hi-1 over all their values
            codes = np.arange(q ** (hi - lo))
            out = np.zeros((d + 1, codes.size), dtype=np.int64)
            for t in range(lo, hi):
                part = self.place[t].argmax()
                out[part] += self.place[t, part] * (codes // q ** (hi - 1 - t) % q)
            return out

        high_part, low_part = parts(0, e - low), parts(e - low, e)
        first = np.full(n, -1, dtype=np.int64)
        met, h = np.zeros(n, dtype=bool), 0
        while not met.all():
            if h >= high_part.shape[1]:
                raise CertificateError("orbit first points", None, f"{n} orbits", int(met.sum()))
            lab = labels[self.join(low_part + high_part[:, h:h + 1])]
            new = np.flatnonzero(~met[lab])
            found, at = np.unique(lab[new], return_index=True)
            first[found], met[found] = h * q ** low + new[at], True
            h += 1
        order = np.argsort(first)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n)
        fibre = [math.prod(q ** d - q ** i for i in range(k)) for k in range(self.kmax + 1)]
        per_w = labels.reshape(self.count, -1)
        sizes = sum(fibre[k] * np.bincount(per_w[self.offsets[k]: self.offsets[k + 1]].ravel(),
                                           minlength=n) for k in range(self.kmax + 1))
        return rank[labels], first[order].tolist(), sizes[order].tolist()


def _base_change_images(quiver: Quiver, ctx: GF, grade: tuple, caps: Caps,
                        spaces: Optional[_RowSpaces] = None
                        ) -> Callable[[np.ndarray], np.ndarray]:
    """The `images` of an orbit walk over the point codes of `grade`, or with
    `spaces` over its reduced codes.  The table of a generator (v, g) at an
    arrow at v maps each block code to (image block code - block code) * the
    place value of the block, and is filled over runs of `_BLOCK` block
    codes, so no array of the size of the block-code range is decoded or
    multiplied at once; with `spaces`, the generators are those of the
    vertices but the reduced one, and a generator that moves W has one more
    table, from W's id to the shift of the reduced code (`_RowSpaces.act`).

    Memory is checked first: ten bytes per walked code and eight per table
    entry, with `spaces` also its span table, which it then fills, and its
    class table of reduced codes (`_RowSpaces.nbytes`).  These are upper
    bounds: a walk's labels, its class table, take four bytes a code."""
    q = ctx.q
    skip = None if spaces is None else spaces.v
    spans = _spans(quiver, grade, skip)
    e = spans[-1][1] if spans else 0
    walked = q ** e * (1 if spaces is None else spaces.count)
    gens = [(v, g.a, g.inverse().a) for v in range(quiver.n) if v != skip
            for g in _gl_generators(ctx, grade[v])]
    at = [[i for i, (s, t) in enumerate(quiver.arrows)
           if v in (s, t) and spans[i][1] > spans[i][0]] for v, _, _ in gens]
    moves_w = [spaces is not None and any(u == v for u, _, _ in spaces.groups)
               for v, _, _ in gens]
    caps.check_memory(walked * 10 + 8 * sum(q ** (spans[i][1] - spans[i][0])
                                            for arrows in at for i in arrows)
                      + (0 if spaces is None else 8 * spaces.count * sum(moves_w)
                         + spaces.nbytes()))
    radix: Dict[int, Tuple[int, int]] = {}  # arrow (-1: W) -> (place value, code count)
    tables = []
    if spaces is not None:
        spaces.build()
        radix[-1] = (q ** e, spaces.count)
    for (v, g, ginv), arrows, moved in zip(gens, at, moves_w):
        tables.append([])
        for i in arrows:
            (lo, hi, r, c), (s, t) = spans[i], quiver.arrows[i]
            radix[i] = (q ** (e - hi), q ** (hi - lo))
            delta = np.empty(radix[i][1], dtype=np.int64)
            for codes in _runs(0, delta.size, 1):
                block = _decode_batch(codes, hi - lo, q).reshape(-1, r, c)
                if t == v:
                    block = ctx.matmul(g, block)
                if s == v:
                    block = ctx.matmul(block, ginv)
                image = _encode_batch(block.reshape(codes.size, -1), q)
                delta[codes[0]: codes[0] + codes.size] = image - codes
            delta *= radix[i][0]
            tables[-1].append((i, delta))
        if moved:
            ids = np.arange(spaces.count, dtype=np.int64)
            tables[-1].append((-1, (spaces.act(v, g, ginv) - ids) * q ** e))

    def images(codes: np.ndarray) -> np.ndarray:
        blocks = {i: codes // scale % size for i, (scale, size) in radix.items()}
        out = np.tile(codes, len(tables))  # a grade without generators has no images
        for k, acts in enumerate(tables):
            image = out[k * codes.size: (k + 1) * codes.size]
            for i, delta in acts:
                image += delta[blocks[i]]
        return out

    return images


# ---------------------------------------------------------------------------
# extensions by the simple at a support sink (constructive mode)


def _leading(rows: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of the last axis (0 for a zero row)."""
    if rows.shape[-1] == 0:
        return np.zeros(rows.shape[:-1], dtype=rows.dtype)
    return np.take_along_axis(rows, np.argmax(rows != 0, axis=-1)[..., None], -1)[..., 0]


class SinkExtensions:
    """The candidate extensions 0 -> S_v -> E -> A -> 0 of one base class A
    at a sink v of the support of A + e_v.

    A cocycle is a row xi = (xi_alpha) over the arrows alpha: s -> v, with
    xi_alpha of width dim A_s.  The middle term E_xi is A_s at s != v and
    F_q + A_v at v, where arrow alpha acts by the stacked matrix
    [xi_alpha; a_alpha].  The candidates are one cocycle per F_q^* line of a
    transversal of the coboundaries, `count` of them.
    """

    def __init__(self, a: Rep, v: int, end: Optional[list] = None):
        self.a, self.v, self.end = a, v, end
        arrows = a.quiver.arrows
        self.into_v = [idx for idx, (_, t) in enumerate(arrows) if t == v]
        self.widths = [a.dims[arrows[idx][0]] for idx in self.into_v]
        self.dim = dim = sum(self.widths)
        # two cocycles differing by a coboundary phi |-> (phi a_alpha) have
        # isomorphic middle terms, so enumerate a transversal of the
        # coboundary row space: entries at its pivots stay zero
        self.cobound, self.pivots = np.zeros((0, dim), dtype=np.uint8), []
        if dim and a.dims[v]:
            stacked = np.concatenate([a.mats[idx].a for idx in self.into_v], axis=1)
            red, rank, piv = Mat(a.ctx, stacked).rref()
            self.cobound, self.pivots = red.a[:rank], list(piv)
        self.free = [t for t in range(dim) if t not in self.pivots]
        q = a.ctx.q
        self.count = (q ** len(self.free) - 1) // (q - 1) + 1

    def orbits(self) -> Tuple[np.ndarray, np.ndarray]:
        """The candidate cocycles, one row each, and for each the position of
        the first candidate of its orbit under a subgroup H of Aut(A).

        Candidates come in lexicographic order of their free entries: zero,
        then those whose leading free entry is 1 (xi and c*xi have
        isomorphic middle terms).  The middle terms of one orbit are
        isomorphic (see `_aut_generators`).
        """
        ctx, q, n = self.a.ctx, self.a.ctx.q, len(self.free)
        digits = _decode_batch(np.arange(q ** n, dtype=np.int64), n, q)
        codes = np.flatnonzero(_leading(digits) <= 1)
        cocycles = np.zeros((self.count, self.dim), dtype=np.uint8)
        cocycles[:, self.free] = digits[codes]
        # the zero line is fixed, so with one other line there is nothing to skip
        gens = self._aut_generators() if self.count > 2 else []
        if not gens:
            return cocycles, np.arange(self.count)
        # the image of every candidate under every generator, as a candidate:
        # reduced mod coboundaries, rescaled to leading free entry 1, looked up
        images = ctx.matmul(cocycles, np.stack(gens))
        if self.pivots:
            images = ctx.ADD[images, ctx.NEG[ctx.matmul(images[..., self.pivots], self.cobound)]]
        images = images[..., self.free]
        images = ctx.MUL[images, ctx.INV[np.maximum(_leading(images), 1)][..., None]]
        perms = np.searchsorted(codes, _encode_batch(images.reshape(-1, n), q))
        perms = perms.reshape(len(gens), self.count)
        labels = np.full(self.count, -1, dtype=np.int64)
        firsts, _ = _walk_orbits(labels, lambda points: perms[:, points].ravel())
        first = np.array(firsts)[labels]
        return cocycles, first

    def _aut_generators(self) -> List[np.ndarray]:
        """Generators of H, the invertible elements b and 1 + c*b (c in F_q^*)
        of the basis of End(A), each as the block-diagonal matrix of its phi_s
        over the arrows alpha: s -> v, which acts on cocycles from the right.

        For phi in Aut(A), phi_s at s != v and diag(1, phi_v) at v form an
        isomorphism E_{xi.phi} -> E_xi, where (xi.phi)_alpha = xi_alpha phi_s,
        because phi_v a_alpha = a_alpha phi_s.
        """
        a, ctx, dim = self.a, self.a.ctx, self.dim
        arrows = a.quiver.arrows
        ident = [Mat.identity(ctx, d) for d in a.dims]
        phis = [phi for b in (end_basis(a) if self.end is None else self.end)
                for phi in [b] + [[i + bi.scale(c) for i, bi in zip(ident, b)]
                                  for c in range(1, ctx.q)]]
        ranks = ctx.ranks([f.a for phi in phis for f in phi]).reshape(len(phis), len(a.dims))
        out: Dict[bytes, np.ndarray] = {}
        for phi in itertools.compress(phis, (ranks == np.array(a.dims)).all(axis=1)):
            block = np.zeros((dim, dim), dtype=np.uint8)
            pos = 0
            for idx, w in zip(self.into_v, self.widths):
                block[pos: pos + w, pos: pos + w] = phi[arrows[idx][0]].a
                pos += w
            out.setdefault(block.tobytes(), block)
        out.pop(np.eye(dim, dtype=np.uint8).tobytes(), None)
        return list(out.values())

    def middle_term(self, xi: np.ndarray) -> Rep:
        """E_xi for one cocycle row xi."""
        a, v, ctx = self.a, self.v, self.a.ctx
        grade = tuple(d + (i == v) for i, d in enumerate(a.dims))
        mats = list(a.mats)
        pos = 0
        for idx, w in zip(self.into_v, self.widths):
            mats[idx] = Mat(ctx, np.concatenate([xi[None, pos: pos + w], a.mats[idx].a]))
            pos += w
        for idx, (s, t) in enumerate(a.quiver.arrows):
            if s == v:  # sink of the support: targets have dimension zero
                mats[idx] = Mat.zeros(ctx, grade[t], grade[s])
        return Rep(a.quiver, ctx, grade, tuple(mats))
