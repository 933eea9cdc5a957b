"""Registries of isomorphism classes of quiver representations.

A registry holds, per (quiver, field, dimension vector), the ordered list
of isomorphism classes together with automorphism orders, indecomposable
flags, Krull-Schmidt summand data and structural flags.  Each grade slice
is built in one of three ways, and the build leaves on it what identifies
its representations:

* orbit mode: when the ambient tuple space q^(#matrix entries) fits under
  the cap, the base-change orbits are walked exactly on base-q codes
  (`orbits`: `_walk_orbits`, the one breadth-first walk, which also
  groups extension cocycles below, and `_base_change_images`).  The
  canonical representative is the lexicographically least matrix tuple
  of the orbit and the automorphism order is group order / orbit size.
  The slice's `table` maps the base-q code of every point to its class;
  the zero grade has the one-entry table of the zero representation.

  Above `_REDUCE_ABOVE` points, a grade whose support has a loop-free sink
  or source walks the row spaces there instead of the points
  (`orbits._RowSpaces`), at the vertex whose reduced space, subspaces of
  dim <= d_v times the codes of the other blocks, is smallest, chosen
  from Gaussian binomials (`_row_spaces`).  Its class table, first points
  and sizes are those of the point walk.  A grade whose subspaces would
  exceed the `subspace_enum` cap, or whose reduced walk would not fit in
  memory, keeps the point walk, as do full-support cyclic grades and the
  one-loop quiver, which have no sink or source.  A nilpotent-only point
  walk skips the points its one nilpotency mask excludes (a reduced
  grade's support is acyclic, so it has none to skip); the mask reads the
  composite around the cycle through one product table per arrow and a
  table of the nilpotent square codes, built once per grade
  (`_nilpotent_mask`), and is filled over blocks of a fixed number of
  points.

* constructive mode on the one-loop quiver: the classes are conjugacy
  types (irreducible polynomial, partition) from `oneloop`, and
  `oneloop.OneLoopIndex` reads the type of a matrix off the rank chains
  of its characteristic-polynomial factors.

* constructive mode on acyclic quivers: classes are iterated extensions
  by a simple at a support sink, without touching the ambient space.
  Extension cocycles are enumerated one per F_q^* line: the zero cocycle
  and those whose first nonzero free entry is 1.  Rescaling the new basis
  vector at the support sink by 1/c maps the middle term of c*xi onto
  that of xi (arrows out of the sink vanish on the support), and the kept
  cocycle is the first of its line, so the candidate that first registers
  each class is unchanged.

  Of the lines of one base class A, the build registers only the first
  of each orbit of a subgroup H of Aut(A), generated by the invertible
  elements b and 1 + c*b (c in F_q^*) of the basis of End(A).  For phi in
  Aut(A), phi_s at s != v and diag(1, phi_v) at v map the middle term of
  xi.phi, where (xi.phi)_alpha = xi_alpha phi_s, isomorphically onto that
  of xi, so the lines of one orbit have isomorphic middle terms.  The
  first candidate of any class is the first line of its own orbit, so it
  is still registered and canonical representatives and class order do
  not change; a smaller H would only skip less.  The line count of a
  level, the sum over A of (q^free - 1)/(q - 1) + 1, is checked against
  the `candidates` cap, and the registry's running sum of line counts
  against the `total_candidates` budget, before any line is enumerated.

  `SplitIndex` makes one Fitting split, into the sub ker g and the
  quotient m / ker g: a half whose grade is built is identified there and
  contributes its registered summands, and only halves of unbuilt grades
  are split further.  A representation is indecomposable exactly when
  the split adds no summand; it is then compared with the registered
  indecomposables of its (dim End, arrow ranks).  The build solves End
  and searches splitters for all kept candidates of a level as one stack
  (`SplitIndex.prepare`, `reps.end_splits`), then registers them through
  this index one by one, in order, with the full End scan
  (`reps.scan_splitter`) run only when a candidate's turn comes.  An
  orbit build does the same for its canonical representatives.
  Automorphism orders come from the End basis the split searched: a new
  decomposable class is isomorphic to the candidate that registers it, so
  dim End of its canonical representative is the length of that basis.
  A class whose canonical representative was solved keeps that basis
  (`IsoClass.end`) for the extensions built on it.

Every grade identifies a stack of representations by their digit rows
(`_identify_stack`; `identify` is a stack of one): a zero or orbit slice
gathers the rows' codes from its `table`, a constructive slice looks the
rows up in `known` and has its index `classify` only the rows not met yet;
an acyclic index first prepares those misses as one stack, as a build
prepares its candidates.

Every slice must pass the exact mass identity sum over classes of
|G| / |Aut| = #points of the ambient space, which certifies completeness
and all automorphism orders at once.  An orbit slice also checks each
class on its own: |G| / orbit size must be |Aut| as the structure of End
gives it, q^(dim rad) times the orders of the GL_m(F_q^t) of its summands
(orbit-stabilizer).  In a nilpotent-only registry the
points are the nilpotent ones: q^(n(n-1)) on the one-loop quiver
(Fine-Herstein), in either mode, and on a cyclic quiver the points the
orbit walk's mask kept.

A submodule census finds the stable subspace tuples of a canonical
representative one vertex at a time on stacks of partial tuples
(`census`).  The registry keeps, per vertex dimension, a basis adapted
to each subspace, in `subspaces_of_dim` order.  In those bases every
arrow is tested the same way, on one block table per arrow built at the
start of the census and counted against the memory cap; the subs and
quotients are diagonal blocks gathered from the same tables.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, CertificateError, HallforgeError
from .gf import GF, Mat, gl_order, subspaces_of_dim
from .oneloop import OneLoopIndex, a_lambda, one_loop_rep, one_loop_types
from .orbits import (_base_change_images, _decode_batch, _encode_batch, _entry_count,
                     _RowSpaces, _spans, _walk_orbits)
from .quiver import Quiver, classify_type, euler_form
from .reps import (Rep, aut_order_from_summands, digit_rows, direct_sum_all, end_basis,
                   end_splits, first_isomorphic, is_nilpotent_rep, pri_of_defect,
                   residue_degree, rref_pivots, scan_splitter, sub_quotient, zero_rep)

ClassKey = Tuple[tuple, int]  # (grade, index within grade)
_MASK_BLOCK = 1 << 14  # points per block of a nilpotency mask
_REDUCE_ABOVE = 1 << 7  # points above which an orbit walk is reduced at a sink or source


@dataclass
class IsoClass:
    grade: tuple
    index: int
    canon: Rep
    aut_order: int
    indec: bool
    summands: tuple  # sorted tuple of (ClassKey, multiplicity)
    res_degree: Optional[int] = None  # residue field degree, indecomposables only
    pri_class: Optional[str] = None   # affine acyclic quivers only
    tube_id: Optional[int] = None
    tube_level: Optional[int] = None
    # the End basis of `canon` when the build solved it: every orbit class
    # and every indecomposable constructive class
    end: Optional[list] = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> ClassKey:
        return (self.grade, self.index)

    @property
    def nilpotent(self) -> bool:
        """Computed when asked: no build or census reads it."""
        return is_nilpotent_rep(self.canon)


# ---------------------------------------------------------------------------
# encoding of representations as base-q integers (orbit mode)


def _rep_of(quiver: Quiver, ctx: GF, grade: tuple, digits: np.ndarray) -> Rep:
    """The representation of `grade` with one digit row."""
    return Rep(quiver, ctx, grade, tuple(
        Mat(ctx, digits[lo:hi].reshape(r, c))
        for lo, hi, r, c in _spans(quiver, grade)))


def decode_rep(quiver: Quiver, ctx: GF, dims: tuple, code: int) -> Rep:
    """The representation of a point of an orbit walk's table (code < 2^63)."""
    digits = _decode_batch(np.array([code]), _entry_count(quiver, dims), ctx.q)[0]
    return _rep_of(quiver, ctx, dims, digits)


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


# ---------------------------------------------------------------------------
# grade slices and their identification indexes


class SplitIndex:
    """Constructive acyclic slices: one Fitting split, then lookups.

    A decomposable representation is found by its summands.  An
    indecomposable one is compared, by `first_isomorphic`, with the
    registered indecomposables of its signature (dim End, arrow ranks).
    """

    def __init__(self, reg: "IsoRegistry", sl: "GradeSlice"):
        self.reg = reg
        self.sl = sl
        self.buckets: Dict[tuple, List[int]] = {}
        self.splits: Dict[Rep, tuple] = {}  # End bases and splitter kernels solved ahead

    def prepare(self, reps: Sequence[Rep]) -> None:
        """Solve End and search splitters for a stack of representations of
        the slice's grade at once (`end_splits`); `register` and `classify`
        then read each one's result."""
        self.splits.update(zip(reps, end_splits(reps)))

    def classify(self, rep: Rep) -> int:
        """The class of `rep`, which must be registered."""
        return self._classify(rep, register=False)

    def register(self, rep: Rep) -> None:
        """Add the class of a build candidate unless it is registered."""
        self._classify(rep, register=True)

    def renumber(self, remap: Dict[int, int]) -> None:
        self.buckets = {sig: sorted(remap[i] for i in idxs)
                        for sig, idxs in self.buckets.items()}
        # a canonical representative identifies as its own class; the census
        # meets it as the sub on the full tuple and the quotient by zero
        self.sl.known = {digit_rows([m.a[None] for m in c.canon.mats], 1).tobytes(): c.index
                         for c in self.sl.classes}

    def _classify(self, rep: Rep, register: bool) -> int:
        reg, sl = self.reg, self.sl
        counts: Dict[ClassKey, int] = {}
        basis = reg._summands(rep, counts, split=self.splits.pop(rep, None))
        h_end = len(basis)
        if not counts:
            sig = (h_end, tuple(reg.ctx.ranks([m.a for m in rep.mats]).tolist()))
            bucket = self.buckets.get(sig, [])
            pos = first_isomorphic(rep, [sl.classes[j].canon for j in bucket])
            idx = None if pos is None else bucket[pos]
            if idx is None:
                if not register:
                    raise CertificateError("identification", sl.grade,
                                           "a registered indecomposable",
                                           f"none with signature {sig}")
                t = residue_degree(rep, basis)
                aut = aut_order_from_summands(h_end, [(1, t)], reg.ctx.q)
                idx = reg._add_class(sl, rep, aut, res_degree=t, end=basis).index
                self.buckets.setdefault(sig, []).append(idx)
            counts[(sl.grade, idx)] = 1
        key = tuple(sorted(counts.items()))
        idx = sl.by_summands.get(key)
        if idx is None:
            if not register:
                raise CertificateError("identification", sl.grade,
                                       "a registered class", f"summands {key}")
            parts, data = [], []
            for part_key, mult in key:
                piece = reg.cls(part_key)
                parts.extend([piece.canon] * mult)
                data.append((mult, piece.res_degree))
            canon = direct_sum_all(parts, reg.quiver, reg.ctx)
            # rep is isomorphic to canon, so dim End(canon) = dim End(rep)
            aut = aut_order_from_summands(h_end, data, reg.ctx.q)
            idx = reg._add_class(sl, canon, aut, key).index
        return idx


class GradeSlice:
    """The classes of one grade, in a fixed order.  `mode` is "zero", "orbit"
    or "constructive".  A zero or orbit slice has the `table` of the class
    of every point code (negative if excluded); a constructive slice has an
    `index` to `classify` a representation and the classes `known` by the
    bytes of digit rows."""

    def __init__(self, grade: tuple, mode: str, index=None, table=None):
        self.grade = grade
        self.mode = mode
        self.index = index
        self.table = table
        self.known: Dict[bytes, int] = {}
        self.classes: List[IsoClass] = []
        self.by_summands: Dict[tuple, int] = {}
        self.census_cache: Dict[int, dict] = {}


class IsoRegistry:
    """All iso-class data for one quiver over one finite field.

    `nilpotent_only` restricts to nilpotent representations (used for
    cyclic quivers, whose nilpotent classes form a sub-Hopf-theory).
    Slices are built on demand and frozen afterwards; queries on built
    slices do not mutate shared state except caches keyed by class.
    """

    def __init__(self, quiver: Quiver, ctx: GF, caps: Caps = DEFAULT_CAPS,
                 nilpotent_only: bool = False):
        self.quiver = quiver
        self.ctx = ctx
        self.caps = caps
        self.nilpotent_only = nilpotent_only
        self.slices: Dict[tuple, GradeSlice] = {}
        self.candidates_enumerated = 0  # extension lines over all constructive levels
        self._adapted_lists: Dict[int, tuple] = {}
        try:
            self.qtype = classify_type(quiver) if quiver.is_connected() else None
        except ValueError:
            self.qtype = None
        self._is_one_loop = quiver.n == 1 and quiver.arrows == ((0, 0),)
        cyclic = quiver.n >= 2 and sorted(quiver.arrows) == sorted(
            (i, (i + 1) % quiver.n) for i in range(quiver.n))
        if nilpotent_only and not (cyclic or self._is_one_loop):
            raise ValueError("nilpotent-only registries are for cyclic/one-loop quivers")

    # -- public API

    def slice(self, grade: Sequence) -> GradeSlice:
        try:
            return self.slices[grade]
        except (KeyError, TypeError):  # not built yet, or not a grade tuple: check, then build
            pass
        grade = self.quiver.check_dim(grade)
        if grade not in self.slices:
            self.slices[grade] = self._build(grade)
        return self.slices[grade]

    def classes(self, grade: Sequence) -> List[IsoClass]:
        return self.slice(grade).classes

    def cls(self, key: ClassKey) -> IsoClass:
        return self.slice(key[0]).classes[key[1]]

    def grades_below(self, top: Sequence) -> List[tuple]:
        top = self.quiver.check_dim(top)
        ranges = [range(x + 1) for x in top]
        return [tuple(g) for g in itertools.product(*ranges)]

    def identify(self, rep: Rep) -> ClassKey:
        """Class of an arbitrary representation of a built (or buildable) grade."""
        idx = self._identify_stack(rep.dims, [m.a[None] for m in rep.mats], 1)
        return (rep.dims, int(idx[0]))

    def class_of_summands(self, grade: Sequence, counts: Dict[ClassKey, int]) -> ClassKey:
        """Class of the direct sum with the given multiplicity per summand class."""
        grade = self.quiver.check_dim(grade)
        summands = tuple(sorted(counts.items()))
        idx = self.slice(grade).by_summands.get(summands)
        if idx is None:
            raise CertificateError("class of summands", grade, summands, None)
        return (grade, idx)

    def group_order(self, grade: tuple) -> int:
        out = 1
        for d in grade:
            out *= gl_order(d, self.ctx.q)
        return out

    def ambient_count(self, grade: tuple) -> int:
        """#points of the ambient space: the nilpotent ones if `nilpotent_only`."""
        e = _entry_count(self.quiver, grade)
        ambient = self.ctx.q ** e
        if not self.nilpotent_only:
            return ambient
        if self._is_one_loop:  # Fine-Herstein: q^(n(n-1)) nilpotent n x n matrices
            return self.ctx.q ** (grade[0] * (grade[0] - 1))
        self.caps.check("tuple_count", ambient)
        return int(self._nilpotent_mask(grade, e, ambient).sum()) if e else 1

    # -- construction dispatch; every built slice must pass the mass identity

    def _build(self, grade: tuple) -> GradeSlice:
        if all(x == 0 for x in grade):
            sl = GradeSlice(grade, "zero", table=np.zeros(1, dtype=np.int64))
            self._add_class(sl, zero_rep(self.quiver, self.ctx), 1, ())
            return sl
        e = _entry_count(self.quiver, grade)
        ambient = self.ctx.q ** e
        if ambient <= self.caps.max_tuple_count:
            sl, points = self._build_orbit(grade)
        elif self._is_one_loop:
            sl, points = self._build_one_loop(grade), self.ambient_count(grade)
        elif self.quiver.is_acyclic():
            sl, points = self._build_extension_chain(grade), ambient
        else:
            raise CapExceeded("tuple_count", ambient, self.caps.max_tuple_count)
        self._annotate(sl)
        self._mass_check(sl, points)
        return sl

    def _add_class(self, sl: GradeSlice, canon: Rep, aut: int,
                   summands: Optional[tuple] = None,
                   res_degree: Optional[int] = None, end: Optional[list] = None) -> IsoClass:
        """Append a class to `sl`; no `summands` marks an indecomposable."""
        idx = len(sl.classes)
        indec = summands is None
        if indec:
            summands = (((sl.grade, idx), 1),)
        cls = IsoClass(sl.grade, idx, canon, aut, indec, summands, res_degree=res_degree, end=end)
        sl.classes.append(cls)
        sl.by_summands[summands] = idx
        return cls

    def _mass_check(self, sl: GradeSlice, points: int) -> None:
        """Sum over classes of |G| / |Aut| must be the slice's number of points."""
        total = Fraction(0)
        g = self.group_order(sl.grade)
        for c in sl.classes:
            total += Fraction(g, c.aut_order)
        if total != points:
            raise CertificateError("mass identity", sl.grade, points, total)

    def _annotate(self, sl: GradeSlice) -> None:
        affine_acyclic = (
            self.qtype is not None
            and self.qtype.tag == "affine"
            and self.quiver.is_acyclic()
        )
        if not affine_acyclic:
            return
        for c in sl.classes:
            if c.indec:
                defects = {euler_form(self.quiver, self.qtype.delta, c.grade)}
            else:
                defects = {
                    euler_form(self.quiver, self.qtype.delta, key[0])
                    for key, _ in c.summands
                }
            kinds = {pri_of_defect(d) for d in defects}
            c.pri_class = kinds.pop() if len(kinds) == 1 else "mixed"

    def _summands(self, rep: Rep, counts: Dict[ClassKey, int], top: bool = True,
                  split: Optional[tuple] = None) -> list:
        """Add the Krull-Schmidt summands of `rep` to `counts` by class key,
        and return the End basis the split searched.

        `split` is the (End basis, splitter kernels) pair that `end_splits`
        gave `rep` in a stack; without it `rep` is solved as a stack of one.
        Makes one Fitting split, falling back to `scan_splitter` when no
        basis element or pair sum splits; a half whose grade is built is
        looked up and adds its registered summands, any other half is split
        further, so no slice is built that a full decomposition would not
        build.  When `rep` is indecomposable and `top`, adds nothing: an
        indecomposable of the grade being built or identified has no class
        to look up yet.
        """
        basis, kers = split or end_splits([rep])[0]
        if kers is None:
            kers = scan_splitter(rep, basis, self.caps)
        if kers is None:
            if not top:
                key = self.identify(rep)  # builds the slice, as a full decomposition does
                counts[key] = counts.get(key, 0) + 1
            return basis
        for half in sub_quotient(rep, kers):
            if half.dims in self.slices:
                for key, mult in self.cls(self.identify(half)).summands:
                    counts[key] = counts.get(key, 0) + mult
            else:
                self._summands(half, counts, top=False)
        return basis

    # -- orbit mode

    def _build_orbit(self, grade: tuple) -> Tuple[GradeSlice, int]:
        """The orbit slice of `grade` and its number of points."""
        quiver, ctx = self.quiver, self.ctx
        table, seeds, sizes, points = self._orbit_partition(grade)
        group = self.group_order(grade)
        sl = GradeSlice(grade, "orbit", table=table)
        for size in sizes:
            if group % size:
                raise CertificateError("orbit size", grade, f"a divisor of |G| = {group}", size)
        canons = [decode_rep(quiver, ctx, grade, seed) for seed in seeds]
        for canon, size, split in zip(canons, sizes, end_splits(canons)):
            counts: Dict[ClassKey, int] = {}
            basis = self._summands(canon, counts, split=split)
            if counts:
                summands, res = tuple(sorted(counts.items())), None
                data = [(mult, self.cls(key).res_degree) for key, mult in summands]
            else:
                summands, res = None, residue_degree(canon, basis)
                data = [(1, res)]
            # orbit-stabilizer: |G| / orbit size is |Aut| as End's structure gives it
            aut = aut_order_from_summands(len(basis), data, ctx.q)
            if aut != group // size:
                raise CertificateError("orbit-stabilizer", grade, group // size, aut)
            self._add_class(sl, canon, aut, summands, res_degree=res, end=basis)
        return sl, points

    def _orbit_partition(self, grade: tuple) -> Tuple[np.ndarray, List[int], List[int], int]:
        """The class table of the orbit walk of `grade` (negative on excluded
        points), the first point and size of each orbit in order of first
        point, and the number of points.

        Above `_REDUCE_ABOVE` points the walk is over the reduced codes of
        `_row_spaces` when it names a vertex; below that the reduction's
        fixed cost is more than the whole point walk.  A reduced walk that
        would not fit under the memory cap falls back to the point walk.  A
        nilpotent-only grade that reduces has an acyclic support (a cyclic
        quiver's support with a sink or source), so every one of its points
        is nilpotent."""
        quiver, ctx = self.quiver, self.ctx
        e = _entry_count(quiver, grade)
        ambient = ctx.q ** e
        spaces = self._row_spaces(grade) if ambient > _REDUCE_ABOVE else None
        if spaces is not None:
            try:
                images = _base_change_images(quiver, ctx, grade, self.caps, spaces)
            except CapExceeded:  # the point walk may still fit
                pass
            else:
                labels = np.full(spaces.reduced, -1, dtype=np.int64)
                _walk_orbits(labels, images)
                return spaces.classes(labels, ambient) + (ambient,)
        images = _base_change_images(quiver, ctx, grade, self.caps)
        class_of = np.full(ambient, -1, dtype=np.int64)
        points = ambient
        if self.nilpotent_only:
            nilpotent = self._nilpotent_mask(grade, e, ambient)
            class_of[~nilpotent] = -2  # excluded from this registry
            points = self.ambient_count(grade) if self._is_one_loop else int(nilpotent.sum())
        seeds, sizes = _walk_orbits(class_of, images)
        return class_of, seeds, sizes, points

    def _row_spaces(self, grade: tuple) -> Optional[_RowSpaces]:
        """The reduction of the orbit walk of `grade`: at the loop-free sink
        or source of its support whose reduced space is smallest, chosen
        from Gaussian binomials before anything is built.  None keeps the
        point walk: when no such vertex has arrows to the support, or the
        reduced space is no smaller than the ambient one, or the subspaces
        would fail the `subspace_enum` cap."""
        best, ambient = None, self.ctx.q ** _entry_count(self.quiver, grade)
        for v in range(self.quiver.n):
            if grade[v] == 0:
                continue
            for sink, far, near in ((True, 1, 0), (False, 0, 1)):
                if any(arrow[near] == v and grade[arrow[far]] for arrow in self.quiver.arrows):
                    continue  # an arrow leaves the sink (enters the source), or a loop
                spaces = _RowSpaces(self.quiver, self.ctx, grade, v, sink)
                if (spaces.m and spaces.count <= self.caps.max_subspace_enum
                        and spaces.reduced < (ambient if best is None else best.reduced)):
                    best = spaces
        return best

    def _nilpotent_mask(self, grade: tuple, e: int, ambient: int) -> np.ndarray:
        """Boolean mask of nilpotent points (cyclic and one-loop quivers).

        A point is nilpotent exactly when the composite C of its arrows
        around the cycle, from a vertex m of least dimension d, is: when
        C^d = 0.  C is read through tables built once per grade: with P the
        d_v x d composite from m to v, the table of the arrow A_v: v -> v+1
        holds the code of A_v P for every pair (a, p) of codes of A_v and P,
        and one table marks the nilpotent d x d codes, each found by
        ceil(log2 d) squarings.  A point's value is then one gather per
        arrow and one in the nilpotent table.  Starting at a least dimension
        keeps every table no larger than the ambient space.  Tables and mask
        are filled over blocks of at most `_MASK_BLOCK` entries; the tables'
        memory is checked against the cap before they are built."""
        quiver, ctx, q = self.quiver, self.ctx, self.ctx.q
        d = min(grade)
        m = grade.index(d)
        span_of = {s: span for (s, _), span in zip(quiver.arrows, _spans(quiver, grade))}
        first, *rest = (span_of[(m + i) % quiver.n] for i in range(quiver.n))  # blocks from m
        dtypes = [np.min_scalar_type(q ** (r * d) - 1) for _, _, r, _ in rest]
        self.caps.check_memory(q ** (d * d) + sum(q ** (r * c + c * d) * dtype.itemsize
                                                  for (_, _, r, c), dtype in zip(rest, dtypes)))

        def fill(size, dtype, values):
            """The table of values(codes) over range(size), in blocks."""
            out = np.empty(size, dtype=dtype)
            for start in range(0, size, _MASK_BLOCK):
                codes = np.arange(start, min(start + _MASK_BLOCK, size), dtype=np.int64)
                out[start: start + codes.size] = values(codes)
            return out

        def nilpotent(codes):
            x = _decode_batch(codes, d * d, q).reshape(codes.size, d, d)
            steps = 1
            while steps < d:
                x = ctx.matmul(x, x)
                steps *= 2
            return ~x.reshape(codes.size, d * d).any(axis=1)

        def product(r, c):
            def values(codes):  # code of A P for the code pair (a, p) = divmod(codes, #P)
                a = _decode_batch(codes // q ** (c * d), r * c, q).reshape(codes.size, r, c)
                p = _decode_batch(codes % q ** (c * d), c * d, q).reshape(codes.size, c, d)
                return _encode_batch(ctx.matmul(a, p).reshape(codes.size, r * d), q)
            return values

        def block(codes, span):
            return codes // q ** (e - span[1]) % q ** (span[1] - span[0])

        nil = fill(q ** (d * d), bool, nilpotent)
        tables = [(span, q ** (c * d), fill(q ** (r * c + c * d), dtype, product(r, c)))
                  for (*span, r, c), dtype in zip(rest, dtypes)]

        def mask(codes):
            p = block(codes, first)
            for span, n_p, table in tables:
                p = table[block(codes, span) * n_p + p]
            return nil[p]
        return fill(ambient, bool, mask)

    # -- constructive mode: acyclic quivers, extensions by a sink simple

    def _support_sink(self, grade: tuple) -> int:
        supp = [i for i, x in enumerate(grade) if x > 0]
        sinks = [
            v for v in supp
            if not any(s == v and t in supp and t != v for (s, t) in self.quiver.arrows)
        ]
        if not sinks:
            raise CertificateError("support sink", grade, "a sink in an acyclic support", "none")
        return sinks[-1]

    def _build_extension_chain(self, grade: tuple) -> GradeSlice:
        v = self._support_sink(grade)
        lower = tuple(x - (1 if i == v else 0) for i, x in enumerate(grade))
        base = self.slice(lower)
        sl = GradeSlice(grade, "constructive")
        sl.index = SplitIndex(self, sl)
        exts = [SinkExtensions(a_cls.canon, v, a_cls.end) for a_cls in base.classes]
        lines = sum(ext.count for ext in exts)
        self.caps.check("candidates", lines)
        self.caps.check("total_candidates", self.candidates_enumerated + lines)
        self.candidates_enumerated += lines
        candidates = []
        for ext in exts:
            cocycles, first = ext.orbits()
            candidates += [ext.middle_term(cocycles[i])
                           for i in np.flatnonzero(first == np.arange(ext.count))]
        sl.index.prepare(candidates)  # all orbit-first candidates as one stack
        for rep in candidates:
            sl.index.register(rep)
        self._order_constructive(sl)
        return sl

    def _order_constructive(self, sl: GradeSlice) -> None:
        """Stable deterministic order: indecomposables first by byte string."""
        order = sorted(range(len(sl.classes)),
                       key=lambda i: (not sl.classes[i].indec, sl.classes[i].canon.tobytes()))
        remap = {old: new for new, old in enumerate(order)}
        sl.classes = [sl.classes[old] for old in order]
        for new, c in enumerate(sl.classes):
            c.index = new
            c.summands = tuple(sorted(
                (((g, remap[i] if g == sl.grade else i), m) for (g, i), m in c.summands)
            ))
        sl.by_summands = {c.summands: c.index for c in sl.classes}
        sl.index.renumber(remap)

    # -- constructive mode: one-loop quiver, conjugacy-type data

    def _build_one_loop(self, grade: tuple) -> GradeSlice:
        quiver, ctx = self.quiver, self.ctx
        sl = GradeSlice(grade, "constructive", OneLoopIndex(grade))
        for typ in one_loop_types(ctx, grade[0], self.nilpotent_only):
            sl.index.register(typ)
            canon = one_loop_rep(quiver, ctx, typ)
            aut = math.prod(a_lambda(ctx.q ** (len(f) - 1), lam) for f, lam in typ)
            if len(typ) == 1 and len(typ[0][1]) == 1:
                self._add_class(sl, canon, aut, res_degree=len(typ[0][0]) - 1)
                continue
            # the pieces (poly, single part) of a decomposable type are
            # indecomposables of lower grades
            counts: Dict[ClassKey, int] = {}
            for f, lam in typ:
                for part in lam:
                    key = self.identify(one_loop_rep(quiver, ctx, ((f, (part,)),)))
                    counts[key] = counts.get(key, 0) + 1
            self._add_class(sl, canon, aut, tuple(sorted(counts.items())))
        return sl

    # -- submodule census

    def _adapted_bases(self, d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every subspace U of GF(q)^d, as a basis of GF(q)^d adapted to it;
        cached per d and built on first use.  The positions of the subspaces
        run by dimension 0..d, each dimension in `subspaces_of_dim` order, so
        position 0 is the zero subspace.

        Returns (rank, L, R): the dimension k of each U, and the stacks of
        R = [B^T | F^T] and L = R^-1 = [P; F(I - B^T P)] (each d x d), where
        B is the RREF basis of U, P selects its pivot coordinates and F the
        free ones.  The first k columns of R span U and the others the
        canonical complement, so for an arrow A of a stable tuple L A R is
        block upper triangular, with the sub and the quotient on its diagonal.
        """
        hit = self._adapted_lists.get(d)
        if hit is None:
            ctx = self.ctx
            bases = [b for m in range(d + 1) for b in subspaces_of_dim(d, m, ctx, self.caps)]
            rank = np.array([b.rows for b in bases], dtype=np.intp)
            left = np.zeros((len(bases), d, d), dtype=np.uint8)
            right = np.zeros((len(bases), d, d), dtype=np.uint8)
            for i, (b, k) in enumerate(zip(bases, rank.tolist())):
                piv = rref_pivots(b)
                free = [c for c in range(d) if c not in piv]
                right[i, :, :k] = b.a.T
                right[i, free, range(k, d)] = 1
                left[i, range(k), piv] = 1
                left[i, range(k, d), free] = 1
                left[i, k:][:, piv] = ctx.NEG[b.a[:, free].T]  # w - B^T w[piv] on the free rows
            hit = self._adapted_lists[d] = (rank, left, right)
        return hit

    def census(self, key: ClassKey) -> Dict[tuple, int]:
        """Counts of stable subspace tuples by (quotient class, sub class).

        census[((gq, iq), (gs, is_))] = number of subrepresentations of the
        canonical representative isomorphic to class (gs, is_) with
        quotient of class (gq, iq).

        Every arrow is tested the same way, on the block tables of
        `_block_tables`.  The stable tuples are found one vertex v at a time
        on a stack of partial tuples of positions: the tests of the arrows
        between v and the vertices <= v, gathered at each row's positions,
        give one mask of the rows by the positions of U_v, and each row is
        followed by the positions it passes.  Rows expand in place, in
        position order, so tuples, and the census keys, appear in the order
        of a full walk.
        """
        grade, idx = key
        sl = self.slice(grade)
        hit = sl.census_cache.get(idx)
        if hit is not None:
            return hit
        rep = sl.classes[idx].canon
        self.caps.check("subspace_enum", math.prod(len(self._adapted_bases(d)[0]) for d in grade))
        tables = self._block_tables(rep)
        stack = np.zeros((1, 0), dtype=np.intp)
        for v, d in enumerate(grade):
            mask = np.ones((len(stack), len(self._adapted_bases(d)[0])), dtype=bool)
            for (_, ok), (s, t) in zip(tables, self.quiver.arrows):
                if s == t == v:
                    mask &= ok
                elif t == v and s < v:
                    mask &= ok[:, stack[:, s]].T
                elif s == v and t < v:
                    mask &= ok[stack[:, t]]
            rows, cols = np.nonzero(mask)
            stack = np.concatenate([stack[rows], cols[:, None]], axis=1)
        out = sl.census_cache[idx] = self._count_tuples(rep, tables, stack)
        return out

    def _block_tables(self, rep: Rep) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per arrow A: s -> t of `rep`, the blocks L_t A R_s in the adapted
        bases of every pair of positions (j of U_t, i of U_s), at [j, i], and
        whether A maps U_s into U_t: exactly when the block with rows
        >= rank(U_t) and columns < rank(U_s) is zero.  A loop gets only the
        pairs (i, i), at [i].

        The tables are counted against the memory cap first, at 16 bytes per
        block entry (the int64 product and remainder of a prime-field
        `GF.matmul`) and one per test.
        """
        ctx, arrows = self.ctx, self.quiver.arrows
        counts = [len(self._adapted_bases(d)[0]) for d in rep.dims]
        pairs = [counts[s] if s == t else counts[t] * counts[s] for s, t in arrows]
        self.caps.check_memory(sum(n * (16 * rep.dims[s] * rep.dims[t] + 1)
                                   for n, (s, t) in zip(pairs, arrows)))
        out = []
        for a, (s, t) in zip(rep.mats, arrows):
            rank_s, _, right = self._adapted_bases(rep.dims[s])
            rank_t, left, _ = self._adapted_bases(rep.dims[t])
            lead = left if s == t else left[:, None]  # a loop pairs each position with itself
            blocks = ctx.matmul(lead, ctx.matmul(a.a, right))
            rows = np.arange(rep.dims[t])[:, None] >= rank_t.reshape(lead.shape[:-2] + (1, 1))
            cols = np.arange(rep.dims[s]) < rank_s[:, None, None]
            out.append((blocks, ~((blocks != 0) & rows & cols).any(axis=(-2, -1))))
        return out

    def _count_tuples(self, rep: Rep, tables: list, tuples: np.ndarray) -> Dict[tuple, int]:
        """The census of `rep` over its stable tuples (rows of subspace
        positions, in walk order), given its `_block_tables`.

        The tuples are grouped by rank vector; each group's subs and
        quotients (`_sub_quotient_stacks`) are identified in bulk
        (`_identify_stack`).  Groups go in order of first tuple, quotient
        before sub, so grades are first met, and built, as by a walk that
        identifies tuple by tuple; keys appear in order of first tuple.
        """
        ranks = np.stack([self._adapted_bases(d)[0][tuples[:, v]]
                          for v, d in enumerate(rep.dims)], axis=1)
        groups: Dict[tuple, List[int]] = {}  # rank vector -> rows of its tuples
        for i, row in enumerate(ranks.tolist()):
            groups.setdefault(tuple(row), []).append(i)
        keys: List[tuple] = [()] * len(tuples)
        for sub_grade, members in groups.items():
            quot_grade = tuple(d - k for d, k in zip(rep.dims, sub_grade))
            subs, quots = self._sub_quotient_stacks(tables, tuples[members], sub_grade)
            quot_of = self._identify_stack(quot_grade, quots, len(members)).tolist()
            sub_of = self._identify_stack(sub_grade, subs, len(members)).tolist()
            for i, iq, is_ in zip(members, quot_of, sub_of):
                keys[i] = ((quot_grade, iq), (sub_grade, is_))
        out: Dict[tuple, int] = {}
        for k in keys:
            out[k] = out.get(k, 0) + 1
        return out

    def _sub_quotient_stacks(self, tables: list, tuples: np.ndarray, ranks: tuple
                             ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The subs and quotients on the stable `tuples` of rank vector
        `ranks`: per arrow s -> t, the stacks of sub blocks P_t A B_s^T and of
        quotient blocks F_t (I - B_t^T P_t) A F_s^T, the diagonal blocks of
        L_t A R_s, gathered from the `_block_tables`.

        These are `reps.sub_quotient`'s img[piv_t] and w - B_t^T w[piv_t] on
        the free rows of t, for img = A B_s^T and w = A F_s^T.
        """
        subs, quots = [], []
        for (blocks, _), (s, t) in zip(tables, self.quiver.arrows):
            b = blocks[tuples[:, t]] if s == t else blocks[tuples[:, t], tuples[:, s]]
            subs.append(b[:, :ranks[t], :ranks[s]])
            quots.append(b[:, ranks[t]:, ranks[s]:])
        return subs, quots

    def _identify_stack(self, grade: tuple, blocks: List[np.ndarray], count: int
                        ) -> np.ndarray:
        """The class of each of `count` representations of `grade`, given by
        one stack of matrices per arrow, from their digit rows: one table
        gather on a zero or orbit slice; on a constructive slice one lookup
        in `known` per row and one `classify` per distinct row not known
        yet, in row order, after an acyclic index has prepared them all as
        one stack."""
        sl = self.slice(grade)
        digits = digit_rows(blocks, count)
        if sl.table is not None:
            idx = sl.table[_encode_batch(digits, self.ctx.q)]
            if (idx < 0).any():  # excluded by a nilpotent-only walk
                raise HallforgeError(f"the representation of grade {grade} is not in this "
                                     "registry (a nilpotent-only registry excludes it)")
            return idx
        rows = [row.tobytes() for row in digits]
        missed = {buf: row for buf, row in zip(rows, digits) if buf not in sl.known}
        if missed:
            reps = [_rep_of(self.quiver, self.ctx, grade, row) for row in missed.values()]
            if isinstance(sl.index, SplitIndex):
                sl.index.prepare(reps)
            for buf, rep in zip(missed, reps):
                sl.known[buf] = sl.index.classify(rep)
        return np.array([sl.known[buf] for buf in rows], dtype=np.int64)

    # -- export

    def export_jsonl(self, grades: Sequence[tuple]) -> str:
        lines = []
        for g in sorted(self.quiver.check_dim(x) for x in grades):
            for c in self.slice(g).classes:
                mats = [
                    [[list(self.ctx.coeff_vector(int(x))) for x in row] for row in m.tolist()]
                    for m in c.canon.mats
                ]
                lines.append(json.dumps({
                    "dim": list(c.grade),
                    "canon": mats,
                    "aut_order": c.aut_order,
                    "indec": c.indec,
                    "pri_class": c.pri_class,
                    "tube_id": c.tube_id,
                }, sort_keys=True))
        return "\n".join(lines) + "\n"

