"""Registries of isomorphism classes of quiver representations.

A registry holds, per (quiver, field, dimension vector), the ordered list
of isomorphism classes together with automorphism orders, indecomposable
flags, Krull-Schmidt summand data and structural flags.  Each grade slice
is built in one of three ways and gets, when it is built, the one index
that identifies its representations:

* orbit mode: when the ambient tuple space q^(#matrix entries) fits under
  the cap, the base-change orbits are walked exactly (vectorized BFS over
  group generators).  The canonical representative is the
  lexicographically least matrix tuple of the orbit and the automorphism
  order is group order / orbit size.  `OrbitIndex` is the table from the
  base-q code of every point to its class; the zero grade has the
  one-entry table of the zero representation.

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
  each class is unchanged.  `SplitIndex` makes one Fitting split: a half
  whose grade is built is identified there and contributes its registered
  summands, only halves of unbuilt grades are split further, and an
  indecomposable is compared with the registered ones of its (dim End,
  arrow ranks).  The build registers each candidate through this index,
  and automorphism orders come from the endomorphism ring.

Both constructive indexes remember what they identified by its bytes.
Every slice must pass the exact mass identity sum over classes of
|G| / |Aut| = #points of the ambient space, which certifies completeness
and all automorphism orders at once.

Submodule censuses generate the stable subspace tuples of a canonical
representative rather than filtering every tuple.  The registry keeps one
list of all subspaces per vertex dimension, in `subspaces_of_dim` order,
and memoizes for each subspace W the positions of the subspaces that
contain it (W plus the lifts of the subspaces of V/W).  Each census
visits vertices in index order and takes U_v among the subspaces
containing the images of the chosen U_s under the arrows s -> v with
s < v; only loops and arrows into a lower vertex are tested.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, CertificateError
from .gf import GF, Mat, gl_order, subspaces_of_dim
from .oneloop import OneLoopIndex, a_lambda, one_loop_rep, one_loop_types
from .quiver import Quiver, classify_type, euler_form
from .reps import (Rep, aut_order_from_summands, direct_sum_all, fitting_split,
                   hom_dim, is_nilpotent_rep, iso_indecomposables, pri_of_defect,
                   residue_degree, rref_pivots, sub_quotient, zero_rep)

ClassKey = Tuple[tuple, int]  # (grade, index within grade)


@dataclass
class IsoClass:
    grade: tuple
    index: int
    canon: Rep
    aut_order: int
    indec: bool
    summands: tuple  # sorted tuple of (ClassKey, multiplicity)
    nilpotent: bool
    res_degree: Optional[int] = None  # residue field degree, indecomposables only
    pri_class: Optional[str] = None   # affine acyclic quivers only
    tube_id: Optional[int] = None
    tube_level: Optional[int] = None

    @property
    def key(self) -> ClassKey:
        return (self.grade, self.index)


# ---------------------------------------------------------------------------
# encoding of representations as base-q integers (orbit mode)


def _entry_count(quiver: Quiver, dims: Sequence) -> int:
    return sum(dims[s] * dims[t] for (s, t) in quiver.arrows)


def _spans(quiver: Quiver, dims: Sequence) -> List[tuple]:
    """(start, stop, rows, cols) of each arrow's block of the digit vector."""
    out, pos = [], 0
    for (s, t) in quiver.arrows:
        out.append((pos, pos + dims[t] * dims[s], dims[t], dims[s]))
        pos = out[-1][1]
    return out


def encode_rep(rep: Rep) -> int:
    code = 0
    q = rep.ctx.q
    for m in rep.mats:
        for x in m.a.reshape(-1):
            code = code * q + int(x)
    return code


def decode_rep(quiver: Quiver, ctx: GF, dims: tuple, code: int) -> Rep:
    """The representation of a point of an orbit walk's table (code < 2^63)."""
    digits = _decode_batch(np.array([code]), _entry_count(quiver, dims), ctx.q)[0]
    return Rep(quiver, ctx, dims, tuple(
        Mat(ctx, digits[lo:hi].reshape(r, c))
        for lo, hi, r, c in _spans(quiver, dims)))


def _decode_batch(codes: np.ndarray, e: int, q: int) -> np.ndarray:
    out = np.empty((codes.size, e), dtype=np.uint8)
    c = codes.astype(np.int64).copy()
    for t in range(e - 1, -1, -1):
        out[:, t] = c % q
        c //= q
    return out


def _encode_batch(digits: np.ndarray, q: int) -> np.ndarray:
    c = np.zeros(digits.shape[0], dtype=np.int64)
    for t in range(digits.shape[1]):
        c = c * q + digits[:, t]
    return c


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


# ---------------------------------------------------------------------------
# grade slices and their identification indexes


class OrbitIndex:
    """Orbit and zero slices: the class of every point of the ambient space,
    read off a table by the point's base-q code."""

    def __init__(self, table: np.ndarray):
        self.table = table

    def identify(self, rep: Rep) -> int:
        return int(self.table[encode_rep(rep)])


class SplitIndex:
    """Constructive acyclic slices: one Fitting split, then lookups.

    A decomposable representation is found by its summands.  An
    indecomposable one is compared, by `iso_indecomposables`, with the
    registered indecomposables of its signature (dim End, arrow ranks).
    Representations already identified are remembered by their bytes.
    """

    def __init__(self, reg: "IsoRegistry", sl: "GradeSlice"):
        self.reg = reg
        self.sl = sl
        self.buckets: Dict[tuple, List[int]] = {}
        self.bytes_cache: Dict[bytes, int] = {}

    def identify(self, rep: Rep) -> int:
        buf = rep.tobytes()
        idx = self.bytes_cache.get(buf)
        if idx is None:
            idx = self.bytes_cache[buf] = self._classify(rep, register=False)
        return idx

    def register(self, rep: Rep) -> None:
        """Add the class of a build candidate unless it is registered."""
        self._classify(rep, register=True)

    def renumber(self, remap: Dict[int, int]) -> None:
        self.buckets = {sig: sorted(remap[i] for i in idxs)
                        for sig, idxs in self.buckets.items()}
        # a canonical representative identifies as its own class; the census
        # meets it as the sub on the full tuple and the quotient by zero
        self.bytes_cache = {c.canon.tobytes(): c.index for c in self.sl.classes}

    def _classify(self, rep: Rep, register: bool) -> int:
        reg, sl = self.reg, self.sl
        counts: Dict[ClassKey, int] = {}
        if not reg._summands(rep, counts):
            h_end = hom_dim(rep, rep)
            sig = (h_end, tuple(m.rank() for m in rep.mats))
            bucket = self.buckets.get(sig, ())
            idx = next((j for j in bucket if iso_indecomposables(rep, sl.classes[j].canon)), None)
            if idx is None:
                if not register:
                    raise CertificateError("identification", sl.grade,
                                           "a registered indecomposable",
                                           f"none with signature {sig}")
                t = residue_degree(rep, reg.caps)
                aut = aut_order_from_summands(h_end, [(1, t)], reg.ctx.q)
                idx = reg._add_class(sl, rep, aut, res_degree=t).index
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
            aut = aut_order_from_summands(hom_dim(canon, canon), data, reg.ctx.q)
            idx = reg._add_class(sl, canon, aut, key).index
        return idx


class GradeSlice:
    """The classes of one grade, in a fixed order, and the one index that
    identifies representations of the grade.  `mode` is "zero", "orbit" or
    "constructive"."""

    def __init__(self, grade: tuple, mode: str, index=None):
        self.grade = grade
        self.mode = mode
        self.index = index
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
        self._subspace_lists: Dict[int, tuple] = {}
        self._superset_memo: Dict[tuple, List[int]] = {}
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
        return (rep.dims, self.slice(rep.dims).index.identify(rep))

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
        self.caps.check("tuple_count", ambient)
        return int(self._nilpotent_mask(grade, e, ambient).sum()) if e else 1

    # -- construction dispatch; every built slice must pass the mass identity

    def _build(self, grade: tuple) -> GradeSlice:
        if all(x == 0 for x in grade):
            sl = GradeSlice(grade, "zero", OrbitIndex(np.zeros(1, dtype=np.int64)))
            self._add_class(sl, zero_rep(self.quiver, self.ctx), 1, ())
            return sl
        e = _entry_count(self.quiver, grade)
        ambient = self.ctx.q ** e
        if ambient <= self.caps.max_tuple_count:
            sl = self._build_orbit(grade)
        elif self._is_one_loop:
            sl = self._build_one_loop(grade)
        elif self.quiver.is_acyclic():
            sl = self._build_extension_chain(grade)
        else:
            raise CapExceeded("tuple_count", ambient, self.caps.max_tuple_count)
        self._annotate(sl)
        self._mass_check(sl)
        return sl

    def _add_class(self, sl: GradeSlice, canon: Rep, aut: int,
                   summands: Optional[tuple] = None,
                   res_degree: Optional[int] = None) -> IsoClass:
        """Append a class to `sl`; no `summands` marks an indecomposable."""
        idx = len(sl.classes)
        indec = summands is None
        if indec:
            summands = (((sl.grade, idx), 1),)
        cls = IsoClass(sl.grade, idx, canon, aut, indec, summands,
                       is_nilpotent_rep(canon), res_degree=res_degree)
        sl.classes.append(cls)
        sl.by_summands[summands] = idx
        return cls

    def _mass_check(self, sl: GradeSlice) -> None:
        total = Fraction(0)
        g = self.group_order(sl.grade)
        for c in sl.classes:
            total += Fraction(g, c.aut_order)
        expected = self.ambient_count(sl.grade)
        if total != expected:
            raise CertificateError("mass identity", sl.grade, expected, total)

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

    def _summands(self, rep: Rep, counts: Dict[ClassKey, int], top: bool = True) -> bool:
        """Add the Krull-Schmidt summands of `rep` to `counts` by class key.

        Makes one Fitting split; a half whose grade is built is looked up and
        adds its registered summands, any other half is split further, so
        no slice is built that a full decomposition would not build.  Returns
        False, adding nothing, when `rep` is indecomposable and `top`: an
        indecomposable of the grade being built or identified has no class
        to look up yet.
        """
        halves = fitting_split(rep, self.caps)
        if halves is None:
            if top:
                return False
            key = self.identify(rep)  # builds the slice, as a full decomposition does
            counts[key] = counts.get(key, 0) + 1
            return True
        for half in halves:
            if half.dims in self.slices:
                for key, mult in self.cls(self.identify(half)).summands:
                    counts[key] = counts.get(key, 0) + mult
            else:
                self._summands(half, counts, top=False)
        return True

    # -- orbit mode

    def _build_orbit(self, grade: tuple) -> GradeSlice:
        quiver, ctx = self.quiver, self.ctx
        e = _entry_count(quiver, grade)
        q = ctx.q
        ambient = q ** e
        self.caps.check_memory(ambient * 10)
        spans = _spans(quiver, grade)
        gens = []  # (vertex, g, g_inv)
        for v in range(quiver.n):
            for g in _gl_generators(ctx, grade[v]):
                gens.append((v, g.a, g.inverse().a))

        class_of = np.full(ambient, -1, dtype=np.int64)
        if self.nilpotent_only:
            class_of[~self._nilpotent_mask(grade, e, ambient)] = -2  # excluded from this registry
        group = self.group_order(grade)
        seeds = []
        next_code = 0
        while True:
            while next_code < ambient and class_of[next_code] != -1:
                next_code += 1
            if next_code == ambient:
                break
            cid = len(seeds)
            class_of[next_code] = cid
            frontier = np.array([next_code], dtype=np.int64)
            size = 1
            while frontier.size and gens:
                digs = _decode_batch(frontier, e, q)
                images = []
                for (v, g, ginv) in gens:
                    nd = digs.copy()
                    for span, (s, t) in zip(spans, quiver.arrows):
                        lo, hi, r, c = span
                        if hi == lo:
                            continue
                        block = nd[:, lo:hi].reshape(-1, r, c)
                        if t == v:
                            block = ctx.matmul(g, block)
                        if s == v:
                            block = ctx.matmul(block, ginv)
                        nd[:, lo:hi] = block.reshape(-1, hi - lo)
                    images.append(_encode_batch(nd, q))
                allim = np.unique(np.concatenate(images))
                new = allim[class_of[allim] == -1]
                class_of[new] = cid
                size += new.size
                frontier = new
            seeds.append((next_code, size))

        sl = GradeSlice(grade, "orbit", OrbitIndex(class_of))
        for seed, size in seeds:
            if group % size:
                raise CertificateError("orbit size", grade, f"a divisor of |G| = {group}", size)
            canon = decode_rep(quiver, ctx, grade, seed)
            counts: Dict[ClassKey, int] = {}
            if self._summands(canon, counts):
                self._add_class(sl, canon, group // size, tuple(sorted(counts.items())))
            else:
                self._add_class(sl, canon, group // size,
                                res_degree=residue_degree(canon, self.caps))
        return sl

    def _nilpotent_mask(self, grade: tuple, e: int, ambient: int) -> np.ndarray:
        """Boolean mask of nilpotent points (cyclic and one-loop quivers)."""
        quiver, ctx = self.quiver, self.ctx
        q = ctx.q
        codes = np.arange(ambient, dtype=np.int64)
        digs = _decode_batch(codes, e, q)
        # composite map around the cycle, starting at vertex 0
        arr_of = {s: span for (s, _), span in zip(quiver.arrows, _spans(quiver, grade))}
        comp = None
        for v in range(quiver.n):
            lo, hi, r, c = arr_of[v]
            block = digs[:, lo:hi].reshape(ambient, r, c)
            comp = block if comp is None else ctx.matmul(block, comp)
        total = sum(grade)
        power = comp
        steps = 1
        while steps < total:
            power = ctx.matmul(power, power)
            steps *= 2
        return ~power.reshape(power.shape[0], -1).any(axis=1)

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
        quiver, ctx = self.quiver, self.ctx
        v = self._support_sink(grade)
        lower = tuple(x - (1 if i == v else 0) for i, x in enumerate(grade))
        base = self.slice(lower)
        sl = GradeSlice(grade, "constructive")
        sl.index = SplitIndex(self, sl)
        into_v = [idx for idx, (s, t) in enumerate(quiver.arrows) if t == v]
        cocycle_shape = [(idx, lower[quiver.arrows[idx][0]]) for idx in into_v]
        cocycle_dim = sum(w for _, w in cocycle_shape)
        for a_cls in base.classes:
            a = a_cls.canon
            # two cocycles differing by a coboundary phi |-> (phi a_alpha)
            # have isomorphic middle terms, so enumerate a transversal of
            # the coboundary row space: entries at its pivots stay zero
            if cocycle_dim and lower[v]:
                stacked = np.concatenate(
                    [a.mats[idx].a for idx, _ in cocycle_shape], axis=1
                )
                _, _, piv = Mat(ctx, stacked).rref()
            else:
                piv = ()
            free_pos = [t for t in range(cocycle_dim) if t not in piv]
            for free_vals in itertools.product(range(ctx.q), repeat=len(free_pos)):
                # xi and c*xi have isomorphic middle terms, so keep the first
                # cocycle of each line: zero, or leading free entry 1
                if next(filter(None, free_vals), 1) != 1:
                    continue
                combo = [0] * cocycle_dim
                for t, val in zip(free_pos, free_vals):
                    combo[t] = val
                mats = list(a.mats)
                pos = 0
                for idx, width in cocycle_shape:
                    row = np.array(combo[pos: pos + width], dtype=np.uint8).reshape(1, width)
                    mats[idx] = Mat(ctx, np.concatenate([row, a.mats[idx].a], axis=0))
                    pos += width
                for idx, (s, t) in enumerate(quiver.arrows):
                    if s == v:  # sink of the support: targets have dimension zero
                        mats[idx] = Mat.zeros(ctx, grade[t], grade[s])
                sl.index.register(Rep(quiver, ctx, grade, tuple(mats)))
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

    def _subspaces(self, n: int) -> tuple:
        """Every subspace of GF(q)^n, cached per n.

        Returns (bases, pivots, index): the RREF bases by dimension 0..n, each
        dimension in `subspaces_of_dim` order, their pivot columns, and the
        position of each basis by its bytes.
        """
        hit = self._subspace_lists.get(n)
        if hit is None:
            bases = [b for m in range(n + 1)
                     for b in subspaces_of_dim(n, m, self.ctx, self.caps)]
            pivots = [rref_pivots(b) for b in bases]
            index = {b.a.tobytes(): i for i, b in enumerate(bases)}
            hit = self._subspace_lists[n] = (bases, pivots, index)
        return hit

    def _supersets(self, w: Mat) -> List[int]:
        """Positions in `_subspaces(w.cols)` of the subspaces containing the
        row span of the RREF basis `w`, ascending (memoized per w).

        Each one is W plus the lift of one subspace of V/W, taken on the
        coordinates of the non-pivot columns of W, which span a complement.
        """
        n = w.cols
        key = (n, w.a.tobytes())
        hit = self._superset_memo.get(key)
        if hit is None:
            bases, _, index = self._subspaces(n)
            if w.rows == 0:
                hit = list(range(len(bases)))
            else:
                piv = rref_pivots(w)
                free = [c for c in range(n) if c not in piv]
                found = []
                for b in self._subspaces(len(free))[0]:
                    lift = np.zeros((b.rows, n), dtype=np.uint8)
                    lift[:, free] = b.a
                    red, rank, _ = Mat(self.ctx, np.concatenate([w.a, lift])).rref()
                    found.append(index[red.a[:rank].tobytes()])
                hit = sorted(found)
            self._superset_memo[key] = hit
        return hit

    def census(self, key: ClassKey) -> Dict[tuple, int]:
        """Counts of stable subspace tuples by (quotient class, sub class).

        census[((gq, iq), (gs, is_))] = number of subrepresentations of the
        canonical representative isomorphic to class (gs, is_) with
        quotient of class (gq, iq).

        The stable tuples are generated, not filtered: vertices are chosen in
        index order, and at vertex v the candidates for U_v are the subspaces
        containing W_v, the sum of the images of the chosen U_s under the
        arrows s -> v with s < v.  Only loops and arrows into a lower vertex
        are tested.  Candidates come in `_subspaces` order, so tuples, and
        the census keys, appear in the order of a walk over all tuples.
        """
        grade, idx = key
        sl = self.slice(grade)
        hit = sl.census_cache.get(idx)
        if hit is not None:
            return hit
        rep = sl.classes[idx].canon
        n = self.quiver.n
        bases = [self._subspaces(d)[0] for d in grade]
        pivots = [self._subspaces(d)[1] for d in grade]
        total_tuples = 1
        for b in bases:
            total_tuples *= len(b)
        self.caps.check("subspace_enum", total_tuples)

        forward = [[] for _ in range(n)]  # arrows s -> v with s < v
        tested = [[] for _ in range(n)]   # loops and arrows v -> t with t < v
        for a_idx, (s, t) in enumerate(self.quiver.arrows):
            if s < t:
                forward[t].append((a_idx, s))
            else:
                tested[s].append((a_idx, t))

        def image(a_idx: int, s: int) -> np.ndarray:
            """Rows spanning the image of the chosen U_s under arrow a_idx."""
            return (rep.mats[a_idx] @ bases[s][chosen[s]].transpose()).a.T

        def candidates(v: int) -> List[int]:
            src = tuple(chosen[s] for _, s in forward[v])
            found = cand_memo[v].get(src)
            if found is None:
                rows = [image(a_idx, s) for a_idx, s in forward[v] if chosen[s]]
                w = bases[v][0]  # the zero subspace
                if rows:
                    red, rank, _ = Mat(self.ctx, np.concatenate(rows)).rref()
                    w = Mat(self.ctx, red.a[:rank])
                found = cand_memo[v][src] = self._supersets(w)
            return found

        def stable(v: int) -> bool:
            if not chosen[v]:
                return True  # the zero subspace maps into anything
            for a_idx, t in tested[v]:
                # the image lies in U_t iff it equals its pivot coordinates times U_t
                img = image(a_idx, v)
                coords = Mat(self.ctx, img[:, pivots[t][chosen[t]]])
                if not np.array_equal((coords @ bases[t][chosen[t]]).a, img):
                    return False
            return True

        out: Dict[tuple, int] = {}
        chosen: List[int] = [0] * n  # positions; position 0 is the zero subspace
        cand_memo: List[dict] = [{} for _ in range(n)]

        def assign(v: int):
            if v == n:
                sub, quot = sub_quotient(rep, [bases[i][chosen[i]] for i in range(n)])
                k = (self.identify(quot), self.identify(sub))
                out[k] = out.get(k, 0) + 1
                return
            for i in candidates(v):
                chosen[v] = i
                if stable(v):
                    assign(v + 1)

        assign(0)
        sl.census_cache[idx] = out
        return out

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

