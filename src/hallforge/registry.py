"""Registries of isomorphism classes of quiver representations.

A registry holds, per (quiver, field, dimension vector), the ordered list
of isomorphism classes together with automorphism orders, indecomposable
flags, Krull-Schmidt summand data and structural flags.  Two enumeration
modes feed it:

* orbit mode: when the ambient tuple space q^(#matrix entries) fits under
  the cap, the base-change orbits are walked exactly (vectorized BFS over
  group generators).  The canonical representative is the
  lexicographically least matrix tuple of the orbit, the automorphism
  order is group order / orbit size, and identification of an arbitrary
  representation is a single table lookup.

* constructive mode: above the cap, classes are generated without
  touching the ambient space: on acyclic quivers as iterated extensions
  by a simple at a support sink, on the one-loop quiver by conjugacy-type
  data (irreducible polynomial, partition).  Identification goes through
  certified Krull-Schmidt decompositions or complete rank fingerprints,
  and automorphism orders come from the endomorphism-ring structure.

  Extension cocycles are enumerated one per F_q^* line: the zero cocycle
  and those whose first nonzero free entry is 1.  Rescaling the new basis
  vector at the support sink by 1/c maps the middle term of c*xi onto that
  of xi (arrows out of the sink vanish on the support), and the kept
  cocycle is the first of its line in enumeration order, so the candidate
  that first registers each class is unchanged.  A candidate, or any
  representation of a constructive slice, is identified by one Fitting
  split: each half whose grade is already built is identified there and
  contributes its registered summands, and only halves of unbuilt grades
  are split further.

Every slice, in either mode, must pass the exact mass identity
sum over classes of |G| / |Aut| = #points of the ambient space, which
certifies completeness and all automorphism orders at once.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CAPS, Caps
from .errors import CapExceeded, CertificateError
from .gf import (GF, Mat, char_poly, gl_order, monic_irreducibles,
                 poly_divmod, poly_mul, subspaces_of_dim)
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


def encode_rep(rep: Rep) -> int:
    code = 0
    q = rep.ctx.q
    for m in rep.mats:
        for x in m.a.reshape(-1):
            code = code * q + int(x)
    return code


def decode_rep(quiver: Quiver, ctx: GF, dims: tuple, code: int) -> Rep:
    e = _entry_count(quiver, dims)
    digits = [0] * e
    for t in range(e - 1, -1, -1):
        digits[t] = code % ctx.q
        code //= ctx.q
    mats, pos = [], 0
    for (s, t) in quiver.arrows:
        size = dims[t] * dims[s]
        block = np.array(digits[pos: pos + size], dtype=np.uint8).reshape(dims[t], dims[s])
        mats.append(Mat(ctx, block))
        pos += size
    return Rep(quiver, ctx, dims, tuple(mats))


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
# grade slices


class GradeSlice:
    def __init__(self, grade: tuple, mode: str):
        self.grade = grade
        self.mode = mode
        self.classes: List[IsoClass] = []
        self.by_summands: Dict[tuple, int] = {}
        self.code_to_class: Optional[np.ndarray] = None  # orbit mode
        self.fingerprint_to_class: Dict[tuple, int] = {}  # one-loop constructive mode
        self.indec_buckets: Dict[tuple, list] = {}
        self.bytes_cache: Dict[bytes, int] = {}
        self.census_cache: Dict[int, dict] = {}

    def __len__(self):
        return len(self.classes)


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
        self._is_cyclic = (
            quiver.n >= 2
            and sorted(quiver.arrows) == sorted(((i, (i + 1) % quiver.n) for i in range(quiver.n)))
        )
        if nilpotent_only and not (self._is_cyclic or self._is_one_loop):
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
        grade = rep.dims
        sl = self.slice(grade)
        if sl.mode == "zero":
            return (grade, 0)
        if sl.mode == "orbit":
            return (grade, int(sl.code_to_class[encode_rep(rep)]))
        buf = rep.tobytes()
        hit = sl.bytes_cache.get(buf)
        if hit is not None:
            return (grade, hit)
        if self._is_one_loop:
            idx = self._one_loop_identify(sl, rep)
        else:
            idx = self._ks_identify(sl, rep, register_new=False)
        sl.bytes_cache[buf] = idx
        return (grade, idx)

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
        if not self.nilpotent_only:
            return self.ctx.q ** _entry_count(self.quiver, grade)
        return self._count_nilpotent_ambient(grade)

    # -- construction dispatch; every built slice must pass the mass identity

    def _build(self, grade: tuple) -> GradeSlice:
        if all(x == 0 for x in grade):
            sl = GradeSlice(grade, "zero")
            z = zero_rep(self.quiver, self.ctx)
            sl.classes.append(IsoClass(grade, 0, z, 1, False, (), True))
            sl.by_summands[()] = 0
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

    # -- orbit mode

    def _build_orbit(self, grade: tuple) -> GradeSlice:
        quiver, ctx = self.quiver, self.ctx
        e = _entry_count(quiver, grade)
        q = ctx.q
        ambient = q ** e
        self.caps.check_memory(ambient * 10)
        sl = GradeSlice(grade, "orbit")

        # slices of the digit vector per arrow
        spans = []
        pos = 0
        for (s, t) in quiver.arrows:
            size = grade[t] * grade[s]
            spans.append((pos, pos + size, grade[t], grade[s]))
            pos += size

        gens = []  # (vertex, g, g_inv)
        for v in range(quiver.n):
            for g in _gl_generators(ctx, grade[v]):
                gens.append((v, g.a, g.inverse().a))

        if self.nilpotent_only:
            allowed = self._nilpotent_mask(grade, e, ambient)
        else:
            allowed = None

        class_of = np.full(ambient, -1, dtype=np.int64)
        if allowed is not None:
            class_of[~allowed] = -2  # excluded from this registry
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

        for idx, (seed, size) in enumerate(seeds):
            canon = decode_rep(quiver, ctx, grade, seed)
            if group % size:
                raise CertificateError("orbit size", grade, f"a divisor of |G| = {group}", size)
            sl.classes.append(
                IsoClass(grade, idx, canon, group // size, False, (), False)
            )
        sl.code_to_class = class_of
        self._fill_structure(sl)
        return sl

    def _nilpotent_mask(self, grade: tuple, e: int, ambient: int) -> np.ndarray:
        """Boolean mask of nilpotent points (cyclic and one-loop quivers)."""
        quiver, ctx = self.quiver, self.ctx
        q = ctx.q
        codes = np.arange(ambient, dtype=np.int64)
        digs = _decode_batch(codes, e, q)
        # composite map around the cycle, starting at vertex 0
        n = quiver.n
        arr_of = {}
        pos = 0
        for (s, t) in quiver.arrows:
            size = grade[t] * grade[s]
            arr_of[s] = (pos, pos + size, grade[t], grade[s])
            pos += size
        comp = None
        for v in range(n):
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

    def _fill_structure(self, sl: GradeSlice) -> None:
        """Krull-Schmidt data, flags and summand keys for every class."""
        for c in sl.classes:
            counts: Dict[ClassKey, int] = {}
            if self._summands(c.canon, counts):
                c.summands = tuple(sorted(counts.items()))
            else:
                c.indec = True
                c.res_degree = residue_degree(c.canon, self.caps)
                c.summands = (((c.grade, c.index), 1),)
            c.nilpotent = is_nilpotent_rep(c.canon)
            sl.by_summands[c.summands] = c.index

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
                cand = Rep(quiver, ctx, grade, tuple(mats))
                self._ks_identify(sl, cand, register_new=True)
        self._order_constructive(sl)
        return sl

    @staticmethod
    def _indec_signature(rep: Rep, h_end: int) -> tuple:
        return (h_end, tuple(m.rank() for m in rep.mats))

    def _ks_identify(self, sl: GradeSlice, rep: Rep, register_new: bool) -> int:
        buf = rep.tobytes()
        hit = sl.bytes_cache.get(buf)
        if hit is not None:
            return hit
        counts: Dict[ClassKey, int] = {}
        if not self._summands(rep, counts):
            sig = self._indec_signature(rep, hom_dim(rep, rep))
            idx = None
            for j in sl.indec_buckets.get(sig, ()):
                if iso_indecomposables(rep, sl.classes[j].canon):
                    idx = j
                    break
            if idx is None:
                if not register_new:
                    raise CertificateError("identification", sl.grade,
                                           "a registered indecomposable",
                                           f"none with signature {sig}")
                idx = self._register_constructive(sl, rep, indec=True)
                sl.indec_buckets.setdefault(sig, []).append(idx)
            counts[(sl.grade, idx)] = 1
        key = tuple(sorted(counts.items()))
        found = sl.by_summands.get(key)
        if found is None:
            if not register_new:
                raise CertificateError("identification", sl.grade,
                                       "a registered class", f"summands {key}")
            found = self._register_constructive(sl, None, indec=False, summands=key)
        sl.bytes_cache[buf] = found
        return found

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

    def _register_constructive(self, sl: GradeSlice, rep: Optional[Rep],
                               indec: bool, summands: Optional[tuple] = None) -> int:
        idx = len(sl.classes)
        if indec:
            canon = rep
            summands = (((sl.grade, idx), 1),)
            t = residue_degree(canon, self.caps)
            h_end = hom_dim(canon, canon)
            aut = aut_order_from_summands(h_end, [(1, t)], self.ctx.q)
            cls = IsoClass(sl.grade, idx, canon, aut, True, summands,
                           is_nilpotent_rep(canon), res_degree=t)
        else:
            parts, data = [], []
            for (g, i), mult in summands:
                piece = sl.classes[i] if g == sl.grade else self.cls((g, i))
                parts.extend([piece.canon] * mult)
                data.append((mult, piece.res_degree))
            canon = direct_sum_all(parts, self.quiver, self.ctx)
            h_end = hom_dim(canon, canon)
            aut = aut_order_from_summands(h_end, data, self.ctx.q)
            cls = IsoClass(sl.grade, idx, canon, aut, False, summands,
                           is_nilpotent_rep(canon))
        sl.classes.append(cls)
        sl.by_summands[summands] = idx
        return idx

    def _order_constructive(self, sl: GradeSlice) -> None:
        """Stable deterministic order: indecomposables first by byte string."""
        order = sorted(range(len(sl.classes)),
                       key=lambda i: (not sl.classes[i].indec, sl.classes[i].canon.tobytes()))
        remap = {old: new for new, old in enumerate(order)}
        new_classes = []
        for new, old in enumerate(order):
            c = sl.classes[old]
            c.index = new
            c.summands = tuple(sorted(
                (((g, remap[i] if g == sl.grade else i), m) for (g, i), m in c.summands)
            ))
            new_classes.append(c)
        sl.classes = new_classes
        sl.by_summands = {c.summands: c.index for c in new_classes}
        # a canonical representative identifies as its own class; the census
        # meets it as the sub on the full tuple and the quotient by zero
        sl.bytes_cache = {c.canon.tobytes(): c.index for c in new_classes}
        sl.indec_buckets = {}
        for c in new_classes:
            if c.indec:
                sig = self._indec_signature(c.canon, hom_dim(c.canon, c.canon))
                sl.indec_buckets.setdefault(sig, []).append(c.index)

    # -- constructive mode: one-loop quiver, conjugacy-type data

    def _one_loop_types(self, n: int) -> List[tuple]:
        """All multisets of (irreducible poly, partition) with total weight n."""
        ctx = self.ctx
        irr = monic_irreducibles(ctx, n)
        polys = []
        for d in range(1, n + 1):
            for f in irr[d]:
                if self.nilpotent_only and (d > 1 or f[0] != 0):
                    continue
                polys.append((d, tuple(f)))
        out = []

        def rec(i: int, budget: int, acc: list):
            if budget == 0:
                out.append(tuple(sorted(acc)))
                return
            if i == len(polys):
                return
            d, f = polys[i]
            rec(i + 1, budget, acc)
            for lam in _partitions_up_to(budget // d):
                if lam and sum(lam) * d <= budget:
                    acc.append((f, lam))
                    rec(i + 1, budget - sum(lam) * d, acc)
                    acc.pop()

        rec(0, n, [])
        return sorted(out)

    def _companion(self, poly: tuple) -> Mat:
        ctx = self.ctx
        m = len(poly) - 1
        a = np.zeros((m, m), dtype=np.uint8)
        for i in range(m - 1):
            a[i + 1, i] = 1
        for i in range(m):
            a[i, m - 1] = ctx.neg(poly[i])
        return Mat(ctx, a)

    def _one_loop_rep(self, typ: tuple) -> Rep:
        ctx = self.ctx
        blocks = None
        for f, lam in typ:
            for part in lam:
                comp = self._companion(tuple(_poly_pow_full(ctx, f, part)))
                blocks = comp if blocks is None else blocks.block_diag(comp)
        return Rep(self.quiver, ctx, (blocks.rows,), (blocks,))

    def _build_one_loop(self, grade: tuple) -> GradeSlice:
        n = grade[0]
        sl = GradeSlice(grade, "constructive")
        for idx, typ in enumerate(self._one_loop_types(n)):
            canon = self._one_loop_rep(typ)
            aut = 1
            for f, lam in typ:
                aut *= a_lambda(self.ctx.q ** (len(f) - 1), lam)
            indec = len(typ) == 1 and len(typ[0][1]) == 1
            nilp = all(len(f) == 2 and f[0] == 0 for f, _ in typ)
            cls = IsoClass(grade, idx, canon, aut, indec, (), nilp)
            if indec:
                cls.res_degree = len(typ[0][0]) - 1
                cls.summands = ((cls.key, 1),)
            else:
                # the pieces (poly, single part) of a decomposable type are
                # indecomposables of lower grades
                counts: Dict[ClassKey, int] = {}
                for f, lam in typ:
                    for part in lam:
                        key = self.identify(self._one_loop_rep(((f, (part,)),)))
                        counts[key] = counts.get(key, 0) + 1
                cls.summands = tuple(sorted(counts.items()))
            sl.classes.append(cls)
            sl.fingerprint_to_class[typ] = idx
            sl.by_summands[cls.summands] = idx
        return sl

    def _one_loop_identify(self, sl: GradeSlice, rep: Rep) -> int:
        typ = one_loop_fingerprint(rep)
        idx = sl.fingerprint_to_class.get(typ)
        if idx is None:
            raise CertificateError("identification", sl.grade,
                                   "a registered conjugacy type", typ)
        return idx

    # -- nilpotent ambient count (mass identity in nilpotent-only mode)

    def _count_nilpotent_ambient(self, grade: tuple) -> int:
        e = _entry_count(self.quiver, grade)
        ambient = self.ctx.q ** e
        self.caps.check("tuple_count", ambient)
        if e == 0:
            return 1
        mask = self._nilpotent_mask(grade, e, ambient)
        return int(mask.sum())

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


# ---------------------------------------------------------------------------
# partitions and automorphism counts


def _partitions_up_to(n: int) -> List[tuple]:
    """All nonempty partitions of 1..n, each as a weakly decreasing tuple."""
    out = []
    for total in range(1, n + 1):
        out.extend(partitions_of(total))
    return out


def partitions_of(n: int) -> List[tuple]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, max_part: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def n_weight(lam: Sequence) -> int:
    """n(lambda) = sum (i-1) * lambda_i."""
    return sum(i * part for i, part in enumerate(lam))


def a_lambda(q: int, lam: Sequence) -> int:
    """Automorphism count of the nilpotent one-loop module of type lambda."""
    lam = tuple(sorted(lam, reverse=True))
    mult: Dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    val = Fraction(q) ** (sum(lam) + 2 * n_weight(lam))
    for m in mult.values():
        for j in range(1, m + 1):
            val *= 1 - Fraction(1, q ** j)
    if val.denominator != 1:
        raise CertificateError(f"automorphism count of type {lam} at q = {q}", None,
                               "an integer", val)
    return int(val)


def _poly_pow_full(ctx: GF, f: Sequence, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(ctx, out, list(f))
    return out


def one_loop_fingerprint(rep: Rep) -> tuple:
    """Complete invariant of a one-loop representation.

    Factors the characteristic polynomial and reads off the partition at
    each irreducible factor from the rank chain of its matrix powers.
    """
    ctx = rep.ctx
    a = rep.mats[0]
    n = a.rows
    cp = char_poly(a)
    irr = monic_irreducibles(ctx, n)
    typ = []
    rest = cp
    for d in range(1, n + 1):
        for f in irr[d]:
            expo = 0
            while len(rest) > 1:
                quot, rem = poly_divmod(ctx, rest, f)
                if rem:
                    break
                rest = quot
                expo += 1
            if expo == 0:
                continue
            # partition from rank chain of phi(A)^j
            b = _eval_poly_at_matrix(ctx, f, a)
            ranks = [n]
            power = Mat.identity(ctx, n)
            while True:
                power = power @ b
                r = power.rank()
                ranks.append(r)
                if r == ranks[-2]:
                    break
            blocks = []
            for j in range(1, len(ranks)):
                diff = ranks[j - 1] - ranks[j]
                if diff % d:
                    raise CertificateError("one-loop rank chain", (n,),
                                           f"rank drops divisible by {d}", ranks)
                blocks.append(diff // d)
            lam: List[int] = []
            for j in range(len(blocks)):
                nxt = blocks[j + 1] if j + 1 < len(blocks) else 0
                lam.extend([j + 1] * (blocks[j] - nxt))
            lam_t = tuple(sorted(lam, reverse=True))
            if sum(lam_t) != expo:
                raise CertificateError("one-loop partition", (n,),
                                       f"a partition of {expo}", lam_t)
            typ.append((tuple(f), lam_t))
    return tuple(sorted(typ))


def _eval_poly_at_matrix(ctx: GF, poly: Sequence, a: Mat) -> Mat:
    acc = Mat.zeros(ctx, a.rows, a.cols)
    for c in reversed(list(poly)):
        acc = acc @ a
        if c:
            acc = acc + Mat.identity(ctx, a.rows).scale(int(c))
    return acc
