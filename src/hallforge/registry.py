"""Registries of isomorphism classes of quiver representations.

A registry holds, per (quiver, field, dimension vector), the ordered list
of isomorphism classes together with automorphism orders, indecomposable
flags, Krull-Schmidt summand data and structural flags.  Each grade slice
is built in one of three ways, and the build leaves on it what identifies
its representations:

* orbit mode: when the ambient tuple space q^(#matrix entries) fits under
  the cap, the base-change orbits are walked exactly on base-q codes
  (`orbits`: `_walk_orbits`, the one breadth-first walk, which also
  groups extension cocycles, and `_base_change_images`).  The
  canonical representative is the lexicographically least matrix tuple
  of the orbit and the automorphism order is group order / orbit size.
  A point walk's slice `table` maps the base-q code of every point to its
  class; the zero grade has the one-entry table of the zero representation.
  Every class table is int32.

  Above `_REDUCE_ABOVE` points, a grade whose support has a loop-free sink
  or source walks the row spaces there instead of the points
  (`orbits._RowSpaces`), at the vertex whose reduced space, subspaces of
  dim <= d_v times the codes of the other blocks, is smallest, chosen
  from Gaussian binomials (`_row_spaces`).  Its first points and sizes,
  so its classes and their order, are those of the point walk, but its
  `table` has one class per reduced code (211 entries, not 531,441, for
  Kronecker (2,3) over GF(3)), and the slice keeps the `_RowSpaces`
  (`spaces`) that codes a point by its row space and other blocks.  A
  grade whose subspaces would exceed the `subspace_enum` cap, or whose
  reduced walk would not fit in memory, keeps the point walk, as do
  full-support cyclic grades and the one-loop quiver, which have no sink
  or source.  A nilpotent-only point walk skips the points its one
  nilpotency mask excludes (a reduced grade's support is acyclic, so it
  has none to skip); the mask reads the composite around the cycle
  through one product table per arrow and a table of the nilpotent
  square codes, built once per grade (`_nilpotent_mask`), and is filled
  over blocks of a fixed number of points.

* constructive mode on the one-loop quiver: the classes are conjugacy
  types (irreducible polynomial, partition) from `oneloop`, with their
  automorphism counts `oneloop.a_lambda`.  The slice classifies through
  `SplitIndex`, like an acyclic one: its build files the indecomposable
  canonical representatives in the index's signature buckets.

* constructive mode on acyclic quivers: classes are iterated extensions
  by a simple at a support sink (`orbits.SinkExtensions`), without
  touching the ambient space.
  Extension cocycles are enumerated one per F_q^* line: the zero cocycle
  and those whose first nonzero free entry is 1.  Rescaling the new basis
  vector at the support sink by 1/c maps the middle term of c*xi onto
  that of xi (arrows out of the sink vanish on the support), and the kept
  cocycle is the first of its line, so the candidate that first registers
  each class is unchanged.

  Of the lines of one base class A, the build registers only the first
  of each orbit of a subgroup H of Aut(A), generated by the invertible
  elements b and 1 + c*b (c in F_q^*) of the basis of End(A), decided for
  every base class of a level at once (`SinkExtensions._aut_generators`).
  For phi in Aut(A), phi_s at s != v and diag(1, phi_v) at v map the middle term of
  xi.phi, where (xi.phi)_alpha = xi_alpha phi_s, isomorphically onto that
  of xi, so the lines of one orbit have isomorphic middle terms.  The
  first candidate of any class is the first line of its own orbit, so it
  is still registered and canonical representatives and class order do
  not change; a smaller H would only skip less.  The line count of a
  level, the sum over A of (q^free - 1)/(q - 1) + 1, is checked against
  the `candidates` cap, and the registry's running sum of line counts
  against the `total_candidates` budget, before any line is enumerated.

  A build finds the Krull-Schmidt summands of its candidates, or of an
  orbit slice's canonical representatives, as one stack (`_summands`):
  one Fitting split each, into the sub ker g and the quotient m / ker g,
  then the halves by grade, largest first, each grade's halves as one
  stack.  A built grade identifies its halves and adds their registered
  summands; an unbuilt grade splits its halves further, by one
  `reps.end_splits`, and identifies the indecomposable ones with their
  End bases (building the slice).  In each stack, the representations
  that no basis element or pair sum splits get the full End scan as one
  stack (`reps.scan_splitters`), up to the first whose scan exceeds the
  end-scan cap, which raises at its turn in candidate order.  A
  representation is indecomposable exactly when the split adds no
  summand; `SplitIndex` then compares it with the registered
  indecomposables of its (dim End, arrow ranks), in rounds over the
  whole stack.  Automorphism orders and residue degrees come from the
  End basis (kernel rows) the split searched: a new decomposable class is
  isomorphic to the candidate that registers it, so dim End of its
  canonical representative is the length of that basis.  A class whose
  canonical representative was solved keeps that basis (`IsoClass.end`)
  for the extensions built on it.

Every grade identifies a stack of representations by their digit rows
(`_identify_stack`; `identify` is a stack of one): a zero or orbit slice
gathers from its `table` at the rows' codes, base-q point codes or, on a
reduced slice, reduced codes (`_RowSpaces.codes`); a constructive slice
looks the rows up in `known`, which its build fills with its canonical
representatives, and has its index `classify` the rows not met yet as one
stack.  `SplitIndex.classify` splits that stack as `SplitIndex.register`
splits a build's candidates.

Every slice must pass the exact mass identity sum over classes of
|G| / |Aut| = #points of the ambient space, which certifies completeness
and all automorphism orders at once.  An orbit slice also checks each
class on its own: |G| / orbit size must be |Aut| as the structure of End
gives it, q^(dim rad) times the orders of the GL_m(F_q^t) of its summands
(orbit-stabilizer).  In a nilpotent-only registry the
points are the nilpotent ones: q^(n(n-1)) on the one-loop quiver
(Fine-Herstein), in either mode, and on a cyclic quiver the points the
orbit walk's mask kept.

The submodule censuses of the classes of one grade are taken as one stack
of canonical representatives (`censuses`; `census` is a stack of one).
The registry keeps, per vertex dimension, a basis adapted to each
subspace, in the order of `gf.subspace_blocks`, the one enumeration of
subspaces.  In those bases every arrow is
tested the same way, on one block table per arrow for a chunk of
representatives, counted against a fixed byte budget and the memory cap;
the stable tuples are walked one vertex at a time on rows (representative,
positions), and the subs and quotients are diagonal blocks gathered from
the same tables, identified by one `_identify_stack` per rank vector.
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
from .gf import GF, Mat, gaussian_binomial, gl_order, subspace_blocks
from .oneloop import a_lambda, one_loop_rep, one_loop_types
from .orbits import (SinkExtensions, _base_change_images, _decode_batch, _encode_batch,
                     _entry_count, _RowSpaces, _spans, _walk_orbits)
from .quiver import Quiver, classify_type, euler_form
from .reps import (Rep, aut_order_from_summands, digit_rows, direct_sum_all,
                   end_splits, hom_stack, is_nilpotent_rep, isomorphic_stack,
                   pri_of_defect, residue_degree, scan_splitters,
                   sub_quotient_stack, unique_rows, zero_rep)

ClassKey = Tuple[tuple, int]  # (grade, index within grade)
_MASK_BLOCK = 1 << 14  # points per block of a nilpotency mask
_REDUCE_ABOVE = 1 << 7  # points above which an orbit walk is reduced at a sink or source
_CENSUS_BYTES = 1 << 20  # block-table bytes per chunk of a stacked census


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
    # the End basis of `canon` as kernel rows when the build solved it: every
    # orbit class and every indecomposable constructive class
    end: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
    """The representation of a point code of `dims`, in [0, q^e) for e matrix
    entries, decoded in Python integers."""
    q, e, code = ctx.q, _entry_count(quiver, dims), int(code)
    if not 0 <= code < q ** e:
        raise HallforgeError(f"code {code} is not a point of grade {dims} over "
                             f"GF({q}): it must be in [0, {q}^{e})")
    digits = np.array([code // q ** (e - 1 - t) % q for t in range(e)], dtype=np.uint8)
    return _rep_of(quiver, ctx, dims, digits)


# ---------------------------------------------------------------------------
# grade slices and their identification indexes


class SplitIndex:
    """Constructive slices: Fitting splits of a stack, then lookups.

    A decomposable representation is found by its summands.  An
    indecomposable one is compared with the registered indecomposables of
    its signature (dim End, arrow ranks), whose classes the buckets hold,
    by an invertible element of a Hom basis (`reps.isomorphic_stack`).
    A stack is classified in stacked phases: End and the splits by basis
    elements and pair sums (`end_splits`), the summands, with one full End
    scan of the rows those leave unsplit (`IsoRegistry._summands`), the
    signatures of every indecomposable row from one `GF.ranks`
    (`signatures`), and the identification in rounds
    (`_match`), each one `hom_stack` and one `GF.ranks`.  Each row is then
    placed at its turn, in row order (`_place`), where a cap or a missing
    class raises.
    """

    def __init__(self, reg: "IsoRegistry", sl: "GradeSlice"):
        self.reg = reg
        self.sl = sl
        self.buckets: Dict[tuple, List[IsoClass]] = {}

    def signatures(self, reps: Sequence[Rep], h_ends: Sequence[int]) -> List[tuple]:
        """The buckets of indecomposables of the slice's grade with dims End
        `h_ends`: their arrow ranks come from one `GF.ranks`."""
        if not reps:
            return []
        arrows = len(reps[0].mats)
        ranks = self.reg.ctx.ranks([np.stack([rep.mats[a].a for rep in reps])
                                    for a in range(arrows)])
        return [(h, tuple(r)) for h, r in zip(h_ends, ranks.reshape(arrows, len(reps)).T.tolist())]

    def file(self, classes: Sequence[IsoClass]) -> None:
        """File indecomposable classes in their buckets, End solved for
        their canonical representatives as one `hom_stack`."""
        canons = [c.canon for c in classes]
        for c, sig in zip(classes, self.signatures(canons, hom_stack(canons, canons)[1].tolist())):
            self.buckets.setdefault(sig, []).append(c)

    def classify(self, reps: Sequence[Rep], ends: Optional[list] = None) -> List[int]:
        """The classes, in row order, of a stack of representations of the
        slice's grade, which must be registered.  `ends`, when given, holds
        the End bases of representations certified indecomposable."""
        return self._classify(reps, ends, register=False)

    def register(self, reps: Sequence[Rep]) -> None:
        """Register the classes of a stack of build candidates, in order."""
        self._classify(reps, None, register=True)

    def _classify(self, reps: Sequence[Rep], ends: Optional[list], register: bool) -> List[int]:
        """End and the summands are solved for the whole stack at once
        (`end_splits` and `IsoRegistry._summands`) unless `ends` is given,
        and the indecomposable rows are matched (`_match`); each row is then
        placed at its turn, in row order.  A row left to a full scan over the
        end-scan cap stops the stack: the rows after it are not matched, and
        the cap fires at its turn."""
        if ends is None:
            splits = end_splits(reps)
            ends = [basis for basis, _ in splits]
            found = self.reg._summands(reps, splits)
        else:
            found = [{} for _ in reps]
        stop = next((i for i, counts in enumerate(found) if counts is None), len(reps))
        matches = self._match(reps, ends, [i for i in range(stop) if not found[i]], register)
        return [self._place(rep, basis, counts, matches.get(i), register)
                for i, (rep, basis, counts) in enumerate(zip(reps, ends, found))]

    def _match(self, reps: Sequence[Rep], ends: list, rows: List[int],
               register: bool) -> Dict[int, tuple]:
        """The signature and class, or None, of each indecomposable row
        `rows` of a stack, found in rounds, each one `isomorphic_stack` of
        the pairs it tests.  Round 0 tests each row against the classes
        already in the bucket of its signature.  In register mode, each
        later round takes the first unplaced row of every signature as a new
        class and tests the rest of that signature against it, so the first
        occurrence of a class is its canonical representative and a row is
        tested against at most the classes before its own."""
        if not rows:
            return {}
        reg, sl = self.reg, self.sl
        sigs = dict(zip(rows, self.signatures([reps[i] for i in rows],
                                              [len(ends[i]) for i in rows])))
        out: Dict[int, int] = {}

        def test(pairs):  # (row, class) pairs; the first match of a row counts
            if pairs:
                hits = isomorphic_stack([reps[i] for i, _ in pairs], [c.canon for _, c in pairs])
                for (i, c), hit in zip(pairs, hits.tolist()):
                    if hit:
                        out.setdefault(i, c.index)

        test([(i, c) for i in rows for c in self.buckets.get(sigs[i], [])])
        left: Dict[tuple, List[int]] = {}  # signature -> its unplaced rows, in order
        for i in rows:
            if register and i not in out:
                left.setdefault(sigs[i], []).append(i)
        while left:
            pairs = []
            for sig, todo in left.items():
                first = todo[0]
                _, t, aut = reg._class_data(reps[first], ends[first], {})
                cls = reg._add_class(sl, reps[first], aut, res_degree=t, end=ends[first])
                self.buckets.setdefault(sig, []).append(cls)
                out[first] = cls.index
                pairs += [(i, cls) for i in todo[1:]]
            test(pairs)
            left = {sig: [i for i in todo if i not in out] for sig, todo in left.items()}
            left = {sig: todo for sig, todo in left.items() if todo}
        return {i: (sigs[i], out.get(i)) for i in rows}

    def _place(self, rep: Rep, basis: np.ndarray, counts: Optional[Dict[ClassKey, int]],
               match: Optional[tuple], register: bool) -> int:
        """The class of `rep` at its turn, given its End basis, its summands
        (None when its full End scan exceeds the end-scan cap, which fires
        now) and, for an indecomposable, the (signature, class or None) that
        `_match` found."""
        reg, sl = self.reg, self.sl
        if counts is None:
            reg.caps.check("end_scan", reg.ctx.q ** len(basis))
        if not counts:
            sig, idx = match
            if idx is None:
                raise CertificateError("identification", sl.grade,
                                       "a registered indecomposable",
                                       f"none with signature {sig}")
            return idx
        key = tuple(sorted(counts.items()))
        idx = sl.by_summands.get(key)
        if idx is None:
            if not register:
                raise CertificateError("identification", sl.grade,
                                       "a registered class", f"summands {key}")
            # rep is isomorphic to canon, so dim End(canon) = dim End(rep)
            _, _, aut = reg._class_data(rep, basis, counts)
            canon = direct_sum_all([reg.cls(k).canon for k, mult in key for _ in range(mult)],
                                   reg.quiver, reg.ctx)
            idx = reg._add_class(sl, canon, aut, key).index
        return idx


class GradeSlice:
    """The classes of one grade, in a fixed order.  `mode` is "zero", "orbit"
    or "constructive".  A zero or orbit slice has the int32 `table` of the
    class of every point code (negative if excluded), or with the `spaces`
    of a reduced walk of every reduced code (`_RowSpaces.codes`); a
    constructive slice has an `index` to `classify` a representation and
    the classes `known` by the bytes of digit rows."""

    def __init__(self, grade: tuple, mode: str, table=None,
                 spaces: Optional[_RowSpaces] = None):
        self.grade = grade
        self.mode = mode
        self.index: Optional[SplitIndex] = None
        self.table = table
        self.spaces = spaces
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
        self.hom_cache: Dict[Tuple[ClassKey, ClassKey], int] = {}  # see cuspidal._hom_dims
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
            sl = GradeSlice(grade, "zero", table=np.zeros(1, dtype=np.int32))
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
        if sl.table is None:  # a constructive slice knows its canonical representatives
            sl.known = {digit_rows([m.a[None] for m in c.canon.mats], 1).tobytes(): c.index
                        for c in sl.classes}
        self._annotate(sl)
        self._mass_check(sl, points)
        return sl

    def _add_class(self, sl: GradeSlice, canon: Rep, aut: int, summands: Optional[tuple] = None,
                   res_degree: Optional[int] = None, end: Optional[np.ndarray] = None
                   ) -> IsoClass:
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

    def _summands(self, reps: Sequence[Rep], splits: Sequence[tuple]
                  ) -> List[Optional[Dict[ClassKey, int]]]:
        """The Krull-Schmidt summands, by class key, of each of a stack of
        representations of one grade, given the (End basis, splitter
        kernels) pairs `end_splits` gave them: empty for one certified
        indecomposable, None from the first row left to a full End scan
        over the end-scan cap on (the caller raises at that row's turn).

        One scan step serves every stack: one `scan_splitters` of the rows
        no basis element or pair sum splits, up to the first over the cap.
        The halves of the splits are cut out as stacks, one per grade and
        kernel dimension vector (`sub_quotient_stack`), and collected by
        grade; grades are taken largest first, so every half of a grade is
        in when it is taken.  A grade that is built identifies its halves by
        one `_identify_stack` and adds their registered summands.  An
        unbuilt grade splits its distinct halves by one `end_splits` and the
        scan step, raising the cap before any half is split; the halves of
        those splits join the collection, and the indecomposable ones are
        identified, which builds the slice, so no slice is built that a full
        decomposition would not build.
        """
        quiver, ctx = self.quiver, self.ctx
        pending: Dict[tuple, tuple] = {}  # grade -> (owners per row, block stacks)

        def scan(cands, solved):  # the kernels, and the first row left over the cap
            kers, cap = [k for _, k in solved], self.caps.max_end_scan
            stop = next((j for j, (b, k) in enumerate(solved)
                         if k is None and ctx.q ** len(b) > cap), len(cands))
            left = [j for j in range(stop) if kers[j] is None]
            for j, k in zip(left, scan_splitters([cands[j] for j in left],
                                                 [solved[j][0] for j in left])):
                kers[j] = k
            return kers, stop

        def add(owners, key, mult):
            for owner in owners:
                out[owner][key] = out[owner].get(key, 0) + mult

        def split(items):  # (owners, rep, kernels) of one grade, halves to `pending`
            groups: Dict[tuple, list] = {}  # kernel dimensions -> items
            for item in items:
                groups.setdefault(tuple(k.rows for k in item[2]), []).append(item)
            for kdims, group in groups.items():
                parts = sub_quotient_stack(
                    quiver, ctx, [np.stack([rep.mats[a].a for _, rep, _ in group])
                                  for a in range(len(quiver.arrows))],
                    [np.stack([kers[v].a for _, _, kers in group]) for v in range(quiver.n)])
                quot = tuple(d - k for d, k in zip(group[0][1].dims, kdims))
                for grade, blocks in zip((kdims, quot), parts):
                    owners, stacks = pending.setdefault(grade, ([], []))
                    owners.extend(o for o, _, _ in group)
                    stacks.append(blocks)

        kers, stop = scan(reps, splits)
        out = [{} if i < stop else None for i in range(len(reps))]
        split([([i], reps[i], k) for i, k in enumerate(kers[:stop]) if k is not None])
        while pending:
            grade = max(pending, key=lambda g: (sum(g), g))  # every half of it is in
            owners, stacks = pending.pop(grade)
            blocks = [np.concatenate(b) for b in zip(*stacks)]
            if grade in self.slices:
                classes = self.slices[grade].classes
                for o, i in zip(owners, self._identify_stack(grade, blocks, len(owners))):
                    for key, mult in classes[i].summands:
                        add(o, key, mult)
                continue
            rows: Dict[bytes, tuple] = {}  # distinct halves: first row, owners
            for r, (o, digits) in enumerate(zip(owners, digit_rows(blocks, len(owners)))):
                rows.setdefault(digits.tobytes(), (r, []))[1].extend(o)
            cands = [Rep(quiver, ctx, grade, tuple(Mat(ctx, b[r]) for b in blocks))
                     for r, _ in rows.values()]
            indec, items = [], []
            solved = end_splits(cands)
            kers, stop = scan(cands, solved)
            if stop < len(cands):  # raises: this half's scan exceeds the cap
                self.caps.check("end_scan", ctx.q ** len(solved[stop][0]))
            for (r, o), rep, (basis, _), k in zip(rows.values(), cands, solved, kers):
                if k is None:
                    indec.append((r, o, basis))
                else:
                    items.append((o, rep, k))
            split(items)
            if indec:  # identified with their End bases: a miss needs no second solve
                sel, owned, bases = zip(*indec)
                found = self._identify_stack(grade, [b[list(sel)] for b in blocks], len(sel),
                                             bases)
                for o, i in zip(owned, found.tolist()):
                    add(o, (grade, i), 1)
        return out

    def _class_data(self, rep: Rep, basis: np.ndarray, counts: Dict[ClassKey, int]
                    ) -> Tuple[Optional[tuple], Optional[int], int]:
        """The summands, residue degree and |Aut| of the class of `rep`,
        given its End basis and its summand counts: no summands and a
        residue degree for an indecomposable (no counts), the sorted
        summands and no residue degree otherwise."""
        if counts:
            summands, res = tuple(sorted(counts.items())), None
            data = [(mult, self.cls(key).res_degree) for key, mult in summands]
        else:
            summands, res = None, residue_degree(rep, basis)
            data = [(1, res)]
        return summands, res, aut_order_from_summands(len(basis), data, self.ctx.q)

    # -- orbit mode

    def _build_orbit(self, grade: tuple) -> Tuple[GradeSlice, int]:
        """The orbit slice of `grade` and its number of points."""
        quiver, ctx = self.quiver, self.ctx
        sl, seeds, sizes, points = self._orbit_partition(grade)
        group = self.group_order(grade)
        for size in sizes:
            if group % size:
                raise CertificateError("orbit size", grade, f"a divisor of |G| = {group}", size)
        canons = [_rep_of(quiver, ctx, grade, digits) for digits in _decode_batch(
            np.array(seeds, dtype=np.int64), _entry_count(quiver, grade), ctx.q)]
        splits = end_splits(canons)
        for canon, size, (basis, _), counts in zip(canons, sizes, splits,
                                                    self._summands(canons, splits)):
            if counts is None:  # its full End scan exceeds the cap
                self.caps.check("end_scan", ctx.q ** len(basis))
            summands, res, aut = self._class_data(canon, basis, counts)
            # orbit-stabilizer: |G| / orbit size is |Aut| as End's structure gives it
            if aut != group // size:
                raise CertificateError("orbit-stabilizer", grade, group // size, aut)
            self._add_class(sl, canon, aut, summands, res_degree=res, end=basis)
        return sl, points

    def _orbit_partition(self, grade: tuple) -> Tuple[GradeSlice, List[int], List[int], int]:
        """The orbit slice of `grade`, with no classes yet: its class table
        (negative on excluded points), and for a reduced walk its
        `_RowSpaces` and one class per reduced code; then the first point
        and size of each orbit in order of first point, and the number of
        points.

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
                labels = np.full(spaces.reduced, -1, dtype=np.int32)
                _walk_orbits(labels, images)
                table, seeds, sizes = spaces.classes(labels)
                sl = GradeSlice(grade, "orbit", table=table, spaces=spaces)
                return sl, seeds, sizes, ambient
        images = _base_change_images(quiver, ctx, grade, self.caps)
        if self.nilpotent_only:  # -2 marks the points excluded from this registry
            nilpotent = self._nilpotent_mask(grade, e, ambient)
            points = self.ambient_count(grade) if self._is_one_loop else int(nilpotent.sum())
            class_of = np.where(nilpotent, np.int32(-1), np.int32(-2))
            del nilpotent  # not held through the walk
        else:
            class_of, points = np.full(ambient, -1, dtype=np.int32), ambient
        seeds, sizes = _walk_orbits(class_of, images)
        return GradeSlice(grade, "orbit", table=class_of), seeds, sizes, points

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
        for ext, gens in zip(exts, SinkExtensions._aut_generators(exts)):
            cocycles, first = ext.orbits(gens)
            candidates += [ext.middle_term(cocycles[i])
                           for i in np.flatnonzero(first == np.arange(ext.count))]
        sl.index.register(candidates)  # all orbit-first candidates as one stack
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

    # -- constructive mode: one-loop quiver, conjugacy-type data

    def _build_one_loop(self, grade: tuple) -> GradeSlice:
        """The conjugacy types of `grade` in type order, their
        indecomposables filed in the slice's `SplitIndex`."""
        quiver, ctx = self.quiver, self.ctx
        sl = GradeSlice(grade, "constructive")
        sl.index = SplitIndex(self, sl)
        for typ in one_loop_types(ctx, grade[0], self.nilpotent_only):
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
        sl.index.file([c for c in sl.classes if c.indec])
        return sl

    # -- submodule census

    def _adapted_bases(self, d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every subspace U of GF(q)^d, as a basis of GF(q)^d adapted to it;
        cached per d and built on first use.  The positions of the subspaces
        run by dimension 0..d, each dimension in `gf.subspace_blocks` order
        and checked against the `subspace_enum` cap, so position 0 is the
        zero subspace.

        Returns (rank, L, R): the dimension k of each U, and the stacks of
        R = [B^T | F^T] and L = R^-1 = [P; F(I - B^T P)] (each d x d), where
        B is the RREF basis of U, P selects its pivot coordinates and F the
        free ones.  The first k columns of R span U and the others the
        canonical complement, so for an arrow A of a stable tuple L A R is
        block upper triangular, with the sub and the quotient on its diagonal.
        L and R are written a pivot pattern at a time.
        """
        hit = self._adapted_lists.get(d)
        if hit is None:
            ctx, counts, lefts, rights = self.ctx, [], [], []
            for k in range(d + 1):
                counts.append(gaussian_binomial(d, k, ctx.q))
                self.caps.check("subspace_enum", counts[-1])
                for piv, free, b in subspace_blocks(d, k, ctx.q):
                    left, right = np.zeros((2, len(b), d, d), dtype=np.uint8)
                    right[:, :, :k] = b.transpose(0, 2, 1)
                    right[:, free, range(k, d)] = 1
                    left[:, range(k), piv] = 1
                    left[:, range(k, d), free] = 1
                    # w - B^T w[piv] on the free rows
                    left[:, k:, piv] = ctx.NEG[b[:, :, free].transpose(0, 2, 1)]
                    lefts.append(left)
                    rights.append(right)
            hit = self._adapted_lists[d] = (np.repeat(np.arange(d + 1), counts),
                                            np.concatenate(lefts), np.concatenate(rights))
        return hit

    def census(self, key: ClassKey) -> Dict[tuple, int]:
        """Counts of stable subspace tuples by (quotient class, sub class).

        census[((gq, iq), (gs, is_))] = number of subrepresentations of the
        canonical representative isomorphic to class (gs, is_) with
        quotient of class (gq, iq).  The stack of one of `censuses`.
        """
        return self.censuses([key])[key]

    def censuses(self, keys: Sequence[ClassKey]) -> Dict[ClassKey, Dict[tuple, int]]:
        """The census of each of `keys`, classes of one grade, taken as one
        stack of canonical representatives.

        Every arrow is tested the same way, on the block tables of
        `_block_tables`, built for chunks of representatives whose tables
        fit under `_CENSUS_BYTES` and the memory cap (a chunk of one
        representative is checked against the cap as a per-class census
        would be).  The stable tuples are found one vertex v at a time on a
        stack of rows (representative, positions of U_0 .. U_v-1): the tests
        of the arrows between v and the vertices <= v, gathered at each
        row's positions, give one mask of the rows by the positions of U_v,
        and each row is followed by the positions it passes.  Rows expand in
        place, in position order, so each representative's tuples, and its
        census keys, appear in the order of a full walk.
        """
        if not keys:
            return {}
        grade = keys[0][0]
        if any(k[0] != grade for k in keys):
            raise HallforgeError("censuses takes the classes of one grade")
        sl = self.slice(grade)
        todo = [i for i in dict.fromkeys(k[1] for k in keys) if i not in sl.census_cache]
        if todo:
            counts = [len(self._adapted_bases(d)[0]) for d in grade]
            self.caps.check("subspace_enum", math.prod(counts))
            per_rep = self._table_bytes(grade)
            step = max(1, min(_CENSUS_BYTES, self.caps.memory_bytes()) // max(per_rep, 1))
            for lo in range(0, len(todo), step):
                part = todo[lo: lo + step]
                tables = self._block_tables([sl.classes[i].canon for i in part])
                stack = np.arange(len(part))[:, None]
                for v, n in enumerate(counts):
                    mask = np.ones((len(stack), n), dtype=bool)
                    for (_, ok), (s, t) in zip(tables, self.quiver.arrows):
                        if s == t == v:
                            mask &= ok[stack[:, 0]]
                        elif t == v and s < v:
                            mask &= ok[stack[:, 0], :, stack[:, 1 + s]]
                        elif s == v and t < v:
                            mask &= ok[stack[:, 0], stack[:, 1 + t]]
                    rows, cols = np.nonzero(mask)
                    stack = np.concatenate([stack[rows], cols[:, None]], axis=1)
                for i, out in zip(part, self._count_tuples(grade, tables, stack, len(part))):
                    sl.census_cache[i] = out
        return {k: sl.census_cache[k[1]] for k in keys}

    def _table_bytes(self, grade: tuple) -> int:
        """The bytes of one representative's `_block_tables` of `grade`, at 16
        per block entry (an upper bound: the product and remainder of a
        prime-field `GF.matmul` are int64 at most) and one per test."""
        counts = [len(self._adapted_bases(d)[0]) for d in grade]
        return sum((counts[s] if s == t else counts[t] * counts[s])
                   * (16 * grade[s] * grade[t] + 1) for s, t in self.quiver.arrows)

    def _block_tables(self, reps: Sequence[Rep]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per arrow A: s -> t, for a stack of representations of one grade,
        the blocks L_t A R_s in the adapted bases of every pair of positions
        (j of U_t, i of U_s), at [r, j, i] for representation r, and whether
        A maps U_s into U_t: exactly when the block with rows >= rank(U_t)
        and columns < rank(U_s) is zero.  A loop gets only the pairs (i, i),
        at [r, i].  The tables are counted against the memory cap first
        (`_table_bytes` per representation).
        """
        ctx, dims = self.ctx, reps[0].dims
        self.caps.check_memory(len(reps) * self._table_bytes(dims))
        out = []
        for k, (s, t) in enumerate(self.quiver.arrows):
            a = np.stack([rep.mats[k].a for rep in reps])[:, None]
            rank_s, _, right = self._adapted_bases(dims[s])
            rank_t, left, _ = self._adapted_bases(dims[t])
            lead = left if s == t else left[:, None]  # a loop pairs each position with itself
            blocks = ctx.matmul(lead, ctx.matmul(a, right)[:, None] if s != t
                                else ctx.matmul(a, right))
            rows = np.arange(dims[t])[:, None] >= rank_t.reshape(lead.shape[:-2] + (1, 1))
            cols = np.arange(dims[s]) < rank_s[:, None, None]
            out.append((blocks, ~((blocks != 0) & rows & cols).any(axis=(-2, -1))))
        return out

    def _count_tuples(self, grade: tuple, tables: list, stack: np.ndarray, count: int
                      ) -> List[Dict[tuple, int]]:
        """The censuses of `count` representatives of `grade` over their
        stable tuples, rows (representative, subspace positions) in walk
        order, given their `_block_tables`.

        The tuples are grouped by rank vector; each group's subs and
        quotients (`_sub_quotient_stacks`) are identified in bulk
        (`_identify_stack`).  Groups go in order of first tuple, quotient
        before sub, so grades are first met, and built, as by a walk that
        identifies tuple by tuple; each census lists its keys in order of
        first tuple.
        """
        ranks = np.stack([self._adapted_bases(d)[0][stack[:, 1 + v]]
                          for v, d in enumerate(grade)], axis=1)
        firsts, group_of, _ = unique_rows(ranks)
        keys = np.zeros((len(stack), 4), dtype=np.int64)  # representative, group, quotient, sub
        keys[:, 0] = stack[:, 0]
        names = []
        for g, at in enumerate(firsts.tolist()):
            members = np.flatnonzero(group_of == g)
            sub_grade = tuple(ranks[at].tolist())
            quot_grade = tuple(d - k for d, k in zip(grade, sub_grade))
            subs, quots = self._sub_quotient_stacks(tables, stack[members], sub_grade)
            keys[members, 1] = g
            keys[members, 2] = self._identify_stack(quot_grade, quots, len(members))
            keys[members, 3] = self._identify_stack(sub_grade, subs, len(members))
            names.append((quot_grade, sub_grade))
        out: List[Dict[tuple, int]] = [{} for _ in range(count)]
        firsts, _, hits = unique_rows(keys)
        for at, n in zip(firsts.tolist(), hits.tolist()):
            r, g, iq, is_ = keys[at].tolist()
            quot_grade, sub_grade = names[g]
            out[r][((quot_grade, iq), (sub_grade, is_))] = n
        return out

    def _sub_quotient_stacks(self, tables: list, stack: np.ndarray, ranks: tuple
                             ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The subs and quotients on the stable tuples of rank vector `ranks`,
        rows (representative, positions) of `stack`: per arrow s -> t, the
        stacks of sub blocks P_t A B_s^T and of quotient blocks
        F_t (I - B_t^T P_t) A F_s^T, the diagonal blocks of L_t A R_s,
        gathered from the `_block_tables`.

        These are `reps.sub_quotient`'s img[piv_t] and w - B_t^T w[piv_t] on
        the free rows of t, for img = A B_s^T and w = A F_s^T.
        """
        subs, quots = [], []
        for (blocks, _), (s, t) in zip(tables, self.quiver.arrows):
            at = (stack[:, 0], stack[:, 1 + t]) + (() if s == t else (stack[:, 1 + s],))
            b = blocks[at]
            subs.append(b[:, :ranks[t], :ranks[s]])
            quots.append(b[:, ranks[t]:, ranks[s]:])
        return subs, quots

    def _identify_stack(self, grade: tuple, blocks: List[np.ndarray], count: int,
                        ends: Optional[Sequence] = None) -> np.ndarray:
        """The class of each of `count` representations of `grade`, given by
        one stack of matrices per arrow, from their digit rows: one table
        gather on a zero or orbit slice, at the rows' point codes or, on a
        reduced slice, their reduced codes: the row codes of X, then d_v span
        gathers (`_RowSpaces.codes`); on a constructive slice one lookup
        in `known` per row and one `classify` of the distinct rows not known
        yet, as one stack in row order.  `ends`, when given, holds the End
        bases of representations certified indecomposable, one per row."""
        sl = self.slice(grade)
        digits = digit_rows(blocks, count)
        if sl.table is not None:
            codes = (_encode_batch(digits, self.ctx.q) if sl.spaces is None
                     else sl.spaces.codes(digits))
            idx = sl.table[codes]
            if (idx < 0).any():  # excluded by a nilpotent-only walk
                raise HallforgeError(f"the representation of grade {grade} is not in this "
                                     "registry (a nilpotent-only registry excludes it)")
            return idx
        rows = [row.tobytes() for row in digits]
        # the distinct rows not known yet, in order of first occurrence
        missed = {buf: r for r, buf in enumerate(rows) if buf not in sl.known}
        if missed:
            at = list(missed.values())
            reps = [_rep_of(self.quiver, self.ctx, grade, digits[r]) for r in at]
            found = sl.index.classify(reps, None if ends is None else [ends[r] for r in at])
            sl.known.update(zip(missed, found))
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

