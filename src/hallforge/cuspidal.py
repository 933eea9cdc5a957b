"""Cuspidal (primitive) elements and the structure theory around them.

An element f is cuspidal when Delta(f) = f(x)1 + 1(x)f.  Writing
g_R = f(R)/|Aut R|, primitivity in a fixed grade is the integer linear
system  sum_R F^R_{U,V} g_R = 0, one row per pair (U, V) of positive
grades that occurs in the census of some support class R, so cuspidal
spaces are exact rational kernels of integer census matrices.  A class
R = X + Y with X, Y nonzero and Ext^1(X, Y) = 0 is the only extension of
X by Y, so its row (X, Y) forces g_R = 0: such columns are pruned before
any census is taken, and the kernel of the kept columns, padded with
zeros, is the kernel of the whole system.  Every
rational solve, and every subspace relation (as a rank relation), goes
through the one eliminator of `exact`, which takes its certified modular
route on those integer matrices.  No tolerance appears anywhere.  Elements and
coproducts are the sparse vectors of `hall`, classes of direct sums come
from `IsoRegistry.class_of_summands`, and failed solver invariants raise
CertificateError.

On an affine acyclic quiver the regular classes decompose into tubes
(blocks of the regular subcategory).  Distinct tubes are Hom-orthogonal,
so two regular indecomposables with a nonzero Hom in either direction lie
in one tube; these links, read off one Hom table (`_hom_dims`, the table
the split prune reads), join each tube, and the same table finds its
regular simples.  A non-homogeneous tube has degree 1 (checked), so level
n of any tube lives in grade `Tube.grade_at(n) = n * degree * delta`.
Each tube carries, per level, a one-dimensional space of primitives for
the regular-corestricted coproduct; normalized representatives take value
1 on the indecomposables of that grade.  The linear form L(f) = (f, chi)
with chi the sum of all classes of the grade evaluates on a normalized
tube element to xi(n, q^deg), and its kernel inside the regular cuspidals
is exactly the space of cuspidal elements, which is the main verification
target of this package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CertificateError, HallforgeError
from .exact import kernel_basis_exact, matrix_rank
from .gf import Mat
from .hall import HallAlgebra, HallElement, QNum, TensorElement, _add_into
from .oneloop import a_lambda, one_loop_rep, partitions_of
from .quiver import (Quiver, classify_type, euler_form, restrict_dim, subquiver_on,
                     support, support_is_connected, symmetrized_form)
from .registry import ClassKey
from .reps import Rep, hom_stack, simple_rep


# ---------------------------------------------------------------------------
# cuspidal spaces by exact linear algebra


@dataclass
class CuspidalSpace:
    grade: tuple
    coords: List[ClassKey]    # ambient ordered class keys of the grade
    basis: List[HallElement]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coefficient_rows(self, coords: Optional[List[ClassKey]] = None) -> List[list]:
        coords = coords if coords is not None else self.coords
        pos = {k: i for i, k in enumerate(coords)}
        rows = []
        for f in self.basis:
            row = [Fraction(0)] * len(coords)
            for k, v in f.terms.items():
                row[pos[k]] = v.as_fraction()
            rows.append(row)
        return rows


def primitive_space(hall: HallAlgebra, grade: Sequence, regular_only: bool = False,
                    support_keys: Optional[List[ClassKey]] = None) -> CuspidalSpace:
    """Kernel of the coproduct constraints on one graded piece.

    The columns are the support classes R; those that `_unsplit_columns`
    drops are zero in every kernel vector, and only the kept ones are
    censused.  Each constraint row is one pair (U, V) of positive grades
    that occurs in the census of a kept column, with entries F^R_{U,V} over
    the kept columns: a pair met only in dropped columns' censuses has no
    entry there.  With `regular_only`, both the support and the constraint
    pairs are restricted to regular classes: that computes primitives for
    the corestricted coproduct.  `support_keys` further restricts the
    support (used per tube).  The space's `coords` are all support classes.
    """
    grade = hall.quiver.check_dim(grade)
    reg = hall.registry
    cols = [c.key for c in reg.classes(grade)
            if not regular_only or c.pri_class == "regular"]
    if support_keys is not None:
        allowed = set(support_keys)
        cols = [k for k in cols if k in allowed]
    kept = _unsplit_columns(reg, cols)
    censuses = list(reg.censuses(kept).values())
    pairs = sorted({
        pair for census in censuses for pair in census
        if all(any(k[0]) and (not regular_only or reg.cls(k).pri_class == "regular")
               for k in pair)
    })
    # one sparse row of (column, count) per pair, in sorted pair order; the
    # kernel is independent of row order and repeats, so a repeated row is
    # dropped by its hash, and only the distinct rows are scattered into the
    # integer array the kernel reads
    rows: Dict[tuple, list] = {pair: [] for pair in pairs}
    for j, census in enumerate(censuses):
        for pair, count in census.items():
            if pair in rows:
                rows[pair].append((j, count))
    distinct = list(dict.fromkeys(tuple(row) for row in rows.values()))
    table = np.zeros((len(distinct), len(kept)), dtype=np.int64)
    for i, row in enumerate(distinct):
        where, counts = zip(*row)
        table[i, list(where)] = counts
    basis = []
    for vec in kernel_basis_exact(table):
        terms = {}
        for k, g in zip(kept, vec):
            if g:
                terms[k] = hall.scalar(g * reg.cls(k).aut_order)
        basis.append(HallElement(terms))
    return CuspidalSpace(grade, cols, basis)


def _hom_dims(reg, pairs: Sequence[Tuple[ClassKey, ClassKey]]
              ) -> Dict[Tuple[ClassKey, ClassKey], int]:
    """dim Hom(M, N) for pairs (M, N) of built classes: one `reps.hom_stack`
    of canonical representatives per pair of grades, cached on the registry
    by key pair (`hom_cache`).  A value below the Euler form <dim M, dim N>
    would be a negative ext^1: a CertificateError, as in `reps.ext1_dim`."""
    by_grades: Dict[tuple, list] = {}
    for pair in dict.fromkeys(pairs):
        if pair not in reg.hom_cache:
            by_grades.setdefault((pair[0][0], pair[1][0]), []).append(pair)
    for (gm, gn), todo in by_grades.items():
        _, homs = hom_stack([reg.cls(m).canon for m, _ in todo],
                            [reg.cls(n).canon for _, n in todo])
        euler = euler_form(reg.quiver, gm, gn)
        for pair, h in zip(todo, homs.tolist()):
            if h < euler:
                raise CertificateError(f"ext1 dimension from {pair[0]} to {pair[1]}", None,
                                       "a nonnegative value", h - euler)
            reg.hom_cache[pair] = h
    return {pair: reg.hom_cache[pair] for pair in pairs}


def _unsplit_columns(reg, cols: List[ClassKey]) -> List[ClassKey]:
    """The columns of `cols` that no split extension forces to zero.

    If R = X + Y with X, Y nonzero and Ext^1(X, Y) = 0, every extension of
    X by Y splits, so the row (X, Y) has its one nonzero entry
    F^R_{X,Y} >= 1 at R, and g_R = 0.  Such a split exists exactly when the
    digraph on R's summand instances, one node per copy with an edge M -> N
    when ext^1(M, N) = hom(M, N) - <dim M, dim N> > 0, is not strongly
    connected: take X to be a sink component.  The dropped columns are
    never free columns of the RREF (no kernel vector ends there), so the
    padded kernel basis of the kept ones is the kernel basis of all of
    them, vector for vector.  An edge with <dim M, dim N> < 0 needs no
    Hom: ext^1(M, N) >= -<dim M, dim N>.
    """
    nodes = {k: [sk for sk, m in reg.cls(k).summands for _ in range(m)] for k in cols}
    pairs = list(dict.fromkeys(pair for ns in nodes.values() if len(ns) > 1
                               for pair in itertools.permutations(ns, 2)))
    euler = {gg: euler_form(reg.quiver, *gg) for gg in {(a[0], b[0]) for a, b in pairs}}
    hom = _hom_dims(reg, [(a, b) for a, b in pairs if euler[a[0], b[0]] >= 0])

    def edge(m, n):
        return euler[m[0], n[0]] < 0 or hom[m, n] > euler[m[0], n[0]]

    def reaches_all(ns, arc):  # from the first node
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for j in range(len(ns)):
                if j not in seen and arc(ns[i], ns[j]):
                    seen.add(j)
                    todo.append(j)
        return len(seen) == len(ns)

    return [k for k in cols if reaches_all(nodes[k], edge)
            and reaches_all(nodes[k], lambda m, n: edge(n, m))]


def cuspidal_space(hall: HallAlgebra, grade: Sequence) -> CuspidalSpace:
    return primitive_space(hall, grade, regular_only=False)


def _project_regular(hall: HallAlgebra, tensor: TensorElement) -> TensorElement:
    """The terms of `tensor` on pairs of regular classes (unit terms kept)."""
    reg, unit = hall.registry, hall.unit_key()
    return TensorElement({
        (u, v): c for (u, v), c in tensor.terms.items()
        if all(k == unit or reg.cls(k).pri_class == "regular" for k in (u, v))
    })


def regular_comultiply(hall: HallAlgebra, f: HallElement):
    """The corestricted coproduct: Delta followed by restriction of the
    resulting function to pairs of regular classes (unit terms kept)."""
    return _project_regular(hall, hall.comultiply(f))


def regular_defect(hall: HallAlgebra, f: HallElement):
    """Delta_R(f) - f(x)1 - 1(x)f: the coproduct defect projected to regular
    pairs.  Unit terms of the defect cancel in positive grades."""
    return _project_regular(hall, hall.coproduct_defect(f))


def is_regular_primitive(hall: HallAlgebra, f: HallElement) -> bool:
    return regular_defect(hall, f).is_zero()


# ---------------------------------------------------------------------------
# subspace bookkeeping over the rationals


def subspace_contains(big_rows: List[list], small_rows: List[list]) -> bool:
    """Whether the big rows span every small row: adding them keeps the rank."""
    return matrix_rank(big_rows + small_rows) == matrix_rank(big_rows)


def subspace_equal(a_rows: List[list], b_rows: List[list]) -> bool:
    rank = matrix_rank(a_rows + b_rows)
    return matrix_rank(a_rows) == rank == matrix_rank(b_rows)


# ---------------------------------------------------------------------------
# tubes of an affine acyclic quiver


@dataclass
class Tube:
    tid: int
    degree: int
    period: int
    simples: List[ClassKey]
    members: Dict[tuple, List[ClassKey]]  # grade -> indecomposable member keys

    @property
    def homogeneous(self) -> bool:
        return self.period == 1

    def grade_at(self, level: int, delta: tuple) -> tuple:
        """Dimension vector of one level: level * degree * delta."""
        return tuple(level * self.degree * d for d in delta)

    def level_member(self, level: int, delta: tuple) -> ClassKey:
        """The unique indecomposable of dimension grade_at(level) (homogeneous)."""
        grade = self.grade_at(level, delta)
        members = self.members.get(grade, [])
        if len(members) != 1:
            raise CertificateError(f"tube {self.tid} level member", grade, 1, len(members))
        return members[0]


def tube_decomposition(hall: HallAlgebra, up_to: int) -> List[Tube]:
    """Blocks of regular indecomposables with dimensions <= up_to * delta.

    Distinct tubes are Hom-orthogonal, so members X and Y with Hom(X, Y)
    or Hom(Y, X) nonzero lie in one tube; a tube of period p has members
    of every quasi-length up to p within delta, whose socles and tops
    link all of its regular simples, so these links join each tube.  A
    member X is a regular simple (it has no proper nonzero regular
    subrepresentation) exactly when Hom(Y, X) = 0 for every other member
    Y with dim Y <= dim X: the image of a nonzero map between regular
    modules is a regular subrepresentation, onto only if Y = X.  Every
    Hom comes from `_hom_dims`.  Degree = least m with a member of
    dimension m*delta, which must be 1 for a non-homogeneous tube
    (checked), so level n of every tube has dimension n*degree*delta;
    period = number of regular simples.
    """
    reg = hall.registry
    qtype = reg.qtype
    if qtype is None or qtype.tag != "affine" or not hall.quiver.is_acyclic():
        raise HallforgeError("tube decomposition needs an affine acyclic quiver")
    delta = qtype.delta
    top = tuple(up_to * d for d in delta)
    members = [c.key for g in reg.grades_below(top) if any(g) for c in reg.classes(g)
               if c.indec and c.pri_class == "regular"]
    hom = _hom_dims(reg, list(itertools.permutations(members, 2)))
    parent = {k: k for k in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (x, y), h in hom.items():
        if h:
            parent[find(x)] = find(y)
    regular_simples = {x for x in members if not any(
        hom[y, x] for y in members if y != x and all(a <= b for a, b in zip(y[0], x[0])))}

    blocks: Dict[ClassKey, list] = {}
    for k in members:
        blocks.setdefault(find(k), []).append(k)

    tubes = []
    for block in blocks.values():
        simples = [k for k in block if k in regular_simples]
        member_map: Dict[tuple, List[ClassKey]] = {}
        for k in sorted(block):
            member_map.setdefault(k[0], []).append(k)
        degrees = [m for m in range(1, up_to + 1)
                   if tuple(m * d for d in delta) in member_map]
        if not degrees:
            raise CertificateError("tube member of dimension m*delta", top, ">= 1", 0)
        tube = Tube(-1, degrees[0], len(simples), sorted(simples), member_map)
        if not tube.homogeneous and tube.degree != 1:
            raise CertificateError("degree of a non-homogeneous tube", top, 1, tube.degree)
        tubes.append(tube)
    tubes.sort(key=lambda t: (t.degree, t.period, t.simples[0]))
    for i, t in enumerate(tubes):
        t.tid = i
        levels = {t.grade_at(n, delta): n for n in range(1, up_to // t.degree + 1)}
        for ms in t.members.values():
            for k in ms:
                c = reg.cls(k)
                c.tube_id = i
                c.tube_level = levels.get(k[0])
    return tubes


# ---------------------------------------------------------------------------
# normalized tube cuspidals and the linear form


@dataclass
class NormalizedTubeCuspidal:
    tube_id: int
    level: int
    grade: tuple
    element: HallElement


def tube_support_keys(hall: HallAlgebra, tube: Tube, grade: tuple) -> List[ClassKey]:
    reg = hall.registry
    out = []
    for c in reg.classes(grade):
        if c.pri_class != "regular":
            continue
        if all(reg.cls(sk).tube_id == tube.tid for (sk, _m) in c.summands):
            out.append(c.key)
    return out


def _normalized_line(space: CuspidalSpace, indecs: List[ClassKey], what: str) -> HallElement:
    """The basis element of a one-dimensional space, scaled to value 1 on
    the indecomposables `indecs`.  Certifies that the space is a line and
    that its element takes one value, nonzero, on all of `indecs` (the
    normalization would otherwise be ill-defined)."""
    grade = space.grade
    if space.dim != 1:
        raise CertificateError(f"{what} primitive dimension", grade, 1, space.dim)
    f = space.basis[0]
    values = {f.coeff(k) for k in indecs}
    if len(values) != 1:
        raise CertificateError(f"{what} distinct values on indecomposables", grade, 1,
                               len(values))
    val = values.pop()
    if not val:
        raise CertificateError(f"{what} value on indecomposables", grade, "nonzero", val)
    return f.scaled(val.inverse())


def normalized_tube_cuspidal(hall: HallAlgebra, tube: Tube, level: int,
                             delta: tuple) -> NormalizedTubeCuspidal:
    """The unique regular-primitive element supported in one tube, in grade
    tube.grade_at(level), with value 1 on its indecomposables of that grade
    (all of which must carry equal values in a non-homogeneous tube)."""
    grade = tube.grade_at(level, delta)
    keys = tube_support_keys(hall, tube, grade)
    space = primitive_space(hall, grade, regular_only=True, support_keys=keys)
    f = _normalized_line(space, tube.members.get(grade, []), f"tube {tube.tid} level {level}")
    return NormalizedTubeCuspidal(tube.tid, level, grade, f)


def regular_cuspidal_space(hall: HallAlgebra, tubes: List[Tube], r: int,
                           delta: tuple) -> Tuple[CuspidalSpace, List[NormalizedTubeCuspidal]]:
    """Regular-primitive space in grade r*delta with its normalized basis.

    The basis has one element per (tube, level) with level*degree = r; the
    global solve must agree in dimension.
    """
    grade = tuple(r * d for d in delta)
    normalized = [normalized_tube_cuspidal(hall, t, r // t.degree, delta)
                  for t in tubes if r % t.degree == 0]
    space = primitive_space(hall, grade, regular_only=True)
    if space.dim != len(normalized):
        raise CertificateError("regular cuspidal dimension", grade, len(normalized), space.dim)
    basis = [n.element for n in normalized]
    return CuspidalSpace(grade, space.coords, basis), normalized


def xi_value(d: int, q: int) -> Fraction:
    """xi(d, q) = sum over |lambda| = d of prod_{j<l(lambda)} (1 - q^j) / a_lambda(q)."""
    total = Fraction(0)
    for lam in partitions_of(d):
        num = 1
        for j in range(1, len(lam)):
            num *= 1 - q ** j
        total += Fraction(num, a_lambda(q, lam))
    return total


@dataclass
class LinearFormL:
    grade: tuple
    chi: HallElement

    def evaluate(self, hall: HallAlgebra, f: HallElement) -> QNum:
        return hall.green_pairing(f, self.chi)


def linear_form(hall: HallAlgebra, grade: Sequence) -> LinearFormL:
    grade = hall.quiver.check_dim(grade)
    return LinearFormL(grade, hall.chi(grade))


# ---------------------------------------------------------------------------
# the kernel theorem and its companion identity


def verify_kernel_theorem(hall: HallAlgebra, tubes: List[Tube], r: int) -> dict:
    """Exact checks, in grade r*delta:

    (i)   every cuspidal element is supported on regular classes;
    (ii)  cuspidals sit inside the regular cuspidals with codimension 1;
    (iii) the kernel of L on the regular cuspidals equals the cuspidals;
    (iv)  L(normalized tube element of degree-d tube, level n) = xi(n, q^d).
    """
    reg = hall.registry
    delta = reg.qtype.delta
    grade = tuple(r * d for d in delta)
    report = {"grade": list(grade), "q": hall.q, "checks": {}, "status": "pass"}

    full = cuspidal_space(hall, grade)
    regc, normalized = regular_cuspidal_space(hall, tubes, r, delta)

    supported_ok = all(
        reg.cls(k).pri_class == "regular"
        for f in full.basis for k in f.terms
    )
    report["checks"]["support_regular"] = supported_ok

    coords = [c.key for c in reg.classes(grade)]
    full_rows = full.coefficient_rows(coords)
    reg_rows = regc.coefficient_rows(coords)
    inclusion = subspace_contains(reg_rows, full_rows)
    report["checks"]["inclusion"] = inclusion
    report["dims"] = {"cuspidal": full.dim, "regular_cuspidal": regc.dim}
    report["checks"]["codimension_one"] = regc.dim == full.dim + 1

    form = linear_form(hall, grade)
    xi_ok = True
    for n in normalized:
        got = form.evaluate(hall, n.element)
        want = xi_value(n.level, hall.q ** tubes[n.tube_id].degree)
        if got != QNum(want):
            xi_ok = False
            report.setdefault("counterexample", {})["xi"] = {
                "tube": n.tube_id, "level": n.level,
                "got": str(got), "want": str(want),
            }
    report["checks"]["xi_values"] = xi_ok

    # kernel of L on the span of the normalized basis
    values = [form.evaluate(hall, n.element).as_fraction() for n in normalized]
    lrow = [values]
    coeffs = kernel_basis_exact(lrow)
    kernel_rows = []
    for vec in coeffs:
        f = HallElement({})
        for c, n in zip(vec, normalized):
            if c:
                f = f + n.element.scaled(c)
        kernel_rows.append(f)
    kernel_space = CuspidalSpace(grade, coords, kernel_rows)
    kernel_ok = subspace_equal(kernel_space.coefficient_rows(coords), full_rows)
    report["checks"]["kernel_equals_cuspidal"] = kernel_ok

    primitive_ok = all(hall.is_primitive(f) for f in full.basis)
    report["checks"]["cuspidals_primitive"] = primitive_ok

    if not all(report["checks"].values()):
        report["status"] = "fail"
    return report


def delta_evaluation_identity(hall: HallAlgebra, tubes: List[Tube], r: int) -> bool:
    """Evaluate the coproduct of every normalized tube element at
    (I_theta^r, S_i0^r) and compare with the twisted multiple of L.

    The constant is nu^<r theta, r e_i0> * |Aut(I_theta^r)| * |Aut(S_i0^r)|,
    with both automorphism counts taken from the registry.
    """
    reg = hall.registry
    delta = reg.qtype.delta
    i0 = extending_sink(hall.quiver, delta)
    theta = tuple(d - (1 if i == i0 else 0) for i, d in enumerate(delta))
    theta_key = unique_indec_key(reg, theta)
    s_key = reg.identify(simple_rep(hall.quiver, reg.ctx, i0))
    pow_theta = multiple_class(reg, theta_key, r)
    pow_s = multiple_class(reg, s_key, r)
    grade = tuple(r * d for d in delta)
    form = linear_form(hall, grade)
    _, normalized = regular_cuspidal_space(hall, tubes, r, delta)
    twist = hall.nu_pow(euler_form(hall.quiver,
                                   tuple(r * t for t in theta),
                                   tuple(r if i == i0 else 0 for i in range(hall.quiver.n))))
    const = twist * hall.scalar(reg.cls(pow_theta).aut_order * reg.cls(pow_s).aut_order)
    for n in normalized:
        got = hall.comultiply(n.element).coeff((pow_theta, pow_s))
        want = const * form.evaluate(hall, n.element)
        if got != want:
            return False
    return True


def extending_sink(quiver: Quiver, delta: tuple) -> int:
    for i in range(quiver.n):
        if delta[i] == 1 and quiver.is_sink(i):
            return i
    raise HallforgeError("no extending sink vertex; dualize the quiver first")


def unique_indec_key(reg, grade: tuple) -> ClassKey:
    cands = [c.key for c in reg.classes(grade) if c.indec]
    if len(cands) != 1:
        raise CertificateError("indecomposables", grade, 1, len(cands))
    return cands[0]


def multiple_class(reg, key: ClassKey, mult: int) -> ClassKey:
    """Class of the direct sum of `mult` copies of one class."""
    return reg.class_of_summands(tuple(mult * x for x in key[0]), {key: mult})


# ---------------------------------------------------------------------------
# the permutation action on homogeneous tubes


class TubePermutation:
    """Degree-preserving permutation of homogeneous tubes, extended to classes."""

    def __init__(self, hall: HallAlgebra, tubes: List[Tube], mapping: Dict[int, int]):
        self.hall = hall
        self.tubes = {t.tid: t for t in tubes}
        unknown = sorted(set(mapping) - set(self.tubes))
        if unknown:
            raise HallforgeError(f"the tube map names ids {unknown} that are not tubes")
        if set(mapping.values()) != set(mapping):
            raise HallforgeError("the tube map must be a permutation of its tubes")
        for a, b in mapping.items():
            ta, tb = self.tubes[a], self.tubes[b]
            if not (ta.homogeneous and tb.homogeneous and ta.degree == tb.degree):
                raise HallforgeError("permutation must preserve degrees of homogeneous tubes")
        self.mapping = dict(mapping)

    def map_key(self, key: ClassKey) -> ClassKey:
        reg = self.hall.registry
        c = reg.cls(key)
        if c.indec:
            tid = c.tube_id
            if tid is None and c.pri_class == "regular":
                raise HallforgeError(
                    f"regular indecomposable {key} has no tube label; extend "
                    "the tube decomposition before acting"
                )
            if tid is None or tid not in self.mapping or not self.tubes[tid].homogeneous:
                return key
            if c.tube_level is None:
                raise CertificateError(f"tube level of {key}", key[0], "a level", None)
            target = self.tubes[self.mapping[tid]]
            return target.level_member(c.tube_level, reg.qtype.delta)
        moved: Dict[ClassKey, int] = {}
        for (sk, m) in c.summands:
            moved_key = self.map_key(sk)
            moved[moved_key] = moved.get(moved_key, 0) + m
        return reg.class_of_summands(key[0], moved)

    def apply(self, f: HallElement) -> HallElement:
        out: Dict[ClassKey, QNum] = {}
        for k, v in f.terms.items():
            _add_into(out, self.map_key(k), v)
        return HallElement(out)


def verify_sigma_hopf(hall: HallAlgebra, tubes: List[Tube], sigma: TubePermutation,
                      grades: Sequence, sample_pairs: Sequence) -> dict:
    """Isometry, algebra map, coalgebra map and L-invariance checks."""
    reg = hall.registry
    report = {"checks": {}, "status": "pass"}
    iso_ok = True
    for g in grades:
        for c in reg.classes(g):
            if reg.cls(sigma.map_key(c.key)).aut_order != c.aut_order:
                iso_ok = False
    report["checks"]["isometry"] = iso_ok

    alg_ok = True
    for (k1, k2) in sample_pairs:
        f, g = hall.basis(k1), hall.basis(k2)
        lhs = sigma.apply(hall.multiply(f, g))
        rhs = hall.multiply(sigma.apply(f), sigma.apply(g))
        if lhs.terms != rhs.terms:
            alg_ok = False
    report["checks"]["algebra_map"] = alg_ok

    coalg_ok = True
    for g in grades:
        for c in reg.classes(g):
            f = hall.basis(c.key)
            lhs = hall.comultiply(sigma.apply(f))
            rhs = hall.comultiply(f)
            mapped = {}
            for (u, v), val in rhs.terms.items():
                _add_into(mapped, (sigma.map_key(u), sigma.map_key(v)), val)
            if mapped != lhs.terms:
                coalg_ok = False
    report["checks"]["coalgebra_map"] = coalg_ok

    delta = reg.qtype.delta
    l_ok = True
    max_r = max(sum(g) // sum(delta) for g in grades if any(g)) if grades else 0
    for r in range(1, max_r + 1):
        grade = tuple(r * d for d in delta)
        form = linear_form(hall, grade)
        _, normalized = regular_cuspidal_space(hall, tubes, r, delta)
        for n in normalized:
            f = n.element
            if form.evaluate(hall, sigma.apply(f)) != form.evaluate(hall, f):
                l_ok = False
    report["checks"]["l_invariance"] = l_ok

    if not all(report["checks"].values()):
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# the two symmetry conjectures and the cancellation statement


def homogeneous_tubes_of_degree(tubes: List[Tube], degree: int) -> List[Tube]:
    return [t for t in tubes if t.homogeneous and t.degree == degree]


def conjecture1_check(hall: HallAlgebra, tubes: List[Tube], degree: int, level: int) -> bool:
    """f_{x,s} - (1/N) sum_y f_{y,s} is fully primitive, for every x of the degree."""
    delta = hall.registry.qtype.delta
    family = homogeneous_tubes_of_degree(tubes, degree)
    if not family:
        raise HallforgeError(f"no homogeneous tube of degree {degree}")
    n_d = len(family)
    elements = [normalized_tube_cuspidal(hall, t, level, delta).element for t in family]
    avg = HallElement({})
    for e in elements:
        avg = avg + e.scaled(Fraction(1, n_d))
    for e in elements:
        if not hall.is_primitive(e - avg):
            return False
    return True


def partition_class_in_tube(hall: HallAlgebra, tube: Tube, lam: Sequence) -> ClassKey:
    """Class of the direct sum of the level-lambda_i members of one homogeneous tube."""
    reg = hall.registry
    delta = reg.qtype.delta
    counts: Dict[ClassKey, int] = {}
    for part in lam:
        k = tube.level_member(part, delta)
        counts[k] = counts.get(k, 0) + 1
    return reg.class_of_summands(tube.grade_at(sum(lam), delta), counts)


def conjecture2_check(hall: HallAlgebra, tubes: List[Tube], lam: Sequence, degree: int = 1) -> bool:
    """Comultiplication coefficients on (preinjective, preprojective) pairs
    agree across homogeneous tubes of equal degree, for the partition class.

    Both the dressed coefficients (twist divided out) and the raw
    subrepresentation counts are compared.
    """
    reg = hall.registry
    family = homogeneous_tubes_of_degree(tubes, degree)
    if len(family) < 2:
        return True
    reference = None
    for t in family:
        key = partition_class_in_tube(hall, t, lam)
        census = reg.census(key)
        a_r = reg.cls(key).aut_order
        table = {}
        for (u, v), count in census.items():
            cu, cv = reg.cls(u), reg.cls(v)
            if cu.pri_class == "preinjective" and cv.pri_class == "preprojective":
                dressed = Fraction(count * cu.aut_order * cv.aut_order, a_r)
                table[(u, v)] = (count, dressed)
        if reference is None:
            reference = table
        elif reference != table:
            return False
    return True


def cancellation_check(hall: HallAlgebra, f: HallElement) -> bool:
    """For a regular-primitive f, the full coproduct defect is supported on
    (pure preinjective) x (pure preprojective) pairs only."""
    if not is_regular_primitive(hall, f):
        raise HallforgeError("cancellation check requires a regular-primitive element")
    reg = hall.registry
    for (u, v), _c in hall.coproduct_defect(f).terms.items():
        if reg.cls(u).pri_class != "preinjective" or reg.cls(v).pri_class != "preprojective":
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms: one-loop quiver and nilpotent cyclic quivers


def phi_factor(q: int, m: int) -> int:
    """prod_{i=1}^m (1 - q^i)."""
    out = 1
    for i in range(1, m + 1):
        out *= 1 - q ** i
    return out


def one_loop_cuspidal_closed_form(hall: HallAlgebra, r: int, point) -> HallElement:
    """Closed-form cuspidal element of the one-loop quiver at a closed point.

    `point` is a monic irreducible polynomial (tuple, constant coefficient
    first, leading 1 included) of degree d; the element lives in grade
    (r*d,) and weights the class with partition lambda at that point by
    prod_{i<l(lambda)} (1 - q^{d i}).
    """
    reg = hall.registry
    d = len(point) - 1
    qd = hall.q ** d
    terms: Dict[ClassKey, QNum] = {}
    for lam in partitions_of(r):
        typ = ((tuple(point), tuple(lam)),)
        key = reg.identify(one_loop_rep(reg.quiver, reg.ctx, typ))
        terms[key] = hall.scalar(phi_factor(qd, len(lam) - 1))
    return HallElement(terms)


def cyclic_nilpotent_cuspidal(hall: HallAlgebra, d: int) -> HallElement:
    """The unique (up to scalar) nilpotent primitive in grade d*delta of a
    cyclic quiver, normalized to value 1 on every indecomposable there."""
    reg = hall.registry
    if not reg.nilpotent_only:
        raise HallforgeError("use a nilpotent-only registry for cyclic quivers")
    grade = (d,) * hall.quiver.n
    space = primitive_space(hall, grade, regular_only=False)
    return _normalized_line(space, [c.key for c in reg.classes(grade) if c.indec], "nilpotent")


# ---------------------------------------------------------------------------
# isotropic support


def isotropic_support_check(hall: HallAlgebra, grade: Sequence) -> dict:
    """For isotropic grade with nonzero cuspidal space: support connected,
    orthogonal to its unit vectors, affine, and the grade a multiple of
    the support's delta.  The theorem is about positive grades: the zero
    grade, whose graded piece is the unit, is a HallforgeError."""
    quiver = hall.quiver
    grade = quiver.check_dim(grade)
    if not any(grade):
        raise HallforgeError("the isotropic support check needs a nonzero grade")
    if symmetrized_form(quiver, grade, grade) != 0:
        raise HallforgeError(f"grade {grade} is not isotropic")
    report = {"grade": list(grade), "q": hall.q, "checks": {}, "status": "pass"}
    space = cuspidal_space(hall, grade)
    report["dims"] = {"cuspidal": space.dim}
    if space.dim == 0:
        report["status"] = "vacuous"
        return report
    verts = sorted(support(grade))
    report["checks"]["connected_support"] = support_is_connected(quiver, grade)
    report["checks"]["orthogonal_to_support"] = all(
        symmetrized_form(quiver, grade, tuple(1 if j == i else 0 for j in range(quiver.n))) == 0
        for i in verts
    )
    sub = subquiver_on(quiver, verts)
    sub_type = classify_type(sub)
    report["checks"]["support_affine"] = sub_type.tag == "affine"
    if sub_type.tag == "affine":
        restricted = restrict_dim(grade, verts)
        ratios = {x // d for x, d in zip(restricted, sub_type.delta)}
        report["checks"]["multiple_of_delta"] = (
            len(ratios) == 1
            and all(x == (ratios.copy().pop()) * d for x, d in zip(restricted, sub_type.delta))
        )
    if not all(report["checks"].values()):
        report["status"] = "fail"
    return report


# ---------------------------------------------------------------------------
# the embedding of Kronecker representations into an affine quiver


@dataclass
class KroneckerEmbedding:
    quiver: Quiver
    i0: int
    theta: tuple
    theta_rep: Rep
    wiring: str  # "two-arrows" | "one-vertex"

    def apply(self, v: Rep) -> Rep:
        """Image of a Kronecker representation (V0, V1, X, Y)."""
        quiver, ctx = self.quiver, self.theta_rep.ctx
        v0, v1 = v.dims
        x, y = v.mats
        dims = tuple(
            v1 if i == self.i0 else self.theta[i] * v0 for i in range(quiver.n)
        )
        mats = []
        seen_in = 0
        for idx, (s, t) in enumerate(quiver.arrows):
            if t == self.i0:
                weight = 1 if self.wiring == "two-arrows" else 2
                if self.theta[s] != weight:
                    raise CertificateError(f"theta at arrow {s}->{t}", None, weight,
                                           self.theta[s])
                if weight == 1:
                    mats.append(Mat(ctx, (x if seen_in == 0 else y).a.copy()))
                else:
                    mats.append(Mat(ctx, np.concatenate([x.a, y.a], axis=1)))
                seen_in += 1
            elif s == self.i0:
                mats.append(Mat.zeros(ctx, dims[t], dims[s]))
            else:
                base = self.theta_rep.mats[idx].a
                mats.append(Mat(ctx, np.kron(base, np.eye(v0, dtype=np.uint8))))
        return Rep(quiver, ctx, dims, tuple(mats))


def kronecker_embedding(hall: HallAlgebra) -> KroneckerEmbedding:
    """The exact fully faithful functor from Kronecker representations,
    sending S_1 to the theta indecomposable and S_2 to the sink simple."""
    reg = hall.registry
    delta = reg.qtype.delta
    i0 = extending_sink(hall.quiver, delta)
    theta = tuple(d - (1 if i == i0 else 0) for i, d in enumerate(delta))
    theta_key = unique_indec_key(reg, theta)
    in_arrows = [(idx, s) for idx, (s, t) in enumerate(hall.quiver.arrows) if t == i0]
    weights = [theta[s] for _, s in in_arrows]
    if sorted(weights) == [1, 1]:
        wiring = "two-arrows"
    elif weights == [2]:
        wiring = "one-vertex"
    else:
        raise HallforgeError(f"unexpected wiring around the extending vertex: {weights}")
    return KroneckerEmbedding(hall.quiver, i0, theta, reg.cls(theta_key).canon, wiring)
