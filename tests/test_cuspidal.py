import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from childenv import child_env
from hallforge import cuspidal
from hallforge.counting import points_of_degree_dividing
from hallforge.errors import CertificateError, HallforgeError
from hallforge.exact import kernel_basis_exact, matrix_rank, row_reduce
from hallforge.gf import GF, monic_irreducibles
from hallforge.hall import HallAlgebra, QNum
from hallforge.quiver import (Quiver, a4_square, affine_a2_acyclic, classify_type,
                              cyclic_quiver, d4_star_out, jordan, kronecker)
from hallforge.registry import IsoRegistry
from hallforge.reps import (direct_sum_all, ext1_dim, hom_dim, rep_with_dims, simple_rep,
                            unique_rows)
from hallforge.cuspidal import (CuspidalSpace, TubePermutation, cancellation_check,
                                conjecture1_check, conjecture2_check, cuspidal_space,
                                cyclic_nilpotent_cuspidal, delta_evaluation_identity,
                                isotropic_support_check, kronecker_embedding,
                                linear_form, multiple_class, normalized_tube_cuspidal,
                                one_loop_cuspidal_closed_form, primitive_space,
                                regular_cuspidal_space, regular_defect,
                                subspace_contains, subspace_equal, tube_decomposition,
                                tube_support_keys, unique_indec_key,
                                verify_kernel_theorem, verify_sigma_hopf, xi_value)

F2, F3 = GF.of(2), GF.of(3)


# ---------------------------------------------------------------------------
# cuspidal dimensions


def test_simple_grade_is_one_dimensional(hall_kron2, kron2):
    for vertex, grade in ((0, (1, 0)), (1, (0, 1))):
        sp = cuspidal_space(hall_kron2, grade)
        assert sp.dim == 1
        assert list(sp.basis[0].terms) == [kron2.identify(
            simple_rep(kronecker(), F2, vertex))]


def test_kronecker_delta_dims(hall_kron2, hall_kron3):
    assert cuspidal_space(hall_kron2, (1, 1)).dim == 2
    assert cuspidal_space(hall_kron3, (1, 1)).dim == 3
    assert cuspidal_space(hall_kron2, (2, 2)).dim == 3


def test_outputs_primitive(hall_kron2):
    for grade in [(1, 1), (2, 2)]:
        for f in cuspidal_space(hall_kron2, grade).basis:
            assert hall_kron2.is_primitive(f)


def test_jordan_dims_match_irreducible_counts(hall_jordan2, hall_jordan3):
    for h, ctx in ((hall_jordan2, F2), (hall_jordan3, F3)):
        irr = monic_irreducibles(ctx, 3)
        for r in (1, 2, 3):
            expected = sum(len(irr[d]) for d in range(1, r + 1) if r % d == 0)
            assert cuspidal_space(h, (r,)).dim == expected


def test_non_root_grade_has_no_cuspidals(hall_kron2):
    # away from e_i and the delta ray, the cuspidal space vanishes
    assert cuspidal_space(hall_kron2, (1, 2)).dim == 0
    assert cuspidal_space(hall_kron2, (2, 1)).dim == 0
    assert cuspidal_space(hall_kron2, (0, 2)).dim == 0


# ---------------------------------------------------------------------------
# tubes


def test_tube_census_kronecker(tubes_kron2, tubes_kron3):
    assert sorted(t.degree for t in tubes_kron2) == [1, 1, 1, 2]
    assert all(t.period == 1 for t in tubes_kron2)
    assert all(t.period == 1 for t in tubes_kron3)
    # degree census matches closed points of the projective line (|D| = 0)
    from hallforge.counting import closed_points_p1
    for tubes, q in ((tubes_kron2, 2), (tubes_kron3, 3)):
        for e in (1, 2):
            have = sum(1 for t in tubes if t.degree == e)
            assert have == closed_points_p1(e, q), (q, e)


def test_tube_census_d4(d4star2):
    tubes = tube_decomposition(HallAlgebra(d4star2), 1)
    assert sorted(t.period for t in tubes) == [2, 2, 2]
    # at q=2 all three points of the projective line are non-homogeneous here
    assert all(t.degree == 1 for t in tubes)


def test_tube_census_a2_matches_remark():
    # two arrows aligned, one opposite: a single non-homogeneous tube
    reg = IsoRegistry(affine_a2_acyclic(), F2)
    h = HallAlgebra(reg)
    tubes = tube_decomposition(h, 1)
    non_homog = [t for t in tubes if t.period > 1]
    assert len(non_homog) == 1 and non_homog[0].period == 2
    homog = [t for t in tubes if t.period == 1]
    assert len(homog) == 2  # N(1) = q + 1 - |D| = 2


def test_sum_of_periods_identity(d4star2):
    # sum (p_i - 1) over non-homogeneous tubes = (number of vertices - 1) - 1
    for reg in (d4star2, IsoRegistry(affine_a2_acyclic(), F2), IsoRegistry(a4_square(), F2)):
        tubes = tube_decomposition(HallAlgebra(reg), 1)
        n0 = reg.quiver.n - 1
        assert sum(t.period - 1 for t in tubes if t.period > 1) == n0 - 1


def _regular_members(reg, up_to):
    """The regular indecomposables with dimensions <= up_to * delta."""
    top = tuple(up_to * d for d in reg.qtype.delta)
    return [c.key for g in reg.grades_below(top) if any(g) for c in reg.classes(g)
            if c.indec and c.pri_class == "regular"]


def _census_simples(reg, members):
    """The members with no proper nonzero regular sub in their census."""
    return {k for k in members if not any(
        any(sk[0]) and sk != k and reg.cls(sk).pri_class == "regular"
        for (_qk, sk) in reg.census(k))}


def _closed_tubes(reg, up_to, links, simples):
    """The members joined by `links` and closed transitively, as
    (tid, degree, period, simples, members) per tube in the order of
    `tube_decomposition`, and the (tube_id, tube_level) of each member."""
    delta = reg.qtype.delta
    members = _regular_members(reg, up_to)
    parent = {k: k for k in members}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    blocks = {}
    for k in members:
        blocks.setdefault(find(k), []).append(k)
    out = []
    for block in blocks.values():
        member_map = {}
        for k in sorted(block):
            member_map.setdefault(k[0], []).append(k)
        degree = min(m for m in range(1, up_to + 1)
                     if tuple(m * d for d in delta) in member_map)
        tube_simples = sorted(k for k in block if k in simples)
        out.append((degree, len(tube_simples), tube_simples, member_map))
    out.sort(key=lambda t: (t[0], t[1], t[2][0]))
    labels = {}
    for tid, (degree, _p, _s, member_map) in enumerate(out):
        for k in (k for ks in member_map.values() for k in ks):
            level = next((n for n in range(1, up_to // degree + 1)
                          if k[0] == tuple(n * degree * d for d in delta)), None)
            labels[k] = (tid, level)
    return [(tid,) + t for tid, t in enumerate(out)], labels


def _tubes_by_hom_ext(hall, up_to):
    """Reference tubes: members joined when hom or ext^1 is nonzero in
    either direction, the regular simples read off the census."""
    reg = hall.registry
    members = _regular_members(reg, up_to)
    canon = {k: reg.cls(k).canon for k in members}
    links = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]
             if hom_dim(canon[a], canon[b]) or hom_dim(canon[b], canon[a])
             or ext1_dim(canon[a], canon[b]) or ext1_dim(canon[b], canon[a])]
    return _closed_tubes(reg, up_to, links, _census_simples(reg, members))[0]


def _tubes_by_census(hall, up_to):
    """Reference tubes from the submodule census: each member joined with
    every regular indecomposable summand of each sub and each quotient in
    its census, and a member with no proper nonzero regular sub a regular
    simple."""
    reg = hall.registry
    members = _regular_members(reg, up_to)
    links = [(j, k) for k in members
             for part in {part for pair in reg.census(k) for part in pair}
             for j, _m in reg.cls(part).summands if reg.cls(j).pri_class == "regular"]
    return _closed_tubes(reg, up_to, links, _census_simples(reg, members))


def test_tubes_match_census_and_hom_ext_references(hall_kron2, hall_kron3, hall_kron4,
                                                   d4star2):
    closure_cases = ((hall_kron2, 2), (hall_kron3, 2), (hall_kron4, 2),
                     (HallAlgebra(IsoRegistry(affine_a2_acyclic(), F2)), 2),
                     (HallAlgebra(IsoRegistry(affine_a2_acyclic(), F3)), 1),
                     (HallAlgebra(d4star2), 1))
    census_cases = closure_cases + tuple(
        (HallAlgebra(IsoRegistry(quiver, ctx)), 1)
        for quiver, ctx in ((d4_star_out(), F3), (a4_square(), F2), (a4_square(), F3)))
    for i, (h, up_to) in enumerate(census_cases):
        reg = h.registry
        tubes = tube_decomposition(h, up_to)
        got = [(t.tid, t.degree, t.period, t.simples, t.members) for t in tubes]
        want, labels = _tubes_by_census(h, up_to)
        assert got == want, (h.quiver, h.q, up_to)
        # every class's labels: members as the census reference has them,
        # every other class of the grades unlabelled
        top = tuple(up_to * d for d in reg.qtype.delta)
        assert {c.key: (c.tube_id, c.tube_level) for g in reg.grades_below(top)
                for c in reg.classes(g)} == {
            c.key: labels.get(c.key, (None, None)) for g in reg.grades_below(top)
            for c in reg.classes(g)}, (h.quiver, h.q, up_to)
        if i < len(closure_cases):
            assert got == _tubes_by_hom_ext(h, up_to), (h.quiver, h.q, up_to)
    # d4-star over GF(2) has three tubes of period 2; over GF(3), three of
    # period 2 and one homogeneous tube of degree 1
    assert [sorted(t[2] for t in _tubes_by_census(h, 1)[0])
            for h, _ in census_cases[5:7]] == [[2, 2, 2], [1, 2, 2, 2]]


def test_tube_decomposition_takes_no_census(hall_kron2, d4star2, monkeypatch):
    def census_taken(self, keys):
        raise AssertionError("tube_decomposition took a census")
    monkeypatch.setattr(IsoRegistry, "censuses", census_taken)
    assert len(tube_decomposition(hall_kron2, 2)) == 4
    assert len(tube_decomposition(HallAlgebra(d4star2), 1)) == 3


def test_tube_levels_follow_grade_at(hall_kron2, tubes_kron2):
    delta = (1, 1)
    for t in tubes_kron2:
        for level in range(1, 2 // t.degree + 1):
            key = t.level_member(level, delta)
            assert key[0] == t.grade_at(level, delta)
            assert hall_kron2.registry.cls(key).tube_level == level
        for keys in t.members.values():
            for k in keys:
                level = hall_kron2.registry.cls(k).tube_level
                assert level is None or k[0] == t.grade_at(level, delta)


# ---------------------------------------------------------------------------
# primitive spaces against the coproduct defect, column by column


def _defect_kernel_rows(hall, keys, defect):
    """Rows over `keys` spanning the kernel of f -> defect(f), the defect
    map assembled from the defects of the basis elements [k]."""
    columns = [defect(hall.basis(k)).terms for k in keys]
    rows = []
    for pair in sorted({p for col in columns for p in col}):
        row = [col.get(pair, hall.zero()) for col in columns]
        lead = next(v for v in row if v)  # one power of nu per row: divide it out
        rows.append([(v / lead).as_fraction() for v in row])
    if not rows:
        return [[Fraction(int(i == j)) for j in range(len(keys))] for i in range(len(keys))]
    return kernel_basis_exact(rows)


def test_primitive_space_matches_defect_kernel(hall_kron2, kron2, tubes_kron2):
    h = hall_kron2
    regular = {"regular_only": True}
    cases = []  # (grade, primitive_space options, oracle columns, oracle defect)
    for g in kron2.grades_below((2, 2)):
        if any(g):
            cases.append((g, {}, [c.key for c in kron2.classes(g)], h.coproduct_defect))
            cases.append((g, regular, [c.key for c in kron2.classes(g)
                                       if c.pri_class == "regular"],
                          lambda f: regular_defect(h, f)))
    for t in tubes_kron2:  # every tube at grade 2*delta: levels 2 and 1
        keys = tube_support_keys(h, t, (2, 2))
        cases.append(((2, 2), dict(regular, support_keys=keys), keys,
                      lambda f: regular_defect(h, f)))
    dims = []
    for g, options, keys, defect in cases:
        space = primitive_space(h, g, **options)
        assert space.coords == keys, (g, options)
        want = _defect_kernel_rows(h, keys, defect)
        have = space.coefficient_rows(keys)
        assert len(have) == len(want) and subspace_equal(have, want), (g, options)
        dims.append((len(keys), space.dim))
    # not vacuous: some spaces are proper, nonzero subspaces
    assert any(0 < d < n for n, d in dims)


def _dense_constraints(hall, grade, regular_only=False, support_keys=None):
    """`primitive_space`'s constraint table built densely and unpruned: one
    int64 row per sorted pair over every support class of `grade` (the
    columns of `primitive_space(...).coords`), then its distinct rows
    (`reps.unique_rows`), in order of first occurrence."""
    reg = hall.registry
    regular = lambda k: not regular_only or reg.cls(k).pri_class == "regular"
    cols = [c.key for c in reg.classes(grade) if regular(c.key)
            and (support_keys is None or c.key in support_keys)]
    censuses = list(reg.censuses(cols).values())
    pairs = sorted({pair for census in censuses for pair in census
                    if all(any(k[0]) and regular(k) for k in pair)})
    at = {pair: i for i, pair in enumerate(pairs)}
    table = np.zeros((len(pairs), len(cols)), dtype=np.int64)
    for j, census in enumerate(censuses):
        for pair, count in census.items():
            if pair in at:
                table[at[pair], j] = count
    return table[unique_rows(table)[0]] if pairs else table


def _dense_kernel_rows(hall, space, dense):
    """The kernel of the dense table as `space.coefficient_rows()` has it."""
    reg = hall.registry
    return [[x * reg.cls(k).aut_order for k, x in zip(space.coords, vec)]
            for vec in kernel_basis_exact(dense)]


# (registry fixture or (quiver, field, nilpotent-only), grades)
PRIMITIVE_CASES = {
    "kronecker-q2": ("kron2", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]),
    "kronecker-q3": ("kron3", [(1, 1), (2, 2), (3, 3)]),
    "kronecker-q4": ("kron4", [(2, 3)]),
    "jordan-q3": ("jordan3", [(1,), (2,), (3,), (4,)]),
    "cyclic3-nilpotent-q3": ((cyclic_quiver(3), F3, True), [(1, 1, 1), (2, 2, 2)]),
}


@pytest.mark.parametrize("source, grades", PRIMITIVE_CASES.values(),
                         ids=PRIMITIVE_CASES.keys())
def test_primitive_space_matches_dense_unique_rows(source, grades, request, monkeypatch):
    # the kernel is the dense, unpruned table's, and the solved table holds
    # exactly the distinct nonzero rows of the dense table on the kept columns
    reg = (request.getfixturevalue(source) if isinstance(source, str)
           else IsoRegistry(source[0], source[1], nilpotent_only=source[2]))
    hall, tables = HallAlgebra(reg), []
    monkeypatch.setattr(cuspidal, "kernel_basis_exact",
                        lambda table: tables.append(table) or kernel_basis_exact(table))
    for g in grades:
        space = primitive_space(hall, g)
        dense, table = _dense_constraints(hall, g), tables.pop()
        kept = [space.coords.index(k) for k in cuspidal._unsplit_columns(reg, space.coords)]
        assert table.dtype == np.int64 and table.shape[1] == len(kept), g
        on_kept = {tuple(row) for row in dense[:, kept].tolist() if any(row)}
        assert len(table) == len(on_kept) and set(map(tuple, table.tolist())) == on_kept, g
        assert space.coefficient_rows() == _dense_kernel_rows(hall, space, dense), g


def _split_without_ext(reg, key):
    """Whether the class splits as X + Y, X and Y nonzero, with
    ext^1(X, Y) = 0: `reps.ext1_dim` on the direct sums of every proper
    sub-multiset of its summands and the rest."""
    parts = [reg.cls(sk).canon for sk, m in reg.cls(key).summands for _ in range(m)]
    for mask in range(1, 2 ** len(parts) - 1):
        x, y = ([p for i, p in enumerate(parts) if (mask >> i & 1) == side] for side in (1, 0))
        if ext1_dim(direct_sum_all(x, reg.quiver, reg.ctx),
                    direct_sum_all(y, reg.quiver, reg.ctx)) == 0:
            return True
    return False


def _assert_pruned_matches_dense(hall, grade, **options):
    """`primitive_space` against the kernel of the dense, unpruned table, and
    its kept columns against `_split_without_ext`; returns (kept columns,
    all columns)."""
    reg = hall.registry
    space = primitive_space(hall, grade, **options)
    dense = _dense_constraints(hall, grade, **options)
    assert space.coefficient_rows() == _dense_kernel_rows(hall, space, dense), (grade, options)
    kept = cuspidal._unsplit_columns(reg, space.coords)
    assert kept == [k for k in space.coords if not _split_without_ext(reg, k)], (grade, options)
    return len(kept), len(space.coords)


def test_split_prune_matches_dense_solve(hall_kron2, tubes_kron2, hall_kron3, tubes_kron3):
    counts = []
    for ctx in (F2, F3):  # nilpotent Jordan and cyclic3
        h = HallAlgebra(IsoRegistry(jordan(), ctx, nilpotent_only=True))
        counts += [_assert_pruned_matches_dense(h, (d,)) for d in (1, 2, 3, 4)]
        h = HallAlgebra(IsoRegistry(cyclic_quiver(3), ctx, nilpotent_only=True))
        counts += [_assert_pruned_matches_dense(h, g)
                   for g in ((1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 2))]
    h = HallAlgebra(IsoRegistry(affine_a2_acyclic(), F2))
    counts.append(_assert_pruned_matches_dense(h, (2, 2, 2), regular_only=True))
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        for t in tubes:  # per-tube solves at every level up to 2*delta
            for g in ((1, 1), (2, 2)):
                keys = tube_support_keys(h, t, g)
                counts.append(_assert_pruned_matches_dense(
                    h, g, regular_only=True, support_keys=keys))
    for quiver, grade in ((WILD1, (1, 1, 0)), (WILD2, (1, 0)), (WILD3, (1, 0, 1)),
                          (kronecker(3), (2, 2))):
        counts.append(_assert_pruned_matches_dense(HallAlgebra(IsoRegistry(quiver, F2)), grade))
    # not vacuous: the prune drops columns, and keeps some
    assert sum(n - k for k, n in counts) > 0 and all(k > 0 for k, n in counts if n)


def test_split_prune_censuses_only_kept_columns():
    # Kronecker (1,1) over GF(2): S_0 + S_1 has ext^1(S_0, S_1) = 2 but
    # ext^1(S_1, S_0) = 0, so its column is dropped and never censused; the
    # three regular simples are indecomposable and kept
    reg = IsoRegistry(kronecker(), F2)
    space = primitive_space(HallAlgebra(reg), (1, 1))
    split = [c.index for c in reg.classes((1, 1)) if not c.indec]
    assert len(split) == 1 and len(space.coords) == 4 and space.dim == 2
    assert sorted(reg.slice((1, 1)).census_cache) == sorted(set(range(4)) - set(split))
    assert all(split[0] != k[1] for f in space.basis for k in f.terms)


def test_hom_dims_match_hom_dim(kron2, monkeypatch):
    # the registry's Hom table against `reps.hom_dim` on ordered pairs of
    # classes, which is not symmetric: a table read the wrong way round fails
    keys = [c.key for g in kron2.grades_below((2, 2)) if any(g) for c in kron2.classes(g)]
    pairs = [(a, b) for a in keys for b in keys]
    table = cuspidal._hom_dims(kron2, pairs)
    assert table == {(a, b): hom_dim(kron2.cls(a).canon, kron2.cls(b).canon) for a, b in pairs}
    assert any(table[a, b] != table[b, a] for a, b in pairs)
    # a second call reads the cache alone
    monkeypatch.setattr(cuspidal, "hom_stack", lambda ms, ns: pytest.fail("hom_stack called"))
    assert cuspidal._hom_dims(kron2, pairs) == table


@st.composite
def _acyclic_quiver_grade(draw):
    n = draw(st.integers(2, 3))  # one vertex without loops has one class per grade
    arrow = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda a: a[0] != a[1]).map(sorted).map(tuple)  # forward: s < t
    arrows = draw(st.lists(arrow, min_size=1, max_size=4))
    quiver = Quiver(tuple(str(i) for i in range(n)), tuple(arrows))
    grade = draw(st.tuples(*[st.integers(0, 2)] * n).filter(any))
    return quiver, grade


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_acyclic_quiver_grade())
@example((kronecker(), (2, 2)))
@example((Quiver(("0", "1", "2"), ((0, 1), (1, 2), (0, 2))), (1, 1, 1)))
def test_split_prune_matches_dense_property(case):
    # acyclic quivers of up to 3 vertices and 4 arrows over GF(2)
    quiver, grade = case
    _assert_pruned_matches_dense(HallAlgebra(IsoRegistry(quiver, F2)), grade)


def test_delta_ray_reach():
    # grades the prune makes cheap: the cuspidal dimension up the delta ray
    # is the number of closed points of P^1 of degree dividing r, less one
    for quiver, r in ((kronecker(), 4), (affine_a2_acyclic(), 3)):
        h = HallAlgebra(IsoRegistry(quiver, F2))
        grade = tuple(r * d for d in h.registry.qtype.delta)
        assert cuspidal_space(h, grade).dim == points_of_degree_dividing(r, 2) - 1


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _membership_case(draw):
    cols = draw(st.integers(1, 5))
    row = st.lists(_SMALL_FRACTIONS, min_size=cols, max_size=cols)

    def combination(rows):
        coeffs = draw(st.lists(_SMALL_FRACTIONS, min_size=len(rows), max_size=len(rows)))
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                for j in range(cols)]

    big = []
    for _ in range(draw(st.integers(0, 4))):
        # a combination of earlier rows makes `big` rank-deficient
        big.append(combination(big) if big and draw(st.booleans()) else draw(row))
    if draw(st.booleans()):
        big = row_reduce(big)[0]  # RREF, zero rows kept
    small = [combination(big) if big and draw(st.booleans()) else draw(row)
             for _ in range(draw(st.integers(0, 3)))]
    return big, small


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_membership_case())
@example(([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
          [[Fraction(-1), Fraction(-2)]]))  # rank-deficient, inside
@example(([[Fraction(1), Fraction(0)]], [[Fraction(0), Fraction(1)]]))  # RREF, outside
@example(([], [[Fraction(0), Fraction(0)]]))  # the zero row is in the zero span
def test_subspace_contains_matches_rank_property(case):
    big, small = case
    assert subspace_contains(big, small) == _spans(big, small) == \
        (matrix_rank(big + small) == matrix_rank(big))


def _spans(big, small):
    """Oracle for `subspace_contains`, sharing no code with `exact`: an
    echelon basis of `big` built row by row, and each small row reduced
    against it."""
    basis = []  # (pivot column, row that is 1 there and 0 at earlier pivots)

    def reduce(row):
        for c, b in basis:
            if row[c]:
                row = [x - row[c] * y for x, y in zip(row, b)]
        return row

    for row in big:
        row = reduce(row)
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            basis.append((c, [x / row[c] for x in row]))
    return not any(any(reduce(row)) for row in small)


def test_class_of_summands(kron2):
    for g in kron2.grades_below((2, 2)):
        for c in kron2.classes(g):
            assert kron2.class_of_summands(g, dict(c.summands)) == c.key
    s0 = next(c.key for c in kron2.classes((1, 0)))
    with pytest.raises(CertificateError) as err:
        kron2.class_of_summands((1, 1), {s0: 2})
    assert err.value.what == "class of summands" and err.value.grade == (1, 1)


# ---------------------------------------------------------------------------
# regular cuspidals, xi, the kernel theorem


def test_normalized_degree_one_elements_are_simples(hall_kron2, tubes_kron2):
    delta = (1, 1)
    for t in tubes_kron2:
        if t.degree != 1:
            continue
        n = normalized_tube_cuspidal(hall_kron2, t, 1, delta)
        assert list(n.element.terms.values()) == [hall_kron2.scalar(1)]


def test_regular_cuspidal_dims(hall_kron2, tubes_kron2):
    rc1, _ = regular_cuspidal_space(hall_kron2, tubes_kron2, 1, (1, 1))
    rc2, _ = regular_cuspidal_space(hall_kron2, tubes_kron2, 2, (1, 1))
    assert rc1.dim == 3 and rc2.dim == 4


def test_regular_comultiply_projection(hall_kron2, kron2):
    from hallforge.cuspidal import regular_comultiply
    h = hall_kron2
    st = next(c.key for c in kron2.classes((1, 1)) if c.indec)
    # the corestriction drops the (preinjective, preprojective) term of the
    # full coproduct, leaving only the primitive part
    full = h.comultiply(h.basis(st))
    projected = regular_comultiply(h, h.basis(st))
    assert len(full.terms) == 3 and len(projected.terms) == 2
    unit = h.unit_key()
    assert set(projected.terms) == {(st, unit), (unit, st)}


def test_xi_values():
    assert xi_value(1, 2) == 1
    assert xi_value(2, 2) == Fraction(1, 2) - Fraction(1, 6) == Fraction(1, 3)
    assert xi_value(1, 4) == Fraction(1, 3)
    for q in (2, 3, 4, 5, 8, 9):
        assert xi_value(1, q) == Fraction(1, q - 1)


def test_linear_form_values(hall_kron2, tubes_kron2):
    h = hall_kron2
    form = linear_form(h, (1, 1))
    _, normalized = regular_cuspidal_space(h, tubes_kron2, 1, (1, 1))
    for n in normalized:
        assert form.evaluate(h, n.element) == QNum(1)  # xi(1, 2) = 1/(q-1) = 1
    # the linear form kills cuspidal elements
    for f in cuspidal_space(h, (1, 1)).basis:
        assert form.evaluate(h, f) == QNum(0)


def test_equal_degree_tubes_share_l_value(hall_kron2, tubes_kron2):
    # level-2 elements of degree-1 tubes and the level-1 element of the
    # degree-2 tube all evaluate to xi(2, q) = xi(1, q^2) = 1/3
    h = hall_kron2
    form = linear_form(h, (2, 2))
    _, normalized = regular_cuspidal_space(h, tubes_kron2, 2, (1, 1))
    values = {str(form.evaluate(h, n.element)) for n in normalized}
    assert values == {"1/3"}
    # so the difference of two normalized elements is cuspidal
    f = normalized[0].element - normalized[1].element
    assert h.is_primitive(f)


def test_kernel_theorem_q2(hall_kron2, tubes_kron2):
    for r in (1, 2):
        rep = verify_kernel_theorem(hall_kron2, tubes_kron2, r)
        assert rep["status"] == "pass", rep
    assert rep["dims"] == {"cuspidal": 3, "regular_cuspidal": 4}


def test_kernel_theorem_q3(hall_kron3, tubes_kron3):
    for r in (1, 2):
        rep = verify_kernel_theorem(hall_kron3, tubes_kron3, r)
        assert rep["status"] == "pass", rep


def test_kernel_theorem_a2():
    reg = IsoRegistry(affine_a2_acyclic(), F2)
    h = HallAlgebra(reg)
    tubes = tube_decomposition(h, 1)
    rep = verify_kernel_theorem(h, tubes, 1)
    assert rep["status"] == "pass", rep
    assert rep["dims"] == {"cuspidal": 2, "regular_cuspidal": 3}
    assert delta_evaluation_identity(h, tubes, 1)


def test_delta_evaluation_identity(hall_kron2, tubes_kron2, hall_kron3, tubes_kron3):
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        for r in (1, 2):
            assert delta_evaluation_identity(h, tubes, r)


def test_delta_evaluation_degree_two_tube(hall_kron2, tubes_kron2, kron2):
    # the degree-2 tube at level 1: both sides equal nu^-8 * 36 * xi(1, 4)
    h = hall_kron2
    t2 = next(t for t in tubes_kron2 if t.degree == 2)
    n = normalized_tube_cuspidal(h, t2, 1, (1, 1))
    s1 = kron2.identify(simple_rep(kronecker(), F2, 0))
    s2 = kron2.identify(simple_rep(kronecker(), F2, 1))
    p1 = multiple_class(kron2, s1, 2)
    p2 = multiple_class(kron2, s2, 2)
    got = h.comultiply(n.element).coeff((p1, p2))
    assert got == h.nu_pow(-8) * h.scalar(Fraction(36, 3))
    # the constant uses |Aut(S1^2)| |Aut(S2^2)| = 36, not |GL_1(F_4)|^2 = 9
    assert kron2.cls(p1).aut_order == kron2.cls(p2).aut_order == 6


# ---------------------------------------------------------------------------
# the sigma action and the conjectures


def test_sigma_checks(hall_kron2, tubes_kron2):
    h = hall_kron2
    deg1 = [t.tid for t in tubes_kron2 if t.degree == 1]
    rng = random.Random(5)
    keys = [c.key for g in [(1, 1), (0, 1), (1, 0)] for c in h.registry.classes(g)]
    pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(12)]
    for i in range(len(deg1)):
        for j in range(i + 1, len(deg1)):
            sigma = TubePermutation(h, tubes_kron2, {deg1[i]: deg1[j], deg1[j]: deg1[i]})
            rep = verify_sigma_hopf(h, tubes_kron2, sigma, [(1, 1), (2, 2)], pairs)
            assert rep["status"] == "pass", rep


def test_sigma_identity_trivial(hall_kron2, tubes_kron2):
    h = hall_kron2
    sigma = TubePermutation(h, tubes_kron2, {})
    rep = verify_sigma_hopf(h, tubes_kron2, sigma, [(1, 1)], [])
    assert rep["status"] == "pass"


def test_sigma_rejects_degree_mixing(hall_kron2, tubes_kron2):
    deg1 = next(t.tid for t in tubes_kron2 if t.degree == 1)
    deg2 = next(t.tid for t in tubes_kron2 if t.degree == 2)
    with pytest.raises(HallforgeError):
        TubePermutation(hall_kron2, tubes_kron2, {deg1: deg2, deg2: deg1})


def test_sigma_rejects_a_map_that_is_not_a_permutation(hall_kron2, tubes_kron2):
    a, b, c = [t.tid for t in tubes_kron2 if t.homogeneous and t.degree == 1]
    for mapping in ({a: b}, {a: b, b: c}, {a: b, c: a}):
        with pytest.raises(HallforgeError, match="permutation"):
            TubePermutation(hall_kron2, tubes_kron2, mapping)
    sigma = TubePermutation(hall_kron2, tubes_kron2, {a: b, b: c, c: a})
    keys = [sigma.map_key(k.key) for k in hall_kron2.registry.classes((1, 1))]
    assert len(set(keys)) == len(keys)


def test_sigma_rejects_ids_that_are_not_tubes(hall_kron2):
    # {99: 99} is a permutation of its ids, but 99 names no tube
    tubes = tube_decomposition(hall_kron2, 1)
    a = next(t.tid for t in tubes if t.homogeneous)
    for mapping in ({99: 99}, {a: 99, 99: a}):
        with pytest.raises(HallforgeError, match=r"ids \[99\] that are not tubes"):
            TubePermutation(hall_kron2, tubes, mapping)


def test_conjecture1(hall_kron2, tubes_kron2, hall_kron3, tubes_kron3):
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        assert conjecture1_check(h, tubes, 1, 1)
        assert conjecture1_check(h, tubes, 1, 2)


def test_conjecture1_single_tube_degenerate(hall_kron2, tubes_kron2):
    # a single tube of its degree: the combination is zero, trivially cuspidal
    assert conjecture1_check(hall_kron2, tubes_kron2, 2, 1)


def test_conjecture2(hall_kron2, tubes_kron2, hall_kron3, tubes_kron3):
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        for lam in [(1,), (2,), (1, 1)]:
            assert conjecture2_check(h, tubes, lam)


def test_conjecture2_spec_example(hall_kron2, tubes_kron2, kron2):
    # lambda = (1): the only (preinjective, preprojective) census entry of a
    # regular simple is (S1, S2) with count 1, for all three degree-1 points
    s1 = kron2.identify(simple_rep(kronecker(), F2, 0))
    s2 = kron2.identify(simple_rep(kronecker(), F2, 1))
    for t in tubes_kron2:
        if t.degree != 1:
            continue
        key = t.level_member(1, (1, 1))
        census = kron2.census(key)
        assert census.get((s1, s2)) == 1


def test_cancellation(hall_kron2, tubes_kron2):
    h = hall_kron2
    for r in (1, 2):
        _, normalized = regular_cuspidal_space(h, tubes_kron2, r, (1, 1))
        for n in normalized:
            assert cancellation_check(h, n.element)


def test_cancellation_guard(hall_kron2, kron2):
    # a non-cuspidal regular element is rejected by the precondition
    h = hall_kron2
    pair = next(c.key for c in kron2.classes((2, 2))
                if not c.indec and c.pri_class == "regular"
                and len(c.summands) == 2)
    with pytest.raises(HallforgeError):
        cancellation_check(h, h.basis(pair))


# ---------------------------------------------------------------------------
# one-loop and cyclic closed forms


def test_one_loop_closed_form_small(hall_jordan2):
    h = hall_jordan2
    # r = 1, nilpotent point: the class of the 1-dim nilpotent, primitive
    f = one_loop_cuspidal_closed_form(h, 1, (0, 1))
    assert len(f.terms) == 1 and h.is_primitive(f)
    # r = 2 at the nilpotent point: [J_2] - [J_1 + J_1]
    f = one_loop_cuspidal_closed_form(h, 2, (0, 1))
    assert sorted(str(v) for v in f.terms.values()) == ["-1", "1"]
    assert h.is_primitive(f)


def test_one_loop_closed_form_membership(hall_jordan2, hall_jordan3):
    for h, ctx in ((hall_jordan2, F2), (hall_jordan3, F3)):
        for r in (1, 2, 3):
            space = cuspidal_space(h, (r,))
            coords = [c.key for c in h.registry.classes((r,))]
            rows = space.coefficient_rows(coords)
            irr = monic_irreducibles(ctx, r)
            for d in range(1, r + 1):
                if r % d:
                    continue
                for pt in irr[d]:
                    f = one_loop_cuspidal_closed_form(h, r // d, pt)
                    frows = CuspidalSpace((r,), coords, [f]).coefficient_rows(coords)
                    assert subspace_contains(rows, frows)
                    assert h.is_primitive(f)


def test_one_loop_degree_two_point(hall_jordan2):
    # r = 1 at the quadratic point: a single companion class, cuspidal
    f = one_loop_cuspidal_closed_form(hall_jordan2, 1, (1, 1, 1))
    assert len(f.terms) == 1
    ((key, val),) = f.terms.items()
    assert key[0] == (2,) and val == hall_jordan2.scalar(1)
    assert hall_jordan2.is_primitive(f)


def test_cyclic_nilpotent_cuspidals():
    for n in (2, 3):
        for ctx in (F2, F3):
            reg = IsoRegistry(cyclic_quiver(n), ctx, nilpotent_only=True)
            h = HallAlgebra(reg)
            for d in (1, 2):
                f = cyclic_nilpotent_cuspidal(h, d)
                assert h.is_primitive(f)
                indec = [c.key for c in reg.classes((d,) * n) if c.indec]
                assert len(indec) == n
                assert all(f.coeff(k) == h.scalar(1) for k in indec)


def test_cyclic_c2_split_coefficient():
    # the value on [S_0 + S_1] is forced by primitivity: -(q-1)
    for ctx, q in ((F2, 2), (F3, 3)):
        reg = IsoRegistry(cyclic_quiver(2), ctx, nilpotent_only=True)
        h = HallAlgebra(reg)
        f = cyclic_nilpotent_cuspidal(h, 1)
        split = next(c.key for c in reg.classes((1, 1)) if not c.indec)
        assert f.coeff(split) == h.scalar(1 - q)


# ---------------------------------------------------------------------------
# isotropic support


WILD1 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
WILD2 = Quiver(("1", "2"), ((0, 0), (0, 1)))
WILD3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2), (0, 2), (0, 2)))


@pytest.mark.parametrize("quiver,grade", [
    (WILD1, (1, 1, 0)),
    (WILD2, (1, 0)),
    (WILD3, (1, 0, 1)),
])
def test_isotropic_support(quiver, grade):
    assert classify_type(quiver).tag == "wild"
    h = HallAlgebra(IsoRegistry(quiver, F2))
    rep = isotropic_support_check(h, grade)
    assert rep["status"] == "pass", rep


def test_isotropic_disconnected_support_vacuous():
    w = Quiver(("1", "2", "3", "4"), ((0, 1), (0, 1), (2, 3), (2, 3)))
    h = HallAlgebra(IsoRegistry(w, F2))
    rep = isotropic_support_check(h, (1, 1, 1, 1))
    assert rep["status"] == "vacuous"
    assert rep["dims"]["cuspidal"] == 0


def test_isotropic_guard():
    h = HallAlgebra(IsoRegistry(WILD1, F2))
    with pytest.raises(HallforgeError):
        isotropic_support_check(h, (1, 0, 0))


def test_solver_certificates_fire(hall_kron2, kron2, tubes_kron2):
    delta = kron2.qtype.delta
    # dropping one tube leaves the regular cuspidal dimension one above the tube count
    with pytest.raises(CertificateError) as err:
        regular_cuspidal_space(hall_kron2, tubes_kron2[1:], 1, delta)
    assert (err.value.grade, err.value.expected, err.value.got) == ((1, 1), 2, 3)
    # three regular simples of dimension delta over GF(2): the lookup is not unique
    with pytest.raises(CertificateError) as err:
        unique_indec_key(kron2, (1, 1))
    assert (err.value.expected, err.value.got) == (1, 3)
    with pytest.raises(HallforgeError):
        cyclic_nilpotent_cuspidal(hall_kron2, 1)


def test_guards_survive_optimize():
    code = (
        "from hallforge.cuspidal import isotropic_support_check\n"
        "from hallforge.errors import CertificateError, HallforgeError\n"
        "from hallforge.gf import GF\n"
        "from hallforge.hall import HallAlgebra, QNum\n"
        "from hallforge.quiver import kronecker\n"
        "from hallforge.registry import IsoRegistry\n"
        "assert False, 'asserts are live'\n"
        "h = HallAlgebra(IsoRegistry(kronecker(), GF.of(2)))\n"
        "try:\n"
        "    isotropic_support_check(h, (1, 0))\n"
        "except CertificateError:\n"
        "    print('wrong class')\n"
        "except HallforgeError as err:\n"
        "    print(err)\n"
        "try:\n"
        "    QNum(0, 1, 2).as_fraction()\n"
        "except CertificateError as err:\n"
        "    print(err)\n"
        "from dataclasses import replace\n"
        "from hallforge.cuspidal import kronecker_embedding\n"
        "from hallforge.quiver import affine_a2_acyclic, d4_star_out\n"
        "from hallforge.reps import simple_rep\n"
        "s1 = simple_rep(kronecker(), GF.of(2), 0)\n"
        "for quiver in (d4_star_out(), affine_a2_acyclic()):\n"
        "    emb = kronecker_embedding(HallAlgebra(IsoRegistry(quiver, GF.of(2))))\n"
        "    other = {'one-vertex': 'two-arrows', 'two-arrows': 'one-vertex'}\n"
        "    try:\n"
        "        replace(emb, wiring=other[emb.wiring]).apply(s1)\n"
        "    except CertificateError as err:\n"
        "        print(err.what, err.expected, err.got)\n"
        "import numpy as np\n"
        "from hallforge import cuspidal\n"
        "cuspidal.hom_stack = lambda ms, ns: (None, np.zeros(len(ms), dtype=int))\n"
        "try:\n"
        "    cuspidal.primitive_space(HallAlgebra(IsoRegistry(kronecker(), GF.of(2))), (2, 0))\n"
        "except CertificateError as err:\n"
        "    print(err.what, err.expected, err.got)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "grade (1, 0) is not isotropic",
        "rational value: expected no sqrt part, got (0 + 1*sqrt(2))",
        # the theta weight of the arrows into the extending vertex
        "theta at arrow 0->1 1 2",
        "theta at arrow 1->2 2 1",
        # a corrupted Hom gives ext^1(S_0, S_0) = 0 - <(1,0), (1,0)> = -1
        "ext1 dimension from ((1, 0), 0) to ((1, 0), 0) a nonnegative value -1",
    ]


# ---------------------------------------------------------------------------
# the embedding of Kronecker representations


def rand_kron(rng, ctx, d0, d1):
    return rep_with_dims(kronecker(), ctx, (d0, d1), [
        [[rng.randrange(ctx.q) for _ in range(d0)] for _ in range(d1)]
        for _ in range(2)
    ])


def test_embedding_d4():
    reg = IsoRegistry(d4_star_out(), F2)
    h = HallAlgebra(reg)
    emb = kronecker_embedding(h)
    assert emb.wiring == "one-vertex"
    s1 = simple_rep(kronecker(), F2, 0)
    s2 = simple_rep(kronecker(), F2, 1)
    assert reg.identify(emb.apply(s1)) == unique_indec_key(reg, emb.theta)
    assert reg.identify(emb.apply(s2)) == reg.identify(
        simple_rep(d4_star_out(), F2, emb.i0))
    # images of the (1,1)-classes are regular of dimension delta, distinct
    images = set()
    regK = IsoRegistry(kronecker(), F2)
    for c in regK.classes((1, 1)):
        if c.indec:
            key = reg.identify(emb.apply(c.canon))
            assert reg.cls(key).pri_class == "regular"
            assert key[0] == (2, 1, 1, 1, 1)
            images.add(key)
    assert len(images) == 3


def test_embedding_hom_ext_preserved():
    rng = random.Random(31)
    for quiver in (d4_star_out(), a4_square(), affine_a2_acyclic()):
        reg = IsoRegistry(quiver, F2)
        h = HallAlgebra(reg)
        emb = kronecker_embedding(h)
        for _ in range(10):
            v = rand_kron(rng, F2, rng.randrange(3), rng.randrange(3))
            w = rand_kron(rng, F2, rng.randrange(3), rng.randrange(3))
            assert hom_dim(v, w) == hom_dim(emb.apply(v), emb.apply(w))
            assert ext1_dim(v, w) == ext1_dim(emb.apply(v), emb.apply(w))


def test_embedding_image_characterization():
    # the image in a mixed grade is exactly the classes admitting a
    # sub isomorphic to S_{i0}^{d2} with quotient I_theta^{d1}
    regK = IsoRegistry(kronecker(), F2)
    cases = [(d4_star_out(), [(1, 1)]),
             (affine_a2_acyclic(), [(1, 1), (2, 1), (1, 2)])]
    for quiver, splits in cases:
        reg = IsoRegistry(quiver, F2)
        h = HallAlgebra(reg)
        emb = kronecker_embedding(h)
        theta_key = unique_indec_key(reg, emb.theta)
        s_key = reg.identify(simple_rep(quiver, F2, emb.i0))
        for (d1, d2) in splits:
            grade = tuple(d1 * t + (d2 if i == emb.i0 else 0)
                          for i, t in enumerate(emb.theta))
            pow_theta = multiple_class(reg, theta_key, d1)
            pow_s = multiple_class(reg, s_key, d2)
            image = {reg.identify(emb.apply(c.canon)) for c in regK.classes((d1, d2))}
            ext = {c.key for c in reg.classes(grade)
                   if reg.census(c.key).get((pow_theta, pow_s))}
            assert image == ext


def test_embedding_d4_tube_parameters(d4star2, kron2):
    # the three non-homogeneous tubes sit at the images of three rational
    # points, and the remaining rational points give regular simples
    reg = d4star2
    h = HallAlgebra(reg)
    tube_decomposition(h, 1)
    emb = kronecker_embedding(h)
    tube_ids = set()
    for c in kron2.classes((1, 1)):
        if c.indec:
            key = reg.identify(emb.apply(c.canon))
            tube_ids.add(reg.cls(key).tube_id)
    assert len(tube_ids) == 3
