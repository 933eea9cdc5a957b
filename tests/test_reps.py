import random

import numpy as np

from hallforge import reps
from hallforge.gf import GF, Mat, gl_order
from hallforge.quiver import euler_form, jordan, kronecker
from hallforge.quiver import affine_a2_acyclic
from hallforge.registry import IsoRegistry
from hallforge.reps import (Rep, aut_order_from_summands, direct_sum, dualize_rep,
                            end_basis, ext1_dim, first_isomorphic, fitting_split, hom_dim,
                            hom_space,
                            is_indecomposable,
                            is_nilpotent_rep, is_stable, iso_indecomposables,
                            krull_schmidt, rep_with_dims, residue_degree,
                            simple_rep, sub_quotient)

K = kronecker()
J = jordan()
F2 = GF.of(2)
F3 = GF.of(3)


def kron_rep(ctx, x, y):
    return rep_with_dims(K, ctx, (1, 1), [[[x]], [[y]]])


def kron_thick(ctx, x, y, n=2):
    a = (np.eye(n, dtype=int) * x) % ctx.p
    b = (np.eye(n, dtype=int) * y) % ctx.p
    for i in range(n - 1):
        a[i, i + 1] = (a[i, i + 1] + 1) % ctx.p
        b[i, i + 1] = (b[i, i + 1] + 1) % ctx.p
    return rep_with_dims(K, ctx, (n, n), [a, b])


def test_hom_examples():
    s1, s2 = simple_rep(K, F2, 0), simple_rep(K, F2, 1)
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s1, s1) == 1
    for (x, y) in [(1, 0), (0, 1), (1, 1)]:
        st = kron_rep(F2, x, y)
        assert hom_dim(st, st) == 1  # regular simples are bricks
    # basis really intertwines
    p12 = rep_with_dims(K, F2, (1, 2), [[[1], [0]], [[0], [1]]])
    dim, basis = hom_space(p12, p12)
    assert dim == 1
    f = basis[0]
    for idx, (s, t) in enumerate(K.arrows):
        assert (f[t] @ p12.mats[idx]) == (p12.mats[idx] @ f[s])


def test_ext_examples():
    s1, s2 = simple_rep(K, F2, 0), simple_rep(K, F2, 1)
    assert ext1_dim(s1, s2) == 2
    assert ext1_dim(s2, s1) == 0
    p12 = rep_with_dims(K, F2, (1, 2), [[[1], [0]], [[0], [1]]])
    assert euler_form(K, (1, 2), (1, 2)) == 1
    assert hom_dim(p12, p12) == 1
    assert ext1_dim(p12, p12) == 0  # rigid


def test_euler_identity_random():
    rng = random.Random(2)
    for ctx in (F2, F3):
        for _ in range(25):
            d = (rng.randrange(3), rng.randrange(3))
            e = (rng.randrange(3), rng.randrange(3))
            m = rep_with_dims(K, ctx, d, [
                [[rng.randrange(ctx.q) for _ in range(d[0])] for _ in range(d[1])]
                for _ in range(2)
            ])
            n = rep_with_dims(K, ctx, e, [
                [[rng.randrange(ctx.q) for _ in range(e[0])] for _ in range(e[1])]
                for _ in range(2)
            ])
            assert hom_dim(m, n) - ext1_dim(m, n) == euler_form(K, d, e)


def test_indecomposable():
    s1, s2 = simple_rep(K, F2, 0), simple_rep(K, F2, 1)
    assert is_indecomposable(s1)
    assert not is_indecomposable(direct_sum(s1, s2))
    # the thick regular class xI+J, yI+J is indecomposable
    assert is_indecomposable(kron_thick(F2, 1, 0))
    assert is_indecomposable(kron_thick(F3, 1, 2))


def test_krull_schmidt_multiset_and_order_independence():
    st = kron_rep(F2, 1, 0)
    st2 = kron_rep(F2, 0, 1)
    m = direct_sum(direct_sum(st, st2), direct_sum(st, simple_rep(K, F2, 0)))
    parts = krull_schmidt(m)
    assert sorted(p.dims for p in parts) == [(1, 0), (1, 1), (1, 1), (1, 1)]
    basis = end_basis(m)
    rng = random.Random(0)
    reference = None
    for _ in range(4):
        # the first split searches End(m) in a shuffled order
        permuted = list(basis)
        rng.shuffle(permuted)
        parts = [p for half in fitting_split(m, permuted) for p in krull_schmidt(half)]
        multiset = sorted(
            (p.dims, hom_dim(p, p), is_nilpotent_rep(p)) for p in parts
        )
        if reference is None:
            reference = multiset
        assert multiset == reference


def test_fitting_split_eliminates_once_per_vertex_per_candidate(kron2, kron3, monkeypatch):
    # each stack of splitter candidates (the basis, the pair sums, a chunk of
    # the scan) raises its blocks at each vertex to their Fitting power and
    # eliminates them once; the split reuses those kernels, so it makes no
    # elimination after its search
    events = []
    rref, stack, cut = Mat.rref, GF.rref_stack, reps.sub_quotient

    def counted_rref(self):
        events.append("rref")
        return rref(self)

    def counted_stack(self, a):
        events.append("stack")
        return stack(self, a)

    def split(m, kers):
        events.append("split")
        return cut(m, kers)

    splits = 0
    for reg in (kron2, kron3):
        for grade in filter(any, reg.grades_below((2, 2))):
            for c in reg.classes(grade):
                basis = end_basis(c.canon)
                monkeypatch.setattr(Mat, "rref", counted_rref)
                monkeypatch.setattr(GF, "rref_stack", counted_stack)
                monkeypatch.setattr(reps, "sub_quotient", split)
                events.clear()
                halves = fitting_split(c.canon, basis)
                monkeypatch.undo()
                splits += halves is not None
                search = events[: events.index("split")] if halves else events
                assert events[len(search):] == (["split"] if halves else []), (c.key, events)
                # one stack elimination per vertex per stack of candidates
                assert search.count("stack") % K.n == 0 and search.count("stack") > 0, c.key
    assert splits > 0


def test_fitting_split_is_a_decomposition(kron2, kron3):
    # Auslander's criterion: m = K + Q exactly when hom(X, m) = hom(X, K) +
    # hom(X, Q) for every indecomposable X; checked against every class of
    # grade <= m.dims, which shares no code with the split
    cases = ((kron2, (2, 2)), (kron3, (2, 2)),
             (IsoRegistry(K, GF.of(2, 2)), (2, 2)),
             (IsoRegistry(affine_a2_acyclic(), F2), (1, 1, 1)))
    for reg, top in cases:
        for grade in filter(any, reg.grades_below(top)):
            for c in reg.classes(grade):
                m = c.canon
                halves = fitting_split(m, end_basis(m))
                assert (halves is None) == c.indec, c.key
                if halves is None:
                    continue
                sub, quot = halves
                assert sub.total_dim and quot.total_dim, c.key
                assert tuple(a + b for a, b in zip(sub.dims, quot.dims)) == m.dims
                for below in reg.grades_below(m.dims):
                    for x in reg.classes(below):
                        assert hom_dim(x.canon, m) == (hom_dim(x.canon, sub)
                                                       + hom_dim(x.canon, quot)), (c.key, x.key)


def test_dualize():
    reps = [simple_rep(K, F2, 0), simple_rep(K, F2, 1), kron_rep(F2, 1, 1),
            kron_thick(F2, 0, 1)]
    for m in reps:
        dd = dualize_rep(dualize_rep(m))
        assert dd.quiver == m.quiver and dd.dims == m.dims
        assert iso_reps_loose(dd, m)
        assert hash(dd) == hash(m)  # equal representations built apart hash equal
    for a in reps:
        for b in reps:
            assert hom_dim(a, b) == hom_dim(dualize_rep(b), dualize_rep(a))


def iso_reps_loose(a, b):
    # double dual is literally equal entrywise here (transpose twice)
    return a == b


def test_nilpotency():
    assert is_nilpotent_rep(rep_with_dims(J, F2, (1,), [[[0]]]))
    assert not is_nilpotent_rep(rep_with_dims(J, F2, (1,), [[[1]]]))
    j2 = rep_with_dims(J, F2, (2,), [[[0, 1], [0, 0]]])
    assert is_nilpotent_rep(j2)
    # acyclic quivers: everything nilpotent
    assert is_nilpotent_rep(kron_rep(F2, 1, 1))


def test_sub_quotient():
    st = kron_rep(F2, 1, 1)
    sub_bases = [Mat.zeros(F2, 0, 1), Mat(F2, [[1]])]
    assert is_stable(st, sub_bases)
    sub, quot = sub_quotient(st, sub_bases)
    assert sub.dims == (0, 1) and quot.dims == (1, 0)
    # a (1,0) subspace is not stable in a regular simple
    bad = [Mat(F2, [[1]]), Mat.zeros(F2, 0, 1)]
    assert not is_stable(st, bad)


def test_residue_degree():
    # companion matrix of x^2+x+1 over F2 has End = GF(4)
    comp = rep_with_dims(J, F2, (2,), [[[0, 1], [1, 1]]])
    assert is_indecomposable(comp)
    assert residue_degree(comp, end_basis(comp)) == 2
    j2 = rep_with_dims(J, F2, (2,), [[[0, 1], [0, 0]]])
    assert residue_degree(j2, end_basis(j2)) == 1
    brick = kron_rep(F3, 1, 1)
    assert residue_degree(brick, end_basis(brick)) == 1


def test_aut_order_formula():
    # S^{+2} on one vertex: |GL_2|
    assert aut_order_from_summands(4, [(2, 1)], 2) == gl_order(2, 2)
    assert aut_order_from_summands(4, [(2, 1)], 3) == gl_order(2, 3)
    # J_2: End is 2-dimensional local with residue GF(q)
    assert aut_order_from_summands(2, [(1, 1)], 2) == 2
    assert aut_order_from_summands(2, [(1, 1)], 3) == 6
    # distinct bricks with one-dimensional cross-homs in one direction:
    # q^(5 - 2) * (q-1)^2
    assert aut_order_from_summands(5, [(1, 1), (1, 1)], 2) == 8


def test_aut_inequality_for_sums():
    # |Aut(M + N)| >= |Aut M| * |Aut N|, equality iff no cross homs
    from hallforge.registry import IsoRegistry
    reg = IsoRegistry(K, F2)
    classes = {c.key: c for g in [(1, 0), (0, 1), (1, 1)] for c in reg.classes(g)}
    for a in classes.values():
        for b in classes.values():
            m = direct_sum(a.canon, b.canon)
            key = reg.identify(m)
            aut = reg.cls(key).aut_order
            assert aut >= a.aut_order * b.aut_order
            cross = hom_dim(a.canon, b.canon) + hom_dim(b.canon, a.canon)
            if cross == 0:
                assert aut == a.aut_order * b.aut_order


def test_iso_indecomposables():
    a = kron_rep(F2, 1, 0)
    b = kron_rep(F2, 0, 1)
    assert not iso_indecomposables(a, b)
    # conjugated copy of a thick indecomposable is isomorphic
    thick = kron_thick(F3, 1, 2)
    g = Mat(F3, [[1, 1], [0, 1]])
    gi = g.inverse()
    conj = Rep(K, F3, (2, 2), tuple(g @ m @ gi for m in thick.mats))
    assert iso_indecomposables(thick, conj)
    # a stack of candidates: the first isomorphic one is found
    other = kron_thick(F3, 1, 0)
    assert not iso_indecomposables(thick, other)
    assert first_isomorphic(thick, [other, conj, thick]) == 1
    assert first_isomorphic(thick, [other]) is None and first_isomorphic(thick, []) is None
