"""Acceptance suite: one test per criterion, every check an exact equality.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with timings.  Heavy registries are shared session fixtures.
"""

import itertools
import random
import time
from fractions import Fraction

from hallforge.counting import (IntPolynomial, absolute_cuspidal_polys,
                                count_absolutely_indecomposable,
                                count_indecomposables, descent_prediction,
                                interpolate_polynomial, points_of_degree_dividing)
from hallforge.cuspidal import (CuspidalSpace, TubePermutation, cancellation_check,
                                conjecture1_check, conjecture2_check, cuspidal_space,
                                cyclic_nilpotent_cuspidal, delta_evaluation_identity,
                                isotropic_support_check, one_loop_cuspidal_closed_form,
                                regular_cuspidal_space, subspace_contains,
                                tube_decomposition, verify_kernel_theorem,
                                verify_sigma_hopf)
from hallforge.gf import GF, monic_irreducibles
from hallforge.hall import HallAlgebra
from hallforge.quiver import (Quiver, affine_a2_acyclic, classify_type,
                              cyclic_quiver, kronecker)
from hallforge.registry import IsoRegistry
from hallforge.cli import pbw_rank

F2, F3 = GF.of(2), GF.of(3)


def report(criterion, started, detail=""):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}".rstrip())


def test_criterion_1_iso_class_censuses(kron2, jordan2):
    started = time.time()
    assert len(kron2.classes((1, 1))) == 4
    assert len(jordan2.classes((2,))) == 6
    # mass formula for every grade enumerated so far, both registries
    for reg in (kron2, jordan2):
        for grade, sl in reg.slices.items():
            if not any(grade):
                continue
            total = sum(Fraction(reg.group_order(grade), c.aut_order)
                        for c in sl.classes)
            assert total == reg.ambient_count(grade), grade
    report(1, started, "censuses 4/6 and the orbit mass identity")


def _keys_within(reg, top):
    out = []
    for g in reg.grades_below(top):
        out.extend(c.key for c in reg.classes(g))
    return out


def _coassociative(h, key):
    left, right = {}, {}
    delta = h.comultiply(h.basis(key))
    for (u, v), c in delta.terms.items():
        for (u1, u2), c2 in h.comultiply(h.basis(u)).terms.items():
            w = c * c2
            if w:
                left[(u1, u2, v)] = left.get((u1, u2, v), h.zero()) + w
        for (v1, v2), c2 in h.comultiply(h.basis(v)).terms.items():
            w = c * c2
            if w:
                right[(u, v1, v2)] = right.get((u, v1, v2), h.zero()) + w
    return {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_criterion_2_hall_axioms(hall_kron2, kron2, hall_kron3, kron3):
    started = time.time()
    h, reg = hall_kron2, kron2
    keys = _keys_within(reg, (2, 2))
    assoc = hopf = 0
    for a, b, c in itertools.product(keys, repeat=3):
        tot = tuple(x + y + z for x, y, z in zip(a[0], b[0], c[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        fa, fb, fc = h.basis(a), h.basis(b), h.basis(c)
        lhs = h.multiply(h.multiply(fa, fb), fc)
        rhs = h.multiply(fa, h.multiply(fb, fc))
        assert lhs.terms == rhs.terms, (a, b, c)
        assoc += 1
    for key in keys:
        assert _coassociative(h, key), key
    for a, b in itertools.product(keys, repeat=2):
        tot = tuple(x + y for x, y in zip(a[0], b[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        for ck in (c.key for c in reg.classes(tot)):
            assert h.hopf_pairing_check(h.basis(a), h.basis(b), h.basis(ck))
            hopf += 1
    # randomized triples at q = 3
    rng = random.Random(2024)
    keys3 = _keys_within(kron3, (2, 2))
    done = 0
    while done < 30:
        a, b = rng.choice(keys3), rng.choice(keys3)
        tot = tuple(x + y for x, y in zip(a[0], b[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        ck = rng.choice(kron3.classes(tot)).key
        assert hall_kron3.hopf_pairing_check(
            hall_kron3.basis(a), hall_kron3.basis(b), hall_kron3.basis(ck))
        assert _coassociative(hall_kron3, ck)
        done += 1
    report(2, started, f"{assoc} associativity, {hopf} pairing triples at q=2; "
                       f"{done} randomized at q=3")


def test_criterion_3_counting_identities(hall_kron2, kron2, hall_kron3, kron3):
    started = time.time()
    pairs = primes = 0
    for h, reg in ((hall_kron2, kron2), (hall_kron3, kron3)):
        keys = _keys_within(reg, (1, 1))
        for a, b in itertools.product(keys, repeat=2):
            tot = tuple(x + y for x, y in zip(a[0], b[0]))
            if tot[0] > 2 or tot[1] > 2:
                continue
            assert h.ext_total_check(a, b), (a, b)
            pairs += 1
            for ck in (c.key for c in reg.classes(tot)):
                from hallforge.reps import hom_dim
                da = hom_dim(reg.cls(b).canon, reg.cls(ck).canon)
                db = hom_dim(reg.cls(ck).canon, reg.cls(a).canon)
                if h.q ** (da + db) <= 1024:
                    assert h.exact_sequence_count_check(a, b, ck), (a, b, ck)
                    primes += 1
    report(3, started, f"{pairs} extension-total sums, {primes} exact-sequence counts")


def test_criterion_4_cuspidal_dimensions(hall_kron2, hall_kron3,
                                         hall_jordan2, hall_jordan3):
    started = time.time()
    assert cuspidal_space(hall_kron2, (1, 1)).dim == 2
    assert cuspidal_space(hall_kron3, (1, 1)).dim == 3
    assert cuspidal_space(hall_kron2, (2, 2)).dim == 3
    for h, ctx in ((hall_jordan2, F2), (hall_jordan3, F3)):
        irr = monic_irreducibles(ctx, 3)
        for r in (1, 2, 3):
            expected = sum(len(irr[d]) for d in range(1, r + 1) if r % d == 0)
            assert cuspidal_space(h, (r,)).dim == expected, (ctx.q, r)
    report(4, started, "delta/2delta dims and one-loop irreducible counts")


def test_criterion_5_kernel_theorem(hall_kron2, tubes_kron2, hall_kron3, tubes_kron3):
    started = time.time()
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        for r in (1, 2):
            rep = verify_kernel_theorem(h, tubes, r)
            assert rep["status"] == "pass", rep
            assert delta_evaluation_identity(h, tubes, r)
    regA = IsoRegistry(affine_a2_acyclic(), F2)
    hA = HallAlgebra(regA)
    tubesA = tube_decomposition(hA, 1)
    rep = verify_kernel_theorem(hA, tubesA, 1)
    assert rep["status"] == "pass", rep
    assert delta_evaluation_identity(hA, tubesA, 1)
    report(5, started, "Kronecker q=2,3 r=1,2 and the acyclic 3-cycle at q=2")


def test_criterion_6_closed_forms(hall_jordan2, hall_jordan3):
    started = time.time()
    for h, ctx in ((hall_jordan2, F2), (hall_jordan3, F3)):
        for r in (1, 2, 3, 4):
            space = cuspidal_space(h, (r,))
            coords = [c.key for c in h.registry.classes((r,))]
            rows = space.coefficient_rows(coords)
            irr = monic_irreducibles(ctx, r)
            for d in range(1, r + 1):
                if r % d:
                    continue
                for pt in irr[d]:
                    f = one_loop_cuspidal_closed_form(h, r // d, pt)
                    frows = CuspidalSpace((r,), coords, [f]) \
                        .coefficient_rows(coords)
                    assert subspace_contains(rows, frows), (ctx.q, r, pt)
    for n in (2, 3):
        for ctx in (F2, F3):
            reg = IsoRegistry(cyclic_quiver(n), ctx, nilpotent_only=True)
            h = HallAlgebra(reg)
            for d in (1, 2):
                f = cyclic_nilpotent_cuspidal(h, d)  # asserts dim 1, equal values
                assert h.is_primitive(f)
    report(6, started, "one-loop closed forms r<=4 and cyclic lines at q=2,3")


def test_criterion_7_symmetry_results(hall_kron2, tubes_kron2,
                                      hall_kron3, tubes_kron3):
    started = time.time()
    for h, tubes in ((hall_kron2, tubes_kron2), (hall_kron3, tubes_kron3)):
        delta = h.registry.qtype.delta
        for s in (1, 2):
            assert conjecture1_check(h, tubes, 1, s)
        for lam in [(1,), (2,), (1, 1)]:
            assert conjecture2_check(h, tubes, lam)
        for r in (1, 2):
            _, normalized = regular_cuspidal_space(h, tubes, r, delta)
            for n in normalized:
                assert cancellation_check(h, n.element)
        rng = random.Random(7)
        keys = [c.key for g in [(1, 1), (1, 0), (0, 1)]
                for c in h.registry.classes(g)]
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(10)]
        grades = [(1, 1), (2, 2)]
        by_degree = {}
        for t in tubes:
            if t.homogeneous:
                by_degree.setdefault(t.degree, []).append(t.tid)
        for tids in by_degree.values():
            for i, j in itertools.combinations(tids, 2):
                sigma = TubePermutation(h, tubes, {i: j, j: i})
                rep = verify_sigma_hopf(h, tubes, sigma, grades, pairs)
                assert rep["status"] == "pass", rep
    report(7, started, "conjectures, cancellation, all tube transpositions")


def test_criterion_8_counting_pipeline(kron2, kron3, kron4, hall_kron2, hall_kron3, hall_kron4):
    started = time.time()
    # interpolated Kac polynomial at delta, verified on a held-out point
    samples = []
    for q in (2, 3, 4, 5):
        reg = {2: kron2, 3: kron3, 4: kron4}.get(q) or IsoRegistry(kronecker(), GF.of_q(q))
        samples.append((q, Fraction(count_absolutely_indecomposable(reg, (1, 1)))))
    a_poly = interpolate_polynomial(samples, 1)
    assert a_poly == IntPolynomial([1, 1])
    for reg, q in ((kron2, 2), (kron3, 3)):
        for r in (1, 2):
            assert Fraction(count_indecomposables(reg, (r, r))) == \
                descent_prediction(lambda rr, qq: a_poly(qq), r, q)
    # measured cuspidal dimensions up the delta ray, q = 4 held out
    halls = {2: hall_kron2, 3: hall_kron3, 4: hall_kron4}
    measured = {}
    for q, h in halls.items():
        for r in (1, 2, 3):
            measured[(r, q)] = cuspidal_space(h, (r, r)).dim
    for (r, q), v in measured.items():
        assert v == points_of_degree_dividing(r, q) - 1, ((r, q), v)
    polys = absolute_cuspidal_polys(measured, 3, [2, 3, 4], 1)
    assert polys == [IntPolynomial([0, 1])] * 3
    for p in polys:
        assert all(c.denominator == 1 and c >= 0 for c in p.coeffs)
    # isotropic support on three wild quivers containing affine supports
    wilds = [
        (Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2))), (1, 1, 0)),
        (Quiver(("1", "2"), ((0, 0), (0, 1))), (1, 0)),
        (Quiver(("1", "2", "3"), ((0, 1), (1, 2), (0, 2), (0, 2))), (1, 0, 1)),
    ]
    for quiver, grade in wilds:
        assert classify_type(quiver).tag == "wild"
        h = HallAlgebra(IsoRegistry(quiver, F2))
        rep = isotropic_support_check(h, grade)
        assert rep["status"] == "pass", rep
    report(8, started, "A = t+1 (held-out q=5), C_abs = t for r<=3 (held-out q=4), "
                       "three wild supports")


def test_criterion_9_pbw_spanning(hall_kron2):
    started = time.time()
    for grade in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        rank, dim = pbw_rank(hall_kron2, grade)
        assert rank == dim, (grade, rank, dim)
    report(9, started, "ordered monomials span every grade <= (2,2) at q=2")
