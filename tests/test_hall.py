import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallforge.config import Caps
from hallforge.errors import CapExceeded, SizeMismatch
from hallforge.gf import GF
from hallforge.hall import HallAlgebra, HallElement, QNum, TensorElement
from hallforge.quiver import euler_form, kronecker, single_vertex
from hallforge.registry import IsoRegistry
from hallforge.reps import simple_rep

F2, F3 = GF.of(2), GF.of(3)


@pytest.fixture(scope="module")
def a1():
    reg = IsoRegistry(single_vertex(), F2)
    return HallAlgebra(reg)


def skey(reg, vertex):
    return reg.identify(simple_rep(reg.quiver, reg.ctx, vertex))


def test_qnum_arithmetic(hall_kron4):
    nu = QNum(0, 1, 2)  # sqrt(2)
    assert nu * nu == QNum(2)
    assert (1 / nu) * nu == QNum(1)
    assert QNum(Fraction(1, 2), Fraction(3, 4), 2) - QNum(Fraction(1, 2), 0, 2) \
        == QNum(0, Fraction(3, 4), 2)
    # square q collapses to rationals
    assert hall_kron4.nu_pow(1) == QNum(2)
    assert hall_kron4.nu_pow(-1) == QNum(Fraction(1, 2))
    h2 = HallAlgebra(IsoRegistry(kronecker(), F2))
    assert h2.nu_pow(2) == QNum(2)
    assert h2.nu_pow(-2) == QNum(Fraction(1, 2))
    assert h2.nu_pow(1) * h2.nu_pow(1) == QNum(2)


def test_qnum_rational_operand_adopts_the_other_field():
    one, two, r2 = QNum(1), QNum(2), QNum(0, 1, 2)  # r2 = sqrt(2)
    for x, y in ((one, r2), (r2, one)):
        assert x + y == QNum(1, 1, 2)
        assert x * y == r2
    assert one - r2 == QNum(1, -1, 2) and r2 - one == QNum(-1, 1, 2)
    assert two / r2 == r2 and r2 / two == QNum(0, Fraction(1, 2), 2)
    assert 1 - r2 == one - r2 and 2 / r2 == two / r2  # plain number on the left
    assert one != r2 and r2 != one
    assert QNum(2, 0, 2) == two and two == QNum(2, 0, 2)
    assert one + QNum(0, 1, 3) == QNum(1, 1, 3)  # m = 1 takes either field
    with pytest.raises(SizeMismatch):
        r2 + QNum(0, 1, 3)
    with pytest.raises(SizeMismatch):
        QNum(0, 1, 3) * r2


_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(a=_fracs, b=_fracs, c=_fracs, d=_fracs, m=st.sampled_from((1, 2, 3)),
       form=st.sampled_from(("int", "fraction", "rational", "in_field")))
def test_qnum_product_paths_match_generic_formula(a, b, c, d, m, form):
    def generic(c, d):
        return QNum(a * c + b * d * m, a * d + b * c, m)

    x = QNum(a, b, m)
    assert x * QNum(c, d, m) == generic(c, d)
    r = {"int": int(c), "fraction": c, "rational": QNum(c), "in_field": QNum(c, 0, m)}[form]
    want = generic(Fraction(int(c)) if form == "int" else c, 0)
    for got in (x * r, r * x):
        assert got == want and hash(got) == hash(want)
        assert got.m == m or not got.b
        # a rational value equals and hashes as itself in any field
        if not got.b:
            for other in (QNum(got.a), QNum(got.a, 0, 2), got.a):
                assert got == other and other == got
            assert hash(got) == hash(QNum(got.a)) == hash(QNum(got.a, 0, 3))


def test_a1_product_and_coproduct(a1):
    reg = a1.registry
    s = a1.basis(skey(reg, 0))
    ss_key = reg.classes((2,))[0].key
    prod = a1.multiply(s, s)
    assert prod.terms == {ss_key: a1.nu_pow(1) * 3}
    d = a1.comultiply(a1.basis(ss_key))
    s_key = skey(reg, 0)
    assert d.coeff((s_key, s_key)) == a1.nu_pow(-1)
    # F^{S+S}_{S,S} counts the lines of F_q^2
    assert a1.hall_number(ss_key, s_key, s_key) == 3


def test_green_pairing(a1, hall_jordan2):
    reg = a1.registry
    ss_key = reg.classes((2,))[0].key
    assert a1.green_pairing(a1.basis(ss_key), a1.basis(ss_key)) == QNum(Fraction(1, 6))
    s = a1.basis(skey(reg, 0))
    assert a1.green_pairing(s, a1.basis(ss_key)) == QNum(0)
    # Jordan dim 1: ([S],[S]) = 1/(q-1)
    hj = hall_jordan2
    k = hj.registry.classes((1,))[0].key
    assert hj.green_pairing(hj.basis(k), hj.basis(k)) == QNum(1)  # q-1 = 1


def test_kronecker_products(hall_kron2, kron2):
    h = hall_kron2
    s1, s2 = skey(kron2, 0), skey(kron2, 1)
    split = next(c.key for c in kron2.classes((1, 1)) if not c.indec)
    # [S2] * [S1] = [S1 + S2]
    p = h.multiply(h.basis(s2), h.basis(s1))
    assert p.terms == {split: h.scalar(1)}
    # [S1] * [S2] = q^{-1} (split + all regular simples)
    p = h.multiply(h.basis(s1), h.basis(s2))
    assert set(p.terms) == {c.key for c in kron2.classes((1, 1))}
    assert all(v == h.nu_pow(-2) for v in p.terms.values())


def test_kronecker_coproduct(hall_kron2, kron2):
    h = hall_kron2
    s1, s2 = skey(kron2, 0), skey(kron2, 1)
    for c in kron2.classes((1, 1)):
        if not c.indec:
            continue
        defect = h.coproduct_defect(h.basis(c.key))
        assert set(defect.terms) == {(s1, s2)}
        assert defect.coeff((s1, s2)) == h.scalar(Fraction(1, 2))  # (q-1)/q
    # simples are primitive
    assert h.is_primitive(h.basis(s1))
    assert h.is_primitive(h.basis(s2))


def _keys_upto(reg, top):
    out = []
    for g in reg.grades_below(top):
        out.extend(c.key for c in reg.classes(g))
    return out


def _census_product(h, f, g):
    """f * g read straight off the censuses: grades in first-seen order,
    classes in registry order within a grade."""
    reg = h.registry
    by_grade = {}
    for mk, cm in f.terms.items():
        for nk, cn in g.terms.items():
            tgt = tuple(a + b for a, b in zip(mk[0], nk[0]))
            by_grade.setdefault(tgt, []).append((mk, nk, cm * cn))
    out = {}
    for tgt, pairs in by_grade.items():
        for cls in reg.classes(tgt):
            census = reg.census(cls.key)
            v = QNum(0)
            for mk, nk, c in pairs:
                if (mk, nk) in census:
                    v = v + c * h.nu_pow(euler_form(reg.quiver, mk[0], nk[0])) * census[(mk, nk)]
            if v:
                out[cls.key] = v
    return out


def _census_coproduct(h, rk):
    reg = h.registry
    return {(qk, sk): h.nu_pow(euler_form(reg.quiver, qk[0], sk[0]))
            * Fraction(n * reg.cls(qk).aut_order * reg.cls(sk).aut_order, reg.cls(rk).aut_order)
            for (qk, sk), n in reg.census(rk).items()}


@pytest.mark.parametrize("p,top", [(2, (2, 2)), (3, (1, 2))])
def test_tables_match_census_formulas(p, top, kron2, kron3):
    reg = {2: kron2, 3: kron3}[p]
    h = HallAlgebra(reg)
    keys = _keys_upto(reg, top)
    for a, b in itertools.product(keys, repeat=2):
        if all(x + y <= t for x, y, t in zip(a[0], b[0], top)):
            fa, fb = h.basis(a), h.basis(b)
            want = _census_product(h, fa, fb)
            got = h.multiply(fa, fb).terms
            assert got == want and list(got) == list(want)
    for k in keys:
        assert h.comultiply(h.basis(k)).terms == _census_coproduct(h, k)
    # a whole grade, its terms in reverse registry order, times each basis
    # class on either side: accumulation and key order of whole elements
    low = [k for k in keys if sum(k[0]) == 1] + [h.unit_key()]
    f = HallElement({k: h.nu_pow(e) for e, k in enumerate(low, -1)})
    f_top = tuple(max(col) for col in zip(*(k[0] for k in low)))
    for grade in reg.grades_below(top):
        g = HallElement({c.key: h.scalar(e) for e, c in enumerate(reversed(reg.classes(grade)), 1)})
        for b, b_top in [(f, f_top)] + [(h.basis(k), k[0]) for k in keys]:
            if all(x + y <= t for x, y, t in zip(grade, b_top, top)):
                for x, y in ((g, b), (b, g)):
                    got = h.multiply(x, y).terms
                    want = _census_product(h, x, y)
                    assert got == want and list(got) == list(want)


def test_tables_are_built_once(monkeypatch):
    calls = []
    censuses = IsoRegistry.censuses  # every census is taken through it

    def counted(reg, keys):
        calls.append(reg)
        return censuses(reg, keys)

    monkeypatch.setattr(IsoRegistry, "censuses", counted)
    reg = IsoRegistry(kronecker(), F2)
    h = HallAlgebra(reg)
    keys = _keys_upto(reg, (1, 1))
    pairs = [(a, b) for a, b in itertools.product(keys, repeat=2)
             if all(x + y <= 1 for x, y in zip(a[0], b[0]))]

    def run(alg, key_pairs, key_list):
        return ([alg.multiply(alg.basis(a), alg.basis(b)).terms for a, b in key_pairs],
                [alg.comultiply(alg.basis(k)).terms for k in key_list])

    first = run(h, pairs, keys)
    assert calls
    calls.clear()
    assert run(h, pairs, keys) == first
    assert calls == []
    # the dual algebra keeps its own tables over its own registry
    hd = h.dual_algebra()
    dual_pairs = [(next(iter(h.dualize(h.basis(b), hd).terms)),
                   next(iter(h.dualize(h.basis(a), hd).terms))) for a, b in pairs]
    dual_products, _ = run(hd, dual_pairs, [])
    assert calls and all(r is hd.registry for r in calls)
    for (a, b), got in zip(pairs, dual_products):
        assert h.dualize(h.multiply(h.basis(a), h.basis(b)), hd).terms == got
    calls.clear()
    run(h, pairs, keys)
    run(hd, dual_pairs, [])
    assert calls == []


def test_associativity_exhaustive_q2(hall_kron2, kron2):
    h = hall_kron2
    keys = _keys_upto(kron2, (2, 2))
    for a, b, c in itertools.product(keys, repeat=3):
        tot = tuple(x + y + z for x, y, z in zip(a[0], b[0], c[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        fa, fb, fc = h.basis(a), h.basis(b), h.basis(c)
        lhs = h.multiply(h.multiply(fa, fb), fc)
        rhs = h.multiply(fa, h.multiply(fb, fc))
        assert lhs.terms == rhs.terms, (a, b, c)


def _coassoc_check(h, key):
    left = {}
    for (u, v), c in h.comultiply(h.basis(key)).terms.items():
        for (u1, u2), c2 in h.comultiply(h.basis(u)).terms.items():
            w = c * c2
            if w:
                left[(u1, u2, v)] = left.get((u1, u2, v), h.zero()) + w
    right = {}
    for (u, v), c in h.comultiply(h.basis(key)).terms.items():
        for (v1, v2), c2 in h.comultiply(h.basis(v)).terms.items():
            w = c * c2
            if w:
                right[(u, v1, v2)] = right.get((u, v1, v2), h.zero()) + w
    left = {k: v for k, v in left.items() if v}
    right = {k: v for k, v in right.items() if v}
    return left == right


def test_coassociativity_exhaustive_q2(hall_kron2, kron2):
    for key in _keys_upto(kron2, (2, 2)):
        assert _coassoc_check(hall_kron2, key), key


def test_hopf_pairing_exhaustive_q2(hall_kron2, kron2):
    h = hall_kron2
    keys = _keys_upto(kron2, (2, 2))
    for a, b in itertools.product(keys, repeat=2):
        tot = tuple(x + y for x, y in zip(a[0], b[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        for ck in (c.key for c in kron2.classes(tot)):
            assert h.hopf_pairing_check(h.basis(a), h.basis(b), h.basis(ck))


def test_hall_axioms_randomized_q3(hall_kron3, kron3):
    h = hall_kron3
    rng = random.Random(17)
    keys = _keys_upto(kron3, (2, 2))
    for _ in range(25):
        a, b = rng.choice(keys), rng.choice(keys)
        tot = tuple(x + y for x, y in zip(a[0], b[0]))
        if tot[0] > 2 or tot[1] > 2:
            continue
        c = rng.choice(kron3.classes(tot)).key
        assert h.hopf_pairing_check(h.basis(a), h.basis(b), h.basis(c))
        assert _coassoc_check(h, c)


def _materialised_sides(h, f, g, x):
    """(fg, x) and (f (x) g, Delta x), with every product built in full."""
    return (h.green_pairing(h.multiply(f, g), x),
            h.tensor_pairing(h.tensor(f, g), h.comultiply(x)))


def test_hopf_pairing_sides_match_the_materialised_formulas(hall_kron2, kron2,
                                                            hall_kron3, kron3):
    # every basis triple up to (2,1) at q = 2, h of any grade up to there
    h = hall_kron2
    keys = _keys_upto(kron2, (2, 1))
    nontrivial = 0
    for a, b, c in itertools.product(keys, repeat=3):
        if a[0][0] + b[0][0] > 2 or a[0][1] + b[0][1] > 1:
            continue
        f, g, x = h.basis(a), h.basis(b), h.basis(c)
        sides = h.hopf_pairing_sides(f, g, x)
        assert sides == _materialised_sides(h, f, g, x), (a, b, c)
        nontrivial += bool(sides[0])
    assert nontrivial > 20
    # (1,1) + (1,1) at q = 3
    h = hall_kron3
    ones = [c.key for c in kron3.classes((1, 1))]
    for a, b in itertools.product(ones, repeat=2):
        for c in kron3.classes((2, 2)):
            f, g, x = h.basis(a), h.basis(b), h.basis(c.key)
            assert h.hopf_pairing_sides(f, g, x) == _materialised_sides(h, f, g, x)
    # random non-basis elements with sqrt(2) parts, mixed grades, at q = 2
    h = hall_kron2
    rng = random.Random(5)
    keys = _keys_upto(kron2, (1, 1))

    def element():
        return HallElement({k: QNum(rng.randint(-3, 3) or 1, rng.randint(-2, 2), 2)
                            for k in rng.sample(keys, 3)})

    for _ in range(30):
        f, g = element(), element()
        x = HallElement({c.key: QNum(rng.randint(1, 4), rng.randint(-2, 2), 2)
                         for c in kron2.classes((2, 2))[::3] + kron2.classes((1, 1))})
        lhs, rhs = h.hopf_pairing_sides(f, g, x)
        assert (lhs, rhs) == _materialised_sides(h, f, g, x)
        assert lhs == rhs


def test_hopf_pairing_check_reads_the_tables(kron2):
    h = HallAlgebra(kron2)  # its own tables: this test edits them
    r = kron2.classes((1, 1))[0].key
    (x, y), c = next((pair, c) for pair, c in h._coproduct_row(r).items()
                     if pair[0][0] == (1, 0))
    f, g, s = h.basis(x), h.basis(y), h.basis(r)
    assert h.hopf_pairing_check(f, g, s)
    h._coproduct_row(r)[(x, y)] = c + 1
    assert not h.hopf_pairing_check(f, g, s)
    h._coproduct_row(r)[(x, y)] = c
    assert h.hopf_pairing_check(f, g, s)
    h._product_table((1, 1))[(x, y)][r] *= 2
    assert not h.hopf_pairing_check(f, g, s)


def test_exact_sequence_counts(a1, hall_kron2, kron2):
    # A1: N = M = S, R = S + S gives F' = 1*1*3
    reg = a1.registry
    s = skey(reg, 0)
    ss = reg.classes((2,))[0].key
    assert a1.exact_sequence_count(s, s, ss) == 3
    assert a1.exact_sequence_count_check(s, s, ss)
    # Kronecker: M = S1, N = S2, R = S_t: F' = (q-1)^2
    h = hall_kron2
    s1, s2 = skey(kron2, 0), skey(kron2, 1)
    st = next(c.key for c in kron2.classes((1, 1)) if c.indec)
    assert h.exact_sequence_count(s1, s2, st) == 1  # (q-1)^2 at q=2
    assert h.exact_sequence_count_check(s1, s2, st)
    # dimension mismatch: F' = F = 0
    assert h.exact_sequence_count(s1, s1, st) == 0
    assert h.hall_number(st, s1, s1) == 0


def test_exact_sequence_count_obeys_the_registry_caps():
    # Hom(S2, S_t) and Hom(S_t, S1) are lines: a brute count scans 3 * 3 pairs
    reg = IsoRegistry(kronecker(), F3, Caps(max_end_scan=8))
    h = HallAlgebra(reg)
    s1, s2 = skey(reg, 0), skey(reg, 1)
    st = next(c.key for c in reg.classes((1, 1)) if c.indec)
    with pytest.raises(CapExceeded) as err:
        h.exact_sequence_count(s1, s2, st)
    assert (err.value.what, err.value.estimate, err.value.cap) == ("end_scan", 9, 8)
    with pytest.raises(CapExceeded):
        h.exact_sequence_count_check(s1, s2, st)
    assert HallAlgebra(IsoRegistry(kronecker(), F3)).exact_sequence_count(s1, s2, st) == 4


def test_ext_total_sums(hall_kron2, kron2, hall_kron3, kron3):
    for h, reg in ((hall_kron2, kron2), (hall_kron3, kron3)):
        keys = _keys_upto(reg, (1, 1))
        for a, b in itertools.product(keys, repeat=2):
            tot = tuple(x + y for x, y in zip(a[0], b[0]))
            if tot[0] > 2 or tot[1] > 2:
                continue
            assert h.ext_total_check(a, b), (a, b)


def test_ext_total_spec_example(hall_kron2, kron2):
    # sum over R of F^{S1,S2}_R |Hom| = (q+1)(q-1) + 1 = q^2
    h = hall_kron2
    s1, s2 = skey(kron2, 0), skey(kron2, 1)
    total = Fraction(0)
    for c in kron2.classes((1, 1)):
        count = kron2.census(c.key).get((s1, s2), 0)
        total += Fraction(count * h.aut(s1) * h.aut(s2), c.aut_order)
    assert total == 4  # q^2 with ext^1(S1, S2) = 2


def test_dualize_hall(hall_kron2, kron2):
    h = hall_kron2
    hd = h.dual_algebra()
    rng = random.Random(23)
    keys = _keys_upto(kron2, (1, 1))
    for _ in range(15):
        a, b = rng.choice(keys), rng.choice(keys)
        fa, fb = h.basis(a), h.basis(b)
        lhs = h.dualize(h.multiply(fa, fb), hd)
        rhs = hd.multiply(h.dualize(fb, hd), h.dualize(fa, hd))
        assert lhs.terms == rhs.terms
        # pairing preserved
        assert h.green_pairing(fa, fb) == hd.green_pairing(
            h.dualize(fa, hd), h.dualize(fb, hd))
    # involution: dualizing twice recovers the class
    hdd = hd.dual_algebra()
    for key in keys:
        back = hd.dualize(h.dualize(h.basis(key), hd), hdd)
        assert list(back.terms) == [key]
    # coalgebra anti-compatibility: (D (x) D) swap Delta = Delta D on samples
    for key in keys:
        lhs = {}
        for (u, v), c in h.comultiply(h.basis(key)).terms.items():
            du = next(iter(h.dualize(h.basis(u), hd).terms))
            dv = next(iter(h.dualize(h.basis(v), hd).terms))
            lhs[(dv, du)] = c
        rhs = hd.comultiply(h.dualize(h.basis(key), hd)).terms
        assert lhs == rhs


def test_twisted_tensor_compatibility_on_regular(hall_kron2, kron2):
    # Delta(fg) = Delta(f) Delta(g) in the twisted tensor square when f, g
    # are supported on regular classes
    h = hall_kron2
    regs = [c.key for c in kron2.classes((1, 1)) if c.pri_class == "regular"]
    for a in regs[:2]:
        for b in regs[:2]:
            lhs = h.comultiply(h.multiply(h.basis(a), h.basis(b)))
            rhs = h.tensor_multiply(h.comultiply(h.basis(a)), h.comultiply(h.basis(b)))
            assert lhs.terms == rhs.terms, (a, b)


def test_grading(hall_kron2, kron2):
    h = hall_kron2
    s1, s2 = skey(kron2, 0), skey(kron2, 1)
    prod = h.multiply(h.basis(s1), h.basis(s2))
    assert prod.grade() == (1, 1)
    for (u, v) in h.comultiply(h.basis(next(c.key for c in kron2.classes((2, 2))))).terms:
        assert tuple(a + b for a, b in zip(u[0], v[0])) == (2, 2)


def test_element_serialization(hall_kron2, kron2):
    h = hall_kron2
    s1 = skey(kron2, 0)
    f = h.multiply(h.basis(s1), h.basis(skey(kron2, 1)))
    payload = {
        "grade": list(f.grade()),
        "terms": [
            {"class_id": k[1], "a": str(v.a), "b": str(v.b)}
            for k, v in sorted(f.terms.items())
        ],
    }
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text)["grade"] == [1, 1]
    assert all(t["b"] == "0" for t in json.loads(text)["terms"])  # nu^-2 is rational


# ---------------------------------------------------------------------------
# the shared sparse vector and the coproduct defect


def _no_stored_zeros(el):
    return all(v for v in el.terms.values())


def test_sparse_difference_is_zero(hall_kron2, kron2):
    h = hall_kron2
    keys = [c.key for c in kron2.classes((1, 1))]
    f = h.basis(keys[0]) + h.basis(keys[1]).scaled(Fraction(-2, 3))
    t = h.comultiply(h.basis(next(c.key for c in kron2.classes((2, 1)))))
    for el in (f, t):
        diff = el - el
        assert type(diff) is type(el)
        assert diff.is_zero() and diff.terms == {} and len(diff) == 0
        assert el.scaled(0).is_zero()
        partial = el + el.scaled(-1) + el
        assert partial.terms == el.terms and _no_stored_zeros(partial)
    # cancelling one key keeps the others, and stores no zero for it
    g = f - h.basis(keys[0])
    assert keys[0] not in g.terms and g.coeff(keys[0]) == 0
    assert g.terms == {keys[1]: h.scalar(Fraction(-2, 3))}


def _explicit_defect(h, f):
    """Delta(f) - f(x)1 - 1(x)f with the primitive part spelled out term by term."""
    unit = h.unit_key()
    prim = {}
    for k, v in f.terms.items():
        prim[(k, unit)] = v
        prim[(unit, k)] = prim.get((unit, k), h.zero()) + v
    return h.comultiply(f) - TensorElement(prim)


def test_coproduct_defect_matches_explicit(hall_kron2, kron2):
    h = hall_kron2
    keys = [c.key for g in kron2.grades_below((2, 2)) for c in kron2.classes(g)]
    assert len(keys) > 20
    for key in keys:
        f = h.basis(key)
        got = h.coproduct_defect(f)
        assert got.terms == _explicit_defect(h, f).terms, key
        assert _no_stored_zeros(got)
    mixed = h.basis(keys[1]) + h.basis(keys[-1]).scaled(3)
    assert h.coproduct_defect(mixed).terms == _explicit_defect(h, mixed).terms


def test_regular_defect_matches_two_sided_filter(hall_kron2, kron2, tubes_kron2):
    from hallforge.cuspidal import regular_cuspidal_space, regular_defect
    h = hall_kron2

    def two_regular(f):
        return {(u, v): c for (u, v), c in h.coproduct_defect(f).terms.items()
                if kron2.cls(u).pri_class == "regular" and kron2.cls(v).pri_class == "regular"}

    elements = []
    for r in (1, 2):
        _, normalized = regular_cuspidal_space(h, tubes_kron2, r, kron2.qtype.delta)
        elements += [n.element for n in normalized]
    # basis elements have nonzero regular defects, so the comparison is not vacuous
    elements += [h.basis(c.key) for g in ((1, 1), (2, 2)) for c in kron2.classes(g)]
    assert any(two_regular(f) for f in elements)
    for f in elements:
        assert regular_defect(h, f).terms == two_regular(f)
