import collections
import functools
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from childenv import child_env
from hallforge import HallAlgebra, a_lambda, cuspidal_space
from hallforge.config import Caps
from hallforge.errors import CapExceeded, CertificateError, HallforgeError
from hallforge.gf import GF, Mat, gaussian_binomial, gl_order, subspaces_of_dim
from hallforge.quiver import (Quiver, affine_a, affine_a2_acyclic, cyclic_quiver,
                              d4_star_out, dual_quiver, jordan, kronecker)
from hallforge import orbits, registry, reps
from hallforge.orbits import _base_change_images, _gl_generators
from hallforge.registry import IsoRegistry, SinkExtensions, SplitIndex, decode_rep
from hallforge.reps import (Rep, aut_order_from_summands, dualize_rep, hom_dim,
                            is_nilpotent_rep, is_stable, krull_schmidt, rep_with_dims,
                            simple_rep, sub_quotient)

F2, F3, F4 = GF.of(2), GF.of(3), GF.of(2, 2)
TINY = Caps(max_tuple_count=3)  # forces constructive builds at every grade

# Forced-constructive registries over fields with q > 2, where keeping one
# extension cocycle per F_q^* line drops candidates, with the sha256 of
# export_jsonl(sorted(reg.slices)) as recorded before that cut.
CONSTRUCTIVE_CASES = {
    "kronecker-q3": (kronecker(), F3, [(1, 1), (2, 1), (1, 2), (2, 2)],
                     "dcd7be40203c230f4de20a0c521d31e3e67a33e52bb7b5cccf55ba6b907fc0f2"),
    "kronecker-q4": (kronecker(), F4, [(1, 1), (2, 1), (1, 2), (2, 2)],
                     "66250bdde7f2b31c24e4fb4001d39a620b568010445de2e729a9428688f60a39"),
    "a2-acyclic-q3": (affine_a2_acyclic(), F3, [(1, 1, 1)],
                      "dbda8291126efdbc4fada875219e225dd3dc44bfed6544618a7bdac13c6eef57"),
    "d4-star-q3": (d4_star_out(), F3, [(2, 1, 1, 1, 1)],
                   "1956329e13afbb83dc384adab59ec755219cb4f9cd8b343261282a67031276e0"),
}


# Orbit-built registries of slices no other golden covers (nilpotent-only
# for cyclic3), with the sha256 of export_jsonl(sorted(reg.slices)) as
# recorded before the orbit walk moved to per-arrow action tables.
ORBIT_CASES = {
    "one-loop-q3": (jordan(), F3, False, [(1,), (2,), (3,)],
                    "2c97aa9fb1d5fd8ac2f7bcc12886571b9c5500f6348faab12ae7adb8d0c216de"),
    "kronecker-q4": (kronecker(), F4, False, [(1, 1), (2, 1), (1, 2), (2, 2)],
                     "c95faa0fca2ca11004dbaf9b584ef847c6e7a452a439430fe319123776d9f8f7"),
    "cyclic3-nilpotent-q3": (cyclic_quiver(3), F3, True, [(2, 2, 2)],
                             "398173d14fc84e660d4808c6bc3db46c85dce63dba2289d59aa1b0b5d2bf7367"),
}


@pytest.fixture(scope="module")
def constructive_regs():
    out = {}
    for name, (quiver, ctx, grades, _) in CONSTRUCTIVE_CASES.items():
        reg = IsoRegistry(quiver, ctx, TINY)
        for g in grades:
            reg.slice(g)
        out[name] = reg
    return out


def test_census_kronecker_delta(kron2):
    sl = kron2.slice((1, 1))
    assert len(sl.classes) == 4
    indecs = [c for c in sl.classes if c.indec]
    assert len(indecs) == 3
    assert all(c.pri_class == "regular" for c in indecs)
    split = next(c for c in sl.classes if not c.indec)
    assert split.pri_class == "mixed"


def test_census_jordan(jordan2):
    assert len(jordan2.slice((1,)).classes) == 2  # q classes in dimension 1
    assert len(jordan2.slice((2,)).classes) == 6  # q^2 + q at q = 2
    assert len(IsoRegistry(jordan(), F3).slice((1,)).classes) == 3


def test_mass_identity_explicit(kron2, jordan2):
    # the registry asserts this internally; recompute here as a test oracle
    cyc2, cyc3 = cyclic_quiver(2), cyclic_quiver(3)
    nilpotent_regs = [
        (IsoRegistry(cyc2, F2, nilpotent_only=True), [(1, 1), (2, 1), (1, 2), (2, 2)]),
        (IsoRegistry(cyc2, F3, nilpotent_only=True), [(1, 1), (2, 1), (1, 2), (2, 2)]),
        (IsoRegistry(cyc3, F2, nilpotent_only=True),
         [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 0, 1)]),
        (IsoRegistry(cyc2, F4, nilpotent_only=True), [(1, 1), (2, 1), (1, 2)]),
        (IsoRegistry(cyc3, F4, nilpotent_only=True), [(1, 1, 1), (2, 1, 1)]),
    ]
    for reg, grades in [(kron2, [(1, 1), (2, 1), (2, 2)]), (jordan2, [(2,), (3,)])] + nilpotent_regs:
        for g in grades:
            total = sum(
                Fraction(reg.group_order(g), c.aut_order) for c in reg.classes(g)
            )
            assert total == reg.ambient_count(g)
    # a nilpotent cyclic count is the sum of the orbit walk's mask; at the
    # small grades count the nilpotent points one by one instead
    for reg, grades in nilpotent_regs:
        for g in grades:
            points = reg.ctx.q ** registry._entry_count(reg.quiver, g)
            if points <= 4096:
                assert reg.ambient_count(g) == sum(
                    is_nilpotent_rep(decode_rep(reg.quiver, reg.ctx, g, code))
                    for code in range(points)), (reg.quiver, reg.ctx.q, g)
    small = IsoRegistry(cyc3, F2, Caps(max_tuple_count=8), nilpotent_only=True)
    assert small.ambient_count((1, 1, 1)) == 7
    with pytest.raises(CapExceeded) as err:
        small.ambient_count((2, 1, 1))
    assert (err.value.what, err.value.estimate, err.value.cap) == ("tuple_count", 32, 8)


def test_aut_orders_spec_values(kron2, jordan2):
    # a_{(1,1)}(q) = |GL_2(q)|; a_{(2)}(2) = 2 cross-checked by orbit-stabilizer
    assert a_lambda(2, (1, 1)) == gl_order(2, 2) == 6
    assert a_lambda(3, (1, 1)) == gl_order(2, 3) == 48
    assert a_lambda(2, (2,)) == 2
    assert a_lambda(2, (1,)) == 1
    # orbit-stabilizer oracle: J_2 over F_2 sits in a 16-point ambient space
    j2 = rep_with_dims(jordan(), F2, (2,), [[[0, 1], [0, 0]]])
    key = jordan2.identify(j2)
    orbit = int((jordan2.slice((2,)).table == key[1]).sum())
    assert jordan2.cls(key).aut_order == gl_order(2, 2) // orbit == 2
    # regular Kronecker aut orders are a_lambda(q^deg): S_t bricks have q-1
    for c in kron2.classes((1, 1)):
        if c.indec:
            assert c.aut_order == 1  # q - 1 at q = 2


def test_jordan_dim1_aut(jordan3):
    for c in jordan3.classes((1,)):
        assert c.aut_order == 2  # |F_q^*| = q - 1


def test_residue_degrees_match_orbit_aut_orders(kron2, kron3, kron4, jordan2, jordan3):
    # an orbit-mode |Aut| is |G| / orbit size; for an indecomposable with
    # End/rad = F_{q^t} it must also be q^(dim End - t) (q^t - 1)
    degrees = set()
    for reg, top in ((kron2, (3, 3)), (kron3, (2, 2)), (kron4, (2, 2)),
                     (jordan2, (4,)), (jordan3, (3,))):
        for g in reg.grades_below(top):
            assert reg.slice(g).mode in ("zero", "orbit")
            for c in reg.classes(g):
                if c.indec:
                    h_end = hom_dim(c.canon, c.canon)
                    assert c.aut_order == aut_order_from_summands(
                        h_end, [(1, c.res_degree)], reg.ctx.q), (g, c.index)
                    degrees.add(c.res_degree)
    assert degrees == {1, 2, 3, 4}


def _summand_grades(c):
    return sorted((g, m) for (g, _), m in c.summands)


def test_orbit_vs_constructive_cross_validation(constructive_regs):
    cases = [
        (kronecker(), F2, [(1, 1), (2, 1), (1, 2), (2, 2)], IsoRegistry(kronecker(), F2, TINY)),
        (jordan(), F2, [(1,), (2,), (3,)], IsoRegistry(jordan(), F2, TINY)),
        (jordan(), F3, [(1,), (2,)], IsoRegistry(jordan(), F3, TINY)),
    ]
    for name, (quiver, ctx, grades, _) in CONSTRUCTIVE_CASES.items():
        cases.append((quiver, ctx, grades, constructive_regs[name]))
    for quiver, ctx, grades, constructive in cases:
        orbit = IsoRegistry(quiver, ctx)
        for g in grades:
            a, b = orbit.slice(g), constructive.slice(g)
            assert len(a.classes) == len(b.classes), (quiver, g)
            assert sorted(c.aut_order for c in a.classes) == \
                sorted(c.aut_order for c in b.classes)
            assert sorted(c.indec for c in a.classes) == \
                sorted(c.indec for c in b.classes)
            assert sorted(c.nilpotent for c in a.classes) == \
                sorted(c.nilpotent for c in b.classes)
            assert sorted(_summand_grades(c) for c in a.classes) == \
                sorted(_summand_grades(c) for c in b.classes)


def _ks_counts(reg, rep):
    """Summand classes of `rep` by a full Krull-Schmidt decomposition."""
    return collections.Counter(reg.identify(part) for part in krull_schmidt(rep, reg.caps))


def test_skipped_extensions_match_their_orbit_first(constructive_regs):
    # the build registers only the first cocycle line of each Aut(A)-orbit;
    # every skipped line's middle term decomposes like the kept one's
    for name, reg in constructive_regs.items():
        skipped = 0
        for grade, sl in sorted(reg.slices.items()):
            if sl.mode != "constructive":
                continue
            v = reg._support_sink(grade)
            lower = tuple(x - (i == v) for i, x in enumerate(grade))
            for a_cls in reg.classes(lower):
                ext = SinkExtensions(a_cls.canon, v)
                cocycles, first = ext.orbits()
                assert len(first) == ext.count and all(first <= np.arange(ext.count))
                for i in np.flatnonzero(first != np.arange(ext.count)):
                    kept = ext.middle_term(cocycles[first[i]])
                    assert first[first[i]] == first[i]
                    assert _ks_counts(reg, ext.middle_term(cocycles[i])) == \
                        _ks_counts(reg, kept), (name, grade, a_cls.index, i)
                    skipped += 1
        assert skipped, name


def test_register_calls_one_per_orbit(monkeypatch):
    calls = collections.Counter()
    register = SplitIndex.register

    def counted(self, reps_):
        calls[self.sl.grade] += len(reps_)
        register(self, reps_)

    monkeypatch.setattr(SplitIndex, "register", counted)
    # 1,918 and 380 candidates with one per F_q^* line; 318 and 152 distinct
    # (base class, class) pairs, the least one per orbit can reach
    for ctx, grade, most in ((F3, (3, 3), 330), (F4, (2, 3), 160)):
        reg = IsoRegistry(kronecker(), ctx)
        reg.slice(grade)
        assert 0 < calls[grade] <= most, (ctx.q, grade, calls[grade])
        assert reg.slice(grade).mode == "constructive"


def _fitting_splits(m, f):
    """The RREF kernel bases of the Fitting power of the endomorphism f of
    m, one per vertex, when it splits m, or None."""
    kers = [fi.power(fi.rows).kernel_basis() for fi in f]
    return kers if 0 < sum(k.rows for k in kers) < m.total_dim else None


def _first_splitter(m, basis, caps):
    """The oracle of the splitter search, one candidate at a time: the
    Fitting kernels of the first of the basis elements, their pair sums
    and (checked against the end-scan cap first) the elements of End(m) in
    `hom_combinations` order that splits m, or None."""
    pairs = (tuple(x + y for x, y in zip(basis[i], basis[j]))
             for i, j in itertools.combinations(range(len(basis)), 2))

    def scan():
        caps.check("end_scan", m.ctx.q ** len(basis))
        zero = tuple(Mat.zeros(m.ctx, d, d) for d in m.dims)
        yield from itertools.islice(reps.hom_combinations(basis, m.ctx.q, zero), 1, None)

    for f in itertools.chain(basis, pairs, scan()):
        kers = _fitting_splits(m, f)
        if kers is not None:
            return kers
    return None


def test_stacked_splits_match_the_per_rep_search(monkeypatch):
    # every stack a build solves (the canonical representatives of an orbit
    # slice, the orbit-first candidates of a constructive level, the halves
    # of one grade split further) against end_basis and the oracle search
    solved = []
    stacked = registry.end_splits

    def recorded(reps_):
        out = stacked(reps_)
        solved.extend(zip(reps_, out))
        return out

    monkeypatch.setattr(registry, "end_splits", recorded)
    cases = [(kronecker(), F2, Caps(), (3, 3)), (kronecker(), F3, Caps(), (3, 3)),
             (kronecker(), F2, TINY, (3, 3)), (affine_a2_acyclic(), F2, Caps(), (1, 1, 1)),
             (affine_a2_acyclic(), F2, TINY, (1, 1, 1))]
    branches = collections.Counter()
    for quiver, ctx, caps, top in cases:
        solved.clear()
        IsoRegistry(quiver, ctx, caps).slice(top)
        assert any(m.dims == top for m, _ in solved)
        for m, (basis, kers) in solved:
            assert basis == reps.end_basis(m), m
            for f in basis:  # intertwiners, checked without the Hom system
                assert all(f[t] @ a == a @ f[s] for a, (s, t) in zip(m.mats, quiver.arrows))
            want = _first_splitter(m, basis, caps)
            assert (kers if kers is not None else reps.scan_splitter(m, basis, caps)) == want
            if any(_fitting_splits(m, f) is not None for f in basis):
                branch = "basis"
            elif any(_fitting_splits(m, tuple(x + y for x, y in zip(basis[i], basis[j])))
                     is not None for i, j in itertools.combinations(range(len(basis)), 2)):
                branch = "pairs"
            else:
                branch = "scan" if want is not None else "indecomposable"
            assert (kers is not None) == (branch in ("basis", "pairs")), (m, branch)
            branches[branch] += 1
    # Kronecker (3,3) over GF(3) splits 8 candidates by a pair sum, 2 by the scan
    assert all(branches[b] for b in ("basis", "pairs", "scan", "indecomposable")), branches


def test_scan_splitter_matches_the_full_scan(kron3, kron4):
    # other bases of End(m), T * basis for random invertible T, on which no
    # element or pair sum splits a decomposable m: the split is then found
    # only by the scan, at elements of every shape of coefficient vector
    rng = random.Random(11)
    cases = collections.Counter()
    for reg, top in ((kron3, (3, 3)), (kron4, (2, 2))):
        ctx = reg.ctx
        for c in (c for g in reg.grades_below(top) for c in reg.classes(g) if not c.indec):
            m, basis = c.canon, reps.end_basis(c.canon)
            h = len(basis)
            if h < 2 or ctx.q ** h > 256:
                continue
            rows = np.array([np.concatenate([b.a.ravel() for b in f]) for f in basis])
            for _ in range(60):
                t = Mat(ctx, [[rng.randrange(ctx.q) for _ in range(h)] for _ in range(h)])
                if t.rank() < h:
                    continue
                other = reps.EndBasis(ctx, ctx.matmul(t.a, rows), m.dims)
                pairs = (tuple(x + y for x, y in zip(other[i], other[j]))
                         for i, j in itertools.combinations(range(h), 2))
                if any(_fitting_splits(m, f) is not None
                       for f in itertools.chain(other, pairs)):
                    continue
                want = _first_splitter(m, other, Caps())
                assert want is not None and reps.scan_splitter(m, other, Caps()) == want, c.key
                cases[ctx.q] += 1
    assert cases[3] >= 10 and cases[4] >= 10, cases


def test_end_scan_cap_raises_as_the_per_rep_search(monkeypatch):
    # Kronecker (3,3) over GF(3): the candidates left to the full End scan
    # are scanned in candidate order.  Under a cap that only their scans
    # exceed, the build raises the CapExceeded that the per-rep search of
    # the first such candidate raises, at that candidate
    scans, candidates, registered = [], [], []
    scan, register, place = registry.scan_splitter, SplitIndex.register, SplitIndex._place
    monkeypatch.setattr(registry, "scan_splitter", lambda m, basis, caps: (
        scans.append((m, len(basis))), scan(m, basis, caps))[1])
    monkeypatch.setattr(SplitIndex, "register",
                        lambda index, reps_: (candidates.extend(reps_), register(index, reps_))[1])
    IsoRegistry(kronecker(), F3).slice((3, 3))
    top = {id(m) for m in candidates}
    cap = F3.q ** max(h for m, h in scans if id(m) in top) - 1
    assert all(F3.q ** h <= cap for m, h in scans if id(m) not in top)
    capped = Caps(max_end_scan=cap)
    for i, m in enumerate(candidates):
        try:
            _first_splitter(m, reps.end_basis(m), capped)
        except CapExceeded as exc:
            first, want = i, exc
            break
    else:
        pytest.fail("no candidate's scan exceeds the cap")
    monkeypatch.setattr(SplitIndex, "_place", lambda index, rep, *args: (  # a candidate's turn
        registered.append(rep), place(index, rep, *args))[1])
    with pytest.raises(CapExceeded) as err:
        IsoRegistry(kronecker(), F3, capped).slice((3, 3))
    assert (err.value.what, err.value.estimate, err.value.cap) == (want.what, want.estimate, cap)
    assert len(registered) == first + 1 and registered[-1] == candidates[first]


def test_slice_33_eliminations(monkeypatch):
    # a fresh Kronecker registry over GF(3) built (3,3) with 4,218 Mat.rref
    # calls when End was solved and Fitting powers eliminated one matrix at
    # a time; stacked, 219 remain (160 of them stacks of one) beside 361
    # eliminations of larger stacks
    calls = collections.Counter()
    rref, stack = Mat.rref, GF.rref_stack

    def counted_rref(self):
        calls["rref"] += 1
        return rref(self)

    def counted_stack(self, a):
        calls[{0: "empty stack", 1: "stack of one"}.get(len(a), "stack")] += 1
        return stack(self, a)

    monkeypatch.setattr(Mat, "rref", counted_rref)
    monkeypatch.setattr(GF, "rref_stack", counted_stack)
    IsoRegistry(kronecker(), F3).slice((3, 3))
    assert calls["rref"] <= 1000, calls
    assert calls["stack of one"] <= calls["rref"] and 0 < calls["stack"] <= 1000, calls


@st.composite
def _acyclic_quiver_grade(draw):
    """An acyclic quiver with <= 3 vertices, <= 4 arrows and two arrows into
    one vertex, a field size and a grade with at most 10^5 points."""
    n = draw(st.integers(2, 3))
    arrow = st.integers(0, n - 2).flatmap(
        lambda s: st.tuples(st.just(s), st.integers(s + 1, n - 1)))
    t = draw(st.integers(1, n - 1))
    into_t = st.tuples(st.integers(0, t - 1), st.just(t))
    arrows = draw(st.lists(into_t, min_size=2, max_size=2)) + \
        draw(st.lists(arrow, max_size=2))
    label = draw(st.permutations(range(n)))  # acyclic in any vertex order
    quiver = Quiver(tuple(str(i) for i in range(n)),
                    tuple((label[s], label[t]) for s, t in arrows))
    q = draw(st.sampled_from((2, 3)))
    grade = draw(st.tuples(*[st.integers(1, 3)] * n).filter(
        lambda g: q ** sum(g[s] * g[t] for s, t in quiver.arrows) <= 10 ** 5))
    return quiver, q, grade


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_acyclic_quiver_grade())
def test_orbit_and_constructive_builds_agree_property(case):
    quiver, q, grade = case
    orbit, built = (IsoRegistry(quiver, GF.of(q), caps) for caps in (Caps(), TINY))
    a, b = orbit.slice(grade), built.slice(grade)
    assert (a.mode, b.mode) == ("orbit", "constructive")
    assert len(a.classes) == len(b.classes)
    for data in (lambda c: c.aut_order, lambda c: c.indec, _summand_grades):
        assert sorted(map(data, a.classes)) == sorted(map(data, b.classes))


def test_constructive_exports_golden(constructive_regs):
    for name, (_, _, _, digest) in CONSTRUCTIVE_CASES.items():
        reg = constructive_regs[name]
        text = reg.export_jsonl(sorted(reg.slices))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_orbit_exports_golden():
    for name, (quiver, ctx, nilpotent, grades, digest) in ORBIT_CASES.items():
        reg = IsoRegistry(quiver, ctx, nilpotent_only=nilpotent)
        for g in grades:
            reg.slice(g)
        assert {sl.mode for sl in reg.slices.values()} == {"orbit"}, name
        text = reg.export_jsonl(sorted(reg.slices))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_summands_match_full_krull_schmidt(kron3, constructive_regs):
    # summands come from one Fitting split plus lookups of built halves;
    # the oracle decomposes fully and identifies every part
    for reg in (kron3, constructive_regs["kronecker-q3"]):
        for g in reg.grades_below((2, 2)):
            for c in reg.classes(g):
                counts = {}
                for part in krull_schmidt(c.canon, reg.caps):
                    key = reg.identify(part)
                    counts[key] = counts.get(key, 0) + 1
                assert c.summands == tuple(sorted(counts.items())), c.key


def test_mass_check_survives_optimize():
    code = (
        "from hallforge.config import Caps\n"
        "from hallforge.errors import CertificateError\n"
        "from hallforge.gf import GF\n"
        "from hallforge.quiver import jordan, kronecker\n"
        "from hallforge.registry import IsoRegistry\n"
        "assert False, 'asserts are live'\n"
        "reg = IsoRegistry(kronecker(), GF.of(2))\n"
        "sl = reg.slice((1, 1))\n"
        "sl.classes[0].aut_order *= 2\n"
        "try:\n"
        "    reg._mass_check(sl, reg.ambient_count(sl.grade))\n"
        "except CertificateError as err:\n"
        "    print(err.what, err.grade, err.expected, err.got)\n"
        "def unfile(reg, grade):\n"
        "    sl = reg.slice(grade)\n"
        "    i = next(c.index for c in sl.classes if c.indec)\n"
        "    for bucket in sl.index.buckets.values():\n"
        "        bucket[:] = [c for c in bucket if c.index != i]\n"
        "    sl.known.clear()\n"
        "    try:\n"
        "        reg.identify(sl.classes[i].canon)\n"
        "    except CertificateError as err:\n"
        "        print(err.what, err.grade, err.expected)\n"
        "unfile(IsoRegistry(jordan(), GF.of(2), Caps(max_tuple_count=3)), (2,))\n"
        "unfile(IsoRegistry(kronecker(), GF.of(3), Caps(max_tuple_count=3)), (1, 1))\n"
        "from hallforge.errors import HallforgeError\n"
        "from hallforge.gf import Mat\n"
        "from hallforge.reps import sub_quotient\n"
        "rep = IsoRegistry(kronecker(), GF.of(2)).classes((1, 1))[0].canon\n"
        "try:\n"
        "    sub_quotient(rep, [Mat(GF.of(2), [[1]]), Mat(GF.of(2), [[0]])])\n"
        "except HallforgeError as err:\n"
        "    print(err)\n"
        "from hallforge.quiver import cyclic_quiver\n"
        "reg = IsoRegistry(cyclic_quiver(3), GF.of(2), nilpotent_only=True)\n"
        "cls = reg.classes((1, 1, 1))[0]\n"
        "table = reg.slice((1, 1, 1)).table\n"
        "table[table == cls.index] = -2\n"
        "try:\n"
        "    reg.census(cls.key)\n"
        "except HallforgeError as err:\n"
        "    print(err)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    mass, ident, split, rref, census = proc.stdout.strip().splitlines()
    # 4 points at grade (1,1); doubling one |Aut| halves its share of the mass
    assert mass.startswith("mass identity (1, 1) 4 ")
    # a constructive Jordan slice whose split index lost its first
    # indecomposable (class 0 of a one-loop slice may be decomposable)
    assert ident == "identification (2,) a registered indecomposable"
    # a constructive Kronecker slice whose split index lost indecomposable 0
    assert split == "identification (1, 1) a registered indecomposable"
    # sub_quotient reads pivots off RREF bases and rejects a zero basis row
    assert rref == "expected an RREF basis, got [[0]]"
    # a census whose sub on the full tuple hits an excluded orbit-table entry
    assert census == ("the representation of grade (1, 1, 1) is not in this registry "
                      "(a nilpotent-only registry excludes it)")


def test_identify_constant_on_orbits(kron2):
    rng = random.Random(1)
    sl = kron2.slice((2, 1))
    for _ in range(20):
        x = rep_with_dims(kronecker(), F2, (2, 1),
                          [[[rng.randrange(2), rng.randrange(2)]] for _ in range(2)])
        key = kron2.identify(x)
        # acting by a random base change leaves the class fixed
        g1 = Mat(F2, [[1, 1], [0, 1]])
        moved = rep_with_dims(kronecker(), F2, (2, 1), [
            (Mat(F2, m.tolist()) @ g1.inverse()).tolist() for m in x.mats
        ])
        assert kron2.identify(moved) == key
    assert sl.mode == "orbit"


def _base_change(rep, rng):
    """g . rep for a random g in the product of the GL(d_v) over the vertices."""
    ctx, gs = rep.ctx, []
    for d in rep.dims:
        g = Mat.zeros(ctx, d, d)
        while g.rank() < d:
            g = Mat(ctx, np.array([rng.randrange(ctx.q) for _ in range(d * d)],
                                  dtype=np.uint8).reshape(d, d))
        gs.append(g)
    return Rep(rep.quiver, ctx, rep.dims, tuple(
        gs[t] @ m @ gs[s].inverse() for m, (s, t) in zip(rep.mats, rep.quiver.arrows)))


def _export_line(reg, key):
    return json.loads(reg.export_jsonl([key[0]]).splitlines()[key[1]])


def test_identify_constant_on_orbits_constructive(constructive_regs):
    # the split index on acyclic and one-loop slices; the orbit registry of
    # the same quiver and field is the oracle that each moved copy stays in
    # its orbit
    rng = random.Random(5)
    kron3 = constructive_regs["kronecker-q3"]
    jordans = [IsoRegistry(jordan(), ctx, TINY) for ctx in (F2, F3)]
    cases = [(kron3, kron3.grades_below((2, 2))),
             (constructive_regs["a2-acyclic-q3"], [(1, 1, 1)])]
    cases += [(reg, reg.grades_below((3,))) for reg in jordans]
    kinds = set()
    for reg, grades in cases:
        orbit = IsoRegistry(reg.quiver, reg.ctx)
        for g in grades:
            sl = reg.slice(g)
            kinds.add(sl.mode if sl.table is not None else type(sl.index))
            for c in reg.classes(g):
                line = _export_line(orbit, orbit.identify(c.canon))
                for _ in range(3):
                    moved = _base_change(c.canon, rng)
                    assert reg.identify(moved) == c.key
                    assert _export_line(orbit, orbit.identify(moved)) == line
                # the two registries agree on the class apart from its canon
                assert {**_export_line(reg, c.key), "canon": None} == {**line, "canon": None}
    assert kinds == {"zero", "orbit", SplitIndex}


@pytest.mark.parametrize("ctx,top,nilpotent", [(F2, 4, False), (F3, 3, False), (F2, 4, True)])
def test_identify_random_matrices_constructive_one_loop(ctx, top, nilpotent):
    # random matrices, not only moved canonical representatives, on
    # forced-constructive one-loop slices, one call at a time and as one
    # stack on a fresh registry; an orbit registry is the oracle: its
    # classes match the constructive ones one to one and agree on every
    # export line apart from the canon
    rng = random.Random(11)
    reg, fresh, orbit = (IsoRegistry(jordan(), ctx, caps, nilpotent_only=nilpotent)
                         for caps in (TINY, TINY, Caps()))
    for n in range(1, top + 1):
        mats = []
        while len(mats) < 20:
            a = Mat(ctx, np.array([rng.randrange(ctx.q) for _ in range(n * n)],
                                  dtype=np.uint8).reshape(n, n))
            if not nilpotent or is_nilpotent_rep(Rep(jordan(), ctx, (n,), (a,))):
                mats.append(a)
        keys = [reg.identify(Rep(jordan(), ctx, (n,), (a,))) for a in mats]
        assert (reg.slice((n,)).mode == "constructive") == (n > 1)  # q <= 3 points at n = 1
        stacked = fresh._identify_stack((n,), [np.stack([a.a for a in mats])], len(mats))
        assert stacked.tolist() == [i for _, i in keys]
        pairs = {(key, orbit.identify(Rep(jordan(), ctx, (n,), (a,))))
                 for a, key in zip(mats, keys)}
        assert len(pairs) == len({k for k, _ in pairs}) == len({o for _, o in pairs})
        for key, other in pairs:
            assert ({**_export_line(reg, key), "canon": None}
                    == {**_export_line(orbit, other), "canon": None})


def test_canonical_is_lex_min_in_orbit_mode(kron2):
    sl = kron2.slice((1, 1))
    for c in sl.classes:
        orbit_codes = [i for i, v in enumerate(sl.table) if v == c.index]
        assert decode_rep(kronecker(), F2, (1, 1), min(orbit_codes)) == c.canon


def test_summands_and_pri(kron2):
    s1 = kron2.identify(simple_rep(kronecker(), F2, 0))
    s2 = kron2.identify(simple_rep(kronecker(), F2, 1))
    assert kron2.cls(s1).pri_class == "preinjective"
    assert kron2.cls(s2).pri_class == "preprojective"
    split = next(c for c in kron2.classes((1, 1)) if not c.indec)
    assert dict(split.summands) == {s1: 1, s2: 1}


def test_dualize_bijection(kron2):
    dual = IsoRegistry(dual_quiver(kronecker()), F2)
    swap = {"preprojective": "preinjective", "preinjective": "preprojective",
            "regular": "regular", "mixed": "mixed"}
    for g in [(1, 1), (2, 1), (2, 2)]:
        seen = set()
        for c in kron2.classes(g):
            dk = dual.identify(dualize_rep(c.canon))
            assert dual.cls(dk).aut_order == c.aut_order
            assert dual.cls(dk).pri_class == swap[c.pri_class]
            seen.add(dk)
        assert len(seen) == len(kron2.classes(g))


def test_kac_count_prediction(kron2, kron3):
    # indecomposables of dimension r*delta number q + n_0 at r = 1 (n_0 = 1)
    for reg, q in ((kron2, 2), (kron3, 3)):
        indec = sum(1 for c in reg.classes((1, 1)) if c.indec)
        assert indec == q + 1


def test_a2_indecomposable_count():
    reg = IsoRegistry(affine_a2_acyclic(), F2)
    indec = sum(1 for c in reg.classes((1, 1, 1)) if c.indec)
    assert indec == 2 + 2  # q + n_0 with n_0 = 2


def test_cyclic_nilpotent_registry():
    regC = IsoRegistry(cyclic_quiver(2), F2, nilpotent_only=True)
    sl = regC.slice((1, 1))
    assert len(sl.classes) == 3
    assert all(c.nilpotent for c in sl.classes)
    # segment count is field independent
    regC3 = IsoRegistry(cyclic_quiver(2), F3, nilpotent_only=True)
    assert len(regC3.slice((1, 1)).classes) == 3
    full = IsoRegistry(cyclic_quiver(2), F2, nilpotent_only=False)
    assert len(full.slice((1, 1)).classes) == 4  # one invertible class extra at q=2


def test_nilpotent_one_loop_builds_above_tuple_cap():
    # q^(n(n-1)) nilpotent n x n matrices (Fine-Herstein): the mass check of
    # a constructive nilpotent one-loop slice needs no ambient space
    reg = IsoRegistry(jordan(), F2, Caps(max_tuple_count=3), nilpotent_only=True)
    assert [len(reg.classes((n,))) for n in (2, 3, 4)] == [2, 3, 5]  # partitions of n
    assert {reg.slice((n,)).mode for n in (2, 3, 4)} == {"constructive"}
    # orbit mode: the points the walk keeps are counted by the closed form too
    for ctx in (F2, F3):
        reg = IsoRegistry(jordan(), ctx, nilpotent_only=True)
        assert [len(reg.classes((n,))) for n in (1, 2, 3)] == [1, 2, 3]
        assert reg.ambient_count((3,)) == ctx.q ** 6


def test_nilpotent_orbit_slice_computes_its_mask_once(monkeypatch):
    calls = []
    mask = IsoRegistry._nilpotent_mask

    def counted(self, grade, e, ambient):
        calls.append(grade)
        return mask(self, grade, e, ambient)

    monkeypatch.setattr(IsoRegistry, "_nilpotent_mask", counted)
    reg = IsoRegistry(cyclic_quiver(3), F2, nilpotent_only=True)
    reg.slice((2, 2, 2))
    orbit = [g for g, sl in reg.slices.items() if sl.mode == "orbit"]
    assert len(orbit) > 1 and sorted(calls) == sorted(orbit)


def test_nilpotent_mask_tables_are_counted_against_the_memory_cap(monkeypatch):
    reg = IsoRegistry(cyclic_quiver(3), F3, nilpotent_only=True)
    monkeypatch.setenv("HALLFORGE_CAP_MB", "0")
    with pytest.raises(CapExceeded) as err:
        reg.ambient_count((2, 2, 2))
    assert err.value.what == "memory_mb" and not reg.slices
    monkeypatch.delenv("HALLFORGE_CAP_MB")
    assert reg.ambient_count((2, 2, 2)) == 158193


def test_slice_builds_compute_no_nilpotency(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.dims)
        return is_nilpotent_rep(m)

    monkeypatch.setattr(registry, "is_nilpotent_rep", counted)
    monkeypatch.setattr(reps, "is_nilpotent_rep", counted)
    cases = [(IsoRegistry(kronecker(), F3, TINY), (2, 2)),          # constructive
             (IsoRegistry(affine_a2_acyclic(), F2), (1, 1, 1)),      # orbit
             (IsoRegistry(cyclic_quiver(2), F2), (2, 2)),
             (IsoRegistry(cyclic_quiver(3), F2, nilpotent_only=True), (1, 1, 1)),
             (IsoRegistry(jordan(), F2, TINY), (3,))]               # one-loop types
    for reg, top in cases:
        reg.slice(top)
    assert {sl.mode for reg, _ in cases for sl in reg.slices.values()} >= {"orbit", "constructive"}
    assert calls == []
    # asked for, the flag is computed from the canonical representative
    c = next(c for c in cases[2][0].classes((1, 1)) if not is_nilpotent_rep(c.canon))
    assert not c.nilpotent and calls == [(1, 1)]


def test_nilpotent_flag_on_the_full_cyclic2_registry():
    reg = IsoRegistry(cyclic_quiver(2), F2)
    classes = [c for g in reg.grades_below((2, 2)) for c in reg.classes(g)]
    assert all(c.nilpotent == is_nilpotent_rep(c.canon) for c in classes)
    assert {c.nilpotent for c in classes} == {False, True}


def test_nilpotent_only_guard():
    with pytest.raises(ValueError):
        IsoRegistry(kronecker(), F2, nilpotent_only=True)


def test_cap_errors():
    reg = IsoRegistry(cyclic_quiver(3), F2, Caps(max_tuple_count=5))
    with pytest.raises(CapExceeded):
        reg.slice((1, 1, 1))  # not acyclic, no constructive fallback


def test_candidate_cap(monkeypatch):
    # Kronecker (3,3) over GF(2) forced constructive: a level with more
    # extension lines than the cap raises before any line is enumerated
    enumerated = set()
    orbits = SinkExtensions.orbits

    def recorded(self):
        enumerated.add(tuple(d + (i == self.v) for i, d in enumerate(self.a.dims)))
        return orbits(self)

    monkeypatch.setattr(SinkExtensions, "orbits", recorded)
    for cap in (10, 64):
        enumerated.clear()
        reg = IsoRegistry(kronecker(), F2, Caps(max_tuple_count=3, max_candidates=cap))
        with pytest.raises(CapExceeded) as err:
            reg.slice((3, 3))
        assert (err.value.what, err.value.cap) == ("candidates", cap)
        assert err.value.estimate > cap
        # lines were enumerated only on levels that were built in full
        assert enumerated <= set(reg.slices)
        assert (3, 3) not in reg.slices
    assert (3, 1) in enumerated  # 64 lines: under the larger cap


def test_total_candidate_budget():
    # Kronecker (3,2) over GF(2) forced constructive: six levels, each under
    # the per-level cap; a budget one line short of their sum stops the last
    # level checked before any of its lines is enumerated
    reg = IsoRegistry(kronecker(), F2, TINY)
    reg.slice((3, 2))
    total = reg.candidates_enumerated
    reg = IsoRegistry(kronecker(), F2, Caps(max_tuple_count=3, max_total_candidates=total - 1))
    with pytest.raises(CapExceeded) as err:
        reg.slice((3, 2))
    assert (err.value.what, err.value.estimate, err.value.cap) == (
        "total_candidates", total, total - 1)
    assert (3, 2) not in reg.slices and reg.candidates_enumerated < total
    reg = IsoRegistry(kronecker(), F2, Caps(max_tuple_count=3, max_total_candidates=total))
    assert reg.slice((3, 2)).classes and reg.candidates_enumerated == total


@st.composite
def _quiver_grade_codes(draw):
    """A quiver with <= 3 vertices and <= 4 arrows, loops included, a field
    size, a grade with at most 4^6 points and some codes of its points."""
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    quiver = Quiver(tuple(str(i) for i in range(n)), tuple(arrows))
    q = draw(st.sampled_from((2, 3, 4)))
    grade = draw(st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda g: q ** sum(g[s] * g[t] for s, t in arrows) <= 4 ** 6))
    points = q ** sum(grade[s] * grade[t] for s, t in arrows)
    codes = draw(st.lists(st.integers(0, points - 1), min_size=1, max_size=12))
    return quiver, q, grade, codes


def _base_change_oracle(quiver, ctx, grade, code):
    """The image codes of one point under each generator (v, g), in the order
    of the walk: digits by divmod, M -> gM into v and M -> Mg^-1 out of v by
    `ctx.matmul`, then Horner's rule."""
    q = ctx.q
    e = sum(grade[s] * grade[t] for s, t in quiver.arrows)
    digits = []
    for _ in range(e):
        code, d = divmod(code, q)
        digits.append(d)
    digits = np.array(digits[::-1], dtype=np.uint8)
    out = []
    for v in range(quiver.n):
        for g in _gl_generators(ctx, grade[v]):
            ginv, image, pos = g.inverse().a, [], 0
            for s, t in quiver.arrows:
                size = grade[t] * grade[s]
                block = digits[pos: pos + size].reshape(grade[t], grade[s])
                pos += size
                if t == v:
                    block = ctx.matmul(g.a, block)
                if s == v:
                    block = ctx.matmul(block, ginv)
                image.extend(int(x) for x in block.reshape(-1))
            out.append(functools.reduce(lambda c, d: c * q + d, image, 0))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_quiver_grade_codes())
def test_base_change_tables_match_matmul_property(case):
    quiver, q, grade, codes = case
    ctx = GF.of_q(q)
    images = _base_change_images(quiver, ctx, grade, Caps())(np.array(codes, dtype=np.int64))
    expect = [_base_change_oracle(quiver, ctx, grade, c) for c in codes]
    # images come generator by generator, each over all the codes
    assert images.tolist() == [row[k] for k in range(len(expect[0])) for row in expect]


@pytest.mark.parametrize("q, e", [(2, 5), (3, 12), (4, 33)])
def test_encode_batch_matches_horner_loop(q, e):
    # one product with the place values gives the codes of c * q + d digit by
    # digit, int64 wrap-around included (4^33 > 2^63)
    digits = np.random.default_rng(e).integers(0, q, (50, e)).astype(np.uint8)
    codes = np.zeros(50, dtype=np.int64)
    for t in range(e):
        codes = codes * q + digits[:, t]
    assert np.array_equal(orbits._encode_batch(digits, q), codes)
    assert np.array_equal(orbits._encode_batch(digits.reshape(5, 10, e), q),
                          codes.reshape(5, 10))


def test_memory_cap_counts_action_tables(monkeypatch):
    # jordan (4,) over GF(2): 10 bytes per point of 2^16 fit in 1 MB, the
    # two generators' 8-byte tables of 2^16 loop codes on top do not
    monkeypatch.setenv("HALLFORGE_CAP_MB", "1")
    reg = IsoRegistry(jordan(), F2)
    assert reg.slice((3,)).mode == "orbit"
    with pytest.raises(CapExceeded) as err:
        reg.slice((4,))
    assert err.value.what == "memory_mb"


def _walks_flagging(monkeypatch, modules, attr, build):
    """Run `build` with `attr` of each of `modules` wrapped to record whether
    each call falls inside an orbit walk; return the walks' label counts and
    the flags."""
    walking, walks, calls = [False], [], []
    original, walk = getattr(modules[0], attr), registry._walk_orbits

    def counted(*args, **kwargs):
        calls.append(walking[0])
        return original(*args, **kwargs)

    def flagged(labels, images):
        walking[0] = True
        walks.append(labels.size)
        try:
            return walk(labels, images)
        finally:
            walking[0] = False

    for module in modules:
        monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(registry, "_walk_orbits", flagged)
    build()
    return walks, calls


def _point_walk_cyclic():
    # full support on a cycle: no sink or source, so the 2^12 points are walked
    reg = IsoRegistry(cyclic_quiver(3), F2, nilpotent_only=True)
    assert reg.slice((2, 2, 2)).mode == "orbit" and reg._row_spaces((2, 2, 2)) is None


def _reduced_walk_kronecker():
    # (2,2) over GF(3) walks the 171 subspaces of F_3^4 of dim <= 2, not 3^8 points
    reg = IsoRegistry(kronecker(), F3)
    assert reg.slice((2, 2)).mode == "orbit" and reg._row_spaces((2, 2)).count == 171


def test_orbit_walk_images_do_not_decode(monkeypatch):
    # the tables are built before the walk and the first points decoded
    # after it; the walk's images read the tables only
    walks, decoded = _walks_flagging(monkeypatch, (orbits, registry), "_decode_batch",
                                     _point_walk_cyclic)
    assert 2 ** 12 in walks and decoded and not any(decoded)


def test_reduced_orbit_walk_images_do_not_decode(monkeypatch):
    # the span and W tables are built before the reduced walk and the orbits'
    # first points are scanned after it
    walks, decoded = _walks_flagging(monkeypatch, (orbits, registry), "_decode_batch",
                                     _reduced_walk_kronecker)
    assert 171 in walks and 3 ** 8 not in walks and decoded and not any(decoded)


def test_orbit_walk_makes_no_sort(monkeypatch):
    # seeds come from block scans and frontiers from tag writes, not np.unique
    walks, sorts = _walks_flagging(monkeypatch, (np,), "unique", _point_walk_cyclic)
    assert 2 ** 12 in walks and not any(sorts)


def test_reduced_orbit_walk_makes_no_sort(monkeypatch):
    walks, sorts = _walks_flagging(monkeypatch, (np,), "unique", _reduced_walk_kronecker)
    assert 171 in walks and not any(sorts)


def _partition_digest(reg, grade, reduce):
    """sha256 of the class of every point, first points, sizes and point
    count of the walk of `grade`: reduced wherever `_row_spaces` allows (even
    below `_REDUCE_ABOVE` points), or the point walk.  A reduced slice's table
    of reduced codes is expanded to one class per point through its coder."""
    with pytest.MonkeyPatch.context() as patch:
        if reduce:
            patch.setattr(registry, "_REDUCE_ABOVE", 0)
        else:
            patch.setattr(IsoRegistry, "_row_spaces", lambda self, grade: None)
        sl, firsts, sizes, points = reg._orbit_partition(grade)
    table = sl.table
    if sl.spaces is not None:
        e, q = registry._entry_count(reg.quiver, grade), reg.ctx.q
        table = table[sl.spaces.codes(orbits._decode_batch(np.arange(q ** e), e, q))]
    return hashlib.sha256(table.tobytes() + json.dumps([firsts, sizes, points]).encode()
                          ).hexdigest()


# (quiver, q, nilpotent-only, grades): every orbit grade of Kronecker up to
# (3,3) at q = 2, 3 and 4, a2-acyclic (blocks away from the reduced vertex),
# d4-star, and partial-support cyclic3 nilpotent grades; zero-dimension
# vertices throughout
REDUCTION_CASES = {
    "kronecker-q2": (kronecker(), 2, False, (3, 3)),
    "kronecker-q3": (kronecker(), 3, False, (3, 3)),
    "kronecker-q4": (kronecker(), 4, False, (3, 3)),
    "a2-acyclic-q2": (affine_a2_acyclic(), 2, False, (2, 2, 2)),
    "a2-acyclic-q3": (affine_a2_acyclic(), 3, False, (1, 2, 1)),
    "d4-star-q2": (d4_star_out(), 2, False, (2, 1, 1, 1, 1)),
    "cyclic3-nilpotent-q2": (cyclic_quiver(3), 2, True, (2, 2, 2)),
    "cyclic3-nilpotent-q3": (cyclic_quiver(3), 3, True, (2, 2, 1)),
}


@pytest.mark.parametrize("quiver, q, nilpotent, top", REDUCTION_CASES.values(),
                         ids=REDUCTION_CASES.keys())
def test_reduced_orbit_walk_matches_point_walk(quiver, q, nilpotent, top):
    # same class table, first points, sizes and point count, by sha256
    reg = IsoRegistry(quiver, GF.of_q(q), nilpotent_only=nilpotent)
    reduced = 0
    for g in reg.grades_below(top):
        if not any(g) or q ** registry._entry_count(quiver, g) > reg.caps.max_tuple_count:
            continue
        reduced += reg._row_spaces(g) is not None
        assert _partition_digest(reg, g, True) == _partition_digest(reg, g, False), g
    assert reduced


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_quiver_grade_codes())
def test_reduced_orbit_walk_matches_point_walk_property(case):
    # random quivers with loops, cycles and parallel arrows
    quiver, q, grade, _ = case
    reg = IsoRegistry(quiver, GF.of_q(q))
    assert _partition_digest(reg, grade, True) == _partition_digest(reg, grade, False)


@pytest.mark.parametrize("q, m, d", [(2, 4, 3), (3, 4, 2), (4, 3, 3), (2, 5, 1)])
def test_row_space_ids_match_subspace_enumeration(q, m, d):
    # ids follow `subspaces_of_dim` order, and the span gathers of any stack
    # of d rows give the id of its row space (the oracle: its RREF's position)
    ctx = GF.of_q(q)
    spaces = orbits._RowSpaces(kronecker(m), ctx, (1, d), 1, True)
    spaces.build()
    bases = [b for k in range(spaces.kmax + 1) for b in subspaces_of_dim(m, k, ctx)]
    assert spaces.count == len(bases)
    assert all(np.array_equal(spaces.bases[i, : b.rows], b.a) for i, b in enumerate(bases))
    position = {b.a.tobytes(): i for i, b in enumerate(bases)}
    rng = np.random.default_rng(q * 100 + m * 10 + d)
    stacks = rng.integers(0, q, (300, d, m)).astype(np.uint8)
    stacks[:50, 1:] = 0  # low ranks too
    ids = spaces.ids(orbits._encode_batch(stacks, q).T)
    for stack, got in zip(stacks, ids.tolist()):
        red, rank, _ = Mat(ctx, stack).rref()
        assert got == position[red.a[:rank].tobytes()]


def test_reduction_skips_vertices_past_the_subspace_cap():
    # (2,3) over GF(3) reduces at the sink through 211 subspaces; under a
    # smaller subspace cap it keeps the point walk and builds the same slice
    reg = IsoRegistry(kronecker(), F3)
    small = IsoRegistry(kronecker(), F3, Caps(max_subspace_enum=210))
    assert reg._row_spaces((2, 3)).count == 211 and small._row_spaces((2, 3)) is None
    assert _partition_digest(reg, (2, 3), True) == _partition_digest(small, (2, 3), True)


def test_reduced_build_checks_memory_before_the_span_table(monkeypatch):
    reg = IsoRegistry(kronecker(), F3)
    assert reg._row_spaces((2, 2)) is not None
    built = []
    monkeypatch.setattr(orbits._RowSpaces, "build", lambda self: built.append(self))
    monkeypatch.setenv("HALLFORGE_CAP_MB", "0")
    with pytest.raises(CapExceeded) as err:
        reg.slice((2, 2))
    assert err.value.what == "memory_mb" and not built and not reg.slices


def test_reduced_walk_over_the_memory_cap_falls_back_to_the_point_walk(monkeypatch):
    # a loop at 0 and an arrow 0 -> 1, grade (3,1) over GF(3): the point walk
    # is estimated at 5.5 MB; with the walk at the sink's span and class
    # tables read as 8 MB, under a 7 MB cap the grade builds by the point walk
    reg = IsoRegistry(Quiver(("0", "1"), ((0, 0), (0, 1))), F3)
    assert reg._row_spaces((3, 1)) is not None
    expect = _partition_digest(reg, (3, 1), True)
    built = []
    monkeypatch.setattr(orbits._RowSpaces, "build", lambda self: built.append(self))
    monkeypatch.setattr(orbits._RowSpaces, "nbytes", lambda self: 8 << 20)
    monkeypatch.setenv("HALLFORGE_CAP_MB", "7")
    sl, _, _, _ = reg._orbit_partition((3, 1))
    assert sl.spaces is None and sl.table.size == 3 ** 12
    assert _partition_digest(reg, (3, 1), True) == expect and not built


def _point_blocks(quiver, q, grade, codes):
    """The arrow blocks, one stack per arrow, of the points `codes` of `grade`."""
    digits = orbits._decode_batch(codes, registry._entry_count(quiver, grade), q)
    return [digits[:, lo:hi].reshape(codes.size, r, c)
            for lo, hi, r, c in orbits._spans(quiver, grade)]


# (quiver, q, nilpotent-only, grade, points): every point, or a seeded sample;
# a2-acyclic (2,2,2) reduces at a source with other blocks beside X
IDENTIFY_CASES = {
    "kronecker-q2-(2,3)": (kronecker(), 2, False, (2, 3), None),
    "kronecker-q2-(3,2)": (kronecker(), 2, False, (3, 2), None),
    "a2-acyclic-q2-(2,2,2)": (affine_a2_acyclic(), 2, False, (2, 2, 2), None),
    "cyclic3-nilpotent-q3-(0,2,3)": (cyclic_quiver(3), 3, True, (0, 2, 3), None),
    "kronecker-q3-(2,3)": (kronecker(), 3, False, (2, 3), 2000),
}


@pytest.mark.parametrize("quiver, q, nilpotent, grade, sample", IDENTIFY_CASES.values(),
                         ids=IDENTIFY_CASES.keys())
def test_reduced_identify_matches_the_point_walk(monkeypatch, quiver, q, nilpotent, grade,
                                                 sample):
    # the reduced-code gather gives each point the class of the point table
    ctx = GF.of_q(q)
    reduced = IsoRegistry(quiver, ctx, nilpotent_only=nilpotent)
    assert reduced.slice(grade).spaces is not None
    with monkeypatch.context() as patch:
        patch.setattr(IsoRegistry, "_row_spaces", lambda self, grade: None)
        points = IsoRegistry(quiver, ctx, nilpotent_only=nilpotent)
        assert points.slice(grade).spaces is None
    total = q ** registry._entry_count(quiver, grade)
    codes = (np.arange(total) if sample is None
             else np.random.default_rng(7).integers(0, total, sample))
    blocks = _point_blocks(quiver, q, grade, codes)
    got = reduced._identify_stack(grade, blocks, codes.size)
    assert np.array_equal(got, points._identify_stack(grade, blocks, codes.size))
    assert np.array_equal(got, points.slice(grade).table[codes])
    for code in codes[:: max(1, codes.size // 50)].tolist():
        rep = decode_rep(quiver, ctx, grade, code)
        assert reduced.identify(rep) == points.identify(rep)
    assert [c.canon for c in reduced.classes(grade)] == [c.canon for c in points.classes(grade)]


def test_reduced_build_holds_no_point_sized_array():
    # with its lower grades built, Kronecker (2,3) over GF(3) keeps one class
    # per reduced code (211) and allocates nothing of its 531,441 points,
    # not even a byte each
    reg = IsoRegistry(kronecker(), F3)
    for g in reg.grades_below((2, 3))[:-1]:
        reg.slice(g)
    tracemalloc.start()
    try:
        sl = reg.slice((2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sl.spaces is not None and sl.table.shape == (211,) and sl.table.dtype == np.int32
    assert peak < min(1 << 20, 3 ** 12), peak


@pytest.mark.parametrize("quiver, q, nilpotent, grade, mb", [
    (cyclic_quiver(3), 3, True, (2, 2, 2), 3.5),
    (jordan(), 3, False, (3,), 1.5),
], ids=["cyclic3-nilpotent-q3", "jordan-q3"])
def test_point_walk_build_holds_no_dense_transient(quiver, q, nilpotent, grade, mb):
    # with its lower grades built, a point walk holds its int32 class table
    # (2.1 MB of cyclic3's 531,441 points), its mask and the walk's
    # frontiers, and fills its action tables in runs of block codes
    reg = IsoRegistry(quiver, GF.of_q(q), nilpotent_only=nilpotent)
    for g in reg.grades_below(grade)[:-1]:
        reg.slice(g)
    tracemalloc.start()
    try:
        sl = reg.slice(grade)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sl.spaces is None and sl.table.size == q ** registry._entry_count(quiver, grade)
    assert {s.table.dtype for s in reg.slices.values()} == {np.dtype(np.int32)}
    assert peak <= mb * 2 ** 20, peak


def test_decode_rep_rejects_codes_outside_the_points():
    # 3^12 points at Kronecker (2,3) over GF(3): codes 0 .. 3^12 - 1
    last = decode_rep(kronecker(), F3, (2, 3), 3 ** 12 - 1)
    assert all((m.a == 2).all() for m in last.mats)
    for code in (3 ** 12, -1, 2 * 3 ** 12):
        with pytest.raises(HallforgeError, match=r"not a point of grade \(2, 3\)"):
            decode_rep(kronecker(), F3, (2, 3), code)
    # past 2^63, at Kronecker (8,8) over GF(2): 2^128 points
    big = decode_rep(kronecker(), F2, (8, 8), 2 ** 100 + 1)
    assert big.mats[0].a.sum() == 1 and big.mats[0].a[3, 3] == 1 and big.mats[1].a[7, 7] == 1


def test_orbit_stabilizer_certificate_survives_python_O():
    # two orbit sizes swapped: both still divide |G| and the walk is not
    # touched, but |G| / size no longer matches |Aut| from End's structure
    code = (
        "from hallforge.errors import CertificateError\n"
        "from hallforge.gf import GF\n"
        "from hallforge.quiver import kronecker\n"
        "from hallforge.registry import IsoRegistry\n"
        "partition = IsoRegistry._orbit_partition\n"
        "def swapped(self, grade):\n"
        "    table, firsts, sizes, points = partition(self, grade)\n"
        "    if grade == (1, 1):\n"
        "        sizes[0], sizes[-1] = sizes[-1], sizes[0]\n"
        "    return table, firsts, sizes, points\n"
        "IsoRegistry._orbit_partition = swapped\n"
        "try:\n"
        "    IsoRegistry(kronecker(), GF.of(3)).slice((1, 1))\n"
        "except CertificateError as err:\n"
        "    print(err.what, err.grade, err.expected, err.got)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    # the zero representation S1 + S2 has |Aut| = (q - 1)^2 = 4, but with the
    # last orbit's size 2 in place of its size 1, |G| / size reads 4 / 2
    assert proc.stdout.strip() == "orbit-stabilizer (1, 1) 2 4"


@st.composite
def _permutation_orbits(draw):
    """Points, generator permutations and labels (-2 on a union of orbits):
    each generator moves some points within fixed random blocks, so orbits
    are finer than blocks and whole blocks can be excluded.  Blocks that are
    runs of points let a first-point scan pass whole labeled runs."""
    n = draw(st.one_of(st.integers(1, 80), st.integers(4000, 5000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.one_of(st.integers(1, 3), st.integers(1, n)))
    if draw(st.booleans()):  # runs between k - 1 random cuts
        blocks = np.searchsorted(np.sort(rng.integers(0, n, k - 1)), np.arange(n), side="right")
    else:
        blocks = rng.integers(0, k, n)
    perms = []
    for _ in range(draw(st.integers(0, 3))):
        perm = np.arange(n)
        moving = np.flatnonzero(rng.random(n) < draw(st.sampled_from((0.05, 0.5, 1.0))))
        moving = moving[np.argsort(blocks[moving], kind="stable")]
        for members in np.split(moving, np.flatnonzero(np.diff(blocks[moving])) + 1):
            perm[members] = rng.permutation(members)
        perms.append(perm)
    labels = np.full(n, -1, dtype=np.int64)
    labels[np.isin(blocks, np.flatnonzero(rng.random(blocks.max() + 1) < 0.3))] = -2
    return np.array(perms, dtype=np.int64).reshape(len(perms), n), labels


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_permutation_orbits())
@example((np.zeros((0, 5000), dtype=np.int64), np.repeat([-2, -1], [4500, 500])))
@example((np.r_[np.roll(np.arange(4500), 1), np.arange(4500, 5000)][None],
          np.full(5000, -1, dtype=np.int64)))
@example((np.r_[np.roll(np.arange(2000), 1), np.arange(2000, 3000),
               np.roll(np.arange(3000, 5000), 7)][None],
          np.repeat(np.array([-1, -2, -1], dtype=np.int32), [2000, 1000, 2000])))
def test_orbit_walk_matches_set_bfs_property(case):
    # up to 5,000 points, so the first-point scan crosses a block boundary;
    # the examples pass a whole block of excluded or already walked points
    perms, labels = case[0], case[1].copy()
    expect, firsts, sizes = labels.tolist(), [], []
    for start in range(labels.size):
        if expect[start] != -1:
            continue
        expect[start], seen, frontier = len(firsts), {start}, [start]
        while frontier:
            found = {int(p[x]) for x in frontier for p in perms} - seen
            for x in found:
                expect[x] = len(firsts)
            seen |= found
            frontier = list(found)
        firsts.append(start)
        sizes.append(len(seen))
    got = registry._walk_orbits(labels, lambda points: perms[:, points].ravel())
    assert got == (firsts, sizes)
    assert labels.tolist() == expect


def test_orbit_index_rejects_excluded_point():
    cyc = cyclic_quiver(2)
    reg = IsoRegistry(cyc, F2, nilpotent_only=True)
    with pytest.raises(HallforgeError):
        reg.identify(rep_with_dims(cyc, F2, (1, 1), [[[1]], [[1]]]))
    assert reg.identify(rep_with_dims(cyc, F2, (1, 1), [[[1]], [[0]]]))[0] == (1, 1)


def test_census_spec_examples(hall_kron2, kron2):
    k = kronecker()
    s1 = kron2.identify(simple_rep(k, F2, 0))
    s2 = kron2.identify(simple_rep(k, F2, 1))
    for c in kron2.classes((1, 1)):
        census = kron2.census(c.key)
        if c.indec:
            # F^{S_t}_{S1,S2} = 1, F^{S_t}_{S2,S1} = 0
            assert census.get((s1, s2)) == 1
            assert (s2, s1) not in census
        else:
            assert census.get((s1, s2)) == 1
            assert census.get((s2, s1)) == 1


@pytest.mark.parametrize("ctx, top", [(F2, 4), (F3, 3), (F4, 3)])
def test_adapted_bases_invert_in_enumeration_order(ctx, top):
    # at every position L R = I, R's first k columns are the transposed
    # basis of that position in `subspaces_of_dim` order, and each
    # dimension k holds its Gaussian binomial count of positions
    reg = IsoRegistry(kronecker(), ctx)
    for d in range(top + 1):
        rank, left, right = reg._adapted_bases(d)
        assert np.bincount(rank, minlength=d + 1).tolist() == \
            [gaussian_binomial(d, k, ctx.q) for k in range(d + 1)]
        assert (ctx.matmul(left, right) == np.eye(d, dtype=np.uint8)).all()
        bases = [b for k in range(d + 1) for b in subspaces_of_dim(d, k, ctx)]
        assert len(bases) == len(rank)
        for i, b in enumerate(bases):
            assert rank[i] == b.rows and np.array_equal(right[i, :, : b.rows].T, b.a)


def _census_by_filter(reg, key):
    """The census as a walk over every subspace tuple, in index order, kept
    when `reps.is_stable` accepts it."""
    rep = reg.cls(key).canon
    per_vertex = [[b for m in range(d + 1) for b in subspaces_of_dim(d, m, reg.ctx)]
                  for d in key[0]]
    out = {}
    for bases in itertools.product(*per_vertex):
        if is_stable(rep, bases):
            sub, quot = sub_quotient(rep, bases)
            k = (reg.identify(quot), reg.identify(sub))
            out[k] = out.get(k, 0) + 1
    return out


def _assert_census_matches_filter(reg, grades):
    for g in grades:
        for c in reg.classes(g):
            # same counts and the same key order: comultiply iterates the dict
            assert list(reg.census(c.key).items()) == \
                list(_census_by_filter(reg, c.key).items()), c.key


def test_census_generator_matches_filter_walk(kron2, kron3):
    reversed_kronecker = Quiver(("1", "2"), ((1, 0), (1, 0)))
    kron4 = IsoRegistry(kronecker(), F4)
    cases = [
        (kron2, [g for g in kron2.grades_below((3, 3)) if any(g)]),
        (kron3, sorted(set(kron3.grades_below((2, 3))) | set(kron3.grades_below((3, 2))))),
        (kron4, kron4.grades_below((2, 2))),
        # arrows into a lower vertex and a cycle are tested, not generated
        (IsoRegistry(reversed_kronecker, F2), [(1, 1), (2, 1), (1, 2), (2, 2)]),
        (IsoRegistry(affine_a(2, (1,)), F2), [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]),
        (IsoRegistry(jordan(), F3), [(1,), (2,), (3,)]),  # a loop
        (IsoRegistry(cyclic_quiver(3), F2, nilpotent_only=True),
         [(1, 1, 1), (2, 1, 1), (1, 1, 0)]),
    ]
    for reg, grades in cases:
        _assert_census_matches_filter(reg, grades)


@st.composite
def _small_quiver_grade(draw):
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    quiver = Quiver(tuple(str(i) for i in range(n)), tuple(arrows))
    q = draw(st.sampled_from((2, 3)))
    grade = draw(st.tuples(*[st.integers(1, 2)] * n).filter(
        lambda g: q ** sum(g[s] * g[t] for s, t in arrows) <= 256))
    return quiver, q, grade


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_small_quiver_grade())
def test_census_generator_property(case):
    # loops, cycles and arrows in both directions, orbit-built at every grade
    quiver, q, grade = case
    _assert_census_matches_filter(IsoRegistry(quiver, GF.of(q)), [grade])


def _subspace_count(q, d):
    # the sum over m of the Gaussian binomials [d, m]_q
    return sum(math.prod(q ** (d - i) - 1 for i in range(m))
               // math.prod(q ** (i + 1) - 1 for i in range(m)) for m in range(d + 1))


@st.composite
def _tested_arrow_case(draw):
    # loops and arrows into a lower vertex are the arrows the census tests
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    quiver = Quiver(tuple(str(i) for i in range(n)), tuple(arrows))
    q = draw(st.sampled_from((2, 3, 4)))
    grade = draw(st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda g: q ** sum(g[s] * g[t] for s, t in arrows) <= 1024
        and np.prod([_subspace_count(q, d) for d in g]) <= 400))
    return quiver, q, grade


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_tested_arrow_case())
@example((Quiver(("0", "1"), ((0, 0), (1, 0), (1, 1), (1, 0))), 2, (1, 2)))
@example((Quiver(("0", "1", "2"), ((2, 0), (1, 1), (2, 1), (0, 2))), 3, (1, 0, 2)))
def test_stacked_stability_matches_filter_property(case):
    # the per-vertex stacked stability test against `reps.is_stable` on every
    # tuple: q = 2, 3, 4, zero dimensions, several tested arrows at a vertex;
    # it fails when the row or column rank mask is dropped, or when only the
    # first tested arrow of a vertex is tested
    quiver, q, grade = case
    _assert_census_matches_filter(IsoRegistry(quiver, GF.of_q(q)), [grade])


@st.composite
def _rep_and_stable_tuples(draw):
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=4))
    quiver = Quiver(tuple(str(i) for i in range(n)), tuple(arrows))
    ctx = GF.of_q(draw(st.sampled_from((2, 3, 4))))
    per_vertex = {d: [b for m in range(d + 1) for b in subspaces_of_dim(d, m, ctx)]
                  for d in range(4)}
    grade = draw(st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda g: np.prod([len(per_vertex[d]) for d in g]) <= 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.3, 1.0)))  # sparse maps have more stable tuples
    rep = Rep(quiver, ctx, grade, tuple(
        Mat(ctx, rng.integers(0, ctx.q, (grade[t], grade[s]))
            * (rng.random((grade[t], grade[s])) < density)) for s, t in arrows))
    stable = [pos for pos in itertools.product(*[range(len(per_vertex[d])) for d in grade])
              if is_stable(rep, [per_vertex[d][i] for d, i in zip(grade, pos)])]
    picks = draw(st.lists(st.integers(0, len(stable) - 1), min_size=1, max_size=12))
    return rep, [stable[i] for i in picks], per_vertex


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_rep_and_stable_tuples())
def test_stacked_sub_quotient_matches_oracle_property(case):
    # loops, cycles and arrows both ways, q = 2, 3, 4: each stacked sub and
    # quotient block equals `reps.sub_quotient` on that tuple
    rep, tuples, per_vertex = case
    reg = IsoRegistry(rep.quiver, rep.ctx)
    by_ranks = collections.defaultdict(list)
    for pos in tuples:
        by_ranks[tuple(per_vertex[d][i].rows for d, i in zip(rep.dims, pos))].append(pos)
    for ranks, group in by_ranks.items():
        rows = np.concatenate([np.zeros((len(group), 1), dtype=np.intp), group], axis=1)
        subs, quots = reg._sub_quotient_stacks(reg._block_tables([rep]), rows, ranks)
        for row, pos in enumerate(group):
            sub, quot = sub_quotient(rep, [per_vertex[d][i] for d, i in zip(rep.dims, pos)])
            assert sub.dims == ranks
            assert [m.a.tolist() for m in sub.mats] == [b[row].tolist() for b in subs], pos
            assert [m.a.tolist() for m in quot.mats] == [b[row].tolist() for b in quots], pos


def _per_class_censuses(reg, grades):
    """Every class's census taken on its own, as a stack of one."""
    return {c.key: list(reg.census(c.key).items()) for g in grades for c in reg.classes(g)}


def _stacked_censuses(reg, grades):
    """Every grade's censuses taken as one stack."""
    return {key: list(census.items()) for g in grades
            for key, census in reg.censuses([c.key for c in reg.classes(g)]).items()}


def test_censuses_match_per_class_census():
    # the cases of test_census_generator_matches_filter_walk, each on two
    # fresh registries: the stacked censuses of a grade are the per-class
    # censuses, keys in the same order
    grades_below = lambda top: [g for g in itertools.product(*(range(x + 1) for x in top))
                                if any(g)]
    cases = [
        (kronecker(), F2, False, grades_below((3, 3))),
        (kronecker(), F3, False, sorted(set(grades_below((2, 3))) | set(grades_below((3, 2))))),
        (kronecker(), F4, False, grades_below((2, 2))),
        (Quiver(("1", "2"), ((1, 0), (1, 0))), F2, False, [(1, 1), (2, 1), (1, 2), (2, 2)]),
        (affine_a(2, (1,)), F2, False, [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]),
        (jordan(), F3, False, [(1,), (2,), (3,)]),
        (cyclic_quiver(3), F2, True, [(1, 1, 1), (2, 1, 1), (1, 1, 0)]),
    ]
    for quiver, ctx, nilpotent, grades in cases:
        regs = [IsoRegistry(quiver, ctx, nilpotent_only=nilpotent) for _ in range(2)]
        assert _stacked_censuses(regs[0], grades) == _per_class_censuses(regs[1], grades)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_small_quiver_grade())
def test_censuses_match_per_class_census_property(case):
    # loops, cycles and arrows both ways
    quiver, q, grade = case
    regs = [IsoRegistry(quiver, GF.of(q)) for _ in range(2)]
    assert _stacked_censuses(regs[0], [grade]) == _per_class_censuses(regs[1], [grade])


def test_chunked_censuses_match_and_cap_as_per_class(monkeypatch):
    # Kronecker (3,3) over GF(3), lower slices built first: chunks of three
    # representatives, or chunks sized by a 1 MB cap that the whole stack's
    # tables exceed, give the per-class censuses; under a cap that one
    # representative's tables exceed, both raise the same CapExceeded
    grade = (3, 3)

    def fresh():
        reg = IsoRegistry(kronecker(), F3)
        for g in reg.grades_below(grade):
            reg.slice(g)
        return reg, [c.key for c in reg.classes(grade)]

    reg, keys = fresh()
    want = {key: list(reg.census(key).items()) for key in keys}
    per_rep = reg._table_bytes(grade)
    assert per_rep < 2 ** 20 < len(keys) * per_rep
    chunks = []
    tables = IsoRegistry._block_tables
    monkeypatch.setattr(IsoRegistry, "_block_tables",
                        lambda reg, reps_: (chunks.append(len(reps_)), tables(reg, reps_))[1])
    for chunk, cap_mb in ((3 * per_rep, "4096"), (registry._CENSUS_BYTES, "1")):
        reg, keys = fresh()
        chunks.clear()
        monkeypatch.setattr(registry, "_CENSUS_BYTES", chunk)
        monkeypatch.setenv("HALLFORGE_CAP_MB", cap_mb)
        got = reg.censuses(keys)
        assert {key: list(census.items()) for key, census in got.items()} == want
        assert len(chunks) > 1 and max(chunks) * per_rep <= min(chunk, 2 ** 20 * int(cap_mb))
    errors = []
    for take in (lambda reg, keys: reg.censuses(keys), lambda reg, keys: reg.census(keys[0])):
        monkeypatch.delenv("HALLFORGE_CAP_MB")
        reg, keys = fresh()
        monkeypatch.setenv("HALLFORGE_CAP_MB", "0")
        with pytest.raises(CapExceeded) as err:
            take(reg, keys)
        errors.append((err.value.what, err.value.estimate, err.value.cap))
    assert errors[0] == errors[1] and errors[0][0] == "memory_mb"


def _random_reps(quiver, ctx, grade, count, seed):
    rng = np.random.default_rng(seed)
    return [Rep(quiver, ctx, grade, tuple(
        Mat(ctx, rng.integers(0, ctx.q, (grade[t], grade[s]))
            * (rng.random((grade[t], grade[s])) < rng.choice((0.3, 0.6, 1.0))))
        for s, t in quiver.arrows)) for _ in range(count)]


def test_end_splits_chunks_match_one_stack(monkeypatch):
    # above `_SPLIT_STACK` representations, `end_splits` solves the stack in
    # chunks; each representation gets the End basis and splitter kernels
    # that one stack of all of them gives it
    stack = _random_reps(kronecker(), F3, (2, 2), 10, 7)
    whole = reps.end_splits(stack)
    solves, hom_stack = [], reps.hom_stack
    monkeypatch.setattr(reps, "hom_stack", lambda ms, ns: (solves.append(len(ms)),
                                                           hom_stack(ms, ns))[1])
    monkeypatch.setattr(reps, "_SPLIT_STACK", 3)
    chunked = reps.end_splits(stack)
    assert solves == [3, 3, 3, 1]
    assert [(b.rows.tolist(), k) for b, k in chunked] == [(b.rows.tolist(), k) for b, k in whole]
    assert {k is None for _, k in whole} == {True, False}


def test_stacked_split_summands_match_krull_schmidt():
    # random stacks of representations, sparse ones often decomposable: the
    # split loop's summand counts are those of a full decomposition whose
    # parts are identified on a second registry
    cases = [(kronecker(), F2, (2, 3)), (kronecker(), F3, (3, 2)), (kronecker(), F4, (2, 2)),
             (affine_a2_acyclic(), F2, (2, 2, 2)), (affine_a2_acyclic(), F3, (1, 2, 1)),
             (d4_star_out(), F2, (2, 1, 1, 1, 1))]
    seen = collections.Counter()
    for seed, (quiver, ctx, grade) in enumerate(cases):
        reg, oracle = IsoRegistry(quiver, ctx), IsoRegistry(quiver, ctx)
        stack = _random_reps(quiver, ctx, grade, 40, seed)
        splits = registry.end_splits(stack)
        got = reg._summands(stack, splits)
        for m, (basis, _), counts in zip(stack, splits, got):
            if counts is None:
                counts = reg._scanned(m, basis)
            parts = krull_schmidt(m, reg.caps)
            want = collections.Counter(oracle.identify(part) for part in parts)
            assert counts == ({} if len(parts) == 1 else dict(want)), m
            seen[len(parts) > 1] += 1
    assert seen[True] > 20 and seen[False] > 20, seen


def test_split_loop_splits_each_grade_once(monkeypatch):
    # a fresh Kronecker delta-ray cuspidal_space over GF(3) and a2-acyclic
    # 2delta over GF(2): within one split loop, the halves of a grade are
    # split by one `end_splits` call.  Splitting halves one at a time made
    # 106 and 97 calls, 97 and 77 of them stacks of one; a stack of one is
    # left only where a grade has one distinct half or one canonical
    # representative (the zero representation of (2,0), say)
    frames, calls = [], collections.Counter()
    stacked, summands = registry.end_splits, IsoRegistry._summands

    def counted(reps_):
        calls["calls"] += 1
        calls["stacks of one"] += len(reps_) == 1
        if frames and frames[-1] is not None:  # a split loop's own call
            assert reps_[0].dims not in frames[-1], reps_[0].dims
            frames[-1].add(reps_[0].dims)
        return stacked(reps_)

    def framed(fn, frame):
        def wrapper(*args):
            frames.append(frame())
            try:
                return fn(*args)
            finally:
                frames.pop()
        return wrapper

    monkeypatch.setattr(registry, "end_splits", counted)
    monkeypatch.setattr(IsoRegistry, "_summands", framed(summands, set))
    for owner, name in ((IsoRegistry, "_build"), (SplitIndex, "classify"),
                        (SplitIndex, "register")):  # not the loop's calls
        monkeypatch.setattr(owner, name, framed(getattr(owner, name), lambda: None))
    hall = HallAlgebra(IsoRegistry(kronecker(), F3))
    assert [cuspidal_space(hall, (r, r)).dim for r in (1, 2, 3)] == [3, 6, 11]
    assert calls["calls"] <= 30 and calls["stacks of one"] <= 15, calls
    calls.clear()
    hall = HallAlgebra(IsoRegistry(affine_a2_acyclic(), F2))
    assert cuspidal_space(hall, (2, 2, 2)).dim == 3
    assert calls["calls"] <= 65 and calls["stacks of one"] <= 25, calls


def test_census_makes_no_per_tuple_calls(monkeypatch):
    # every Kronecker GF(3) class up to (3,3), slices prebuilt: subs and
    # quotients come from the stacks and orbit grades from table gathers
    reg = IsoRegistry(kronecker(), F3)
    grades = reg.grades_below((3, 3))
    for g in grades:
        reg.slice(g)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    oracle = counted("sub_quotient", reps.sub_quotient)
    for module in (reps, registry):  # called through either name
        monkeypatch.setattr(module, "sub_quotient", oracle, raising=False)
    stack = IsoRegistry._identify_stack

    def gathers(reg, grade, blocks, count):
        if reg.slice(grade).table is not None:
            calls["gather"] += 1
        return stack(reg, grade, blocks, count)

    monkeypatch.setattr(IsoRegistry, "_identify_stack", gathers)
    monkeypatch.setattr(IsoRegistry, "identify", counted("identify", IsoRegistry.identify))
    monkeypatch.setattr(SplitIndex, "classify", counted("classify", SplitIndex.classify))
    monkeypatch.setattr(Mat, "rref", counted("rref", Mat.rref))
    tuples = 0
    for g in grades:
        for c in reg.classes(g):
            tuples += sum(reg.census(c.key).values())
    assert calls["sub_quotient"] == 0 and calls["identify"] == 0
    assert calls["rref"] == 0  # stability is read off the block tables
    assert 0 < calls["gather"] < tuples / 4
    # the constructive (3,3) meets only its canonical representatives
    assert reg.slice((3, 3)).mode == "constructive" and calls["classify"] == 0


def test_census_misses_are_prepared_as_one_stack(monkeypatch):
    # forced-constructive Kronecker GF(3) up to (2,2), built and censused:
    # the representations an identification meets that no constructive
    # slice knows yet are classified as one stack, End solved once for the
    # stack (not at all when a build's split loop hands over the End bases
    # of indecomposable halves), and the classes come back in row order:
    # each is the class of its row on an orbit-built registry
    reg, oracle = IsoRegistry(kronecker(), F3, TINY), IsoRegistry(kronecker(), F3)
    frames, stacks = [], collections.Counter()
    classify, solve = SplitIndex.classify, registry.end_splits

    def solved(reps_):
        if frames:
            frames[-1].append(list(reps_))
        return solve(reps_)

    def classified(index, reps_, ends=None):
        frames.append([])
        try:
            found = classify(index, reps_, ends)
        finally:
            calls = frames.pop()
        own = int(ends is None)  # the stack's own solve, unless its End bases came with it
        assert calls[:own] == [list(reps_)] * own
        assert not any(m in call for call in calls[own:] for m in reps_)  # no second solve
        for m, i in zip(reps_, found):
            assert oracle.identify(m) == oracle.identify(reg.cls((m.dims, i)).canon)
        stacks[len(reps_) > 1, ends is None] += 1
        return found

    monkeypatch.setattr(registry, "end_splits", solved)
    monkeypatch.setattr(SplitIndex, "classify", classified)
    reg.slice((2, 2))  # before the grades below it, whose halves it splits
    for key in [c.key for g in reg.grades_below((2, 2)) for c in reg.classes(g)]:
        reg.census(key)
    assert stacks[True, True] and stacks[True, False], stacks


def test_census_second_pass_reads_known_rows(constructive_regs, monkeypatch):
    # forced-constructive Kronecker GF(3) up to (2,2): once every census has
    # been taken, taking them again finds every sub and quotient among the
    # known digit rows, so it classifies nothing and builds no
    # representation of a constructive grade
    reg = constructive_regs["kronecker-q3"]
    keys = [c.key for g in reg.grades_below((2, 2)) for c in reg.classes(g)]
    first = {key: reg.census(key) for key in keys}
    constructive = {g for g, sl in reg.slices.items() if sl.mode == "constructive"}
    assert (2, 2) in constructive
    for sl in reg.slices.values():
        sl.census_cache.clear()
    classified, built = [], []
    classify, post_init = SplitIndex.classify, Rep.__post_init__
    monkeypatch.setattr(SplitIndex, "classify", lambda index, reps_, ends=None: (
        classified.extend(m.dims for m in reps_), classify(index, reps_, ends))[1])
    monkeypatch.setattr(Rep, "__post_init__",
                        lambda rep: (built.append(rep.dims), post_init(rep))[1])
    assert {key: reg.census(key) for key in keys} == first
    assert classified == []
    assert not constructive & set(built)


def test_canonical_representatives_identify_without_classify(constructive_regs, monkeypatch):
    # the build of a constructive slice, acyclic or one-loop (jordan GF(3)
    # (4,)), leaves the digit row of each canonical representative in `known`
    one_loop = IsoRegistry(jordan(), F3)
    one_loop.slice((4,))

    def refuse(index, reps_, ends=None):
        raise AssertionError(f"classify called on grade {reps_[0].dims}")

    monkeypatch.setattr(SplitIndex, "classify", refuse)
    seen = collections.Counter()
    for reg in (*constructive_regs.values(), one_loop):
        for sl in list(reg.slices.values()):
            if sl.mode == "constructive":
                for c in sl.classes:
                    assert reg.identify(c.canon) == c.key
                    seen["one-loop" if reg.quiver == jordan() else "acyclic"] += 1
    assert seen["acyclic"] > 0 and seen["one-loop"] > 0, seen


def test_memory_cap_counts_census_tables(monkeypatch):
    # a loop, arrows both ways and a zero dimension, q = 2 and 4: the estimate
    # checked against the memory cap covers the bytes of the block tables
    estimates = []
    check = Caps.check_memory
    monkeypatch.setattr(Caps, "check_memory",
                        lambda caps, nbytes: (estimates.append(nbytes), check(caps, nbytes))[1])
    quiver = Quiver(("0", "1", "2"), ((2, 0), (1, 1), (2, 1), (0, 2)))
    for reg, grade in ((IsoRegistry(quiver, F2), (1, 0, 2)), (IsoRegistry(quiver, F2), (1, 1, 2)),
                       (IsoRegistry(kronecker(), F4), (2, 2))):
        for g in reg.grades_below(grade):  # the slice builds check their own tables
            reg.slice(g)
        for c in reg.classes(grade):
            estimates.clear()
            reg.census(c.key)
            tables = reg._block_tables([c.canon])
            assert estimates[0] == estimates[1]  # the census's check, then this call's
            assert estimates[0] >= sum(b.nbytes + ok.nbytes for b, ok in tables) > 0
    # slices built, a cap below the estimate ends the census before its tables
    reg = IsoRegistry(kronecker(), F2)
    for g in reg.grades_below((1, 1)):
        reg.slice(g)
    monkeypatch.setenv("HALLFORGE_CAP_MB", "0")
    with pytest.raises(CapExceeded) as err:
        reg.census(((1, 1), 0))
    assert err.value.what == "memory_mb"


def test_loop_census_makes_no_per_tuple_calls(monkeypatch):
    # every Jordan GF(3) class up to (4,), slices prebuilt and each canonical
    # representative identified once: the loop is tested on stacks, so the
    # matrix products do not grow with the tuples tested
    reg = IsoRegistry(jordan(), F3)
    grades = reg.grades_below((4,))
    for g in grades:
        for c in reg.classes(g):
            reg.identify(c.canon)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GF, "matmul", counted("GF.matmul", GF.matmul))
    monkeypatch.setattr(Mat, "__matmul__", counted("Mat.__matmul__", Mat.__matmul__))
    tested = stable = 0
    for g in grades:
        for c in reg.classes(g):
            tested += _subspace_count(3, g[0])  # no forward arrows: every subspace
            stable += sum(reg.census(c.key).values())
    assert (tested, stable) == (28519, 2536)
    assert 0 < calls["GF.matmul"] + calls["Mat.__matmul__"] < tested / 10


def test_export_deterministic(kron2):
    a = kron2.export_jsonl([(1, 1), (0, 1)])
    b = kron2.export_jsonl([(0, 1), (1, 1)])
    assert a == b
    lines = a.strip().split("\n")
    assert len(lines) == 5
    import json
    rec = json.loads(lines[0])
    assert set(rec) == {"dim", "canon", "aut_order", "indec", "pri_class", "tube_id"}


def test_jordan_identify_matches_partition_data(jordan2):
    # diag(0, 1) decomposes as two distinct eigenvalue classes
    d = rep_with_dims(jordan(), F2, (2,), [[[0, 0], [0, 1]]])
    key = jordan2.identify(d)
    cls = jordan2.cls(key)
    assert not cls.indec
    assert cls.aut_order == 1
    j2 = rep_with_dims(jordan(), F2, (2,), [[[0, 1], [0, 0]]])
    assert jordan2.cls(jordan2.identify(j2)).indec


def test_indec_census_jordan_dim2(jordan2):
    # indecomposables in dimension 2 over F_2 match the cyclic-module count:
    # one per monic power-of-irreducible of degree 2 (x^2, (x+1)^2, x^2+x+1)
    indec = [c for c in jordan2.classes((2,)) if c.indec]
    assert len(indec) == 3
    nilp = [c for c in indec if c.nilpotent]
    assert len(nilp) == 1
    assert sorted(c.res_degree for c in indec) == [1, 1, 2]
