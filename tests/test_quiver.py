import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from childenv import child_env
from hallforge.quiver import (Quiver, affine_a, affine_a2_acyclic, affine_d,
                              affine_e, a4_square, cartan_matrix, classify_type,
                              cyclic_quiver, d4_star_out, defect, dual_quiver,
                              euler_form, jordan, kronecker,
                              single_vertex, subquiver_on, support,
                              support_is_connected, symmetrized_form)


def test_euler_form_values():
    k = kronecker()
    assert euler_form(k, (1, 0), (0, 1)) == -2
    assert euler_form(k, (1, 1), (1, 1)) == 0
    assert euler_form(jordan(), (1,), (1,)) == 0


def test_euler_form_bilinearity():
    rng = random.Random(11)
    q = affine_a2_acyclic()
    for _ in range(40):
        d1 = tuple(rng.randrange(4) for _ in range(3))
        d2 = tuple(rng.randrange(4) for _ in range(3))
        e = tuple(rng.randrange(4) for _ in range(3))
        s = tuple(a + b for a, b in zip(d1, d2))
        assert euler_form(q, s, e) == euler_form(q, d1, e) + euler_form(q, d2, e)
        assert euler_form(q, e, s) == euler_form(q, e, d1) + euler_form(q, e, d2)


def test_symmetrized_form():
    k = kronecker()
    # the symmetrization is the Cartan matrix pairing: (e1, e2) = C_12 = -2
    assert symmetrized_form(k, (1, 0), (0, 1)) == -2
    assert cartan_matrix(k) == [[2, -2], [-2, 2]]
    assert symmetrized_form(k, (1, 0), (1, 0)) == 2
    assert symmetrized_form(jordan(), (1,), (1,)) == 0
    rng = random.Random(3)
    for q in (kronecker(), affine_a2_acyclic(), jordan()):
        for _ in range(20):
            d = tuple(rng.randrange(4) for _ in range(q.n))
            e = tuple(rng.randrange(4) for _ in range(q.n))
            assert symmetrized_form(q, d, d) == 2 * euler_form(q, d, d)
            # orientation independence
            assert symmetrized_form(q, d, e) == symmetrized_form(dual_quiver(q), d, e)


def test_classify_small():
    t = classify_type(kronecker())
    assert t.tag == "affine" and t.delta == (1, 1)
    t = classify_type(jordan())
    assert t.tag == "affine" and t.delta == (1,)
    assert classify_type(kronecker(3)).tag == "wild"
    assert classify_type(single_vertex()).tag == "finite"


def test_classify_affine_families():
    for n in (1, 2, 3, 4, 5):
        for flips in ((), (0,), (1,)):
            if max(flips, default=-1) > n:
                continue
            t = classify_type(affine_a(n, flips))
            assert t.tag == "affine" and t.delta == (1,) * (n + 1)
    for n in (4, 5, 6, 7, 8):
        assert classify_type(affine_d(n)).tag == "affine"
    for n in (6, 7, 8):
        t = classify_type(affine_e(n))
        assert t.tag == "affine"
        assert sum(t.delta) == {6: 12, 7: 18, 8: 30}[n]


def _psd_rank(c):
    """Rank of a symmetric integer matrix if it is positive semidefinite,
    else None, by symmetric elimination: a PSD matrix with a zero diagonal
    entry has a zero row, so at every step either some diagonal entry is
    positive (the pivot) or the rest must vanish."""
    m = [[Fraction(x) for x in row] for row in c]
    active, rank = list(range(len(c))), 0
    while active:
        piv = next((i for i in active if m[i][i] > 0), None)
        if piv is None:
            return rank if not any(m[i][j] for i in active for j in active) else None
        rank += 1
        active.remove(piv)
        for i in active:
            f = m[i][piv] / m[piv][piv]
            for j in active:
                m[i][j] -= f * m[piv][j]
    return rank


def _oracle_tag(q):
    """The type from the PSD definition: positive definite is finite, PSD
    of corank one is affine, anything else wild."""
    rank = _psd_rank(cartan_matrix(q))
    if rank is None or rank < q.n - 1:
        return "wild"
    return "finite" if rank == q.n else "affine"


def test_classify_matches_the_psd_oracle():
    quivers = [kronecker(), kronecker(3), jordan(), single_vertex(), affine_a2_acyclic(),
               d4_star_out(), a4_square(), cyclic_quiver(3), Quiver(("1",), ((0, 0),) * 2)]
    quivers += [affine_a(n, flips) for n in (1, 2, 3) for flips in ((), (0,))]
    quivers += [affine_d(n) for n in (4, 5, 6)] + [affine_e(n) for n in (6, 7, 8)]
    # finite ADE: the affine shapes less one extending vertex
    quivers += [subquiver_on(affine_d(5), range(1, 6)), subquiver_on(affine_e(6), range(6))]
    rng = random.Random(17)
    while len(quivers) < 400:
        n = rng.randint(1, 4)
        arrows = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 5)))
        q = Quiver(tuple(str(i) for i in range(n)), arrows)
        if q.is_connected():
            quivers.append(q)
    tags = {}
    for q in quivers:
        t = classify_type(q)
        assert t.tag == _oracle_tag(q), q
        tags[t.tag] = tags.get(t.tag, 0) + 1
        if t.tag == "affine":
            # a primitive positive vector of the radical, which fixes delta
            assert min(t.delta) > 0 and gcd(*t.delta) == 1, q
            assert not any(sum(x * d for x, d in zip(row, t.delta))
                           for row in cartan_matrix(q)), q
        else:
            assert t.delta is None
    assert min(tags.get(k, 0) for k in ("finite", "affine", "wild")) >= 10, tags


def test_affine_delta_in_radical():
    for q in (kronecker(), affine_a2_acyclic(), affine_d(4), affine_e(6)):
        t = classify_type(q)
        delta = t.delta
        for i in range(q.n):
            e_i = tuple(1 if j == i else 0 for j in range(q.n))
            assert symmetrized_form(q, delta, e_i) == 0
        assert classify_type(dual_quiver(q)).tag == t.tag
        assert classify_type(dual_quiver(q)).delta == delta


def test_defect():
    k = kronecker()
    # <delta, d> with arrows 1 -> 2: the preprojective family (n, n+1)
    # carries negative defect, starting with the projective simple (0, 1)
    assert defect(k, (1, 0)) == 1
    assert defect(k, (0, 1)) == -1
    for n in range(4):
        assert defect(k, (n, n + 1)) == -1
        assert defect(k, (n + 1, n)) == 1
    for r in range(4):
        assert defect(k, (r, r)) == 0
    # dualizing the quiver swaps the signs
    dk = dual_quiver(k)
    assert defect(dk, (0, 1)) == 1 and defect(dk, (1, 0)) == -1
    with pytest.raises(ValueError):
        defect(kronecker(3), (1, 1))


def test_support():
    k = kronecker()
    assert support((1, 1)) == {0, 1}
    assert support_is_connected(k, (1, 1))
    two = Quiver(("a", "b"), ())
    assert not support_is_connected(two, (1, 1))
    tri = affine_a2_acyclic()
    # support {0, 2} is connected through the 0 -> 2 arrow
    assert support_is_connected(tri, (1, 0, 1))


def test_dual_quiver():
    k = kronecker()
    d = dual_quiver(k)
    assert d.arrows == ((1, 0), (1, 0))
    assert dual_quiver(jordan()) == jordan()
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(1, 5)
        arrows = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(6))
        )
        q = Quiver(tuple(str(i) for i in range(n)), arrows)
        assert dual_quiver(dual_quiver(q)) == q


def test_json_round_trip():
    k = kronecker()
    data = json.loads(k.to_json())
    assert data == {"vertices": ["1", "2"], "arrows": [[0, 1], [0, 1]]}
    assert Quiver.from_json(k.to_json()) == k


def test_disconnected_rejected():
    two = Quiver(("a", "b"), ())
    with pytest.raises(ValueError):
        classify_type(two)


def test_subquiver():
    tri = affine_a2_acyclic()
    sub = subquiver_on(tri, [0, 1])
    assert sub.arrows == ((0, 1),)
    assert sub.vertices == ("1", "2")


def test_jordan_like_vertex_inside_larger_quiver():
    q = Quiver(("loop", "tail"), ((0, 0), (0, 1)))
    assert classify_type(q).tag == "wild"
    sub = subquiver_on(q, [0])
    t = classify_type(sub)
    assert t.tag == "affine" and t.delta == (1,)


def test_shape_checks_survive_optimize():
    code = (
        "from hallforge.errors import HallforgeError\n"
        "from hallforge.quiver import affine_d, affine_e\n"
        "assert False, 'asserts are live'\n"
        "for make, n in ((affine_d, 3), (affine_e, 5)):\n"
        "    try:\n"
        "        make(n)\n"
        "    except HallforgeError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["affine_d needs n >= 4, got 3",
                                        "affine_e needs n in (6, 7, 8), got 5"]
