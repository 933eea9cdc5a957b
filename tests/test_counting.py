import random
import subprocess
import sys
from fractions import Fraction

import pytest

from childenv import child_env
from hallforge.counting import (IntPolynomial, PointCountTable, TruncSeries,
                                absolute_cuspidal_polys, closed_points_p1,
                                count_absolutely_indecomposable,
                                count_indecomposables, descent_prediction,
                                interpolate_polynomial, mobius, plethystic_exp,
                                plethystic_log, points_of_degree_dividing,
                                series_exp, series_log, solve_absolute_values)
from hallforge.cuspidal import cuspidal_space
from hallforge.errors import HallforgeError
from hallforge.gf import GF
from hallforge.hall import HallAlgebra
from hallforge.quiver import kronecker
from hallforge.registry import IsoRegistry


def test_mobius():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_closed_points():
    assert closed_points_p1(1, 2) == 3
    assert closed_points_p1(2, 2) == 1
    assert closed_points_p1(3, 2) == 2
    assert closed_points_p1(1, 3) == 4
    assert closed_points_p1(2, 3) == 3
    # mass identity: sum of d * M(d) over d | r equals q^r + 1
    for q in (2, 3, 4, 5):
        for r in (1, 2, 3, 4):
            total = sum(d * closed_points_p1(d, q) for d in range(1, r + 1) if r % d == 0)
            assert total == q ** r + 1
    assert points_of_degree_dividing(2, 2) == 4


def test_point_table():
    t = PointCountTable(q=2, non_homogeneous=1, max_degree=3)
    assert t.n_points(1) == 2
    assert t.n_points(2) == 1
    assert t.degree_census() == {1: 2, 2: 1, 3: 2}


def test_interpolation():
    p = interpolate_polynomial([(2, Fraction(3)), (3, Fraction(4)), (4, Fraction(5))], 1)
    assert p == IntPolynomial([1, 1])
    assert str(p) == "t + 1"
    const = interpolate_polynomial([(2, Fraction(7)), (5, Fraction(7)), (9, Fraction(7))], 0)
    assert const == IntPolynomial([7])
    with pytest.raises(HallforgeError):
        interpolate_polynomial([(2, Fraction(3)), (3, Fraction(4)), (4, Fraction(6))], 1)
    with pytest.raises(HallforgeError):
        interpolate_polynomial([(2, Fraction(3)), (3, Fraction(4))], 1)  # no spare


def test_plethystic_exp_geometric():
    s = TruncSeries.from_dict(3, {1: IntPolynomial([1])})
    e = plethystic_exp(s, twist_t=False)
    assert e.coeffs == [IntPolynomial([1])] * 4  # Exp(z) = 1/(1-z)


def test_plethystic_round_trips():
    rng = random.Random(12)
    for _ in range(12):
        order = 4
        s = TruncSeries.from_dict(order, {
            i: IntPolynomial([Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                              for _ in range(3)])
            for i in range(1, order + 1)
        })
        for twist in (False, True):
            assert plethystic_log(plethystic_exp(s, twist), twist) == s
    u = TruncSeries.from_dict(2, {0: IntPolynomial([1]), 1: IntPolynomial([3]),
                                  2: IntPolynomial([5])})
    for twist in (False, True):
        assert plethystic_exp(plethystic_log(u, twist), twist) == u


def test_plethystic_exp_tz():
    s = TruncSeries.from_dict(2, {1: IntPolynomial.t()})
    e = plethystic_exp(s, twist_t=True)
    # symmetric powers of a one-dimensional weight: 1 + t z + t^2 z^2
    assert e.coeffs == [IntPolynomial([1]), IntPolynomial.t(),
                        IntPolynomial([0, 0, 1])]


def test_exp_log_plain():
    s = TruncSeries.from_dict(3, {1: IntPolynomial([1]), 2: IntPolynomial([0, 1])})
    assert series_log(series_exp(s)) == s


def test_constant_term_guard():
    s = TruncSeries.from_dict(2, {0: IntPolynomial([1])})
    with pytest.raises(HallforgeError):
        plethystic_exp(s, twist_t=False)


def test_measured_counts(kron2, kron3):
    # I at delta: the q+1 regular simples plus nothing else
    assert count_indecomposables(kron2, (1, 1)) == 3
    assert count_absolutely_indecomposable(kron2, (1, 1)) == 3
    assert count_indecomposables(kron3, (1, 1)) == 4
    # at 2delta: degree-dividing-2 point count; abs-indec sees only degree 1
    assert count_indecomposables(kron2, (2, 2)) == 4
    assert count_absolutely_indecomposable(kron2, (2, 2)) == 3


def test_kac_interpolation():
    samples = []
    for q in (2, 3, 4, 5):
        reg = IsoRegistry(kronecker(), GF.of_q(q))
        samples.append((q, Fraction(count_absolutely_indecomposable(reg, (1, 1)))))
    poly = interpolate_polynomial(samples, 1)
    assert poly == IntPolynomial([1, 1])


def test_descent_round_trip(kron2, kron3):
    a_poly = IntPolynomial([1, 1])  # established by the interpolation test
    for reg, q in ((kron2, 2), (kron3, 3)):
        for r in (1, 2):
            measured = count_indecomposables(reg, (r, r))
            assert Fraction(measured) == descent_prediction(
                lambda rr, qq: a_poly(qq), r, q)
            assert measured == points_of_degree_dividing(r, q)


def test_descent_cross_field(kron2):
    # measured absolute counts over extension fields agree with evaluating
    # the interpolated polynomial
    for q in (4, 8):
        reg = IsoRegistry(kronecker(), GF.of_q(q))
        assert count_absolutely_indecomposable(reg, (1, 1)) == q + 1


def test_solve_absolute_values_matches_the_series_route():
    # the oracle reads [z^r] log Exp_z(C) off truncated series
    rng = random.Random(11)
    for _ in range(300):
        r, q = rng.randrange(1, 7), rng.choice([2, 3, 4, 5])
        measured = {i: Fraction(rng.randrange(-20, 40), rng.randrange(1, 4))
                    for i in range(1, r + 1)}
        lower = {(i, qq): Fraction(rng.randrange(-20, 40), rng.randrange(1, 4))
                 for i in range(1, r) for qq in (q ** k for k in range(2, r + 1))}
        series = TruncSeries.from_dict(r, {i: IntPolynomial.constant(measured[i])
                                           for i in range(1, r + 1)})
        top = series_log(plethystic_exp(series, twist_t=False)).coeffs[r]
        assert top.degree <= 0
        expected = top(0) - sum(lower[(r // k, q ** k)] / k
                                for k in range(2, r + 1) if r % k == 0)
        got = solve_absolute_values(measured, lambda rr, qq: lower[(rr, qq)], r, q)
        assert got == expected, (r, q, measured)


def test_absolute_cuspidal_small():
    # levels 1 and 2 only: all registries stay tiny
    measured = {}
    for q in (2, 3, 4):
        reg = IsoRegistry(kronecker(), GF.of_q(q))
        h = HallAlgebra(reg)
        for r in (1, 2):
            measured[(r, q)] = cuspidal_space(h, (r, r)).dim
    # cross-check against the closed form C = I - 1 before solving
    for (r, q), v in measured.items():
        assert v == points_of_degree_dividing(r, q) - 1
    polys = absolute_cuspidal_polys(measured, 2, [2, 3, 4], 1)
    assert polys == [IntPolynomial([0, 1])] * 2
    for p in polys:
        assert all(c.denominator == 1 and c >= 0 for c in p.coeffs)


def test_tube_census_matches_point_table(hall_kron2, tubes_kron2):
    from hallforge.counting import point_table_from_tubes
    census = {}
    for t in tubes_kron2:
        census[t.degree] = census.get(t.degree, 0) + 1
    table = point_table_from_tubes(tubes_kron2, 2, 2)
    assert table.non_homogeneous == 0
    assert census == table.degree_census()


def test_element_to_json(hall_kron2, kron2):
    import json
    h = hall_kron2
    keys = [c.key for c in kron2.classes((1, 1))]
    f = h.basis(keys[0]) + h.basis(keys[1]).scaled(h.nu_pow(1))
    data = json.loads(f.to_json())
    assert data["grade"] == [1, 1]
    assert {t["class_id"] for t in data["terms"]} == {keys[0][1], keys[1][1]}
    bs = {t["class_id"]: t["b"] for t in data["terms"]}
    assert bs[keys[1][1]] == "1"  # the sqrt(2) coefficient


def test_series_guards_survive_optimize():
    code = (
        "from hallforge import counting as c\n"
        "from hallforge.errors import CertificateError\n"
        "assert False, 'asserts are live'\n"
        "a, b = c.TruncSeries.zero(1), c.TruncSeries.zero(2)\n"
        "cases = [\n"
        "    lambda: a + b, lambda: a - b, lambda: a * b,\n"
        "    lambda: c.series_exp(c.TruncSeries.one(2)),\n"
        "    lambda: c.series_log(c.TruncSeries.zero(2)),\n"
        "    lambda: c.closed_points_p1(0, 2),\n"
        "    lambda: setattr(c, 'mobius', lambda n: 1) or c.closed_points_p1(3, 3),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "    except CertificateError as err:\n"
        "        print(err)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "series order: expected 1, got 2",
        "series order: expected 1, got 2",
        "series order: expected 1, got 2",
        "series exp: expected zero constant term, got 1",
        "series log: expected constant term 1, got 0",
        "closed points of P^1: expected a degree >= 1, got 0",
        # with mobius broken to 1: (3 + 1) + (27 + 1) is not a multiple of 3
        "closed points of P^1: expected a multiple of 3, got 32",
    ]
