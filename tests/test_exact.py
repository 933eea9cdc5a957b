"""The shared exact eliminator (`hallforge.exact`) and the bench tracer targets."""

import importlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hallforge.cli
import hallforge.cuspidal
import hallforge.hall
import hallforge.quiver
from hallforge import exact
from hallforge.exact import kernel_basis_exact, matrix_rank, row_reduce
from hallforge.hall import QNum

ROOT = Path(__file__).resolve().parent.parent

F = Fraction
# rank 2 over Q: row 3 = row 1 + 2 * row 2, pivots in columns 0 and 2
FRACTION_ROWS = [
    [F(1), F(2), F(0), F(-1), F(1, 2)],
    [F(0), F(0), F(3), F(1), F(-1)],
    [F(1), F(2), F(6), F(1), F(-3, 2)],
]


def _apply(rows, vec):
    return [sum((a * x for a, x in zip(row, vec)), F(0)) for row in rows]


def _check_kernel(rows):
    cols = len(rows[0])
    basis = kernel_basis_exact(rows)
    rank = matrix_rank(rows)
    assert rank + len(basis) == cols
    for vec in basis:
        assert not any(_apply(rows, vec))
    # canonical: each vector is 1 on its own free column, 0 on the others
    _, pivots = row_reduce(rows)
    free = [c for c in range(cols) if c not in pivots]
    assert len(free) == len(basis)
    for fc, vec in zip(free, basis):
        assert [vec[c] for c in free] == [int(c == fc) for c in free]
    return basis, pivots


def test_kernel_fraction_rows():
    basis, pivots = _check_kernel(FRACTION_ROWS)
    assert pivots == [0, 2]
    assert basis == [
        [F(-2), F(1), F(0), F(0), F(0)],
        [F(1), F(0), F(-1, 3), F(1), F(0)],
        [F(-1, 2), F(0), F(1, 3), F(0), F(1)],
    ]


def test_row_reduce_edge_cases():
    assert row_reduce([]) == ([], [])
    assert kernel_basis_exact([]) == []
    # no rows: the kernel of a 0 x 3 array is all of Q^3, as of [[0, 0, 0]]
    assert kernel_basis_exact(np.zeros((0, 3), dtype=np.int64)) == kernel_basis_exact(
        [[0, 0, 0]]) == [[int(i == j) for j in range(3)] for i in range(3)]
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert matrix_rank(FRACTION_ROWS) == 2
    red, pivots = row_reduce(FRACTION_ROWS)
    assert red[2] == [F(0)] * 5  # zero rows are kept, at the bottom
    assert matrix_rank([[F(1), F(2)], [F(3), F(4)]]) == 2
    # ints mixed with Fractions are rationals too, and stay exact
    assert row_reduce([[1, F(1, 2)], [2, 3]]) == ([[F(1), F(0)], [F(0), F(1)]], [0, 1])
    assert row_reduce([[F(2), 1]])[0] == [[F(1), F(1, 2)]]
    # no elimination over Q(sqrt q): a QNum is not a rational entry
    with pytest.raises(TypeError):
        row_reduce([[QNum(0, 1, 2), QNum(1, 0, 2)]])


def _row_reduce_dividing(rows, zero):
    """Gauss-Jordan that divides by every pivot, unit or not: an oracle that
    shares no code with `exact` and runs on any exact field (Fraction or
    QNum entries)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [[zero] * cols for _ in range(len(rows) - r)], pivots


def _oracle(rows):
    """RREF and pivots of integer rows, by the oracle over Fractions."""
    return _row_reduce_dividing([[F(x) for x in r] for r in rows], F(0))


def _exact_entries(rows):
    return [[(type(x), x) for x in r] for r in rows]


def test_row_reduce_unit_pivots_match_dividing_reduction():
    rng = random.Random(11)
    cases = [FRACTION_ROWS, row_reduce(FRACTION_ROWS)[0]]  # RREF input: every pivot is 1
    for _ in range(60):
        cols = rng.randint(1, 5)
        # leading ones and small entries: many pivots are 1, some are not
        rows = [[F(rng.choice((0, 1, 1, 2, -1)), rng.choice((1, 1, 2))) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))]
        cases.append(rows)
    for rows in cases:
        have, want = row_reduce(rows), _row_reduce_dividing(rows, F(0))
        assert have[1] == want[1], rows
        assert _exact_entries(have[0]) == _exact_entries(want[0]), rows


def _check_int_route(rows):
    """Integer rows: RREF and pivots as the oracle's, with Fraction entries,
    and the kernel as the Gauss-Jordan route gives it for the same rows
    written as Fractions."""
    have = row_reduce(rows)
    assert have[1] == _oracle(rows)[1], rows
    assert _exact_entries(have[0]) == _exact_entries(_oracle(rows)[0]), rows
    kernel = kernel_basis_exact(rows)
    assert kernel == kernel_basis_exact([[F(x) for x in r] for r in rows]), rows
    return kernel


def test_modular_kernel_matches_fraction_kernel():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.5:  # a dependent row lowers the rank
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        _check_int_route(rows)
    # census-sized counts: rank 2 with kernel entries that are not integers
    rows = [[120, 35, 0, 7], [0, 14, 81, 1], [120, 49, 81, 8]]
    kernel = _check_int_route(rows)
    assert any(x.denominator > 1 for vec in kernel for x in vec)


def test_routes_follow_the_input(monkeypatch):
    # all-int rows never reach Gauss-Jordan, and Fraction rows never reach
    # the modular RREF
    rows = [[120, 35, 0, 7], [0, 14, 81, 1], [120, 49, 81, 8]]
    want = _oracle(rows)
    with monkeypatch.context() as m:
        m.setattr(exact, "_gauss_jordan", None)
        assert row_reduce(rows) == want
    with monkeypatch.context() as m:
        m.setattr(exact, "_rref_mod", None)
        assert row_reduce([[F(x) for x in r] for r in rows]) == want


def test_modular_kernel_edge_cases():
    assert kernel_basis_exact([[]]) == [] and row_reduce([[]]) == ([[]], [])
    # zero matrix: every column is free
    assert row_reduce([[0, 0, 0], [0, 0, 0]]) == ([[F(0)] * 3] * 2, [])
    assert kernel_basis_exact([[0, 0, 0], [0, 0, 0]]) == \
        [[F(int(i == j)) for j in range(3)] for i in range(3)]
    # full column rank: empty kernel, identity on top
    assert row_reduce([[1, 2], [3, 4], [5, 6]]) == ([[1, 0], [0, 1], [0, 0]], [0, 1])
    assert kernel_basis_exact([[1, 2], [3, 4], [5, 6]]) == []
    assert kernel_basis_exact([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == []
    assert matrix_rank([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3


def test_modular_kernel_needs_several_primes():
    # coprime entries near 2^40: the RREF entry b/a exceeds what one
    # 31-bit prime can reconstruct
    a, b = 2 ** 40 + 1, 2 ** 40 + 3
    assert row_reduce([[a, b]]) == ([[F(1), F(b, a)]], [0])
    assert _check_int_route([[a, b]]) == [[F(-b, a), F(1)]]
    # an entry equal to the first prime vanishes mod that prime, which puts the
    # pivot in the wrong column; verification over Z rejects that RREF
    p = next(exact._primes_31())
    for rows in ([[p, 1]], [[p, 1, 2], [1, 1, 1]], [[p, p], [1, 2]]):
        _check_int_route(rows)


def test_modular_route_skips_a_prime_with_worse_pivots(monkeypatch):
    # the second prime p2 divides the first entry, so modulo p2 the pivot
    # moves to column 1: a worse pivot than the first prime's, so that prime
    # is skipped and the RREF is the dividing oracle's
    p2 = list(itertools.islice(exact._primes_31(), 2))[1]
    pivots, rref_mod = [], exact._rref_mod

    def recorded(a, p):
        out = rref_mod(a, p)
        pivots.append((p, out[1]))
        return out

    monkeypatch.setattr(exact, "_rref_mod", recorded)
    _check_int_route([[p2, 2 ** 40 + 3]])
    assert (p2, [1]) in pivots and pivots[0][1] == [0] and len(pivots) > 2


def test_pbw_rank_matches_the_unscaled_rows(hall_kron2, hall_kron3):
    # pbw_rank divides each product row by one of its coefficients and ranks
    # the rational rows; the oracle ranks the unscaled rows over Q(sqrt q)
    sqrt_rows = 0
    for hall in (hall_kron2, hall_kron3):
        reg = hall.registry
        for grade in reg.grades_below((2, 2)):
            if not any(grade):
                continue
            indecs = sorted(c.key for g in reg.grades_below(grade) if any(g)
                            for c in reg.classes(g) if c.indec)
            coords = [c.key for c in reg.classes(grade)]
            rows = []
            for seq in _monomials(indecs, grade):
                el = hall.multiply_all([hall.basis(k) for k in seq])
                rows.append([el.coeff(k) for k in coords])
            sqrt_rows += any(v.b for row in rows for v in row)
            rank = len(_row_reduce_dividing(rows, hall.zero())[1])
            assert hallforge.cli.pbw_rank(hall, grade) == (rank, len(coords)), grade
    assert sqrt_rows  # some rows carry a sqrt(q) part: the scaling is tested


def _monomials(indecs, grade):
    """Non-decreasing sequences of indecomposable keys summing to `grade`."""
    if not any(grade):
        return [[]]
    out = []
    for j, k in enumerate(indecs):
        rest = tuple(a - b for a, b in zip(grade, k[0]))
        if min(rest) >= 0:
            out += [[k] + tail for tail in _monomials(indecs[j:], rest)]
    return out


def test_one_eliminator_object():
    # every module binds the same function objects, so the bench tracer,
    # which wraps them by identity, sees every call
    for mod in (hallforge.hall, hallforge.cuspidal, hallforge.cli):
        assert mod.matrix_rank is exact.matrix_rank
    for mod in (hallforge.hall, hallforge.cuspidal, hallforge.quiver):
        assert mod.kernel_basis_exact is exact.kernel_basis_exact
    assert hallforge.hall.row_reduce is exact.row_reduce


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for name, module, attr in tracing.LAYERS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, module, attr)
            owner = getattr(owner, part)
        assert callable(owner), (name, module, attr)
