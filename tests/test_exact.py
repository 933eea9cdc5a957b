"""The shared exact eliminator (`hallforge.exact`) and the bench tracer targets."""

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import hallforge.cli
import hallforge.cuspidal
import hallforge.hall
import hallforge.quiver
from hallforge import exact
from hallforge.exact import kernel_basis_exact, kernel_basis_int, matrix_rank, row_reduce
from hallforge.hall import QNum

ROOT = Path(__file__).resolve().parent.parent

F = Fraction
# rank 2 over Q: row 3 = row 1 + 2 * row 2, pivots in columns 0 and 2
FRACTION_ROWS = [
    [F(1), F(2), F(0), F(-1), F(1, 2)],
    [F(0), F(0), F(3), F(1), F(-1)],
    [F(1), F(2), F(6), F(1), F(-3, 2)],
]


def _qnum_rows():
    r2 = QNum(0, 1, 2)  # sqrt(2)
    one, two = QNum(1, 0, 2), QNum(2, 0, 2)
    zero = QNum(0, 0, 2)
    # rank 2: row 3 = row 2 - sqrt(2) * row 1, pivots in columns 0 and 2
    return [
        [one, r2, zero, two],
        [r2, two, one, zero],
        [zero, zero, one, zero - two * r2],
    ], zero, one


def _apply(rows, vec, zero):
    out = []
    for row in rows:
        acc = zero
        for a, x in zip(row, vec):
            acc = acc + a * x
        out.append(acc)
    return out


def _check_kernel(rows, zero, one):
    cols = len(rows[0])
    basis = kernel_basis_exact(rows, zero, one)
    rank = matrix_rank(rows, zero)
    assert rank + len(basis) == cols
    for vec in basis:
        assert all(x == zero for x in _apply(rows, vec, zero))
    # canonical: each vector is 1 on its own free column, 0 on the others
    _, pivots = row_reduce(rows, zero)
    free = [c for c in range(cols) if c not in pivots]
    assert len(free) == len(basis)
    for fc, vec in zip(free, basis):
        assert [vec[c] for c in free] == [one if c == fc else zero for c in free]
    return basis, pivots


def test_kernel_fraction_rows():
    basis, pivots = _check_kernel(FRACTION_ROWS, F(0), F(1))
    assert pivots == [0, 2]
    assert basis == [
        [F(-2), F(1), F(0), F(0), F(0)],
        [F(1), F(0), F(-1, 3), F(1), F(0)],
        [F(-1, 2), F(0), F(1, 3), F(0), F(1)],
    ]


def test_kernel_qnum_rows():
    rows, zero, one = _qnum_rows()
    basis, pivots = _check_kernel(rows, zero, one)
    assert pivots == [0, 2]
    # the kernel vectors carry sqrt(2) parts: the field really is Q(sqrt 2)
    assert any(x.b for vec in basis for x in vec)


def test_row_reduce_edge_cases():
    assert row_reduce([], F(0)) == ([], [])
    assert kernel_basis_exact([], F(0), F(1)) == []
    assert matrix_rank([], F(0)) == 0
    assert matrix_rank([[F(0), F(0)], [F(0), F(0)]], F(0)) == 0
    assert matrix_rank(FRACTION_ROWS, F(0)) == 2
    red, pivots = row_reduce(FRACTION_ROWS, F(0))
    assert red[2] == [F(0)] * 5  # zero rows are kept, at the bottom
    assert matrix_rank([[F(1), F(2)], [F(3), F(4)]], F(0)) == 2
    rows, zero, _ = _qnum_rows()
    assert matrix_rank(rows, zero) == 2


def _row_reduce_dividing(rows, zero):
    """`row_reduce` as it was before it skipped dividing by a unit pivot."""
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


def _exact_entries(rows):
    # type and value, and the field of a QNum, which == does not compare
    return [[(type(x), x, getattr(x, "m", None)) for x in r] for r in rows]


def test_row_reduce_unit_pivots_match_dividing_reduction():
    rng = random.Random(11)
    qrows, qzero, qone = _qnum_rows()
    cases = [(FRACTION_ROWS, F(0)), (qrows, qzero),
             (row_reduce(FRACTION_ROWS, F(0))[0], F(0)),  # RREF input: every pivot is 1
             ([[qone, QNum(0, 1, 2)], [QNum(0, 1, 2), qone]], qzero)]
    for _ in range(60):
        cols = rng.randint(1, 5)
        # leading ones and small entries: many pivots are 1, some are not
        rows = [[F(rng.choice((0, 1, 1, 2, -1)), rng.choice((1, 1, 2))) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))]
        cases.append((rows, F(0)))
    for rows, zero in cases:
        have, want = row_reduce(rows, zero), _row_reduce_dividing(rows, zero)
        assert have[1] == want[1], rows
        assert _exact_entries(have[0]) == _exact_entries(want[0]), rows


def _fraction_kernel(rows):
    return kernel_basis_exact([[F(x) for x in r] for r in rows], F(0), F(1))


def test_modular_kernel_matches_fraction_kernel():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.5:  # a dependent row lowers the rank
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        assert kernel_basis_int(rows) == _fraction_kernel(rows), rows
    # census-sized counts: rank 2 with kernel entries that are not integers
    rows = [[120, 35, 0, 7], [0, 14, 81, 1], [120, 49, 81, 8]]
    assert kernel_basis_int(rows) == _fraction_kernel(rows)
    assert any(x.denominator > 1 for vec in kernel_basis_int(rows) for x in vec)


def test_modular_kernel_edge_cases():
    assert kernel_basis_int([]) == [] == kernel_basis_exact([], F(0), F(1))
    assert kernel_basis_int([[]]) == []
    # zero matrix: every column is free
    assert kernel_basis_int([[0, 0, 0], [0, 0, 0]]) == \
        [[F(int(i == j)) for j in range(3)] for i in range(3)]
    # full column rank: empty kernel
    assert kernel_basis_int([[1, 2], [3, 4], [5, 6]]) == []
    assert kernel_basis_int([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == []


def test_modular_kernel_needs_several_primes():
    # coprime entries near 2^40: the kernel entry -b/a exceeds what one
    # 31-bit prime can reconstruct
    a, b = 2 ** 40 + 1, 2 ** 40 + 3
    assert kernel_basis_int([[a, b]]) == [[F(-b, a), F(1)]] == _fraction_kernel([[a, b]])
    # an entry equal to the first prime vanishes mod that prime, which puts the
    # pivot in the wrong column; verification over Z rejects that basis
    p = next(exact._primes_31())
    for rows in ([[p, 1]], [[p, 1, 2], [1, 1, 1]], [[p, p], [1, 2]]):
        assert kernel_basis_int(rows) == _fraction_kernel(rows), rows


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
