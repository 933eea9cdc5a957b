"""The one exact eliminator: Gauss-Jordan over Q or Q(sqrt(q)).

Rows hold Fraction or QNum entries and the caller passes the field's zero
and one, so this module imports no other hallforge module.
"""

from __future__ import annotations

from typing import List, Tuple


def row_reduce(rows: List[list], zero) -> Tuple[List[list], List[int]]:
    """RREF of a matrix over an exact field (Fraction or QNum entries)."""
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


def matrix_rank(rows: List[list], zero) -> int:
    return len(row_reduce(rows, zero)[1])


def kernel_basis_exact(rows: List[list], zero, one) -> List[list]:
    """Right kernel basis (canonical form from the RREF free columns)."""
    if not rows:
        return []
    cols = len(rows[0])
    red, pivots = row_reduce(rows, zero)
    free = [c for c in range(cols) if c not in pivots]
    out = []
    for fc in free:
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - red[r][fc]
        out.append(vec)
    return out
