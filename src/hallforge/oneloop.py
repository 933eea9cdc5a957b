"""Conjugacy types of the one-loop quiver.

A representation of the one-loop quiver is a square matrix up to
conjugacy.  Its class is a conjugacy type: a sorted tuple of pairs
(monic irreducible polynomial f, partition lambda), one pair per
irreducible factor of the characteristic polynomial, with the companion
blocks of f^(lambda_i) as canonical representative, and `a_lambda` gives
the automorphism counts.  A constructive one-loop slice identifies a matrix
as every constructive slice does (`registry.SplitIndex`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

from .errors import CertificateError
from .gf import GF, Mat, monic_irreducibles, poly_mul
from .quiver import Quiver
from .reps import Rep

# ---------------------------------------------------------------------------
# partitions and automorphism counts


def partitions_of(n: int) -> List[tuple]:
    out = []

    def rec(remaining: int, max_part: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def a_lambda(q: int, lam: Sequence) -> int:
    """Automorphism count of the nilpotent one-loop module of type lambda."""
    lam = tuple(sorted(lam, reverse=True))
    mult: Dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    n_lam = sum(i * part for i, part in enumerate(lam))  # sum (i-1) * lambda_i
    val = Fraction(q) ** (sum(lam) + 2 * n_lam)
    for m in mult.values():
        for j in range(1, m + 1):
            val *= 1 - Fraction(1, q ** j)
    if val.denominator != 1:
        raise CertificateError(f"automorphism count of type {lam} at q = {q}", None,
                               "an integer", val)
    return int(val)


# ---------------------------------------------------------------------------
# conjugacy types and their canonical representatives


def one_loop_types(ctx: GF, n: int, nilpotent_only: bool) -> List[tuple]:
    """All multisets of (irreducible poly, partition) with total weight n, sorted."""
    irr = monic_irreducibles(ctx, n)
    polys = [(d, tuple(f)) for d in range(1, n + 1) for f in irr[d]
             if not nilpotent_only or (d == 1 and f[0] == 0)]
    parts = [lam for total in range(1, n + 1) for lam in partitions_of(total)]
    out = []

    def rec(i: int, budget: int, acc: list):
        if budget == 0:
            out.append(tuple(sorted(acc)))
            return
        if i == len(polys):
            return
        d, f = polys[i]
        rec(i + 1, budget, acc)
        for lam in parts:
            if sum(lam) * d <= budget:
                acc.append((f, lam))
                rec(i + 1, budget - sum(lam) * d, acc)
                acc.pop()

    rec(0, n, [])
    return sorted(out)


def _poly_pow_full(ctx: GF, f: Sequence, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(ctx, out, list(f))
    return out


def companion(ctx: GF, poly: Sequence) -> Mat:
    m = len(poly) - 1
    a = np.zeros((m, m), dtype=np.uint8)
    for i in range(m - 1):
        a[i + 1, i] = 1
    for i in range(m):
        a[i, m - 1] = ctx.neg(poly[i])
    return Mat(ctx, a)


def one_loop_rep(quiver: Quiver, ctx: GF, typ: tuple) -> Rep:
    """Canonical representative of a conjugacy type: companion blocks of f^part."""
    blocks = None
    for f, lam in typ:
        for part in lam:
            comp = companion(ctx, _poly_pow_full(ctx, f, part))
            blocks = comp if blocks is None else blocks.block_diag(comp)
    return Rep(quiver, ctx, (blocks.rows,), (blocks,))
