"""Quivers, dimension vectors and their bilinear forms.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed.  Vertex order and arrow order are fixed, serialized, and
significant: canonical forms downstream depend on them.

Conventions.  The (non-symmetric) form on dimension vectors is

    <d, e> = sum_i d_i e_i  -  sum_{arrows i->j} d_i e_j

and (d, e) = <d, e> + <e, d> is its symmetrization, so the Cartan matrix
has C_ii = 2 - 2*(loops at i) and C_ij = -(number of arrows between i and
j, both directions).  A connected quiver is finite / affine / wild
according to whether C is positive definite / positive semidefinite of
corank one / neither; `classify_type` decides this by Vinberg's
trichotomy, read off the exact eliminator of `exact`.  In the affine case
the radical of C is spanned by a unique primitive positive vector `delta`,
and the defect of d is <delta, d>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import HallforgeError, SizeMismatch
from .exact import kernel_basis_exact, row_reduce

# ---------------------------------------------------------------------------
# quiver


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple  # pairs (source index, target index)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        for (s, t) in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"arrow ({s},{t}) out of range")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def loops_at(self, i: int) -> int:
        return sum(1 for (s, t) in self.arrows if s == i and t == i)

    def arrows_from(self, i: int):
        return [a for a, (s, _) in enumerate(self.arrows) if s == i]

    def is_sink(self, i: int) -> bool:
        return not self.arrows_from(i)

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def topological_order(self) -> Optional[list]:
        indeg = [0] * self.n
        for (_, t) in self.arrows:
            indeg[t] += 1
        order, stack = [], sorted(i for i in range(self.n) if indeg[i] == 0)
        while stack:
            v = stack.pop(0)
            order.append(v)
            for (s, t) in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        stack.append(t)
        return order if len(order) == self.n else None

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return support_is_connected(self, (1,) * self.n)

    def check_dim(self, d: Sequence) -> tuple:
        d = tuple(int(x) for x in d)
        if len(d) != self.n:
            raise SizeMismatch(f"dimension vector {d} does not fit {self.n} vertices")
        if any(x < 0 for x in d):
            raise ValueError(f"negative entry in dimension vector {d}")
        return d

    # serialization: arrow list order is significant and preserved
    def to_json(self) -> str:
        return json.dumps(
            {"vertices": list(self.vertices), "arrows": [list(a) for a in self.arrows]}
        )

    @classmethod
    def from_json(cls, text: str) -> "Quiver":
        data = json.loads(text)
        return cls(tuple(data["vertices"]), tuple((int(s), int(t)) for s, t in data["arrows"]))


# ---------------------------------------------------------------------------
# bilinear forms


def euler_form(q: Quiver, d: Sequence, e: Sequence) -> int:
    """<d, e> = sum d_i e_i - sum over arrows i->j of d_i e_j."""
    d, e = q.check_dim(d), q.check_dim(e)
    total = sum(di * ei for di, ei in zip(d, e))
    total -= sum(d[s] * e[t] for (s, t) in q.arrows)
    return total


def symmetrized_form(q: Quiver, d: Sequence, e: Sequence) -> int:
    """(d, e) = <d, e> + <e, d>; orientation independent."""
    return euler_form(q, d, e) + euler_form(q, e, d)


def cartan_matrix(q: Quiver):
    """Symmetric integer matrix C with (d, e) = d^T C e; loops count twice."""
    n = q.n
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2 - 2 * q.loops_at(i)
    for (s, t) in q.arrows:
        if s != t:
            c[s][t] -= 1
            c[t][s] -= 1
    return c


# ---------------------------------------------------------------------------
# type classification


@dataclass(frozen=True)
class QuiverType:
    tag: str  # "finite" | "affine" | "wild"
    delta: Optional[tuple] = None


def _primitive_integer(vec) -> tuple:
    """The rational vector scaled to coprime integers, first nonzero entry
    positive."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x != 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def classify_type(q: Quiver) -> QuiverType:
    """Finite / affine / wild trichotomy of a connected quiver.

    Vinberg's trichotomy for the connected, hence indecomposable, Cartan
    matrix C (Kac, Infinite-dimensional Lie algebras, Thm 4.3): a
    nonsingular C is finite exactly when the solution of C u = 1 is
    positive; a singular C is affine exactly when its kernel is one line
    with a positive vector, which is `delta` (entries positive, gcd 1);
    every other C is wild.  The Jordan quiver (one vertex, one loop)
    classifies affine, delta=(1).
    """
    if not q.is_connected():
        raise ValueError("classify_type requires a connected quiver")
    c = cartan_matrix(q)
    red, pivots = row_reduce([row + [1] for row in c])
    if pivots == list(range(q.n)):  # C nonsingular, u in the last column
        return QuiverType("finite" if all(row[-1] > 0 for row in red) else "wild")
    kernel = kernel_basis_exact(c)
    if len(kernel) == 1:
        delta = _primitive_integer(kernel[0])
        if min(delta) > 0:
            return QuiverType("affine", delta)
    return QuiverType("wild")


def defect(q: Quiver, d: Sequence, qtype: Optional[QuiverType] = None) -> int:
    """<delta, d> for an affine quiver; sign sorts indecomposables."""
    qtype = qtype or classify_type(q)
    if qtype.tag != "affine":
        raise ValueError("defect is defined for affine quivers only")
    return euler_form(q, qtype.delta, d)


# ---------------------------------------------------------------------------
# support and dualization


def support(d: Sequence) -> frozenset:
    return frozenset(i for i, x in enumerate(d) if x > 0)


def support_is_connected(q: Quiver, d: Sequence) -> bool:
    """Connectivity of the full subquiver on the support of d."""
    supp = support(d)
    if not supp:
        return True
    seen = {min(supp)}
    frontier = [min(supp)]
    while frontier:
        v = frontier.pop()
        for (s, t) in q.arrows:
            for a, b in ((s, t), (t, s)):
                if a == v and b in supp and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return seen == supp


def subquiver_on(q: Quiver, verts: Sequence) -> Quiver:
    """Full subquiver on the given vertices (in their original order)."""
    verts = sorted(set(verts))
    pos = {v: i for i, v in enumerate(verts)}
    arrows = tuple((pos[s], pos[t]) for (s, t) in q.arrows if s in pos and t in pos)
    return Quiver(tuple(q.vertices[v] for v in verts), arrows)


def restrict_dim(d: Sequence, verts: Sequence) -> tuple:
    verts = sorted(set(verts))
    return tuple(d[v] for v in verts)


def dual_quiver(q: Quiver) -> Quiver:
    """Reverse every arrow; vertex order and arrow list order preserved."""
    return Quiver(q.vertices, tuple((t, s) for (s, t) in q.arrows))


# ---------------------------------------------------------------------------
# standard quivers


def single_vertex() -> Quiver:
    return Quiver(("1",), ())


def jordan() -> Quiver:
    return Quiver(("1",), ((0, 0),))


def kronecker(arrows: int = 2) -> Quiver:
    return Quiver(("1", "2"), tuple((0, 1) for _ in range(arrows)))


def cyclic_quiver(n: int) -> Quiver:
    """Cyclic quiver with one arrow i -> i+1 (mod n)."""
    return Quiver(tuple(str(i) for i in range(n)), tuple((i, (i + 1) % n) for i in range(n)))


def affine_a(n: int, flips: Sequence = ()) -> Quiver:
    """Cycle on n+1 vertices; arrows i->i+1 except the flipped positions."""
    m = n + 1
    arrows = []
    for i in range(m):
        j = (i + 1) % m
        arrows.append((j, i) if i in set(flips) else (i, j))
    return Quiver(tuple(str(i) for i in range(m)), tuple(arrows))


def affine_d(n: int) -> Quiver:
    """D_n^(1) shape (n+1 vertices, n >= 4): a chain with forks at both ends."""
    if n < 4:
        raise HallforgeError(f"affine_d needs n >= 4, got {n}")
    # vertices: 0,1 fork into 2, chain 2..n-2, fork out to n-1, n
    arrows = [(0, 2), (1, 2)]
    arrows += [(i, i + 1) for i in range(2, n - 2)]
    arrows += [(n - 2, n - 1), (n - 2, n)]
    return Quiver(tuple(str(i) for i in range(n + 1)), tuple(arrows))


def affine_e(n: int) -> Quiver:
    """E_n^(1) shape for n in {6, 7, 8}, some orientation."""
    if n not in (6, 7, 8):
        raise HallforgeError(f"affine_e needs n in (6, 7, 8), got {n}")
    arms = {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}[n]
    arrows = []
    verts = ["c"]
    for arm, length in enumerate(arms):
        prev = 0
        for step in range(length):
            verts.append(f"{arm}.{step}")
            arrows.append((prev, len(verts) - 1))
            prev = len(verts) - 1
    return Quiver(tuple(verts), tuple(arrows))


def affine_a2_acyclic() -> Quiver:
    """Triangle with two arrows one way and one the other (acyclic)."""
    return Quiver(("1", "2", "3"), ((0, 1), (1, 2), (0, 2)))


def d4_star_out() -> Quiver:
    """D_4^(1): central vertex mapping onto four outer vertices."""
    return Quiver(("c", "a", "b", "u", "v"), ((0, 1), (0, 2), (0, 3), (0, 4)))


def a4_square() -> Quiver:
    """A_4-type square: two paths of length two meeting at a sink."""
    return Quiver(("tl", "tr", "bl", "br"), ((0, 1), (0, 2), (1, 3), (2, 3)))
