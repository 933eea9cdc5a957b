"""Counting layer: point counts, interpolation, plethystic calculus.

Everything is exact-rational.  Polynomials in t are coefficient vectors
of Fractions; truncated series in z carry one polynomial per z-power.
The plethystic exponential acts in two modes: z-only, where the k-th
Adams operation substitutes z -> z^k and leaves t alone, and (t, z),
where it also substitutes t -> t^k.  The two modes together encode
Galois descent: equating a z-only exponential of counts over GF(q) with
a (t, z)-exponential of "absolute" counts unpacks to

    sum_{k | r} c_{r/k}(q) / k  =  sum_{k | r} a_{r/k}(q^k) / k,

which is how indecomposable/absolutely-indecomposable and
cuspidal/absolutely-cuspidal counts are converted into each other here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import CertificateError, HallforgeError

# ---------------------------------------------------------------------------
# exact polynomials in t


class IntPolynomial:
    """Polynomial with exact rational coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "IntPolynomial":
        return cls([c])

    @classmethod
    def t(cls) -> "IntPolynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return self.coeffs == IntPolynomial([other]).coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = other if isinstance(other, IntPolynomial) else IntPolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial([
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        ])

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = other if isinstance(other, IntPolynomial) else IntPolynomial([other])
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return IntPolynomial([c * Fraction(other) for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return IntPolynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "IntPolynomial":
        return IntPolynomial([x * Fraction(c) for x in self.coeffs])

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def frobenius(self, k: int) -> "IntPolynomial":
        """Substitute t -> t^k."""
        if k == 1 or not self.coeffs:
            return self
        out = [Fraction(0)] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPolynomial(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# truncated power series in z with polynomial coefficients


@dataclass
class TruncSeries:
    order: int
    coeffs: List[IntPolynomial]  # index = z-power, length order+1

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls(order, [IntPolynomial([]) for _ in range(order + 1)])

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        s = cls.zero(order)
        s.coeffs[0] = IntPolynomial([1])
        return s

    @classmethod
    def from_dict(cls, order: int, data: Dict[int, IntPolynomial]) -> "TruncSeries":
        s = cls.zero(order)
        for k, v in data.items():
            if k <= order:
                s.coeffs[k] = v
        return s

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    def _check_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise CertificateError("series order", None, self.order, other.order)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        out = TruncSeries.zero(self.order)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out.coeffs[i + j] = out.coeffs[i + j] + a * b
        return out

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.order, [p.scale(c) for p in self.coeffs])

    def adams(self, k: int, twist_t: bool) -> "TruncSeries":
        """psi_k: z -> z^k, and t -> t^k when `twist_t`."""
        out = TruncSeries.zero(self.order)
        for i, p in enumerate(self.coeffs):
            if p and i * k <= self.order:
                out.coeffs[i * k] = p.frobenius(k) if twist_t else p
        return out


def series_exp(s: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term."""
    if s.coeffs[0]:
        raise CertificateError("series exp", None, "zero constant term", s.coeffs[0])
    out = TruncSeries.one(s.order)
    power = TruncSeries.one(s.order)
    fact = 1
    for n in range(1, s.order + 1):
        power = power * s
        fact *= n
        out = out + power.scale(Fraction(1, fact))
    return out


def series_log(s: TruncSeries) -> TruncSeries:
    """log of a series with constant term one."""
    if s.coeffs[0] != IntPolynomial([1]):
        raise CertificateError("series log", None, "constant term 1", s.coeffs[0])
    u = s - TruncSeries.one(s.order)
    out = TruncSeries.zero(s.order)
    power = TruncSeries.one(s.order)
    for n in range(1, s.order + 1):
        power = power * u
        out = out + power.scale(Fraction((-1) ** (n + 1), n))
    return out


def mobius(n: int) -> int:
    out, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def plethystic_exp(s: TruncSeries, twist_t: bool) -> TruncSeries:
    """Exp(s) = exp(sum_k psi_k(s)/k), truncated; s must have no constant term."""
    if s.coeffs[0]:
        raise HallforgeError("plethystic exponential needs zero constant term")
    acc = TruncSeries.zero(s.order)
    for k in range(1, s.order + 1):
        acc = acc + s.adams(k, twist_t).scale(Fraction(1, k))
    return series_exp(acc)


def plethystic_log(s: TruncSeries, twist_t: bool) -> TruncSeries:
    """Inverse of plethystic_exp: Log(s) = sum_k mu(k)/k psi_k(log s)."""
    base = series_log(s)
    acc = TruncSeries.zero(s.order)
    for k in range(1, s.order + 1):
        mu = mobius(k)
        if mu:
            acc = acc + base.adams(k, twist_t).scale(Fraction(mu, k))
    return acc


# ---------------------------------------------------------------------------
# point counts on the projective line


def closed_points_p1(e: int, q: int) -> int:
    """Closed points of degree e on the projective line over GF(q).

    Moebius inversion of sum_{d | e} d * M(d) = q^e + 1.
    """
    if e < 1:
        raise CertificateError("closed points of P^1", None, "a degree >= 1", e)
    total = 0
    for d in range(1, e + 1):
        if e % d == 0:
            total += mobius(e // d) * (q ** d + 1)
    if total % e:
        raise CertificateError("closed points of P^1", None, f"a multiple of {e}", total)
    return total // e


@dataclass
class PointCountTable:
    q: int
    non_homogeneous: int  # |D|
    max_degree: int

    def n_points(self, e: int) -> int:
        """N(e): degree-e points away from the non-homogeneous locus."""
        base = closed_points_p1(e, self.q)
        return base - self.non_homogeneous if e == 1 else base

    def degree_census(self) -> Dict[int, int]:
        return {e: self.n_points(e) for e in range(1, self.max_degree + 1)}


def points_of_degree_dividing(r: int, q: int) -> int:
    return sum(closed_points_p1(d, q) for d in range(1, r + 1) if r % d == 0)


def point_table_from_tubes(tubes, q: int, max_degree: int) -> PointCountTable:
    """Point-count table with |D| read off a computed tube decomposition."""
    non_homog = sum(1 for t in tubes if t.period > 1)
    return PointCountTable(q=q, non_homogeneous=non_homog, max_degree=max_degree)


# ---------------------------------------------------------------------------
# exact interpolation with a held-out verification point


def interpolate_polynomial(samples: Sequence[Tuple[int, Fraction]],
                           degree_bound: int) -> IntPolynomial:
    """Lagrange interpolation through the first degree_bound+1 samples;
    every remaining sample must match exactly or interpolation fails."""
    if len(samples) < degree_bound + 2:
        raise HallforgeError(
            f"need {degree_bound + 2} samples (including one for verification), "
            f"got {len(samples)}"
        )
    base = samples[: degree_bound + 1]
    poly = IntPolynomial([])
    for i, (xi, yi) in enumerate(base):
        term = IntPolynomial([yi])
        for j, (xj, _) in enumerate(base):
            if i == j:
                continue
            term = term * IntPolynomial([Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        poly = poly + term
    for (x, y) in samples:
        if poly(x) != Fraction(y):
            raise HallforgeError(
                f"polynomiality violated at degree bound {degree_bound}: "
                f"P({x}) = {poly(x)} != {y}"
            )
    return poly


# ---------------------------------------------------------------------------
# indecomposable counting and Galois descent


def count_indecomposables(registry, grade) -> int:
    return sum(1 for c in registry.classes(grade) if c.indec)


def count_absolutely_indecomposable(registry, grade) -> int:
    """Indecomposables whose endomorphism residue field is the base field."""
    return sum(1 for c in registry.classes(grade) if c.indec and c.res_degree == 1)


def descent_prediction(values_at_powers: Callable[[int, int], Fraction],
                       r: int, q: int) -> Fraction:
    """sum_{l | r} 1/l sum_{m | l} mu(m) * A_{r/l}(q^{l/m}).

    `values_at_powers(rr, qq)` supplies the absolute count of the rr-th
    multiple of the base grade over GF(qq).
    """
    total = Fraction(0)
    for l in range(1, r + 1):
        if r % l:
            continue
        inner = Fraction(0)
        for m in range(1, l + 1):
            if l % m:
                continue
            mu = mobius(m)
            if mu:
                inner += mu * Fraction(values_at_powers(r // l, q ** (l // m)))
        total += inner / l
    return total


def solve_absolute_values(measured: Dict[int, Fraction],
                          lower_absolute: Callable[[int, int], Fraction],
                          r: int, q: int) -> Fraction:
    """Absolute count at level r over GF(q) from plain counts at the same q.

    Solves the plethystic identity
      Exp_z(sum c_r(q) z^r) = Exp_{t,z}(sum a_r(t) z^r)|_{t=q}
    for the top coefficient: both logs agree coefficientwise, and
    [z^r] log Exp_z(C) = sum_{k | r} c_{r/k}(q)/k, so
      a_r(q) = sum_{k | r} c_{r/k}(q)/k - sum_{k | r, k > 1} a_{r/k}(q^k)/k.
    """
    acc = Fraction(measured[r])
    for k in range(2, r + 1):
        if r % k == 0:
            acc += Fraction(measured[r // k], k) - Fraction(lower_absolute(r // k, q ** k), k)
    return acc


def absolute_cuspidal_polys(measured: Dict[Tuple[int, int], int],
                            r_max: int, sample_qs: Sequence[int],
                            degree_bound: int = 1) -> List[IntPolynomial]:
    """Absolutely-cuspidal polynomials on the delta ray from measured
    cuspidal dimensions, level by level.

    `measured[(r, q)]` is the cuspidal dimension in grade r*delta over
    GF(q).  Levels are solved bottom-up: at each level the absolute
    values at the sample points are computed through the plethystic
    identity (lower levels entering through their already-interpolated
    polynomials at higher prime powers), then interpolated with the
    stated degree bound, the last sample acting as the verification
    point.
    """
    solved: List[IntPolynomial] = []

    def lower(rr: int, qq: int) -> Fraction:
        return solved[rr - 1](qq)

    for r in range(1, r_max + 1):
        values = []
        for q in sample_qs:
            table = {i: Fraction(measured[(i, q)]) for i in range(1, r + 1)}
            values.append((q, solve_absolute_values(table, lower, r, q)))
        solved.append(interpolate_polynomial(values, degree_bound))
    return solved
