"""The Hall algebra of a quiver over a finite field.

Scalars live in the real quadratic field Q(sqrt(q)): every value is
a + b*sqrt(m) with exact rational a, b, where m is the squarefree part of
q, so nu = sqrt(q) is exact and every identity is checked as an equality.

Structure constants come from submodule censuses of canonical
representatives: with F^S_{M,N} = #{X <= S : X iso N, S/X iso M},

    [M] * [N] = nu^<dim M, dim N> * sum_S F^S_{M,N} [S]
    Delta([R]) = sum nu^<dim U, dim V> * (F^R_{U,V} a_U a_V / a_R) [U] (x) [V]
    ([M], [N]) = delta_{M,N} / a_M                  (Green pairing)

and the pairing is a Hopf pairing: (fg, h) = (f (x) g, Delta h).  The
tensor square multiplies with the usual twist
(x (x) y)(z (x) w) = nu^{(dim y, dim z)} xz (x) yw.

Each structure constant is computed once per `HallAlgebra`.  The first
product into a grade reads that grade's censuses into a table
{(M, N): {S: nu^<M,N> F^S_{M,N}}}; the first coproduct of a class R
reads its census into a row {(Q, S): nu^<Q,S> F^R_{Q,S} a_Q a_S / a_R}.
`multiply` and `comultiply` then only scale and add table entries.  A
product's terms come grade by grade in first-seen order, classes in
registry order within a grade; a coproduct's in census order.  The Hopf
pairing check reads the same tables: each side of (fg, h) = (f (x) g,
Delta h) is a sum over the table entries that pair a term of f (x) g with
a term of h, so neither fg nor Delta h is built.

HallElement and TensorElement are one sparse vector (`_SparseElement`,
with `_add_into` as its only accumulate-and-drop-zero step); exact solves
over Q(sqrt(q)) use the shared eliminator in `exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .errors import CertificateError, SizeMismatch
# bound here too: bench/tracing.py wraps the eliminator by its hallforge.hall path
from .exact import kernel_basis_exact, matrix_rank, row_reduce  # noqa: F401
from .gf import Mat
from .quiver import euler_form, symmetrized_form
from .registry import ClassKey, IsoRegistry
from .reps import dualize_rep, hom_combinations, hom_space

# ---------------------------------------------------------------------------
# scalars: a + b sqrt(m), m squarefree

_ZERO = Fraction(0)


class QNum:
    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m: int = 1):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if m == 1 and b:
            a, b = a + b, _ZERO
        self.a, self.b, self.m = a, b, m

    # -- ring structure

    def _common(self, other):
        """(self, other) over one field: a rational operand adopts the m of
        the other; two irrational operands must share m."""
        if not isinstance(other, QNum):
            return self, QNum(other, 0, self.m)
        if other.m == self.m:
            return self, other
        if not other.b:
            return self, QNum(other.a, 0, self.m)
        if not self.b:
            return QNum(self.a, 0, other.m), other
        raise SizeMismatch("mixing incompatible quadratic fields")

    def __add__(self, other):
        x, y = self._common(other)
        return QNum(x.a + y.a, x.b + y.b, x.m)

    __radd__ = __add__

    def __neg__(self):
        return QNum(-self.a, -self.b, self.m)

    def __sub__(self, other):
        x, y = self._common(other)
        return QNum(x.a - y.a, x.b - y.b, x.m)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, QNum):
            r = other if isinstance(other, (int, Fraction)) else Fraction(other)
            return QNum(self.a * r, self.b * r if self.b else _ZERO, self.m)
        if not other.b:
            return QNum(self.a * other.a, self.b * other.a if self.b else _ZERO, self.m)
        if not self.b:
            return QNum(other.a * self.a, other.b * self.a, other.m)
        x, y = self._common(other)
        return QNum(x.a * y.a + x.b * y.b * x.m, x.a * y.b + x.b * y.a, x.m)

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        denom = self.a * self.a - self.b * self.b * self.m
        if denom == 0:
            raise ZeroDivisionError("inverting zero")
        return QNum(self.a / denom, -self.b / denom, self.m)

    def __truediv__(self, other):
        x, y = self._common(other)
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = other if isinstance(other, QNum) else QNum(other)
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.m == o.m)

    def __bool__(self):
        return bool(self.a or self.b)

    def __hash__(self):
        return hash((self.a, self.b, self.m if self.b else 1))

    def __repr__(self):
        if not self.b:
            return str(self.a)
        return f"({self.a} + {self.b}*sqrt({self.m}))"

    def as_fraction(self) -> Fraction:
        if self.b:
            raise CertificateError("rational value", None, "no sqrt part", self)
        return self.a


# ---------------------------------------------------------------------------
# elements


def _add_into(terms: dict, key, val) -> None:
    """terms[key] += val, dropping the key when the sum is zero."""
    tot = terms[key] + val if key in terms else val
    if tot:
        terms[key] = tot
    else:
        terms.pop(key, None)


@dataclass
class _SparseElement:
    """A finite sum of basis keys; `terms` never stores a zero coefficient."""
    terms: Dict[tuple, QNum]

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> QNum:
        return self.terms.get(key, QNum(0))

    def scaled(self, c):
        return type(self)({k: w for k, v in self.terms.items() if (w := v * c)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_into(out, k, v)
        return type(self)(out)

    def __sub__(self, other):
        return self + other.scaled(-1)


class HallElement(_SparseElement):
    """An element of the Hall algebra: class key -> coefficient."""

    def grade(self) -> Optional[tuple]:
        grades = {k[0] for k in self.terms}
        if len(grades) > 1:
            raise SizeMismatch("element is not homogeneous")
        return grades.pop() if grades else None

    def to_json(self) -> str:
        """{"grade": [...], "terms": [{"class_id", "a", "b"}]} with exact
        rationals as strings; the sqrt(q) part is the b component."""
        import json
        return json.dumps({
            "grade": list(self.grade() or ()),
            "terms": [
                {"class_id": k[1], "a": str(v.a), "b": str(v.b)}
                for k, v in sorted(self.terms.items())
            ],
        }, sort_keys=True)


class TensorElement(_SparseElement):
    """An element of the tensor square: (class key, class key) -> coefficient."""


# ---------------------------------------------------------------------------
# the algebra context


class HallAlgebra:
    """Hall algebra operations over a frozen registry."""

    def __init__(self, registry: IsoRegistry):
        self.registry = registry
        self.quiver = registry.quiver
        self.q = registry.ctx.q
        p, k = registry.ctx.p, registry.ctx.k  # q = s^2 * m with m squarefree: m is 1 or p
        self.s, self.m = p ** (k // 2), (p if k % 2 else 1)
        self._products: Dict[tuple, Dict[tuple, dict]] = {}  # grade -> {(M, N): {S: c}}
        self._coproducts: Dict[ClassKey, dict] = {}          # R -> {(Q, S): c}
        self._consts: Dict[tuple, QNum] = {}                 # (e, x) -> nu^e * x

    # -- scalars

    def zero(self) -> QNum:
        return QNum(0, 0, self.m)

    def scalar(self, x) -> QNum:
        return QNum(x, 0, self.m)

    def nu_pow(self, e: int) -> QNum:
        q = Fraction(self.q)
        if e % 2 == 0:
            return QNum(q ** (e // 2), 0, self.m)
        half = q ** ((e - 1) // 2)
        return QNum(0, half * self.s, self.m)

    # -- basic elements

    def unit_key(self) -> ClassKey:
        g = (0,) * self.quiver.n
        return (g, 0)

    def one(self) -> HallElement:
        return HallElement({self.unit_key(): self.scalar(1)})

    def basis(self, key: ClassKey) -> HallElement:
        return HallElement({key: self.scalar(1)})

    def chi(self, grade: Sequence) -> HallElement:
        """Sum of all classes of one grade."""
        grade = self.quiver.check_dim(grade)
        return HallElement({c.key: self.scalar(1) for c in self.registry.classes(grade)})

    def aut(self, key: ClassKey) -> int:
        return self.registry.cls(key).aut_order

    # -- structure constants

    def hall_number(self, s_key: ClassKey, m_key: ClassKey, n_key: ClassKey) -> int:
        """F^S_{M,N}: subrepresentations of S of class N with quotient of class M."""
        if tuple(a + b for a, b in zip(m_key[0], n_key[0])) != s_key[0]:
            return 0
        return self.registry.census(s_key).get((m_key, n_key), 0)

    def _const(self, pair: tuple, x) -> QNum:
        """nu^<M,N> * x for the pair (M, N) and rational x; one object per
        distinct value, shared by every table entry that holds it."""
        e = euler_form(self.quiver, pair[0][0], pair[1][0])
        c = self._consts.get((e, x))
        if c is None:
            c = self._consts[(e, x)] = self.nu_pow(e) * x
        return c

    def _product_table(self, grade: tuple) -> Dict[tuple, dict]:
        """{(M, N): {S: nu^<M,N> F^S_{M,N}}} over the classes S of `grade`,
        each entry in registry order; read off the censuses on first use."""
        table = self._products.get(grade)
        if table is None:
            table = {}
            keys = [cls.key for cls in self.registry.classes(grade)]
            for sk, census in self.registry.censuses(keys).items():
                for pair, count in census.items():
                    table.setdefault(pair, {})[sk] = self._const(pair, count)
            self._products[grade] = table
        return table

    def _coproduct_row(self, r_key: ClassKey) -> dict:
        """{(Q, S): nu^<Q,S> F^R_{Q,S} a_Q a_S / a_R} in census order;
        read off the census of R on first use."""
        row = self._coproducts.get(r_key)
        if row is None:
            a_r = self.aut(r_key)
            row = {pair: self._const(pair, Fraction(
                       count * self.aut(pair[0]) * self.aut(pair[1]), a_r))
                   for pair, count in self.registry.census(r_key).items()}
            self._coproducts[r_key] = row
        return row

    def multiply(self, f: HallElement, g: HallElement) -> HallElement:
        out: Dict[ClassKey, QNum] = {}
        by_grade: Dict[tuple, list] = {}
        for (mk, cm) in f.terms.items():
            for (nk, cn) in g.terms.items():
                tgt = tuple(a + b for a, b in zip(mk[0], nk[0]))
                by_grade.setdefault(tgt, []).append(((mk, nk), cm * cn))
        for tgt, pairs in by_grade.items():
            table = self._product_table(tgt)
            acc: Dict[ClassKey, QNum] = {}
            for pair, c in pairs:
                for sk, t in table.get(pair, {}).items():
                    _add_into(acc, sk, c * t)
            out.update(sorted(acc.items()))  # registry order within the grade
        return HallElement(out)

    def multiply_all(self, factors: Sequence[HallElement]) -> HallElement:
        acc = self.one()
        for f in factors:
            acc = self.multiply(acc, f)
        return acc

    def comultiply(self, f: HallElement) -> TensorElement:
        out: Dict[tuple, QNum] = {}
        for rk, cr in f.terms.items():
            for key, c in self._coproduct_row(rk).items():
                _add_into(out, key, cr * c)
        return TensorElement(out)

    def coproduct_defect(self, f: HallElement) -> TensorElement:
        """Delta(f) - f(x)1 - 1(x)f; zero exactly for primitive (cuspidal) f."""
        one = self.one()
        return self.comultiply(f) - self.tensor(f, one) - self.tensor(one, f)

    def is_primitive(self, f: HallElement) -> bool:
        return self.coproduct_defect(f).is_zero()

    # -- pairings

    def green_pairing(self, f: HallElement, g: HallElement) -> QNum:
        acc = self.zero()
        for k, v in f.terms.items():
            w = g.terms.get(k)
            if w:
                acc = acc + v * w * Fraction(1, self.aut(k))
        return acc

    def tensor(self, f: HallElement, g: HallElement) -> TensorElement:
        return TensorElement({
            (k1, k2): v
            for k1, v1 in f.terms.items()
            for k2, v2 in g.terms.items()
            if (v := v1 * v2)
        })

    def tensor_pairing(self, s: TensorElement, t: TensorElement) -> QNum:
        acc = self.zero()
        for k, v in s.terms.items():
            w = t.terms.get(k)
            if w:
                acc = acc + v * w * Fraction(1, self.aut(k[0]) * self.aut(k[1]))
        return acc

    def hopf_pairing_sides(self, f: HallElement, g: HallElement, h: HallElement) -> tuple:
        """((fg, h), (f (x) g, Delta h)), each summed over the table entries
        it pairs:

            lhs = sum f_x g_y t^S_{x,y} h_S / a_S    over S in table[(x, y)]
            rhs = sum h_R f_x g_y row_R[(x, y)] / (a_x a_y)

        with t the product table of grade(x) + grade(y) and row_R the
        coproduct row of R."""
        lhs, rhs = self.zero(), self.zero()
        rows = [(self._coproduct_row(rk), cr) for rk, cr in h.terms.items()]
        for x, fx in f.terms.items():
            for y, gy in g.terms.items():
                grade = tuple(a + b for a, b in zip(x[0], y[0]))
                entry = self._product_table(grade).get((x, y), {})
                for sk, hs in h.terms.items():
                    t = entry.get(sk)
                    if t:
                        lhs = lhs + fx * gy * t * hs * Fraction(1, self.aut(sk))
                for row, cr in rows:
                    c = row.get((x, y))
                    if c:
                        rhs = rhs + cr * fx * gy * c * Fraction(
                            1, self.aut(x) * self.aut(y))
        return lhs, rhs

    def hopf_pairing_check(self, f: HallElement, g: HallElement, h: HallElement) -> bool:
        lhs, rhs = self.hopf_pairing_sides(f, g, h)
        return lhs == rhs

    def tensor_multiply(self, s: TensorElement, t: TensorElement) -> TensorElement:
        """Twisted product on the tensor square."""
        out: Dict[tuple, QNum] = {}
        for (x, y), c1 in s.terms.items():
            fx, fy = self.basis(x), self.basis(y)
            for (z, w), c2 in t.terms.items():
                twist = self.nu_pow(symmetrized_form(self.quiver, y[0], z[0]))
                left = self.multiply(fx, self.basis(z))
                right = self.multiply(fy, self.basis(w))
                c = c1 * c2 * twist
                for lk, lv in left.terms.items():
                    for rk, rv in right.terms.items():
                        _add_into(out, (lk, rk), c * lv * rv)
        return TensorElement(out)

    # -- dualization

    def dual_algebra(self) -> "HallAlgebra":
        from .quiver import dual_quiver
        dual_reg = IsoRegistry(dual_quiver(self.quiver), self.registry.ctx,
                               self.registry.caps, self.registry.nilpotent_only)
        return HallAlgebra(dual_reg)

    def dualize(self, f: HallElement, dual: "HallAlgebra") -> HallElement:
        out = {}
        for k, v in f.terms.items():
            canon = self.registry.cls(k).canon
            dk = dual.registry.identify(dualize_rep(canon))
            out[dk] = v
        return HallElement(out)

    # -- counting identities

    def ext_total_check(self, m_key: ClassKey, n_key: ClassKey) -> bool:
        """sum_R F^{M,N}_R * |Hom(M,N)| = q^{ext^1(M,N)}, each term integral.

        F^{M,N}_R |Hom(M,N)| counts the extension classes with middle term
        R, so the sum exhausts Ext^1(M,N) exactly.
        """
        from .reps import ext1_dim, hom_dim
        reg = self.registry
        cm, cn = reg.cls(m_key).canon, reg.cls(n_key).canon
        hom = self.q ** hom_dim(cm, cn)
        target_grade = tuple(a + b for a, b in zip(m_key[0], n_key[0]))
        total = Fraction(0)
        for cls in reg.classes(target_grade):
            count = reg.census(cls.key).get((m_key, n_key), 0)
            if not count:
                continue
            dressed = Fraction(count * reg.cls(m_key).aut_order * reg.cls(n_key).aut_order,
                               cls.aut_order)
            term = dressed * hom
            if term.denominator != 1:
                return False
            total += term
        return total == self.q ** ext1_dim(cm, cn)

    def exact_sequence_count(self, m_key: ClassKey, n_key: ClassKey, r_key: ClassKey) -> int:
        """Brute count of pairs (injection N -> R, surjection R -> M) that are
        exact, within the registry's end-scan cap."""
        reg = self.registry
        cm = reg.cls(m_key).canon
        cn = reg.cls(n_key).canon
        cr = reg.cls(r_key).canon
        if any(a + b != c for a, b, c in zip(cm.dims, cn.dims, cr.dims)):
            return 0
        da, alphas = hom_space(cn, cr)
        db, betas = hom_space(cr, cm)
        reg.caps.check("end_scan", (self.q ** da) * (self.q ** db))
        zero_a = tuple(Mat.zeros(self.registry.ctx, cr.dims[i], cn.dims[i])
                       for i in range(self.quiver.n))
        zero_b = tuple(Mat.zeros(self.registry.ctx, cm.dims[i], cr.dims[i])
                       for i in range(self.quiver.n))
        count = 0
        for fa in hom_combinations(alphas, self.registry.ctx.q, zero_a):
            if any(fi.rank() < d for fi, d in zip(fa, cn.dims)):
                continue  # not injective
            for fb in hom_combinations(betas, self.registry.ctx.q, zero_b):
                if any(fi.rank() < d for fi, d in zip(fb, cm.dims)):
                    continue  # not surjective
                # with matching dimensions, exactness reduces to beta o alpha = 0
                if all(not (bi @ ai).a.any() for ai, bi in zip(fa, fb)):
                    count += 1
        return count

    def exact_sequence_count_check(self, m_key, n_key, r_key) -> bool:
        """F'^R_{M,N} = a_M a_N F^R_{M,N} against the brute-force pair count."""
        reg = self.registry
        brute = self.exact_sequence_count(m_key, n_key, r_key)
        f = self.hall_number(r_key, m_key, n_key)
        return brute == reg.cls(m_key).aut_order * reg.cls(n_key).aut_order * f
