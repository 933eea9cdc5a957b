"""Command-line interface.

One binary with subcommands; all numeric output is exact (integers,
rationals, or a + b*sqrt(q) pairs), never decimals, and output is
byte-identical across runs for a fixed configuration and seed.

    hallforge enumerate --quiver kronecker --p 2 --grade 1,1
    hallforge verify noyau --quiver kronecker --p 2 --grade 1,1 --grade 2,2
    hallforge kac --quiver kronecker --grade 1,1
    hallforge xi --p 2 1 2 3
    hallforge tubes --quiver kronecker --p 2 --r 2

The --quiver option accepts a JSON file ({"vertices": [...], "arrows":
[[s, t], ...]}) or one of the built-in names: kronecker, jordan,
cyclic<N>, a2-acyclic, d4-star, a4-square.

Exit codes: 0 all checks passed, 1 a check failed, 2 a HallforgeError (bad
input, an exceeded cap, a failed certificate), written as one JSON record
{"error": <class name>, "message": ...} in place of the report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import quiver as qv
from .config import Caps
from .counting import count_absolutely_indecomposable, interpolate_polynomial
from .cuspidal import (TubePermutation, cancellation_check, conjecture1_check,
                       conjecture2_check, cuspidal_space, cyclic_nilpotent_cuspidal,
                       delta_evaluation_identity, isotropic_support_check,
                       one_loop_cuspidal_closed_form, regular_cuspidal_space,
                       subspace_contains, tube_decomposition,
                       verify_kernel_theorem, verify_sigma_hopf, xi_value,
                       CuspidalSpace)
from .errors import HallforgeError
from .exact import matrix_rank
from .gf import GF, monic_irreducibles
from .hall import HallAlgebra
from .registry import IsoRegistry

BUILTIN_QUIVERS = {
    "kronecker": qv.kronecker,
    "jordan": qv.jordan,
    "a2-acyclic": qv.affine_a2_acyclic,
    "d4-star": qv.d4_star_out,
    "a4-square": qv.a4_square,
}


def load_quiver(name: str) -> qv.Quiver:
    if not name:
        raise HallforgeError("this command requires --quiver")
    if name in BUILTIN_QUIVERS:
        return BUILTIN_QUIVERS[name]()
    try:
        if name.startswith("cyclic"):
            return qv.cyclic_quiver(int(name[len("cyclic"):]))
        return qv.Quiver.from_json(Path(name).read_text())
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise HallforgeError(f"cannot load quiver {name!r}: {err}") from err


def parse_ints(text: str) -> tuple:
    """Comma-separated nonnegative integers, e.g. a grade '1,2' or --r '1,2'."""
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        values = None
    if values is None or any(x < 0 for x in values):
        raise HallforgeError(f"expected comma-separated nonnegative integers, got {text!r}")
    return values


def add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiver", default="", help="JSON file or built-in name")
    p.add_argument("--p", type=int, default=2, help="field characteristic")
    p.add_argument("--k", type=int, default=1, help="field extension degree")
    p.add_argument("--grade", action="append", default=[],
                   help="dimension vector a,b,... (repeatable)")
    p.add_argument("--r", default="", help="delta multiples, e.g. 1,2")
    p.add_argument("--cap-tuples", type=int, default=Caps.max_tuple_count)
    p.add_argument("--cap-end-scan", type=int, default=Caps.max_end_scan)
    p.add_argument("--cap-subspaces", type=int, default=Caps.max_subspace_enum)
    p.add_argument("--cap-candidates", type=int, default=Caps.max_candidates)
    p.add_argument("--cap-candidates-total", type=int, default=Caps.max_total_candidates)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="", help="output path (default stdout)")
    p.add_argument("--nilpotent", action="store_true",
                   help="restrict to nilpotent classes (cyclic quivers)")


def add_format(p: argparse.ArgumentParser) -> None:
    """--format, for the commands that write tables (kac, xi, tubes)."""
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_context(args):
    quiver = load_quiver(args.quiver)
    caps = Caps(
        max_tuple_count=args.cap_tuples,
        max_end_scan=args.cap_end_scan,
        max_subspace_enum=args.cap_subspaces,
        max_candidates=args.cap_candidates,
        max_total_candidates=args.cap_candidates_total,
    )
    ctx = field_of(args)
    try:
        registry = IsoRegistry(quiver, ctx, caps, nilpotent_only=args.nilpotent)
    except ValueError as err:  # --nilpotent on a quiver that is not cyclic
        raise HallforgeError(str(err)) from err
    return quiver, HallAlgebra(registry)


def field_of(args) -> GF:
    """GF(p^k) from --p and --k; no such field is a HallforgeError."""
    try:
        return GF.of(args.p, args.k)
    except ValueError as err:
        raise HallforgeError(str(err)) from err


def emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def emit_table(args, rows: list, columns: tuple) -> int:
    """Write `rows` as indented JSON or, with --format csv, as a header of
    `columns` and one line per row of their values, separated by ";" (a
    list value joined by ",")."""
    if args.format == "csv":
        text = ";".join(columns) + "\n" + "\n".join(";".join(
            ",".join(map(str, row[c])) if isinstance(row[c], list) else str(row[c])
            for c in columns) for row in rows) + "\n"
    else:
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    emit(args, text)
    return 0


def affine_delta(hall) -> tuple:
    qtype = hall.registry.qtype
    if qtype is None or qtype.delta is None:
        raise HallforgeError("this command needs a connected affine quiver")
    return qtype.delta


def grades_of(args, quiver, hall) -> list:
    grades = [quiver.check_dim(parse_ints(g)) for g in args.grade]
    if args.r:
        delta = affine_delta(hall)
        for r in parse_ints(args.r):
            grades.append(tuple(r * d for d in delta))
    return grades


def suite_grades(args, quiver, hall) -> list:
    """`grades_of` for a suite that checks nothing without a grade."""
    grades = grades_of(args, quiver, hall)
    if not grades:
        raise HallforgeError(f"verify {args.suite} needs --grade or --r")
    return grades


def r_values(args, hall) -> list:
    delta = affine_delta(hall)
    out = []
    if args.r:
        out = list(parse_ints(args.r))
    for g in args.grade:
        grade = parse_ints(g)
        r = grade[0] // delta[0]
        if grade != tuple(r * d for d in delta):
            raise HallforgeError(f"grade {grade} is not a multiple of delta {delta}")
        out.append(r)
    if 0 in out:
        raise HallforgeError("this command needs positive multiples of delta, got 0")
    return sorted(set(out))


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    quiver, hall = build_context(args)
    grades = grades_of(args, quiver, hall)
    qt = hall.registry.qtype
    if qt is not None and qt.tag == "affine" and quiver.is_acyclic():
        # only grades of defect 0 hold regular indecomposables, and tube ids
        # sort by degree first, so the other grades need no larger tubes
        r = max((max((g[i] + qt.delta[i] - 1) // qt.delta[i] for i in range(quiver.n))
                 for g in grades if any(g) and qv.euler_form(quiver, qt.delta, g) == 0),
                default=0)
        if r:
            tube_decomposition(hall, r)  # fills tube ids on the registry
    emit(args, hall.registry.export_jsonl(grades))
    return 0


def cmd_kac(args) -> int:
    quiver, hall = build_context(args)
    delta = affine_delta(hall)
    rs = r_values(args, hall) or [1]
    rows = []
    for r in rs:
        grade = tuple(r * d for d in delta)
        samples = []
        for q in (2, 3, 4, 5):
            reg = IsoRegistry(quiver, GF.of_q(q), hall.registry.caps,
                              nilpotent_only=args.nilpotent)
            samples.append((q, Fraction(count_absolutely_indecomposable(reg, grade))))
        poly = interpolate_polynomial(samples, 1)
        rows.append({"grade": list(grade), "kac_polynomial": str(poly)})
    return emit_table(args, rows, ("grade", "kac_polynomial"))


def cmd_xi(args) -> int:
    q = field_of(args).q
    if min(args.d) < 0:
        raise HallforgeError(f"xi needs levels >= 0, got {min(args.d)}")
    rows = [{"d": d, "q": q, "xi": str(xi_value(d, q))} for d in args.d]
    return emit_table(args, rows, ("d", "q", "xi"))


def cmd_tubes(args) -> int:
    quiver, hall = build_context(args)
    rs = r_values(args, hall) or [1]
    tubes = tube_decomposition(hall, max(rs))
    rows = [
        {"tube": t.tid, "degree": t.degree, "period": t.period,
         "members": {",".join(map(str, g)): len(ks) for g, ks in sorted(t.members.items())}}
        for t in tubes
    ]
    return emit_table(args, rows, ("tube", "degree", "period"))


def _suite_noyau(args, quiver, hall):
    rs = r_values(args, hall) or [1]
    tubes = tube_decomposition(hall, max(rs))
    out = []
    for r in rs:
        rep = verify_kernel_theorem(hall, tubes, r)
        rep["checks"]["delta_evaluation"] = delta_evaluation_identity(hall, tubes, r)
        if not rep["checks"]["delta_evaluation"]:
            rep["status"] = "fail"
        rep.update({"check": "noyau"})
        out.append(rep)
    return out


def _suite_conj1(args, quiver, hall):
    rs = r_values(args, hall) or [1]
    tubes = tube_decomposition(hall, max(rs))
    out = []
    degrees = sorted({t.degree for t in tubes if t.homogeneous})
    for d in degrees:
        for s in range(1, max(rs) // d + 1):
            ok = conjecture1_check(hall, tubes, d, s)
            out.append({"check": "conj1", "degree": d, "level": s,
                        "status": "pass" if ok else "fail"})
    return out


def _suite_conj2(args, quiver, hall):
    rs = r_values(args, hall) or [1]
    tubes = tube_decomposition(hall, max(rs))
    lams = [lam for lam in [(1,), (2,), (1, 1)] if sum(lam) <= max(rs)]
    out = []
    for lam in lams:
        ok = conjecture2_check(hall, tubes, lam)
        out.append({"check": "conj2", "partition": list(lam),
                    "status": "pass" if ok else "fail"})
    return out


def _suite_sigma(args, quiver, hall):
    rs = r_values(args, hall) or [1]
    # products of two sampled elements can land in grade 2*max(rs)*delta,
    # so the tube labelling must extend at least that far
    tubes = tube_decomposition(hall, 2 * max(rs))
    delta = affine_delta(hall)
    grades = [tuple(r * d for d in delta) for r in rs]
    rng = random.Random(args.seed)
    keys = [c.key for g in grades for c in hall.registry.classes(g)]
    pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(10)] if keys else []
    out = []
    by_degree = {}
    for t in tubes:
        if t.homogeneous:
            by_degree.setdefault(t.degree, []).append(t.tid)
    for deg, tids in sorted(by_degree.items()):
        for i in range(len(tids) - 1):
            sigma = TubePermutation(hall, tubes, {tids[i]: tids[i + 1], tids[i + 1]: tids[i]})
            rep = verify_sigma_hopf(hall, tubes, sigma, grades, pairs)
            rep.update({"check": "sigma", "swap": [tids[i], tids[i + 1]], "degree": deg})
            out.append(rep)
    return out


def _suite_cancellation(args, quiver, hall):
    rs = r_values(args, hall) or [1]
    tubes = tube_decomposition(hall, max(rs))
    delta = affine_delta(hall)
    out = []
    for r in rs:
        _, normalized = regular_cuspidal_space(hall, tubes, r, delta)
        for n in normalized:
            ok = cancellation_check(hall, n.element)
            out.append({"check": "cancellation", "tube": n.tube_id, "level": n.level,
                        "status": "pass" if ok else "fail"})
    return out


def _suite_isotropic(args, quiver, hall):
    out = []
    for g in suite_grades(args, quiver, hall):
        rep = isotropic_support_check(hall, g)
        rep["check"] = "isotropic"
        out.append(rep)
    return out


def _suite_hopf(args, quiver, hall):
    grades = suite_grades(args, quiver, hall)
    rng = random.Random(args.seed)
    reg = hall.registry
    keys = [c.key for g in grades for c in reg.classes(g)]
    # (f, g, h) pairs trivially unless grade(h) = grade(f) + grade(g)
    pairs = [(a, b) for a in keys for b in keys
             if tuple(x + y for x, y in zip(a[0], b[0])) in grades]
    if not pairs:
        raise HallforgeError("verify hopf needs two of its grades to sum to a third")
    ok = True
    for _ in range(20):
        a, b = rng.choice(pairs)
        c = rng.choice(reg.classes(tuple(x + y for x, y in zip(a[0], b[0])))).key
        if not hall.hopf_pairing_check(hall.basis(a), hall.basis(b), hall.basis(c)):
            ok = False
    return [{"check": "hopf", "status": "pass" if ok else "fail",
             "grades": [list(g) for g in grades]}]


def _suite_pbw(args, quiver, hall):
    out = []
    for grade in suite_grades(args, quiver, hall):
        rank, dim = pbw_rank(hall, grade)
        out.append({"check": "pbw", "grade": list(grade), "rank": rank, "dim": dim,
                    "status": "pass" if rank == dim else "fail"})
    return out


def _suite_cusp_cyclic(args, quiver, hall):
    out = []
    for d in (r_values(args, hall) or [1]):
        f = cyclic_nilpotent_cuspidal(hall, d)
        ok = hall.is_primitive(f)
        out.append({"check": "cuspCycl", "level": d, "status": "pass" if ok else "fail"})
    return out


def _suite_jordan_closed_form(args, quiver, hall):
    out = []
    rs = r_values(args, hall) or [1]
    for r in rs:
        space = cuspidal_space(hall, (r,))
        coords = [c.key for c in hall.registry.classes((r,))]
        irr = monic_irreducibles(hall.registry.ctx, r)
        forms = [one_loop_cuspidal_closed_form(hall, r // d, pt)
                 for d in range(1, r + 1) if r % d == 0 for pt in irr[d]]
        ok = (subspace_contains(space.coefficient_rows(coords),
                                CuspidalSpace((r,), coords, forms).coefficient_rows(coords))
              and all(hall.is_primitive(f) for f in forms))
        out.append({"check": "jordanClosedForm", "level": r, "dim": space.dim,
                    "status": "pass" if ok else "fail"})
    return out


def pbw_rank(hall, grade):
    """Rank of ordered monomials in indecomposables against the graded dimension."""
    reg = hall.registry
    indecs = sorted(
        c.key
        for g in reg.grades_below(grade) if any(g)
        for c in reg.classes(g) if c.indec
    )
    seqs = []

    def rec(i, remaining, acc):
        if not any(remaining):
            seqs.append(list(acc))
            return
        for j in range(i, len(indecs)):
            g = indecs[j][0]
            if all(a >= b for a, b in zip(remaining, g)):
                acc.append(indecs[j])
                rec(j, tuple(a - b for a, b in zip(remaining, g)), acc)
                acc.pop()

    rec(0, grade, [])
    coords = [c.key for c in reg.classes(grade)]
    pos = {k: i for i, k in enumerate(coords)}
    rows = []
    for seq in seqs:
        terms = hall.multiply_all([hall.basis(k) for k in seq]).terms
        # a product is nu^e times a rational row, e fixed by the factors'
        # grades: dividing by one coefficient leaves the rank, over Q
        lead = next(iter(terms.values()))
        row = [Fraction(0)] * len(coords)
        for k, v in terms.items():
            row[pos[k]] = (v / lead).as_fraction()
        rows.append(row)
    return matrix_rank(rows), len(coords)


SUITES = {
    "noyau": _suite_noyau,
    "conj1": _suite_conj1,
    "conj2": _suite_conj2,
    "sigma": _suite_sigma,
    "cancellation": _suite_cancellation,
    "isotropic": _suite_isotropic,
    "hopf": _suite_hopf,
    "pbw": _suite_pbw,
    "cuspCycl": _suite_cusp_cyclic,
    "jordanClosedForm": _suite_jordan_closed_form,
}


def cmd_verify(args) -> int:
    quiver, hall = build_context(args)
    reports = SUITES[args.suite](args, quiver, hall)
    for rep in reports:
        rep.setdefault("quiver", args.quiver)
        rep.setdefault("q", hall.q)
    emit(args, json.dumps(reports, sort_keys=True, indent=2, default=str) + "\n")
    return 0 if all(r.get("status") == "pass" for r in reports) else 1


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="hallforge", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="write iso-class registries as JSON lines")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    add_common(p)
    p.set_defaults(func=cmd_verify)

    about = ("interpolated absolutely-indecomposable polynomials, sampled at "
             "q = 2, 3, 4, 5 (--p/--k only validate the field)")
    p = sub.add_parser("kac", help=about, description=about)
    add_common(p)
    add_format(p)
    p.set_defaults(func=cmd_kac)

    p = sub.add_parser("xi", help="exact values of the tube linear form")
    p.add_argument("d", type=int, nargs="+", help="levels to evaluate")
    add_common(p)
    add_format(p)
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("tubes", help="tube census of an affine acyclic quiver")
    add_common(p)
    add_format(p)
    p.set_defaults(func=cmd_tubes)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except HallforgeError as err:
        record = {"error": type(err).__name__, "message": str(err)}
        emit(args, json.dumps(record, sort_keys=True, indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
