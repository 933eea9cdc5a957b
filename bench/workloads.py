"""The benchmark's workloads, each a fixed piece of exact work with exact checks.

A workload has a set-up step (import hallforge, construct the fields) and a
run step that starts at the first registry call and ends at the last
verified result.  Every check a run makes is declared up front, so a run
that raises still reports how many checks it attempted and failed.

Workloads, and why each is here:

* delta-q3: Kronecker quiver over GF(3), cuspidal_space at delta, 2delta and
  3delta on a fresh registry.  It touches every heavy layer on prime-field
  arithmetic: the constructive (3,3) build, orbit builds below it, the
  submodule census and the Fraction elimination.
* ext-q4: Kronecker quiver over GF(4).  It is the only workload on the
  table-lookup arithmetic of GF(p^k) with k > 1, so a field-kernel change
  that helps one field type and hurts the other shows up.
* algebra: Hall products, coproducts and pairings on orbit-mode registries
  plus the in-process CLI suites.  There is no extension-chain build, so
  registry-build and census optimisations should predict no change here.

The smoke size keeps grades at (1,1) and below, except that the basis
triples of `algebra` need a total grade of (2,1) or (1,2), and runs the CLI
suites at their smallest arguments.  It takes seconds and makes the same
checks.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


class Checks:
    """Exact checks of one run against a list declared before it starts."""

    def __init__(self, names):
        self.declared = list(names)
        self.results = {}

    def expect(self, name, got, want):
        if name not in self.declared or name in self.results:
            raise KeyError(f"check {name!r} is not declared or ran twice")
        self.results[name] = (got == want, got, want)

    @property
    def attempted(self):
        return len(self.declared)

    @property
    def failed(self):
        """Failed checks; a declared check that never ran counts as failed."""
        return sum(1 for n in self.declared if not self.results.get(n, (False,))[0])

    def failures(self):
        return {n: (self.results[n][1:] if n in self.results else "not run")
                for n in self.declared if not self.results.get(n, (False,))[0]}


def _digest(registry):
    text = registry.export_jsonl(sorted(registry.slices))
    return hashlib.sha256(text.encode()).hexdigest()


def _add(*grades):
    return tuple(map(sum, zip(*grades)))


def _within(grade, top):
    return all(x <= y for x, y in zip(grade, top))


# ---------------------------------------------------------------------------
# delta-q3 and ext-q4: one registry, builds, censuses and cuspidal solves


class KroneckerWorkload:
    """Builds on one Kronecker registry, then cuspidal_space at given grades."""

    seed_use = "ignored: the workload has no random input"

    def __init__(self, name, p, k, builds, census_grades, cusp_grades, counts,
                 off_ray=None):
        self.name, self.p, self.k = name, p, k
        self.builds = builds                # grades built explicitly, in order
        self.census_grades = census_grades  # grades whose every class gets a census
        self.cusp_grades = cusp_grades    # grades passed to cuspidal_space
        self.counts = counts              # {grade: expected number of classes}
        self.off_ray = off_ray or {}      # {grade off the delta ray: cuspidal dim}

    def check_names(self):
        return ([f"classes{g}" for g in self.counts]
                + [f"cuspidal_dim{g}" for g in self.cusp_grades]
                + ["digest"])

    def setup(self):
        import hallforge as hf
        return {"hf": hf, "ctx": hf.GF.of(self.p, self.k), "quiver": hf.kronecker()}

    def run(self, state, seed, checks):
        hf = state["hf"]
        reg = hf.IsoRegistry(state["quiver"], state["ctx"])
        hall = hf.HallAlgebra(reg)
        for g in self.builds:
            reg.slice(g)
        for g in self.census_grades:
            for c in reg.classes(g):
                reg.census(c.key)
        q = state["ctx"].q
        for g in self.cusp_grades:
            # on the delta ray (r,r) the cuspidal dimension is the number of
            # closed points of P^1 of degree dividing r, less one
            want = (hf.points_of_degree_dividing(g[0], q) - 1 if g[0] == g[1]
                    else self.off_ray[g])
            checks.expect(f"cuspidal_dim{g}", hf.cuspidal_space(hall, g).dim, want)
        for g, n in self.counts.items():
            checks.expect(f"classes{g}", len(reg.classes(g)), n)
        checks.expect("digest", _digest(reg), GOLDEN.get(self.name))


# ---------------------------------------------------------------------------
# algebra: Hall structure on orbit-mode registries plus the CLI suites


class AlgebraWorkload:
    seed_use = "orders the basis triples and is the CLI --seed (sigma pair draws)"

    def __init__(self, name, tops, suites):
        self.name = name
        self.tops = tops      # {q: highest total grade of the basis triples}
        self.suites = suites  # CLI argument lists, each without --seed

    def check_names(self):
        names = []
        for q in self.tops:
            names += [f"assoc_q{q}", f"hopf_q{q}", f"pbw_q{q}", f"digest_q{q}"]
        return names + [" ".join(argv[:2]) for argv in self.suites]

    def setup(self):
        import hallforge as hf
        import hallforge.cli
        return {"hf": hf, "cli": hallforge.cli, "quiver": hf.kronecker(),
                "ctxs": {q: hf.GF.of_q(q) for q in self.tops}}

    def run(self, state, seed, checks):
        hf, cli = state["hf"], state["cli"]
        rng = random.Random(seed)
        for q, top in self.tops.items():
            reg = hf.IsoRegistry(state["quiver"], state["ctxs"][q])
            hall = hf.HallAlgebra(reg)
            keys = [c.key for g in reg.grades_below(top) if any(g)
                    for c in reg.classes(g)]
            # the seed fixes only the visiting order; every triple is visited
            triples = [t for t in itertools.product(keys, repeat=3)
                       if _within(_add(*(k[0] for k in t)), top)]
            rng.shuffle(triples)
            bad = 0
            for a, b, c in triples:
                fa, fb, fc = hall.basis(a), hall.basis(b), hall.basis(c)
                left = hall.multiply(hall.multiply(fa, fb), fc)
                right = hall.multiply(fa, hall.multiply(fb, fc))
                bad += left.terms != right.terms
            checks.expect(f"assoc_q{q}", (bad, len(triples) > 0), (0, True))
            pairing = [(a, b, c.key) for a, b in itertools.product(keys, repeat=2)
                       if _within(_add(a[0], b[0]), top)
                       for c in reg.classes(_add(a[0], b[0]))]
            rng.shuffle(pairing)
            bad = sum(not hall.hopf_pairing_check(hall.basis(a), hall.basis(b),
                                                  hall.basis(c))
                      for a, b, c in pairing)
            checks.expect(f"hopf_q{q}", (bad, len(pairing) > 0), (0, True))
            ranks = [cli.pbw_rank(hall, g) for g in reg.grades_below(top) if any(g)]
            checks.expect(f"pbw_q{q}", [r == d for r, d in ranks], [True] * len(ranks))
            checks.expect(f"digest_q{q}", _digest(reg), GOLDEN.get(f"{self.name}/q{q}"))
        for argv in self.suites:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--seed", str(seed)])
            statuses = {r.get("status") for r in json.loads(out.getvalue())}
            checks.expect(" ".join(argv[:2]), (code, statuses), (0, {"pass"}))


def _suite(name, quiver, p, r, *extra):
    return ["verify", name, "--quiver", quiver, "--p", str(p), "--r", r, *extra]


FULL = {
    "delta-q3": KroneckerWorkload(
        "delta-q3", 3, 1, builds=[], census_grades=[],
        cusp_grades=[(1, 1), (2, 2), (3, 3)], counts={(3, 3): 95}),
    "ext-q4": KroneckerWorkload(
        "ext-q4", 2, 2, builds=[(3, 1), (1, 3), (2, 3)], census_grades=[(2, 3)],
        cusp_grades=[(1, 1), (2, 2), (2, 3)], counts={(2, 3): 40},
        off_ray={(2, 3): 0}),
    "algebra": AlgebraWorkload(
        "algebra", tops={2: (3, 2), 3: (2, 2)},
        suites=[_suite(s, "kronecker", 3, "1,2")
                for s in ("noyau", "conj1", "conj2", "cancellation")]
        + [_suite("sigma", "kronecker", 3, "1"),
           _suite("jordanClosedForm", "jordan", 3, "1,2,3,4"),
           _suite("cuspCycl", "cyclic3", 3, "1,2", "--nilpotent")]),
}

SMOKE = {
    "delta-q3": KroneckerWorkload(
        "delta-q3/smoke", 3, 1, builds=[], census_grades=[],
        cusp_grades=[(1, 1)], counts={(1, 1): 5}),
    "ext-q4": KroneckerWorkload(
        "ext-q4/smoke", 2, 2, builds=[(1, 0), (0, 1)], census_grades=[(1, 1)],
        cusp_grades=[(1, 1), (1, 0)], counts={(1, 1): 6}, off_ray={(1, 0): 1}),
    "algebra": AlgebraWorkload(
        "algebra/smoke", tops={2: (2, 1), 3: (1, 2)},
        suites=[_suite(s, "kronecker", 2, "1")
                for s in ("noyau", "conj1", "conj2", "cancellation", "sigma")]
        + [_suite("jordanClosedForm", "jordan", 2, "1"),
           _suite("cuspCycl", "cyclic3", 2, "1", "--nilpotent")]),
}

WORKLOADS = {"full": FULL, "smoke": SMOKE}
