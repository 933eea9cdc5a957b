"""Per-layer spans and counts, installed from outside the program.

`Tracer.install` replaces the public functions of each hallforge layer with
timing wrappers, wherever a module bound them: a function imported by name
into several modules is wrapped in each of them, and methods are wrapped on
their class.  Nothing under src/ changes.

Spans nest on one stack.  A span's self time is its duration less the time
covered by the spans opened inside it.  A call made directly inside a span
of the same name (recursion, or `classes` calling `slice`) belongs to the
outer span and opens no span of its own.  Counts are taken at the same
wrappers.  Everything stays in memory until `metrics` is read at the end.
"""

import functools
import importlib
import sys
import time


class _Span:
    __slots__ = ("calls", "self_s", "depth")

    def __init__(self):
        self.calls, self.self_s, self.depth = 0, 0.0, 0


# (span name, module, attribute); a dotted attribute is a method on a class
LAYERS = [
    ("gf.matmul", "hallforge.gf", "Mat.__matmul__"),
    ("gf.rref", "hallforge.gf", "Mat.rref"),
    ("reps.krull_schmidt", "hallforge.reps", "krull_schmidt"),
    ("reps.hom_space", "hallforge.reps", "hom_space"),
    ("reps.hom_space", "hallforge.reps", "hom_dim"),
    ("reps.sub_quotient", "hallforge.reps", "sub_quotient"),
    ("registry.lookup", "hallforge.registry", "IsoRegistry.classes"),
    ("registry.lookup", "hallforge.registry", "IsoRegistry.cls"),
    ("registry.identify", "hallforge.registry", "IsoRegistry.identify"),
    ("registry.census", "hallforge.registry", "IsoRegistry.census"),
    ("hall.multiply", "hallforge.hall", "HallAlgebra.multiply"),
    ("hall.comultiply", "hallforge.hall", "HallAlgebra.comultiply"),
    ("hall.pairing", "hallforge.hall", "HallAlgebra.green_pairing"),
    ("hall.pairing", "hallforge.hall", "HallAlgebra.tensor_pairing"),
    ("cuspidal.eliminate", "hallforge.hall", "row_reduce"),
    ("cuspidal.eliminate", "hallforge.hall", "kernel_basis_exact"),
    ("cuspidal.eliminate", "hallforge.hall", "matrix_rank"),
    ("cuspidal.primitive_space", "hallforge.cuspidal", "primitive_space"),
    ("cuspidal.tubes", "hallforge.cuspidal", "tube_decomposition"),
    ("cli.verify", "hallforge.cli", "main"),
]


class Tracer:
    def __init__(self):
        self.spans = {}
        self._stack = [[None, 0.0]]  # [span, time covered by its child spans]
        self._builds = []            # open builds: [nested build seconds, KS calls]
        self.counts = {"identify_ks": 0, "census_hits": 0, "classes_built": 0,
                       "constructive_ks": 0, "constructive_classes": 0}
        self.build_s = {"orbit": 0.0, "constructive": 0.0, "one_loop": 0.0, "zero": 0.0}

    def _span(self, name):
        return self.spans.setdefault(name, _Span())

    def wrap(self, name, fn, on_enter=None):
        """`fn` timed as span `name`; `on_enter(*args)` runs when a span opens."""
        span = self._span(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack[-1][0] is span:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(*args)
            frame = [span, 0.0]
            stack.append(frame)
            span.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += dt - frame[1]
                stack[-1][1] += dt
        return traced

    def _wrap_slice(self, fn):
        """`IsoRegistry.slice`: a lookup on a built grade, else a build.

        A build's time excludes the lower-grade builds it triggers; it is
        filed under the built slice's mode, with constructive slices of the
        one-loop quiver filed as one_loop.
        """
        lookup = self.wrap("registry.lookup", fn)
        build = self.wrap("registry.build", fn)
        builds, counts, build_s = self._builds, self.counts, self.build_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(reg, grade, *args, **kwargs):
            if tuple(grade) in reg.slices:
                return lookup(reg, grade, *args, **kwargs)
            frame = [0.0, 0]
            builds.append(frame)
            t0 = clock()
            try:
                sl = build(reg, grade, *args, **kwargs)
            finally:
                dt = clock() - t0
                builds.pop()
                if builds:
                    builds[-1][0] += dt
            mode = sl.mode
            if mode == "constructive" and reg.quiver.arrows == ((0, 0),):
                mode = "one_loop"
            build_s[mode] += dt - frame[0]
            counts["classes_built"] += len(sl.classes)
            if mode == "constructive":
                counts["constructive_ks"] += frame[1]
                counts["constructive_classes"] += len(sl.classes)
            return sl
        return traced

    def _on_ks(self, *args):
        if self._builds:
            self._builds[-1][1] += 1
        if self.spans["registry.identify"].depth:
            self.counts["identify_ks"] += 1

    def _on_census(self, reg, key, *args):
        sl = reg.slices.get(tuple(key[0]))
        if sl is not None and key[1] in sl.census_cache:
            self.counts["census_hits"] += 1

    def install(self):
        """Wrap every layer function in every loaded hallforge module."""
        hooks = {"reps.krull_schmidt": self._on_ks, "registry.census": self._on_census}
        self._span("registry.identify")
        targets = LAYERS + [(None, "hallforge.registry", "IsoRegistry.slice")]
        for _, mod, _ in targets:
            importlib.import_module(mod)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hallforge" or n.startswith("hallforge.")]
        for name, mod, attr in targets:
            owner = sys.modules[mod]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = (self._wrap_slice(original) if name is None
                       else self.wrap(name, original, hooks.get(name)))
            for place in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(place).items()):
                    if value is original:
                        setattr(place, key, wrapped)

    def snapshot(self):
        """Raw spans and counts, as plain data."""
        return {"spans": {n: [s.calls, s.self_s] for n, s in self.spans.items()},
                "counts": dict(self.counts), "build_s": dict(self.build_s)}


def layer_metrics(snapshot, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced run; `_s` is self time except for builds."""
    sp = snapshot["spans"]
    c = snapshot["counts"]
    build_s = snapshot["build_s"]

    def calls(name):
        return sp.get(name, (0, 0.0))[0]

    def secs(name):
        return sp.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    covered = sum(s for _, s in sp.values())
    out = {}
    for layer in ("gf.matmul", "gf.rref", "reps.krull_schmidt", "reps.hom_space",
                  "reps.sub_quotient", "registry.lookup", "registry.identify",
                  "registry.census", "hall.multiply", "hall.comultiply",
                  "cuspidal.eliminate"):
        out[layer + "_calls"] = (calls(layer), "count")
        out[layer + "_s"] = (secs(layer), "s")
    out.update({
        "registry.build_orbit_s": (build_s["orbit"], "s"),
        "registry.build_constructive_s": (build_s["constructive"], "s"),
        "registry.build_one_loop_s": (build_s["one_loop"], "s"),
        "registry.classes_built": (c["classes_built"], "count"),
        "registry.build_ks_calls": (c["constructive_ks"], "count"),
        "registry.build_class_yield": (
            ratio(c["constructive_classes"], c["constructive_ks"]), "ratio"),
        "registry.identify_ks_ratio": (
            ratio(c["identify_ks"], calls("registry.identify")), "ratio"),
        "registry.census_cache_hit_ratio": (
            ratio(c["census_hits"], calls("registry.census")), "ratio"),
        "hall.pairing_s": (secs("hall.pairing"), "s"),
        "cuspidal.primitive_space_s": (secs("cuspidal.primitive_space"), "s"),
        "cuspidal.tubes_s": (secs("cuspidal.tubes"), "s"),
        "cli.verify_s": (secs("cli.verify"), "s"),
        "trace.overhead_ratio": (ratio(traced_wall_s, untraced_wall_s), "ratio"),
        "trace.coverage": (ratio(covered, traced_wall_s), "ratio"),
        "trace.remainder_s": (traced_wall_s - covered, "s"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
