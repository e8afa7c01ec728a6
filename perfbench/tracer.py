"""Tracing from outside the program.

`Tracer.install()` wraps public functions and methods of the skewcyclic
modules.  A module-level function is replaced in every loaded module that
holds it (for example `free_distance` in `distance`, `cli`, `verify` and the
package itself); a method is replaced on its class.  `Tracer.remove()` puts
every original back.

Two kinds of wrapper exist.  A span wrapper records (name, start, end,
parent span, op id) in flat arrays; self time is a span's duration minus the
duration of its direct children.  A count wrapper only counts calls; it is
used for the element-level arithmetic that runs millions of times, whose
time stays inside the enclosing span's self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute path, mode): "span" records spans, "count" counts calls.
# Dunder methods are named after the operator: Poly.__mul__ -> Poly.mul.
LAYERS = (
    ("fields", "FieldSpec.__init__", "span"),
    ("fields", "factor_xn_minus_1", "span"),
    ("fields", "Poly.__mul__", "count"),
    ("fields", "Poly.__divmod__", "count"),
    ("ring", "RingContext.__init__", "span"),
    ("ring", "RingElement.__mul__", "count"),
    ("ring", "RingContext.is_unit", "count"),
    ("automorphisms", "enumerate_automorphisms", "span"),
    ("automorphisms", "find_automorphism_for_permutation", "span"),
    ("automorphisms", "Automorphism.apply", "span"),
    ("skew", "SkewPoly.__mul__", "span"),
    ("skew", "SkewPoly.is_unit", "span"),
    ("skew", "SkewPoly.unit_inverse", "span"),
    ("skew", "SkewPoly.module_matrix", "span"),
    ("skew", "unit_product", "span"),
    ("linalg", "poly_det", "span"),
    ("linalg", "solve", "span"),
    ("linalg", "nullspace", "span"),
    ("linalg", "rank", "count"),
    ("convolutional", "generator_matrix", "span"),
    ("convolutional", "PolyMatrix.k_minors", "span"),
    ("convolutional", "PolyMatrix.rank", "span"),
    ("convolutional", "PolyMatrix.right_inverse", "span"),
    ("convolutional", "PolyMatrix.smith_form", "span"),
    ("convolutional", "PolyMatrix.complexity", "span"),
    ("convolutional", "PolyMatrix.is_right_invertible", "span"),
    ("convolutional", "PolyMatrix.is_minimal", "span"),
    ("convolutional", "ConvCode.from_generator", "span"),
    ("convolutional", "strong_equivalence", "span"),
    ("convolutional", "membership", "count"),
    ("builder", "build_minimal_code", "span"),
    ("builder", "orthogonal_sum", "span"),
    ("builder", "direct_complement", "span"),
    ("distance", "free_distance", "span"),
    ("distance", "free_distance_bruteforce", "span"),
    ("distance", "griesmer_bound", "span"),
    ("literals", "parse_field", "span"),
    ("literals", "parse_sigma", "span"),
    ("literals", "parse_skew", "span"),
    ("literals", "matrix_from_dict", "span"),
    ("literals", "matrix_to_dict", "span"),
    ("cli", "main", "span"),
    ("verify", "run_checks", "span"),
)

# the per-layer metrics reported, in BENCHMARK.json order
PER_LAYER = (
    ("fields.FieldSpec.init.self_s", "s"),
    ("fields.factor_xn_minus_1.self_s", "s"),
    ("fields.Poly.mul.calls", "count"),
    ("fields.Poly.divmod.calls", "count"),
    ("ring.RingContext.init.self_s", "s"),
    ("ring.RingElement.mul.calls", "count"),
    ("ring.RingContext.is_unit.calls", "count"),
    ("automorphisms.enumerate_automorphisms.self_s", "s"),
    ("automorphisms.find_automorphism_for_permutation.calls", "count"),
    ("automorphisms.find_automorphism_for_permutation.self_s", "s"),
    ("automorphisms.Automorphism.apply.calls", "count"),
    ("automorphisms.Automorphism.apply.self_s", "s"),
    ("skew.SkewPoly.mul.calls", "count"),
    ("skew.SkewPoly.mul.self_s", "s"),
    ("skew.SkewPoly.is_unit.calls", "count"),
    ("skew.SkewPoly.is_unit.self_s", "s"),
    ("skew.SkewPoly.unit_inverse.calls", "count"),
    ("skew.SkewPoly.unit_inverse.self_s", "s"),
    ("skew.SkewPoly.module_matrix.self_s", "s"),
    ("skew.unit_product.self_s", "s"),
    ("linalg.poly_det.calls", "count"),
    ("linalg.poly_det.self_s", "s"),
    ("linalg.poly_det.distinct_ratio", "ratio"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.solve.useful_ratio", "ratio"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("linalg.rank.calls", "count"),
    ("convolutional.generator_matrix.self_s", "s"),
    ("convolutional.PolyMatrix.k_minors.calls", "count"),
    ("convolutional.PolyMatrix.k_minors.self_s", "s"),
    ("convolutional.PolyMatrix.rank.calls", "count"),
    ("convolutional.PolyMatrix.rank.self_s", "s"),
    ("convolutional.PolyMatrix.right_inverse.calls", "count"),
    ("convolutional.PolyMatrix.right_inverse.self_s", "s"),
    ("convolutional.PolyMatrix.smith_form.calls", "count"),
    ("convolutional.PolyMatrix.smith_form.self_s", "s"),
    ("convolutional.PolyMatrix.complexity.calls", "count"),
    ("convolutional.PolyMatrix.is_right_invertible.calls", "count"),
    ("convolutional.PolyMatrix.is_minimal.calls", "count"),
    ("convolutional.ConvCode.from_generator.total_s", "s"),
    ("convolutional.strong_equivalence.calls", "count"),
    ("convolutional.strong_equivalence.self_s", "s"),
    ("convolutional.membership.calls", "count"),
    ("builder.build_minimal_code.total_s", "s"),
    ("builder.orthogonal_sum.total_s", "s"),
    ("builder.direct_complement.total_s", "s"),
    ("distance.free_distance.calls", "count"),
    ("distance.free_distance.self_s", "s"),
    ("distance.free_distance.total_s", "s"),
    ("distance.free_distance_bruteforce.calls", "count"),
    ("distance.free_distance_bruteforce.self_s", "s"),
    ("distance.griesmer_bound.self_s", "s"),
    ("literals.parse_field.self_s", "s"),
    ("literals.parse_sigma.self_s", "s"),
    ("literals.parse_skew.self_s", "s"),
    ("literals.matrix_from_dict.self_s", "s"),
    ("literals.matrix_to_dict.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("verify.run_checks.self_s", "s"),
)


def metric_name(module: str, path: str) -> str:
    parts = path.split(".")
    parts[-1] = parts[-1].strip("_")
    return ".".join([module] + parts)


class Tracer:
    """Spans and counts for one traced run, kept in memory until written."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.counts = Counter()
        self.op_id = -1
        self.active = True  # False while the benchmark checks an answer
        self._stack = []
        self._patched = []
        self._wrappers = None
        self._det_keys = set()
        self.solve_useful = 0

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, func, hook=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        start, end, name_of, parent, op_of = (
            self.start, self.end, self.name_of, self.parent, self.op_of)
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op_id)
            counts[name] += 1
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _count_wrapper(self, name, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def _det_hook(self, args, result):
        field, rows = args[0], args[1]
        key = (field.q, field.modulus, tuple(tuple(p.codes for p in row) for row in rows))
        self._det_keys.add(key)

    def _solve_hook(self, args, result):
        if result is not None:
            self.solve_useful += 1

    # -- install / remove --------------------------------------------------------

    def _build(self):
        """Make every wrapper once; returns (owner, attribute, wrapper) for
        methods and {id(original): (original, wrapper)} for functions."""
        import skewcyclic  # noqa: F401  (loads every submodule)

        methods, functions = [], {}
        for module, path, mode in LAYERS:
            mod = sys.modules[f"skewcyclic.{module}"]
            name = metric_name(module, path)
            hook = {"linalg.poly_det": self._det_hook, "linalg.solve": self._solve_hook}.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                func = raw.__func__ if is_cm else raw
                wrapped = (self._span_wrapper(name, func, hook) if mode == "span"
                           else self._count_wrapper(name, func))
                methods.append((cls, attr, classmethod(wrapped) if is_cm else wrapped))
            else:
                func = getattr(mod, path)
                functions[id(func)] = (func, self._span_wrapper(name, func, hook)
                                       if mode == "span" else self._count_wrapper(name, func))
        return methods, functions

    def install(self):
        """Patch the wrappers in; they are made on the first call only."""
        if self._wrappers is None:
            self._wrappers = self._build()
        methods, functions = self._wrappers
        for cls, attr, wrapped in methods:
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)
        # every loaded module that imported one of those functions by name
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not space:
                continue
            for attr, value in list(space.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------------

    def aggregate(self, ops_only=False):
        """Per-name calls, self seconds and total seconds (outermost spans).

        With `ops_only`, spans recorded outside an op (set-up) are left out of
        the times; calls always cover the whole traced run.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = Counter()
        total_s = Counter()
        for i in range(n):
            if ops_only and self.op_of[i] < 0:
                continue
            nid = self.name_of[i]
            self_s[nid] += dur[i] - child[i]
            # count a span in total_s only if no ancestor has the same name
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                total_s[nid] += dur[i]
        out = {metric_name(m, path): {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for m, path, _ in LAYERS}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": self.counts[name], "self_s": self_s[nid], "total_s": total_s[nid]}
        for name, calls in self.counts.items():
            out.setdefault(name, {"self_s": 0.0, "total_s": 0.0})["calls"] = calls
        return out

    def metrics(self):
        agg = self.aggregate()
        out = {}
        for metric, unit in PER_LAYER:
            base, stat = metric.rsplit(".", 1)
            if stat == "distinct_ratio":
                calls = agg[base]["calls"]
                value = len(self._det_keys) / calls if calls else 0.0
            elif stat == "useful_ratio":
                calls = agg[base]["calls"]
                value = self.solve_useful / calls if calls else 0.0
            else:
                value = agg[base][stat]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write every span (name, start, end, parent, op) as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": [
                    [self.name_of[i], round(self.start[i], 7), round(self.end[i], 7),
                     self.parent[i], self.op_of[i]]
                    for i in range(len(self.start))
                ],
                "counts": dict(self.counts),
            }, fh, separators=(",", ":"))
