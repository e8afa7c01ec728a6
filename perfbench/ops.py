"""Executing one op and checking its answer.

`Runner.execute(op)` runs the timed part of an op and returns its raw
result; `Runner.check(op, result)` decides, outside the timed part, whether
the answer is right.  Each check rests on a truth the program did not
produce: the exit code and `ok` flag of a golden check, the parameters the
recipe predicts, the Singleton and Griesmer bounds, a witness weight counted
here, how a unit or non-unit was built, or the brute-force oracle.

CLI ops go through `skewcyclic.cli.main` in process, so every op parses its
inputs and builds its ring afresh, as a command-line user does.  API ops
(unit decisions, oracle cross-checks) reuse the rings and automorphisms built once in set-up,
as a library user does.  Library functions are looked up on their modules at
call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json

from contexts import CONTEXTS


def singleton(n, k, delta):
    """Generalized Singleton bound (n - k)(floor(delta / k) + 1) + delta + 1."""
    return (n - k) * (delta // k + 1) + delta + 1


def literal_weight(text):
    """Hamming weight of a polynomial literal printed as a sum of monomials."""
    if text.strip() == "0":
        return 0
    return len(text.split("+"))


def build_code(sc, sigma, desc):
    """The code a descriptor's recipe describes, through the public API."""
    ctx = sigma.context
    recipe = desc["recipe"]
    codes = []
    for comp in recipe.get("components", [recipe]):
        scalars = tuple(sc.literals.parse_ring_element(ctx, s) for s in comp["scalars"])
        codes.append(sc.build_minimal_code(sc.MinimalCodeRecipe(sigma, comp["l"], comp["d"], scalars)))
    return codes[0] if len(codes) == 1 else sc.orthogonal_sum(codes)


class Runner:
    """Holds the set-up state of one run: rings, automorphisms, literals."""

    def __init__(self, ops):
        import skewcyclic
        import skewcyclic.cli
        import skewcyclic.literals

        self.sc = skewcyclic
        self.sigmas = {}
        self.texts = {}
        self.descriptors = {}
        for op in ops:
            if "literals" in op and op["literals"] not in self.texts:
                with open(op["literals"], encoding="utf-8") as fh:
                    self.texts[op["literals"]] = json.load(fh)
            if "descriptor" in op and op["descriptor"] not in self.descriptors:
                with open(op["descriptor"], encoding="utf-8") as fh:
                    self.descriptors[op["descriptor"]] = json.load(fh)

    def sigma(self, field_text, n, sigma_text):
        """Ring and automorphism for an API op, built once per run."""
        key = (field_text, n, sigma_text)
        if key not in self.sigmas:
            lit = self.sc.literals
            ctx = self.sc.RingContext(lit.parse_field(field_text), n)
            self.sigmas[key] = lit.parse_sigma(ctx, sigma_text)
        return self.sigmas[key]

    def prepare(self, ops):
        """Build every ring an API op needs, before anything is timed."""
        for op in ops:
            if op["kind"] in ("is_unit", "inverse"):
                lit = self.texts[op["literals"]][op["literal"]]
                spec = CONTEXTS[lit["context"]]
                self.sigma(spec["field"], spec["n"], lit["sigma"])
            elif op["kind"] == "crosscheck":
                d = self.descriptors[op["descriptor"]]
                self.sigma(d["field"], d["n"], d["sigma"])

    # -- timed part ------------------------------------------------------------

    def execute(self, op):
        kind = op["kind"]
        if kind in ("paper", "build", "equivalence"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.sc.cli.main(op["argv"])
            return rc, out.getvalue()
        if kind in ("is_unit", "inverse"):
            lit = self.texts[op["literals"]][op["literal"]]
            spec = CONTEXTS[lit["context"]]
            sigma = self.sigma(spec["field"], spec["n"], lit["sigma"])
            f = self.sc.literals.parse_skew(sigma, lit["skew"])
            if kind == "is_unit":
                return f, f.is_unit()
            try:
                return f, f.unit_inverse()
            except self.sc.errors.NotAUnit:
                return f, None
        if kind == "crosscheck":
            desc = self.descriptors[op["descriptor"]]
            sigma = self.sigma(desc["field"], desc["n"], desc["sigma"])
            code = build_code(self.sc, sigma, desc)
            G = code.generator
            report = self.sc.distance.free_distance(G)
            oracle = self.sc.distance.free_distance_bruteforce(G, code.delta + code.n, cap=2 ** 80)
            return code, report.distance, oracle
        raise ValueError(f"unknown op kind {kind}")

    # -- checks ----------------------------------------------------------------

    def check(self, op, result):
        """None when the answer is right, else a one-line reason."""
        kind = op["kind"]
        if kind == "paper":
            rc, out = result
            if rc != 0:
                return f"exit code {rc}"
            rows = json.loads(out)
            if len(rows) != 1 or rows[0]["name"] != op["check"] or rows[0]["ok"] is not True:
                return f"check {op['check']} not passed: {rows}"
            return None
        if kind == "build":
            return self._check_build(op, result)
        if kind == "equivalence":
            rc, out = result
            if rc != 0:
                return f"exit code {rc}"
            if json.loads(out).get("equivalent") is not True:
                return "a rescaled column permutation was not found equivalent"
            return None
        if kind == "is_unit":
            _, got = result
            return None if got is op["unit"] else f"is_unit {got}, built as unit={op['unit']}"
        if kind == "inverse":
            f, v = result
            if not op["unit"]:
                return None if v is None else "inverse returned for a non-unit"
            if v is None:
                return "NotAUnit raised for a unit"
            one = self.sc.SkewPoly.one(f.sigma)
            if f * v != one or v * f != one:
                return "u*v or v*u is not 1"
            return None
        if kind == "crosscheck":
            code, graph, oracle = result
            exp = op["expect"]
            if (code.k, code.delta) != (exp["k"], exp["delta"]):
                return f"params ({code.k},{code.delta}) != ({exp['k']},{exp['delta']})"
            if graph != oracle:
                return f"state graph {graph} != oracle {oracle}"
            return None
        raise ValueError(f"unknown op kind {kind}")

    def _check_build(self, op, result):
        rc, out = result
        if rc != 0:
            return f"exit code {rc}"
        p = json.loads(out)
        exp = op["expect"]
        n, k, delta = exp["n"], exp["k"], exp["delta"]
        if p["parameters"] != {"n": n, "k": k, "delta": delta}:
            return f"parameters {p['parameters']} != predicted ({n},{k},{delta})"
        if sorted(p["forney"]) != exp["forney"]:
            return f"forney {p['forney']} != predicted {exp['forney']}"
        dist = p["distance"]["distance"]
        if not 0 < dist <= singleton(n, k, delta):
            return f"distance {dist} above the Singleton bound"
        griesmer = self.sc.distance.griesmer_bound(n, k, delta, exp["m"], exp["q"])
        if dist > griesmer:
            return f"distance {dist} above the Griesmer bound {griesmer}"
        witness = p["distance"]["witness"]
        w = sum(literal_weight(t) for t in witness)
        if w == 0 or w != dist:
            return f"witness weight {w} != distance {dist}"
        return None
