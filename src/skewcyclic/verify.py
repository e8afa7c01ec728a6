"""Golden reproduction suite: every worked example from the source material,
as named pass/fail checks runnable from the CLI or from tests."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .automorphisms import (
    automorphism_count,
    enumerate_automorphisms,
    enumerate_automorphisms_bruteforce,
)
from .builder import MinimalCodeRecipe, build_minimal_code, direct_complement, orthogonal_sum
from .convolutional import ConvCode
from .distance import free_distance, griesmer_bound, singleton_bound
from .errors import ParseError
from .literals import (
    matrix_from_dict,
    parse_field,
    parse_ring_element,
    parse_sigma,
    parse_skew,
)
from .ring import RingContext
from .skew import SkewPoly


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def load_default_fixtures() -> dict:
    text = resources.files("skewcyclic").joinpath("data/golden.json").read_text()
    return json.loads(text)


class _Env:
    """Contexts and automorphisms shared by the checks, built lazily."""

    def __init__(self, fixtures):
        self.fx = fixtures
        self._ctx = {}
        self._sig = {}

    def ctx(self, key) -> RingContext:
        if key not in self._ctx:
            spec = self.fx["contexts"][key]
            field = parse_field(spec["field"])
            self._ctx[key] = RingContext(field, spec["n"])
        return self._ctx[key]

    def sigma(self, key):
        if key not in self._sig:
            spec = self.fx["contexts"][key]
            self._sig[key] = parse_sigma(self.ctx(key), spec["sigma"])
        return self._sig[key]


def _eq(name, got, want, label=""):
    ok = got == want
    detail = "ok" if ok else f"{label or 'value'} mismatch: got {got}, want {want}"
    return CheckResult(name, ok, detail)


def _check_factorization(env, key):
    ctx = env.ctx(key)
    got = [f.to_str("x") for f in ctx.factors]
    want = [
        parse_ring_element(ctx, s).as_poly().to_str("x")
        for s in env.fx["factors"][key]
    ]
    if got != want:
        return CheckResult(f"factor-{key}", False, f"factors {got} != {want}")
    if key in env.fx["idempotents"]:
        for k, s in enumerate(env.fx["idempotents"][key], start=1):
            want_e = parse_ring_element(ctx, s)
            if ctx.idempotent(k) != want_e:
                return CheckResult(
                    f"factor-{key}", False, f"idempotent {k} is {ctx.idempotent(k)}, want {want_e}"
                )
    return CheckResult(f"factor-{key}", True, "factors and idempotents match")


def _check_automorphisms(env, key):
    ctx = env.ctx(key)
    spec = env.fx["automorphisms"][key]
    count = len(enumerate_automorphisms(ctx))
    if count != spec["count"]:
        return CheckResult(f"aut-{key}", False, f"constructive count {count} != {spec['count']}")
    if automorphism_count(ctx) != spec["count"]:
        return CheckResult(f"aut-{key}", False, "closed-form count mismatch")
    bf = len(enumerate_automorphisms_bruteforce(ctx))
    if bf != spec["count"]:
        return CheckResult(f"aut-{key}", False, f"brute-force count {bf} != {spec['count']}")
    sig = parse_sigma(ctx, spec["image"])
    if sig.cycle_str() != spec["cycles"]:
        return CheckResult(
            f"aut-{key}", False, f"cycles of {spec['image']} are {sig.cycle_str()}, want {spec['cycles']}"
        )
    return CheckResult(f"aut-{key}", True, f"{count} automorphisms both ways; cycles match")


def _check_skew_shifts(env):
    sig = env.sigma("F2n7")
    fx = env.fx["skew_F2n7"]
    g = parse_skew(sig, fx["g"])
    x = SkewPoly.constant(sig, sig.context.x)
    xg = x * g
    if xg != parse_skew(sig, fx["xg"]):
        return CheckResult("skew-F2n7-shifts", False, f"xg = {xg}")
    x2g = x * xg
    if x2g != parse_skew(sig, fx["x2g"]):
        return CheckResult("skew-F2n7-shifts", False, f"x^2 g = {x2g}")
    if x * x2g != g + x2g:
        return CheckResult("skew-F2n7-shifts", False, "x^3 g != g + x^2 g")
    return CheckResult("skew-F2n7-shifts", True, "xg, x^2g, x^3g = g + x^2g all match")


def _check_unit_inverse(env):
    sig = env.sigma("F2n7")
    fx = env.fx["skew_F2n7"]
    v = parse_skew(sig, fx["v"])
    want = parse_skew(sig, fx["v_inv"])
    one = SkewPoly.one(sig)
    if v * want != one or want * v != one:
        return CheckResult("skew-F2n7-vinv", False, "golden inverse fails v*v^-1 = 1")
    got = v.unit_inverse()
    if got != want:
        return CheckResult("skew-F2n7-vinv", False, f"computed inverse {got}")
    return CheckResult("skew-F2n7-vinv", True, "v*v^-1 = 1 = v^-1*v with the golden inverse")


def _check_generator_matrix(env):
    sig = env.sigma("F2n7")
    fx = env.fx
    g = parse_skew(sig, fx["skew_F2n7"]["g"])
    code = ConvCode.from_reduced(g)
    want = matrix_from_dict(sig.context.field, fx["generator_matrix_F2n7"])
    if code.generator != want:
        return CheckResult("genmat-F2n7", False, "matrix entries differ")
    if not code.generator.is_right_invertible():
        return CheckResult("genmat-F2n7", False, "not right invertible")
    if code.forney != (2, 2, 2):
        return CheckResult("genmat-F2n7", False, f"forney {code.forney}")
    return CheckResult("genmat-F2n7", True, "3x7 matrix reproduced; right invertible, minimal, forney {2,2,2}")


def _check_dist_f2n7(env, state_cap):
    sig = env.sigma("F2n7")
    fx = env.fx
    g = parse_skew(sig, fx["skew_F2n7"]["g"])
    code = ConvCode.from_reduced(g)
    want = fx["dist_F2n7"]
    if list(code.params) != want["params"]:
        return CheckResult("dist-F2n7", False, f"params {code.params}")
    rep = free_distance(code.generator, state_cap)
    return _eq("dist-F2n7", rep.distance, want["distance"], "distance")


def _minimal_family_code(env, key, d):
    sig = env.sigma(key)
    fx = env.fx["minC3" if key == "F4n3" else "minC5"]
    scalars = tuple(
        parse_ring_element(sig.context, s) for s in fx["scalars"][:d]
    )
    return build_minimal_code(MinimalCodeRecipe(sig, fx["l"], d, scalars))


def _check_family_entry(env, key, name, idx, state_cap):
    fx = env.fx["minC3" if key == "F4n3" else "minC5"]
    d = idx + 1
    code = _minimal_family_code(env, key, d)
    entries = fx["matrices"][idx]
    want = matrix_from_dict(
        env.ctx(key).field,
        {"rows": len(entries), "cols": env.ctx(key).n, "entries": entries},
    )
    if code.generator != want:
        return CheckResult(name, False, "generator matrix differs from the printed one")
    rep = free_distance(code.generator, state_cap)
    if rep.distance != fx["distances"][idx]:
        return CheckResult(
            name, False, f"distance {rep.distance}, want {fx['distances'][idx]}"
        )
    return CheckResult(name, True, f"matrix and distance {rep.distance} match")


def _f8_codes(env):
    sig = env.sigma("F8n7")
    ctx = sig.context
    fx = env.fx["F8n7"]

    def build(terms):
        depth = max(t[0] for t in terms) + 1
        coeffs = [ctx.zero] * depth
        for j, l, s in terms:
            coeffs[j] = coeffs[j] + ctx.idempotent(l) * parse_ring_element(ctx, s)
        return SkewPoly(sig, coeffs)

    g1 = build(fx["g1_terms"])
    g2 = build(fx["g2_terms"])
    return ConvCode.from_reduced(g1), ConvCode.from_reduced(g2)


def _check_f8_minimal(env, which, state_cap):
    fx = env.fx["F8n7"]
    code = _f8_codes(env)[0 if which == "g1" else 1]
    name = f"F8n7-{which}"
    if list(code.params) != fx["params_each"]:
        return CheckResult(name, False, f"params {code.params}")
    rep = free_distance(code.generator, state_cap)
    if rep.distance != fx["distance_each"]:
        return CheckResult(name, False, f"distance {rep.distance}")
    if rep.attains != "singleton":
        return CheckResult(name, False, "should attain the Singleton bound")
    return CheckResult(name, True, f"(7,1,2) code, distance {rep.distance}, MDS")


def _check_f8_sum(env, state_cap):
    fx = env.fx["F8n7"]
    c1, c2 = _f8_codes(env)
    combined = orthogonal_sum([c1, c2])
    want = matrix_from_dict(
        env.ctx("F8n7").field,
        {"rows": 2, "cols": 7, "entries": fx["sum_matrix"]},
    )
    if combined.generator != want:
        return CheckResult("F8n7-sum", False, "combined matrix differs from the printed one")
    if list(combined.params) != fx["sum_params"] or list(combined.forney) != fx["sum_forney"]:
        return CheckResult("F8n7-sum", False, f"params {combined.params}, forney {combined.forney}")
    rep = free_distance(combined.generator, state_cap)
    if rep.distance != fx["sum_distance"]:
        return CheckResult("F8n7-sum", False, f"distance {rep.distance}")
    return CheckResult("F8n7-sum", True, f"(7,2,4) sum, matrix match, distance {rep.distance}")


def _check_bounds(env):
    for item in env.fx["bounds"]:
        if item["kind"] == "singleton":
            got = singleton_bound(*item["args"])
        else:
            got = griesmer_bound(*item["args"])
        if got != item["want"]:
            return CheckResult(
                "bounds", False, f"{item['kind']}{tuple(item['args'])} = {got}, want {item['want']}"
            )
    return CheckResult("bounds", True, "all four bound values match")


def _check_complement(env):
    sig = env.sigma("F2n7")
    fx = env.fx["skew_F2n7"]
    g = parse_skew(sig, fx["g"])
    v = parse_skew(sig, fx["v"])
    gp = direct_complement(g, v)
    want = parse_skew(sig, fx["g_complement"])
    if gp != want:
        return CheckResult("complement-F2n7", False, f"g' = {gp}")
    if g + gp != v:
        return CheckResult("complement-F2n7", False, "g + g' != v")
    if v.unit_inverse() != parse_skew(sig, fx["v_inv"]):
        return CheckResult("complement-F2n7", False, "inverse of g + g' differs")
    return CheckResult("complement-F2n7", True, "g' reproduced; g + g' is a unit with the golden inverse")


def run_checks(fixtures: dict | None = None, only: str | None = None, state_cap: int = 2 ** 16):
    """Run all named golden checks (optionally filtered by substring).

    Fixtures without the keys that name the checks raise ParseError; a key
    missing inside a check fails that check."""
    fx = fixtures if fixtures is not None else load_default_fixtures()
    try:
        factor_keys, aut_keys = list(fx["factors"]), list(fx["automorphisms"])
        n_c3, n_c5 = len(fx["minC3"]["distances"]), len(fx["minC5"]["distances"])
    except (KeyError, TypeError) as exc:
        raise ParseError(
            f"fixtures need factors, automorphisms, minC3 and minC5 distances: {exc!r}"
        ) from exc
    env = _Env(fx)
    jobs = []
    for key in factor_keys:
        jobs.append((f"factor-{key}", lambda k=key: _check_factorization(env, k)))
    for key in aut_keys:
        jobs.append((f"aut-{key}", lambda k=key: _check_automorphisms(env, k)))
    jobs.append(("skew-F2n7-shifts", lambda: _check_skew_shifts(env)))
    jobs.append(("skew-F2n7-vinv", lambda: _check_unit_inverse(env)))
    jobs.append(("genmat-F2n7", lambda: _check_generator_matrix(env)))
    jobs.append(("dist-F2n7", lambda: _check_dist_f2n7(env, state_cap)))
    for i in range(n_c3):
        jobs.append(
            (
                f"minC3-d{i+1}",
                lambda i=i: _check_family_entry(env, "F4n3", f"minC3-d{i+1}", i, state_cap),
            )
        )
    for i in range(n_c5):
        jobs.append(
            (
                f"minC5-m{i+1}",
                lambda i=i: _check_family_entry(env, "F4n5", f"minC5-m{i+1}", i, state_cap),
            )
        )
    jobs.append(("F8n7-g1", lambda: _check_f8_minimal(env, "g1", state_cap)))
    jobs.append(("F8n7-g2", lambda: _check_f8_minimal(env, "g2", state_cap)))
    jobs.append(("F8n7-sum", lambda: _check_f8_sum(env, state_cap)))
    jobs.append(("bounds", lambda: _check_bounds(env)))
    jobs.append(("complement-F2n7", lambda: _check_complement(env)))

    results = []
    for name, job in jobs:
        if only and only not in name:
            continue
        try:
            results.append(job())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
