"""Golden reproduction suite: every worked example from the source material,
as named pass/fail checks runnable from the CLI or from tests."""

from __future__ import annotations

import json
import os
from typing import NamedTuple

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


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def load_default_fixtures() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# the context each minimal-code family is built over
_FAMILY_CONTEXT = {"minC3": "F4n3", "minC5": "F4n5"}


class _Env:
    """Contexts, automorphisms and golden codes shared by the checks, each
    built on first use, so a filtered run builds only what its checks read."""

    def __init__(self, fixtures):
        self.fx = fixtures if fixtures is not None else load_default_fixtures()
        self._made = {}

    def _once(self, key, make):
        if key not in self._made:
            self._made[key] = make()
        return self._made[key]

    def ctx(self, key) -> RingContext:
        spec = self.fx["contexts"][key]
        return self._once(("ctx", key), lambda: RingContext(parse_field(spec["field"]), spec["n"]))

    def sigma(self, key):
        spec = self.fx["contexts"][key]
        return self._once(("sigma", key), lambda: parse_sigma(self.ctx(key), spec["sigma"]))

    def skew(self, name) -> SkewPoly:
        """The element skew_F2n7[name] of the running binary example."""
        return parse_skew(self.sigma("F2n7"), self.fx["skew_F2n7"][name])

    def code(self, key) -> ConvCode:
        """The golden code named key: "F2n7" (generated by g), "minC3-d<d>",
        "minC5-m<d>", "F8n7-g1", "F8n7-g2" or "F8n7-sum"."""
        return self._once(("code", key), lambda: self._build(key))

    def _build(self, key) -> ConvCode:
        if key == "F2n7":
            return ConvCode.from_reduced(self.skew("g"))
        if key == "F8n7-sum":
            return orthogonal_sum([self.code("F8n7-g1"), self.code("F8n7-g2")])
        if key.startswith("F8n7-"):
            sig = self.sigma("F8n7")
            ctx = sig.context
            terms = self.fx["F8n7"][f"{key[5:]}_terms"]
            coeffs = [ctx.zero] * (max(t[0] for t in terms) + 1)
            for j, l, s in terms:
                coeffs[j] = coeffs[j] + ctx.idempotent(l) * parse_ring_element(ctx, s)
            return ConvCode.from_reduced(SkewPoly(sig, coeffs))
        family, d = key[:5], int(key[7:])
        sig = self.sigma(_FAMILY_CONTEXT[family])
        block = self.fx[family]
        scalars = tuple(parse_ring_element(sig.context, s) for s in block["scalars"][:d])
        return build_minimal_code(MinimalCodeRecipe(sig, block["l"], d, scalars))


def _code_checks(fx):
    """The code checks in report order: (name, golden code, expected values,
    PASS detail).

    The expected values are read from the fixtures when the check runs, so a
    key missing there fails only the checks that read it.  They are compared
    in order (matrix, params, forney, distance, attains) and %-format the
    PASS detail."""
    rows = [
        ("genmat-F2n7", "F2n7",
         lambda: {"matrix": fx["generator_matrix_F2n7"]["entries"],
                  "forney": (2, 2, 2)},
         "3x7 matrix reproduced; right invertible, minimal, forney {2,2,2}"),
        ("dist-F2n7", "F2n7",
         lambda: {"params": fx["dist_F2n7"]["params"],
                  "distance": fx["dist_F2n7"]["distance"]},
         "ok"),
    ]
    for family, tag in (("minC3", "d"), ("minC5", "m")):
        for i in range(len(fx[family]["distances"])):
            name = f"{family}-{tag}{i + 1}"
            rows.append((
                name, name,
                lambda f=family, i=i: {"matrix": fx[f]["matrices"][i],
                                       "distance": fx[f]["distances"][i]},
                "matrix and distance %(distance)s match"))
    for name in ("F8n7-g1", "F8n7-g2"):
        rows.append((
            name, name,
            lambda: {"params": fx["F8n7"]["params_each"],
                     "distance": fx["F8n7"]["distance_each"],
                     "attains": "singleton"},
            "(7,1,2) code, distance %(distance)s, MDS"))
    rows.append((
        "F8n7-sum", "F8n7-sum",
        lambda: {"matrix": fx["F8n7"]["sum_matrix"],
                 "params": fx["F8n7"]["sum_params"],
                 "forney": fx["F8n7"]["sum_forney"],
                 "distance": fx["F8n7"]["sum_distance"]},
        "(7,2,4) sum, matrix match, distance %(distance)s"))
    return rows


def _check_code(env, name, key, expected, detail):
    code = env.code(key)
    want = expected()
    report = None
    for label, value in want.items():
        if label == "matrix":
            got = code.generator.to_strings()
            value = matrix_from_dict(
                code.generator.field, {"rows": len(value), "cols": code.n, "entries": value}
            ).to_strings()
        elif label in ("distance", "attains"):
            report = report or free_distance(code.generator)
            got = getattr(report, label)
        else:
            got, value = list(getattr(code, label)), list(value)
        if got != value:
            return CheckResult(name, False, f"{label} mismatch: got {got}, want {value}")
    return CheckResult(name, True, detail % want)


def _check_factorization(env, key):
    ctx = env.ctx(key)
    got = [f.to_str("x") for f in ctx.factors]
    want = [
        parse_ring_element(ctx, s).as_poly().to_str("x")
        for s in env.fx["factors"][key]
    ]
    if got != want:
        return CheckResult(f"factor-{key}", False, f"factors {got} != {want}")
    for k, s in enumerate(env.fx["idempotents"].get(key, ()), start=1):
        want_e = parse_ring_element(ctx, s)
        if ctx.idempotent(k) != want_e:
            return CheckResult(
                f"factor-{key}", False, f"idempotent {k} is {ctx.idempotent(k)}, want {want_e}"
            )
    return CheckResult(f"factor-{key}", True, "factors and idempotents match")


def _check_automorphisms(env, key):
    ctx = env.ctx(key)
    spec = env.fx["automorphisms"][key]
    constructive = enumerate_automorphisms(ctx)
    images = {s.sigma_x.codes for s in constructive}
    counts = (len(constructive), len(images), automorphism_count(ctx))
    if counts != (spec["count"],) * 3:
        return CheckResult(
            f"aut-{key}", False,
            f"constructive, distinct and closed-form counts {counts}, want {spec['count']}",
        )
    if {s.sigma_x.codes for s in enumerate_automorphisms_bruteforce(ctx)} != images:
        return CheckResult(f"aut-{key}", False, "brute force finds other automorphisms")
    sig = parse_sigma(ctx, spec["image"])
    if sig.cycle_str() != spec["cycles"]:
        return CheckResult(
            f"aut-{key}", False, f"cycles of {spec['image']} are {sig.cycle_str()}, want {spec['cycles']}"
        )
    return CheckResult(f"aut-{key}", True, f"{spec['count']} automorphisms both ways; cycles match")


def _check_skew_shifts(env):
    sig = env.sigma("F2n7")
    g = env.skew("g")
    x = SkewPoly.constant(sig, sig.context.x)
    xg = x * g
    if xg != env.skew("xg"):
        return CheckResult("skew-F2n7-shifts", False, f"xg = {xg}")
    x2g = x * xg
    if x2g != env.skew("x2g"):
        return CheckResult("skew-F2n7-shifts", False, f"x^2 g = {x2g}")
    if x * x2g != g + x2g:
        return CheckResult("skew-F2n7-shifts", False, "x^3 g != g + x^2 g")
    return CheckResult("skew-F2n7-shifts", True, "xg, x^2g, x^3g = g + x^2g all match")


def _check_unit_inverse(env):
    v, want = env.skew("v"), env.skew("v_inv")
    one = SkewPoly.one(v.sigma)
    if v * want != one or want * v != one:
        return CheckResult("skew-F2n7-vinv", False, "golden inverse fails v*v^-1 = 1")
    got = v.unit_inverse()
    if got != want:
        return CheckResult("skew-F2n7-vinv", False, f"computed inverse {got}")
    return CheckResult("skew-F2n7-vinv", True, "v*v^-1 = 1 = v^-1*v with the golden inverse")


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
    g, v = env.skew("g"), env.skew("v")
    gp = direct_complement(g, v)
    if gp != env.skew("g_complement"):
        return CheckResult("complement-F2n7", False, f"g' = {gp}")
    if g + gp != v:
        return CheckResult("complement-F2n7", False, "g + g' != v")
    if v.unit_inverse() != env.skew("v_inv"):
        return CheckResult("complement-F2n7", False, "inverse of g + g' differs")
    return CheckResult("complement-F2n7", True, "g' reproduced; g + g' is a unit with the golden inverse")


def _checks(fx):
    """(name, check) for every golden check, in report order; each check
    takes the shared _Env.  Fixtures without the keys that name the checks
    raise ParseError."""
    try:
        factor_keys, aut_keys = list(fx["factors"]), list(fx["automorphisms"])
        code_rows = _code_checks(fx)
    except (KeyError, TypeError) as exc:
        raise ParseError(
            f"fixtures need factors, automorphisms, minC3 and minC5 distances: {exc!r}"
        ) from exc
    jobs = [(f"factor-{k}", lambda env, k=k: _check_factorization(env, k)) for k in factor_keys]
    jobs += [(f"aut-{k}", lambda env, k=k: _check_automorphisms(env, k)) for k in aut_keys]
    jobs += [("skew-F2n7-shifts", _check_skew_shifts), ("skew-F2n7-vinv", _check_unit_inverse)]
    jobs += [(row[0], lambda env, row=row: _check_code(env, *row)) for row in code_rows]
    jobs += [("bounds", _check_bounds), ("complement-F2n7", _check_complement)]
    return jobs


def golden_codes(fixtures: dict | None = None):
    """(check name, code, fixture distance) for each code check that compares
    a free distance, in report order: the input of an independent distance
    method."""
    env = _Env(fixtures)
    out = []
    for name, key, expected, _ in _code_checks(env.fx):
        want = expected()
        if "distance" in want:
            out.append((name, env.code(key), want["distance"]))
    return out


def run_checks(fixtures: dict | None = None, only: str | None = None):
    """Run all named golden checks (optionally filtered by substring).

    Fixtures without the keys that name the checks raise ParseError; a key
    missing inside a check fails that check."""
    env = _Env(fixtures)
    results = []
    for name, job in _checks(env.fx):
        if only and only not in name:
            continue
        try:
            results.append(job(env))
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
