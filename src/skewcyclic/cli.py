"""Command-line frontend.

Commands: factor, automorphisms, build, distance, bounds, equivalence,
verify-paper.  Machine output is JSON (default); --format table renders
aligned text.  Exit codes: 0 success, 1 golden/expected mismatch,
2 violated precondition, 3 parse error, 4 mathematical obstruction.  Each
command returns an Outcome, and `main` alone prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from . import verify
from .automorphisms import automorphism_count, enumerate_automorphisms
from .builder import MinimalCodeRecipe, build_minimal_code, orthogonal_sum
from .convolutional import ConvCode, strong_equivalence
from .distance import DEFAULT_STATE_CAP, free_distance, griesmer_bound, singleton_bound
from .errors import (
    BadParameters,
    EnumerationCapExceeded,
    LengthNotCoprime,
    ParseError,
    SearchSpaceTooLarge,
    SkewCyclicError,
    StateCapExceeded,
)
from .literals import (
    field_to_str,
    matrix_from_dict,
    matrix_to_dict,
    parse_field,
    parse_ring_element,
    parse_sigma,
    parse_skew,
)
from .ring import RingContext

EXIT_MISMATCH = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_MATH = 4

_PRECONDITION_ERRORS = (
    LengthNotCoprime,
    BadParameters,
    StateCapExceeded,
    EnumerationCapExceeded,
    SearchSpaceTooLarge,
)


class Outcome(NamedTuple):
    """A command's JSON payload, its table-line generator, exit code and stderr lines."""

    payload: object
    table: object
    code: int = 0
    errors: tuple = ()


def _context(args):
    field = parse_field(args.field)
    return RingContext(field, args.n)


def cmd_factor(args) -> Outcome:
    ctx = _context(args)
    payload = {
        "field": field_to_str(ctx.field),
        "n": ctx.n,
        "degree_classes": [list(c) for c in ctx.degree_classes],
        "factors": [
            {
                "index": k,
                "poly": pi.to_str("x"),
                "degree": ctx.kappas[k - 1],
                "idempotent": str(ctx.idempotent(k)),
            }
            for k, pi in enumerate(ctx.factors, start=1)
        ],
    }

    def table(p):
        yield f"x^{p['n']} - 1 over {p['field']}"
        yield f"degree classes: {p['degree_classes']}"
        for f in p["factors"]:
            yield f"  pi_{f['index']} = {f['poly']}  (deg {f['degree']})"
            yield f"    eps_{f['index']} = {f['idempotent']}"

    return Outcome(payload, table)


def cmd_automorphisms(args) -> Outcome:
    ctx = _context(args)
    if args.sigma:
        listed = [parse_sigma(ctx, args.sigma)]
        count = automorphism_count(ctx)
    else:
        listed = enumerate_automorphisms(ctx)
        count = len(listed)
    labels = [str(l) for l in range(1, ctx.r + 1)]

    def orders(s):
        """l -> the length of its cycle, read off the cycles once."""
        length = [0] * ctx.r
        for cyc in s.cycles:
            for l in cyc:
                length[l - 1] = len(cyc)
        return dict(zip(labels, length))

    payload = {
        "field": field_to_str(ctx.field),
        "n": ctx.n,
        "count": count,
        "automorphisms": [
            {"image": str(s.sigma_x), "cycles": s.cycle_str(), "orders": orders(s)}
            for s in listed
        ],
    }

    def table(p):
        yield f"{p['count']} automorphisms of A = {p['field']}[x]/(x^{p['n']}-1)"
        for s in p["automorphisms"]:
            orders = ", ".join(f"o_{l}={o}" for l, o in s["orders"].items())
            yield f"  x -> {s['image']:<40} {s['cycles']:<20} {orders}"

    return Outcome(payload, table)


def _load_json(path: str, what: str):
    """Every JSON input file goes through here: unreadable or malformed
    files become ParseError (exit 3)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def _json_typed(value, kind, what):
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ParseError(f"{what} must be {name}, got {value!r}")
    return value


def _json_int(value, what):
    """A JSON integer; floats, bools and numeric strings are refused."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _expected(desc: dict) -> dict:
    """The descriptor's expected block: {} when the key is absent, and a
    ParseError for any value that is not an object, falsy ones included."""
    if "expected" not in desc:
        return {}
    return _json_typed(desc["expected"], dict, "expected")


def _build_from_descriptor(desc: dict):
    try:
        field = parse_field(desc["field"])
        n = desc["n"]
        sigma_text = desc["sigma"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"descriptor needs field, n, sigma: {exc}") from exc
    _json_int(n, "n")
    expected = _expected(desc)
    for key in ("k", "delta", "distance"):
        if key in expected:
            _json_int(expected[key], f"expected {key}")
    if "forney" in expected:
        for d in _json_typed(expected["forney"], list, "expected forney"):
            _json_int(d, "expected forney index")
    ctx = RingContext(field, n)
    sigma = parse_sigma(ctx, sigma_text)
    if "generator" in desc:
        g = parse_skew(sigma, desc["generator"])
        return ConvCode.from_reduced(g)
    recipe = desc.get("recipe")
    if recipe is None:
        raise ParseError("descriptor needs either a generator or a recipe")
    _json_typed(recipe, dict, "recipe")
    components = _json_typed(recipe.get("components", [recipe]), list, "components")
    if not components:
        raise ParseError("recipe components must not be empty")
    codes = []
    for comp in components:
        try:
            l, d = comp["l"], comp["d"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"recipe component needs l and d: {exc}") from exc
        l, d = _json_int(l, "recipe l"), _json_int(d, "recipe d")
        scalars = tuple(
            parse_ring_element(ctx, s)
            for s in _json_typed(comp.get("scalars", []), list, "scalars")
        )
        codes.append(build_minimal_code(MinimalCodeRecipe(sigma, l, d, scalars)))
    return codes[0] if len(codes) == 1 else orthogonal_sum(codes)


def _code_payload(desc, code, report=None):
    payload = {
        "field": desc["field"],
        "n": code.n,
        "sigma": desc["sigma"],
        "generator": str(code.reduced_generator)
        if code.reduced_generator is not None
        else None,
        "support": list(code.support) if code.support else None,
        "parameters": {"n": code.n, "k": code.k, "delta": code.delta},
        "forney": list(code.forney),
        "generator_matrix": matrix_to_dict(code.generator),
    }
    if report is not None:
        payload["distance"] = report.as_dict()
    return payload


def _checked(payload, table, desc, code, report) -> Outcome:
    """The outcome of build or distance: exit 1 and one stderr line for each
    value that differs from the descriptor's expected block, else exit 0.
    Both callers compute the report whenever the block expects a distance."""
    expected = _expected(desc)
    problems = []
    if "k" in expected and code.k != expected["k"]:
        problems.append(f"k = {code.k}, expected {expected['k']}")
    if "delta" in expected and code.delta != expected["delta"]:
        problems.append(f"delta = {code.delta}, expected {expected['delta']}")
    if "forney" in expected and sorted(code.forney) != sorted(expected["forney"]):
        problems.append(f"forney = {list(code.forney)}, expected {expected['forney']}")
    if "distance" in expected and report.distance != expected["distance"]:
        problems.append(f"distance = {report.distance}, expected {expected['distance']}")
    errors = tuple(f"expected-mismatch: {p}" for p in problems)
    return Outcome(payload, table, EXIT_MISMATCH if errors else 0, errors)


def _apply_overrides(desc: dict, args) -> dict:
    """--field/--n/--sigma given on the command line win over the file."""
    out = dict(_json_typed(desc, dict, "descriptor"))
    for key in ("field", "n", "sigma"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


def cmd_build(args) -> Outcome:
    desc = _apply_overrides(_load_json(args.recipe, "descriptor"), args)
    code = _build_from_descriptor(desc)
    report = None
    expected = _expected(desc)
    if args.with_distance or "distance" in expected:
        report = free_distance(code.generator, args.state_cap)
    payload = _code_payload(desc, code, report)

    def table(p):
        yield f"code over {p['field']}, n = {p['n']}, sigma = {p['sigma']}"
        yield f"parameters (n,k,delta) = ({p['parameters']['n']},{p['parameters']['k']},{p['parameters']['delta']})"
        yield f"forney indices: {p['forney']}"
        if p["generator"]:
            yield f"generator polynomial: {p['generator']}"
        yield "generator matrix:"
        for row in p["generator_matrix"]["entries"]:
            yield "  [" + ", ".join(row) + "]"
        if "distance" in p:
            d = p["distance"]
            yield (
                f"distance {d['distance']} (singleton {d['singleton']}, "
                f"griesmer {d['griesmer']}, attains {d['attains']})"
            )

    return _checked(payload, table, desc, code, report)


def cmd_distance(args) -> Outcome:
    desc = _apply_overrides(_load_json(args.recipe, "descriptor"), args)
    code = _build_from_descriptor(desc)
    report = free_distance(code.generator, args.state_cap)
    payload = report.as_dict()
    payload["parameters"] = {"n": code.n, "k": code.k, "delta": code.delta}

    def table(p):
        pr = p["parameters"]
        yield f"({pr['n']},{pr['k']},{pr['delta']}) code"
        yield f"free distance  {p['distance']}"
        yield f"singleton      {p['singleton']}"
        yield f"griesmer       {p['griesmer']}"
        yield f"attains        {p['attains']}"
        yield f"witness        {p['witness']}"

    return _checked(payload, table, desc, code, report)


def cmd_bounds(args) -> Outcome:
    payload = {
        "n": args.n,
        "k": args.k,
        "delta": args.delta,
        "m": args.m,
        "q": args.q,
        "singleton": singleton_bound(args.n, args.k, args.delta),
        "griesmer": griesmer_bound(args.n, args.k, args.delta, args.m, args.q),
    }

    def table(p):
        yield f"(n,k,delta) = ({p['n']},{p['k']},{p['delta']}), m = {p['m']}, q = {p['q']}"
        yield f"singleton bound  {p['singleton']}"
        yield f"griesmer bound   {p['griesmer']}"

    return Outcome(payload, table)


def cmd_equivalence(args) -> Outcome:
    field = parse_field(args.field)
    A = matrix_from_dict(field, _load_json(args.matrix_a, "matrix"))
    B = matrix_from_dict(field, _load_json(args.matrix_b, "matrix"))
    found = strong_equivalence(A, B)
    if found is None:
        payload = {"equivalent": False}
    else:
        P, D = found
        perm = []
        for j in range(P.ncols):
            for i in range(P.nrows):
                if not P.entries[i][j].is_zero():
                    perm.append(i)
                    break
        diag = [D.entries[i][i].to_str("z") for i in range(D.nrows)]
        payload = {"equivalent": True, "permutation": perm, "diagonal": diag}

    def table(p):
        if p["equivalent"]:
            yield f"strongly equivalent: column permutation {p['permutation']}, scaling {p['diagonal']}"
        else:
            yield "not strongly equivalent"

    return Outcome(payload, table)


def cmd_verify_paper(args) -> Outcome:
    fixtures = _load_json(args.fixtures, "fixtures") if args.fixtures else None
    results = verify.run_checks(fixtures, only=args.only)
    payload = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]

    def table(p):
        for r in p:
            yield f"{'PASS' if r['ok'] else 'FAIL'} {r['name']} - {r['detail']}"
        yield f"{sum(r['ok'] for r in p)}/{len(p)} checks passed"

    if not results:
        return Outcome(payload, table, EXIT_MISMATCH, ("no checks matched the filter",))
    return Outcome(payload, table, 0 if all(r.ok for r in results) else EXIT_MISMATCH)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewcyclic",
        description="Cyclic convolutional codes via skew polynomials over F[x]/(x^n-1).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, field=False, n=False):
        p.add_argument("--format", choices=("json", "table"), default="json")
        if field:
            p.add_argument("--field", required=True, help='field literal, e.g. "GF(4):y^2+y+1"')
        if n:
            p.add_argument("--n", type=int, required=True, help="code length")

    p = sub.add_parser("factor", help="factor x^n-1 and list the primitive idempotents")
    common(p, field=True, n=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("automorphisms", help="enumerate the automorphism group of A")
    common(p, field=True, n=True)
    p.add_argument("--sigma", default=None, help='show only this automorphism, e.g. "x^5" or "perm:(1)(2,3)"')
    p.set_defaults(func=cmd_automorphisms)

    def build_like(p):
        p.add_argument("--recipe", required=True, help="descriptor JSON file")
        p.add_argument("--field", default=None, help="override the descriptor's field")
        p.add_argument("--n", type=int, default=None, help="override the descriptor's length")
        p.add_argument("--sigma", default=None, help="override the descriptor's automorphism")
        p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)

    p = sub.add_parser("build", help="build a code from a recipe/descriptor file")
    common(p)
    build_like(p)
    p.add_argument("--with-distance", action="store_true", help="also compute the free distance")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("distance", help="free distance of a code given by a descriptor")
    common(p)
    build_like(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("bounds", help="generalized Singleton and Griesmer bounds")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="largest Forney index")
    p.add_argument("--q", type=int, required=True, help="field size")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("equivalence", help="search for a strong equivalence between two matrices")
    common(p, field=True)
    p.add_argument("--matrix-a", required=True, help="matrix JSON file")
    p.add_argument("--matrix-b", required=True, help="matrix JSON file")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("verify-paper", help="reproduce all worked examples (golden suite)")
    common(p)
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--fixtures", default=None, help="override the golden fixture file")
    p.set_defaults(func=cmd_verify_paper)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        outcome = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except SkewCyclicError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH
    try:
        if args.format == "json":
            print(json.dumps(outcome.payload, indent=2))
        else:
            print("\n".join(outcome.table(outcome.payload)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to the null
        # device at the interpreter's flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    for line in outcome.errors:
        print(line, file=sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
