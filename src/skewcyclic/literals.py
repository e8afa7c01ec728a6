"""Text grammars for fields, elements, polynomials, skew polynomials,
automorphisms, and matrices, as used by the CLI and fixture files.

    field:        GF(4):y^2+y+1         (modulus optional for prime q)
    element:      0 | 1 | 7 | a | a^3
    polynomial:   1+x^2+x^3+x^4 | a^2*z+1   ('*' optional, any term order)
    skew poly:    1+x^2 + z*(x+x^5) + z^2*(1+x^4)
    sigma:        x^5 | sigma:x^5 | perm:(1)(2,3)
    matrix JSON:  {"rows": k, "cols": n, "entries": [["1+z^2", ...], ...]}
"""

from __future__ import annotations

import math
import re

from .automorphisms import (
    Automorphism,
    find_automorphism_for_permutation,
    permutation_from_cycles,
)
from .convolutional import PolyMatrix
from .errors import BadParameters, ParseError, ReducibleModulus
from .fields import MAX_FIELD_SIZE, FieldSpec, FieldElement, Poly, make_field
from .ring import RingContext, RingElement
from .skew import SkewPoly

_FIELD_RE = re.compile(r"^GF\((\d+)\)(?::(.+))?$")
_ELEM_RE = re.compile(r"^(\d+|a(?:\^(\d+))?)$")
_TERM_RE = re.compile(
    r"^(?P<coeff>\d+|a(?:\^\d+)?)?\s*(?P<star>\*)?\s*(?:(?P<var>[a-z])(?:\^(?P<exp>\d+))?)?$"
)


def _prime_power(q: int):
    if q < 2:
        raise ParseError("field size must be >= 2")
    # the least divisor > 1 is prime; a prime q has none up to sqrt(q)
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    deg = 0
    while q % p == 0:
        q //= p
        deg += 1
    if q != 1:
        raise ParseError("field size must be a prime power")
    return p, deg


def _text(text) -> str:
    """Literal entry points take strings only (JSON may hold anything)."""
    if not isinstance(text, str):
        raise ParseError(f"expected a literal string, got {text!r}")
    return text


def parse_field(text: str) -> FieldSpec:
    m = _FIELD_RE.match(_text(text).strip())
    if not m:
        raise ParseError(f"bad field literal {text!r}; expected GF(q)[:modulus]")
    digits = m.group(1).lstrip("0") or "0"
    # a q past the cap is refused before the trial division in _prime_power,
    # and before int() meets more digits than it converts
    if len(digits) > len(str(MAX_FIELD_SIZE)) or int(digits) > MAX_FIELD_SIZE:
        size = digits if len(digits) <= 30 else f"of {len(digits)} digits"
        raise BadParameters(f"field size {size} exceeds MAX_FIELD_SIZE = {MAX_FIELD_SIZE}")
    q = int(digits)
    p, deg = _prime_power(q)
    if m.group(2) is None:
        return make_field(p, deg)
    if "a" in m.group(2):
        raise ParseError("modulus coefficients must be prime-field integers")
    mod_poly = parse_poly(make_field(p, 1), m.group(2), "y")
    if mod_poly.degree != deg:
        raise ParseError(f"modulus degree must be {deg} for GF({q})")
    try:
        return make_field(p, deg, mod_poly.codes)
    except ReducibleModulus as exc:
        raise ParseError(str(exc)) from exc


def _split_terms(text: str):
    """Top-level '+'/'-' split, honouring parentheses; yields (sign, term)."""
    text = "".join(text.split())
    if not text:
        raise ParseError("empty expression")
    out = []
    depth = 0
    cur = []
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0:
            if cur:
                out.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
            else:
                sign = sign * (1 if ch == "+" else -1)
            continue
        cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if cur:
        out.append((sign, "".join(cur)))
    if not out:
        raise ParseError(f"no terms in {text!r}")
    return out


def parse_element(field: FieldSpec, text: str) -> FieldElement:
    m = _ELEM_RE.match(_text(text).strip())
    if not m:
        raise ParseError(f"bad element literal {text!r}")
    tok = m.group(1)
    if tok.isdigit():
        return field.from_int(int(tok))
    k = int(m.group(2)) if m.group(2) else 1
    return field.gen ** k


def parse_poly(field: FieldSpec, text: str, var: str = "x") -> Poly:
    acc = Poly.zero(field)
    for sign, term in _split_terms(_text(text)):
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"bad term {term!r}")
        if m.group("star") and None in (m.group("coeff"), m.group("var")):
            raise ParseError(f"bad term {term!r}: '*' needs a factor on each side")
        if m.group("var") not in (None, var):
            raise ParseError(f"unexpected variable in {term!r}; wanted {var!r}")
        coeff = (
            parse_element(field, m.group("coeff"))
            if m.group("coeff") is not None
            else field.one
        )
        if sign < 0:
            coeff = -coeff
        exp = 0
        if m.group("var"):
            exp = int(m.group("exp") or 1)
        acc = acc + Poly(field, (0,) * exp + (coeff.code,))
    return acc


def parse_ring_element(ctx: RingContext, text: str) -> RingElement:
    return ctx.from_poly(parse_poly(ctx.field, text, "x"))


def parse_skew(sigma: Automorphism, text: str) -> SkewPoly:
    """Skew-polynomial literal: z^j terms carry parenthesized ring elements;
    every other term is a ring element, in at most one pair of parentheses."""
    ctx = sigma.context
    parts = {}
    for sign, term in _split_terms(_text(text)):
        if term.startswith("z"):
            m = re.match(r"^z(?:\^(\d+))?(?:\s*\*?\s*\((?P<inner>.*)\))?$", term)
            if not m:
                raise ParseError(f"bad skew term {term!r}")
            j = int(m.group(1) or 1)
            inner = m.group("inner")
            coeff = ctx.one if inner is None else parse_ring_element(ctx, inner)
        else:
            j = 0
            if term.startswith("(") and term.endswith(")"):
                term = term[1:-1]
            coeff = parse_ring_element(ctx, term)
        if sign < 0:
            coeff = -coeff
        parts[j] = parts.get(j, ctx.zero) + coeff
    depth = max(parts) + 1 if parts else 0
    coeffs = [parts.get(j, ctx.zero) for j in range(depth)]
    return SkewPoly(sigma, coeffs)


_PERM_RE = re.compile(r"\(([^()]*)\)")


def parse_sigma(ctx: RingContext, text: str) -> Automorphism:
    text = _text(text).strip()
    if text.startswith("sigma:"):
        text = text[len("sigma:") :]
    if text.startswith("perm:"):
        body = text[len("perm:") :].strip()
        if not re.fullmatch(r"(\([\d,\s]*\))+", body):
            raise ParseError(f"bad permutation literal {body!r}")
        cycles = []
        seen = set()
        for grp in _PERM_RE.findall(body):
            items = [int(t) for t in grp.replace(",", " ").split()]
            for k in items:
                if not 1 <= k <= ctx.r:
                    raise ParseError(f"permutation index {k} not in 1..{ctx.r}")
                if k in seen:
                    raise ParseError(f"permutation index {k} appears twice in {body!r}")
                seen.add(k)
            if items:
                cycles.append(tuple(items))
        perm = permutation_from_cycles(ctx.r, cycles)
        return find_automorphism_for_permutation(ctx, perm)
    image = parse_ring_element(ctx, text)
    return Automorphism(ctx, image)


def matrix_to_dict(M: PolyMatrix) -> dict:
    return {"rows": M.nrows, "cols": M.ncols, "entries": M.to_strings()}


def matrix_from_dict(field: FieldSpec, data: dict) -> PolyMatrix:
    try:
        entries = data["entries"]
        rows, cols = int(data["rows"]), int(data["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}") from exc
    if (
        rows < 1
        or cols < 1
        or not isinstance(entries, list)
        or len(entries) != rows
        or any(not isinstance(r, list) or len(r) != cols for r in entries)
    ):
        raise ParseError("matrix JSON needs rows x cols entries, both at least 1")
    if not all(isinstance(e, str) for r in entries for e in r):
        raise ParseError("matrix JSON entries must be polynomial strings")
    return PolyMatrix(
        field, [[parse_poly(field, e, "z") for e in row] for row in entries]
    )


def field_to_str(field: FieldSpec) -> str:
    if field.deg == 1:
        return f"GF({field.q})"
    terms = []
    for i, c in enumerate(field.modulus):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            terms.append(f"{head}y" if i == 1 else f"{head}y^{i}")
    return f"GF({field.q}):" + "+".join(terms)
