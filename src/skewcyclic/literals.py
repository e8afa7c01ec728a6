"""Text grammars for fields, elements, polynomials, skew polynomials,
automorphisms, and matrices, as used by the CLI and fixture files.

    field:        GF(4):y^2+y+1         (modulus optional for prime q)
    element:      0 | 1 | 7 | a | a^3
    polynomial:   1+x^2+x^3+x^4 | a^2*z+1   ('*' optional, any term order;
                  x^e in a ring element is x^(e mod n))
    skew poly:    1+x^2 + z*(x+x^5) + z^2*(1+x^4)
    sigma:        x^5 | sigma:x^5 | perm:(1)(2,3)
    matrix JSON:  {"rows": k, "cols": n, "entries": [["1+z^2", ...], ...]}

An exponent in a polynomial, and a z-exponent in a skew poly or matrix
entry, is at most MAX_Z_DEGREE.
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
from .errors import BadParameters, IndexOutOfRange, ParseError, ReducibleModulus
from .fields import MAX_FIELD_SIZE, FieldSpec, FieldElement, Poly, make_field
from .ring import RingContext, RingElement
from .skew import MAX_Z_DEGREE, SkewPoly

_FIELD_RE = re.compile(r"^GF\((\d+)\)(?::(.+))?$")
_ELEM_RE = re.compile(r"^(\d+|a(?:\^(\d+))?)$")
# one term of a literal without parentheses, with the signs before it: a
# coefficient (n, a or a^k), an optional '*', a variable with an optional
# power; a term ends at a sign or at the end, and the last group catches
# any character that starts no term
_TERM_RE = re.compile(
    r"([+-]*)(?:(\d+)|(a)(?:\^(\d+))?)?(\*)?(?:([a-z])(?:\^(\d+))?)?(?=[+-]|\Z)|(.)"
)
# one top-level term of a skew literal, with the signs before it: z^j with
# an optional '*(...)', a parenthesized ring element, or a run of
# ring-element terms up to the next z^j or parenthesis
_SKEW_TERM_RE = re.compile(
    r"([+-]*)(?:(z)(?:\^(\d+))?(?:\*?(\([^()]*\)))?|(\([^()]*\))"
    r"|([^()+-]+(?:[+-]+(?!z)[^()+-]+)*))?(?=[+-]|\Z)|(.)"
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
    # no code list is sized to a y-exponent above deg
    prime = make_field(p, 1)
    mod_poly = Poly(prime, _add_terms(prime, [], _squeezed(m.group(2)), "y", max_exp=deg))
    if mod_poly.degree != deg:
        raise ParseError(f"modulus degree must be {deg} for GF({q})")
    try:
        return make_field(p, deg, mod_poly.codes)
    except ReducibleModulus as exc:
        raise ParseError(str(exc)) from exc


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number of {len(digits)} digits is too long") from None


def parse_element(field: FieldSpec, text: str) -> FieldElement:
    m = _ELEM_RE.match(_text(text).strip())
    if not m:
        raise ParseError(f"bad element literal {text!r}")
    tok = m.group(1)
    if tok.isdigit():
        return field.from_int(_int(tok))
    k = _int(m.group(2)) if m.group(2) else 1
    return field.gen ** k


def _add_terms(field: FieldSpec, codes: list, text: str, var: str, n=0, negate=False, max_exp=None):
    """Add the terms of `text`, a literal in `var` with no whitespace and no
    parentheses, into the code list `codes`, negated if `negate`.  With
    n > 0 the exponents fold mod n (x^n = 1) into the n slots of `codes`;
    otherwise `codes` grows to the highest exponent.  Terms above `max_exp`,
    when it is given, are summed apart and must cancel, so no list is sized
    to them."""
    add, neg, powers = field._add, field._neg, field._exp
    found = False
    high = {}
    for signs, num, a, k, star, v, e, junk in _TERM_RE.findall(text):
        if junk:
            raise ParseError(f"bad term in {text!r} at {junk!r}")
        if star and not ((num or a) and v):
            raise ParseError(f"bad term in {text!r}: '*' needs a factor on each side")
        if not (num or a or v):
            continue  # signs with no term after them, or the end
        if v and v != var:
            raise ParseError(f"unexpected variable {v!r} in {text!r}; wanted {var!r}")
        if num:
            c = _int(num) % field.p
        else:
            c = powers[(_int(k) if k else 1) % (field.q - 1)] if a else 1
        if signs.count("-") % 2 != negate:
            c = neg[c]
        i = (_int(e) if e else 1) if v else 0
        found = True
        if n:
            i %= n
        elif max_exp is not None and i > max_exp:
            high[i] = add[high.get(i, 0)][c]
            continue
        elif i >= len(codes):
            codes += [0] * (i + 1 - len(codes))
        codes[i] = add[codes[i]][c]
    if not found:
        raise ParseError(f"no terms in {text!r}")
    if any(high.values()):
        raise ParseError(f"degree in {var} exceeds {max_exp}, and the terms above it do not cancel")
    return codes


def _squeezed(text) -> str:
    return "".join(_text(text).split())


def parse_poly(field: FieldSpec, text: str, var: str = "x") -> Poly:
    return Poly(field, _add_terms(field, [], _squeezed(text), var, max_exp=MAX_Z_DEGREE))


def parse_ring_element(ctx: RingContext, text: str) -> RingElement:
    return RingElement(ctx, _add_terms(ctx.field, [0] * ctx.n, _squeezed(text), "x", ctx.n))


def parse_skew(sigma: Automorphism, text: str) -> SkewPoly:
    """Skew-polynomial literal: z^j terms carry parenthesized ring elements;
    every other term is a ring element, in at most one pair of parentheses."""
    ctx = sigma.context
    text = _squeezed(text)
    parts = {}
    for signs, z, j, zbody, body, terms, junk in _SKEW_TERM_RE.findall(text):
        if junk:
            raise ParseError(f"bad skew term in {text!r} at {junk!r}")
        if z or body or terms:
            codes = parts.setdefault((_int(j) if j else 1) if z else 0, [0] * ctx.n)
            body = zbody or body
            if body:  # the signs negate the whole ring element
                _add_terms(ctx.field, codes, body[1:-1], "x", ctx.n, signs.count("-") % 2 == 1)
            else:  # a bare z^j, or a run of terms whose first one takes the signs
                _add_terms(ctx.field, codes, signs + (terms or "1"), "x", ctx.n)
    if not parts:
        raise ParseError(f"no terms in {text!r}")
    # terms above the cap are summed apart and must cancel, as in _add_terms
    for j in [j for j in parts if j > MAX_Z_DEGREE]:
        if any(parts.pop(j)):
            raise ParseError(f"degree in z exceeds {MAX_Z_DEGREE}, and the terms above it do not cancel")
    coeffs = [RingElement(ctx, parts[j]) if j in parts else ctx.zero for j in range(max(parts, default=-1) + 1)]
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
        cycles = [[_int(t) for t in g.replace(",", " ").split()] for g in _PERM_RE.findall(body)]
        try:
            perm = permutation_from_cycles(ctx.r, cycles)
        except (IndexOutOfRange, BadParameters) as exc:
            raise ParseError(str(exc)) from exc
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
        field,
        [[Poly(field, _add_terms(field, [], _squeezed(e), "z", max_exp=MAX_Z_DEGREE)) for e in row] for row in entries],
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
