"""The one-pass literal parser: x-powers fold mod n, and against the
term-by-term reference in helpers, on literals drawn from the grammar and on
mutations of them, both give the same value or both raise ParseError."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _ring_element_by_terms, parse_poly_by_terms, parse_skew_by_terms
from skewcyclic import Automorphism, RingContext, SkewPoly
from skewcyclic.errors import ParseError
from skewcyclic.literals import parse_field, parse_poly, parse_ring_element, parse_skew


def test_x_powers_fold_mod_n(ctx27, sig27):
    """x^n = 1 in A, so a power is reduced mod n and no list longer than n is
    built, however large the power."""
    for e in (7, 10 ** 6, 10 ** 18 + 3, 10 ** 4000):
        want = parse_ring_element(ctx27, f"x^{e % 7}")
        assert parse_ring_element(ctx27, f"x^{e}") == want
        assert parse_skew(sig27, f"z*(x^{e})") == parse_skew(sig27, f"z*(x^{e % 7})")
        assert parse_skew(sig27, f"x^{e}") == SkewPoly(sig27, [want])


CONTEXTS = [
    RingContext(parse_field(f), n)
    for f, n in (("GF(2)", 7), ("GF(3)", 4), ("GF(4):y^2+y+1", 5), ("GF(9)", 4))
]
# identity twists: the parsers do not depend on sigma
SIGMAS = [Automorphism(ctx, ctx.x) for ctx in CONTEXTS]

SIGNS = ("-", "+", "--", "+-", "-+-")
COEFFS = ("", "1", "", "0", "2", "5", "08", "a", "a^0", "a^2", "a^9")
STARS = ("", "", "", "*")
VARS = ("x", "") * 5 + ("y", "b", "z")
Z_HEADS = ("z", "z^0", "z^1", "z^2", "z^3")
# stray characters and fragments spliced into a literal
NOISE = (" ", "\t", "+", "-", "--", "*", "(", ")", "((", "))", "()", "x", "z", "^", "^2", "a", "q", "7")

# A literal is decoded from one drawn byte string, which keeps the drawing
# cheap: each byte picks one choice, and a spent string picks choice 0,
# the plainest, so shrinking the bytes shrinks the literal.


def _pick(it, options):
    return options[next(it, 0) % len(options)]


def _ring(it, n):
    text = _pick(it, ("", "-", "+"))
    for i in range(1 + _pick(it, range(4))):
        text += (_pick(it, SIGNS) if i else "") + _pick(it, COEFFS) + _pick(it, STARS)
        var = _pick(it, VARS)
        text += var + (_pick(it, [""] + [f"^{e}" for e in range(3 * n + 1)]) if var else "")
    return text + _pick(it, ("", "", "+", "-"))


def _skew(it, n):
    text = _pick(it, ("", "-", "+"))
    for i in range(1 + _pick(it, range(4))):
        text += _pick(it, SIGNS) if i else ""
        kind = _pick(it, ("z", "z(", "(", "term"))
        if kind.startswith("z"):
            text += _pick(it, Z_HEADS) + _pick(it, STARS)
        text += _ring(it, n) if kind == "term" else f"({_ring(it, n)})" if "(" in kind else ""
    return text


def _mutated(it, text):
    for _ in range(_pick(it, (1, 0, 2))):
        i = next(it, 0) % (len(text) + 1)
        text = text[:i] + _pick(it, NOISE) + text[i + _pick(it, (0, 1)):]
    return text


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError:
        return ParseError


SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=500)
BYTES = st.binary(max_size=200)


@SETTINGS
@given(BYTES)
def test_ring_literals_match_the_term_by_term_parser(data):
    it = iter(data)
    ctx = _pick(it, CONTEXTS)
    text = _mutated(it, _ring(it, ctx.n))
    assert _outcome(parse_ring_element, ctx, text) == _outcome(_ring_element_by_terms, ctx, text)
    var = _pick(it, "xyz")
    assert _outcome(parse_poly, ctx.field, text, var) == _outcome(
        parse_poly_by_terms, ctx.field, text, var
    )


@SETTINGS
@given(BYTES)
def test_skew_literals_match_the_term_by_term_parser(data):
    it = iter(data)
    sigma = _pick(it, SIGMAS)
    text = _mutated(it, _skew(it, sigma.context.n))
    assert _outcome(parse_skew, sigma, text) == _outcome(parse_skew_by_terms, sigma, text)
