import pytest

from skewcyclic.errors import BadParameters, ParseError
from skewcyclic.skew import SkewPoly
from skewcyclic.verify import load_default_fixtures
from skewcyclic.literals import (
    MAX_Z_DEGREE,
    field_to_str,
    matrix_from_dict,
    matrix_to_dict,
    parse_element,
    parse_field,
    parse_poly,
    parse_ring_element,
    parse_sigma,
    parse_skew,
)


def test_parse_field_variants():
    assert parse_field("GF(2)").q == 2
    F4 = parse_field("GF(4):y^2+y+1")
    assert F4.q == 4 and F4.modulus == (1, 1, 1)
    F8 = parse_field("GF(8):y^3+y+1")
    assert F8.modulus == (1, 1, 0, 1)
    assert parse_field("GF(9)").q == 9


def test_parse_field_errors():
    with pytest.raises(ParseError):
        parse_field("GF(6)")
    with pytest.raises(ParseError):
        parse_field("GF(4):y^3+y+1")  # wrong degree
    with pytest.raises(ParseError):
        parse_field("GF(4):y^2+1")  # reducible
    with pytest.raises(ParseError):
        parse_field("gf(4)")


def test_parse_field_modulus_terms():
    # a lone '*' is not a term (it was once read as the constant 1)
    for text in ("GF(3):y-*", "GF(5):*+y", "GF(8):*+y+y^3"):
        with pytest.raises(ParseError):
            parse_field(text)
    # a coefficient that is 0 mod p does not raise the degree
    assert parse_field("GF(9):3*y^3+y^2+1").modulus == (1, 0, 1)
    assert parse_field("GF(5):y+y^4-y^4").modulus == (0, 1)
    # terms above the degree are summed apart, with no list sized to them
    assert parse_field("GF(8):y^3+y+1+y^1000000000-y^1000000000").modulus == (1, 1, 0, 1)
    with pytest.raises(ParseError):
        parse_field("GF(4):2*y^2+y+1")  # degree 1 over F_2
    with pytest.raises(ParseError):
        parse_field("GF(4):y^2+a*y+1")  # a^k is not a prime-field integer
    with pytest.raises(ParseError):
        parse_field("GF(9):2*y^2+1")  # not monic


@pytest.mark.parametrize("text", [
    "GF(512)", "GF(65537)", "GF(1024):y^10+y^3+1", "GF(65537):y+1", "GF(1000000007)",
])
def test_parse_field_size_cap(text):
    with pytest.raises(BadParameters):
        parse_field(text)


def test_field_to_str_roundtrip(F4, F8):
    for f in (F4, F8):
        assert parse_field(field_to_str(f)) == f


def test_parse_element(F4, F8):
    assert parse_element(F4, "0") == F4.zero
    assert parse_element(F4, "1") == F4.one
    assert parse_element(F4, "a") == F4.gen
    assert parse_element(F8, "a^5") == F8.gen ** 5
    assert parse_element(F4, "3") == F4.one  # 3 mod 2
    with pytest.raises(ParseError):
        parse_element(F4, "b")


def test_parse_poly_term_orders(F4):
    p1 = parse_poly(F4, "1+a*x+x^2")
    p2 = parse_poly(F4, "x^2 + a x + 1")
    p3 = parse_poly(F4, "x^2+ax+1")
    assert p1 == p2 == p3
    assert parse_poly(F4, "0").is_zero()


def test_star_needs_a_factor_on_each_side(F4, sig27):
    for text in ("*x", "a*", "x*", "1+*x^2", "a^2 *"):
        with pytest.raises(ParseError):
            parse_poly(F4, text)
    with pytest.raises(ParseError):
        parse_field("GF(4):*y^2+y+1")
    for text in ("z*", "1+z^2*", "*z"):
        with pytest.raises(ParseError):
            parse_skew(sig27, text)
    assert parse_poly(F4, "a * x^2") == parse_poly(F4, "a*x^2") == parse_poly(F4, "a x^2")
    assert parse_skew(sig27, "z * (x)") == parse_skew(sig27, "z(x)")


def test_parse_ring_element_reduces(ctx27):
    a = parse_ring_element(ctx27, "x^7")
    assert a == ctx27.one
    b = parse_ring_element(ctx27, "1+x^2+x^3+x^4")
    assert str(b) == "1+x^2+x^3+x^4"


def test_parse_skew_roundtrip(sig27, poly_g, poly_v):
    for f in (poly_g, poly_v):
        assert parse_skew(sig27, str(f)) == f
    z_only = parse_skew(sig27, "z^2")
    assert z_only.degree == 2 and z_only.coeff(2) == sig27.context.one
    bare_z = parse_skew(sig27, "z")
    assert bare_z.degree == 1
    with pytest.raises(ParseError):
        parse_skew(sig27, "z^(2")


def test_parse_skew_parenthesized_constant_terms(sig27):
    ctx = sig27.context
    x2 = parse_ring_element(ctx, "1+x+x^2")
    want = SkewPoly(sig27, [x2, parse_ring_element(ctx, "x")])
    assert parse_skew(sig27, "(1+x)+(x^2) + z*(x)") == want
    assert parse_skew(sig27, "(1+x)+x^2 + z") == SkewPoly(sig27, [x2, ctx.one])
    assert parse_skew(sig27, "z*(x) - (1+x+x^2)") == want


def test_parse_skew_golden_literals(sig27):
    """Each golden literal reads as its z-coefficients parsed one by one."""
    ctx = sig27.context
    for text in load_default_fixtures()["skew_F2n7"].values():
        const, *rest = text.split(" + z")
        coeffs = [parse_ring_element(ctx, const)]
        for j, term in enumerate(rest, start=1):
            head = "*(" if j == 1 else f"^{j}*("
            assert term.startswith(head) and term.endswith(")")
            coeffs.append(parse_ring_element(ctx, term[len(head):-1]))
        assert parse_skew(sig27, text) == SkewPoly(sig27, coeffs)
        assert parse_skew(sig27, f"({const})" + text[len(const):]) == SkewPoly(sig27, coeffs)


def test_z_exponent_cap(sig27, F4):
    """z-exponents, and the exponents of a plain polynomial, up to
    MAX_Z_DEGREE read as usual; terms above it are summed apart and must
    cancel, as the y-terms of a field modulus do."""
    top = MAX_Z_DEGREE
    assert parse_skew(sig27, f"1+z^{top}*(x)").degree == top
    assert parse_skew(sig27, f"1+z^{top + 1}*(x)+z^{top + 1}*(x)") == SkewPoly.one(sig27)
    assert parse_skew(sig27, f"z^{10 ** 9}-z^{10 ** 9}") == SkewPoly.zero(sig27)
    with pytest.raises(ParseError, match=f"in z exceeds {top}"):
        parse_skew(sig27, f"1+z^{top + 1}")
    entries = [[f"1+z^{top}", f"a+z^{top + 1}-z^{top + 1}"]]
    M = matrix_from_dict(F4, {"rows": 1, "cols": 2, "entries": entries})
    assert matrix_to_dict(M)["entries"] == [[f"1+z^{top}", "a"]]
    with pytest.raises(ParseError, match=f"in z exceeds {top}"):
        matrix_from_dict(F4, {"rows": 1, "cols": 1, "entries": [[f"z^{top + 1}"]]})
    assert parse_poly(F4, f"1+x^{top}").degree == top
    with pytest.raises(ParseError, match=f"in x exceeds {top}"):
        parse_poly(F4, "x^2000000")


def test_parse_sigma_forms(ctx27):
    s1 = parse_sigma(ctx27, "x^5")
    s2 = parse_sigma(ctx27, "sigma:x^5")
    assert s1 == s2
    s3 = parse_sigma(ctx27, "perm:(1)(2,3)")
    assert s3.perm == (1, 3, 2)
    with pytest.raises(ParseError):
        parse_sigma(ctx27, "perm:(1)(2 3")


@pytest.mark.parametrize(
    "text",
    ["perm:(1,9)", "perm:(0,1)", "perm:(4)", "perm:(2,3)(2,3)", "perm:(2,2)", "perm:(1)(1)"],
)
def test_parse_sigma_rejects_bad_permutation_indices(ctx27, text):
    """GF(2) n=7 has r = 3 components: an index outside 1..3 or repeated
    across the cycles is a ParseError, not an IndexError or a silent merge."""
    with pytest.raises(ParseError):
        parse_sigma(ctx27, text)


def test_matrix_roundtrip(F4):
    entries = [["1+z^2", "a*z"], ["0", "a^2"]]
    M = matrix_from_dict(F4, {"rows": 2, "cols": 2, "entries": entries})
    assert matrix_to_dict(M)["entries"] == [["1+z^2", "a*z"], ["0", "a^2"]]
    with pytest.raises(ParseError):
        matrix_from_dict(F4, {"rows": 2, "cols": 2, "entries": [["1"]]})


def test_odd_characteristic_minus():
    F3 = parse_field("GF(3)")
    p = parse_poly(F3, "x^2-x-1")
    q = parse_poly(F3, "x^2+2*x+2")
    assert p == q
