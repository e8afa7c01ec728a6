import hashlib
import itertools
import random
import time

import pytest

from helpers import (
    PINNED_FIELDS,
    cyclotomic_coset_sizes,
    factor_squarefree_trial,
    field_tables_by_residues,
    poly_ext_gcd_by_polys,
)
from skewcyclic import make_field, poly_gcd, factor_xn_minus_1
from skewcyclic.errors import (
    BadParameters,
    BothZero,
    DivisionByZero,
    LengthNotCoprime,
    MixedFields,
    NonPrimeCharacteristic,
    ReducibleModulus,
)
from skewcyclic.fields import (
    MAX_FIELD_SIZE,
    FieldSpec,
    Poly,
    cross_difference,
    is_irreducible,
    monic_polys,
    poly_ext_gcd,
)


def test_make_field_prime():
    F2 = make_field(2, 1, [0, 1])
    assert F2.q == 2 and F2.gen == F2.one


def test_make_field_f4_generator_relation(F4):
    a = F4.gen
    assert a * a + a + F4.one == F4.zero  # a^2 + a + 1 = 0
    assert a ** 3 == F4.one


def test_make_field_f8_generator_relation(F8):
    a = F8.gen
    assert a ** 3 + a + F8.one == F8.zero  # a^3 + a + 1 = 0
    assert a ** 7 == F8.one


def test_make_field_rejects_nonprime():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1, [0, 1])


def test_make_field_rejects_reducible():
    # y^2 + 1 = (y+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])


def test_element_arithmetic_goldens(F4, F8):
    a = F4.gen
    assert a * a ** 2 == F4.one
    assert a + a ** 2 == F4.one
    b = F8.gen
    assert b * b ** 2 == b + F8.one  # a^3 = a + 1


def test_division_and_negative_powers(F4):
    a = F4.gen
    assert a / a == F4.one
    assert a ** -1 == a.inv()
    assert a ** -2 == (a * a).inv()
    with pytest.raises(DivisionByZero):
        F4.zero.inv()
    with pytest.raises(DivisionByZero):
        F4.zero ** -1


def test_mixed_fields_rejected(F4, F8):
    with pytest.raises(MixedFields):
        F4.gen + F8.gen


@pytest.mark.parametrize("p,deg,modulus", [
    (2, 1, None), (3, 1, None), (5, 1, None),
    (2, 2, [1, 1, 1]), (2, 3, [1, 1, 0, 1]), (3, 2, None),
    (2, 4, None), (2, 6, None), (5, 2, None),
])
def test_field_axioms_exhaustive(p, deg, modulus):
    """Associativity, commutativity, distributivity, inverses for q <= 64."""
    field = make_field(p, deg, modulus)
    q = field.q
    assert q <= 64
    mul, add, inv, neg = field._mul, field._add, field._inv, field._neg
    for x in range(q):
        assert add[x][neg[x]] == 0
        assert mul[x][1] == x and add[x][0] == x
        if x:
            assert mul[x][inv[x]] == 1
            assert field.pow_c(x, q - 1) == 1
        for y in range(q):
            assert mul[x][y] == mul[y][x]
            assert add[x][y] == add[y][x]
    for x in range(q):
        for y in range(q):
            for z in range(q):
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
                assert add[add[x][y]][z] == add[x][add[y][z]]
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]


def test_factor_x7_minus_1_over_f2(F2):
    fs = factor_xn_minus_1(F2, 7)
    assert [f.to_str("x") for f in fs] == ["1+x", "1+x+x^3", "1+x^2+x^3"]


def test_factor_x3_minus_1_over_f4(F4):
    fs = factor_xn_minus_1(F4, 3)
    assert [f.to_str("x") for f in fs] == ["1+x", "a+x", "a^2+x"]


def test_factor_x5_minus_1_over_f4(F4):
    fs = factor_xn_minus_1(F4, 5)
    assert [f.to_str("x") for f in fs] == ["1+x", "1+a*x+x^2", "1+a^2*x+x^2"]


def test_factor_rejects_noncoprime(F2, F4):
    with pytest.raises(LengthNotCoprime):
        factor_xn_minus_1(F2, 2)
    with pytest.raises(LengthNotCoprime):
        factor_xn_minus_1(F4, 6)


@pytest.mark.parametrize("spec,n", [
    ((2, 1, None), 7), ((2, 1, None), 15), ((2, 1, None), 9),
    ((2, 2, (1, 1, 1)), 3), ((2, 2, (1, 1, 1)), 5), ((2, 2, (1, 1, 1)), 9),
    ((2, 3, (1, 1, 0, 1)), 7), ((3, 1, None), 8), ((5, 1, None), 6),
])
def test_factor_properties_and_oracle(spec, n):
    field = make_field(*spec)
    fs = factor_xn_minus_1(field, n)
    target = Poly.x_pow_n_minus_1(field, n)
    prod = Poly.one(field)
    for f in fs:
        assert is_irreducible(f)
        assert f.lc() == 1
        prod = prod * f
    assert prod == target
    for f, g in itertools.combinations(fs, 2):
        assert f != g
        assert poly_gcd(f, g) == Poly.one(field)
    # independent oracle: trial division in lex order
    assert list(fs) == factor_squarefree_trial(target)


# (p, deg) of every field with q <= MAX_FIELD_SIZE
PRIME_POWERS = [
    (p, deg)
    for p in range(2, MAX_FIELD_SIZE + 1)
    if all(p % r for r in range(2, p))
    for deg in range(1, MAX_FIELD_SIZE.bit_length())
    if p ** deg <= MAX_FIELD_SIZE
]


def test_factor_degrees_are_cyclotomic_coset_sizes():
    """Over every field with q <= 256 (default modulus) and every n <= 15
    coprime to q: the factor degrees are the sizes of the q-cyclotomic
    cosets mod n and every factor is monic.  Where trial division is cheap
    (q^d <= 256 for the largest degree d), the factors are the trial ones."""
    assert len(PRIME_POWERS) == 70
    trial_cells = 0
    for p, deg in PRIME_POWERS:
        field = make_field(p, deg)
        for n in range(1, 16):
            if n % p == 0:
                continue
            fs = factor_xn_minus_1(field, n)
            sizes = cyclotomic_coset_sizes(field.q, n)
            assert sorted(int(f.degree) for f in fs) == sizes, (field.q, n)
            assert all(f.lc() == 1 for f in fs)
            if field.q ** sizes[-1] <= 256:
                trial_cells += 1
                assert list(fs) == factor_squarefree_trial(Poly.x_pow_n_minus_1(field, n))
    assert trial_cells == 371


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factor_matches_sympy_over_prime_fields(p):
    """factor_xn_minus_1 against sympy, an oracle outside the package, for
    every n <= 40 coprime to p: the same monic irreducible factors, each
    once.  sympy prints coefficients mod p symmetrically, so they are read
    mod p; a prime field's codes are the residues."""
    import sympy

    x = sympy.Symbol("x")
    field = make_field(p, 1)
    cells = 0
    for n in range(1, 41):
        if n % p == 0:
            continue
        lc, parts = sympy.Poly(x ** n - 1, x, modulus=p).factor_list()
        assert int(lc) % p == 1 and all(m == 1 for _, m in parts), (p, n)
        expected = sorted(tuple(int(c) % p for c in reversed(f.all_coeffs())) for f, _ in parts)
        assert sorted(f.codes for f in factor_xn_minus_1(field, n)) == expected, (p, n)
        cells += 1
    assert cells == 40 - 40 // p


@pytest.mark.parametrize("p,n", [(2, 239), (5, 312)])
def test_factor_long_lengths_match_sympy(p, n):
    """Two long lengths against sympy: GF(2) n = 239 (two factors of
    degree 119) and GF(5) n = 312 (24 divisors, factors of degree 1 to 12)."""
    import sympy

    x = sympy.Symbol("x")
    lc, parts = sympy.Poly(x ** n - 1, x, modulus=p).factor_list()
    assert int(lc) % p == 1 and all(m == 1 for _, m in parts)
    expected = sorted(tuple(int(c) % p for c in reversed(f.all_coeffs())) for f, _ in parts)
    assert sorted(f.codes for f in factor_xn_minus_1(make_field(p, 1), n)) == expected


@pytest.mark.parametrize("p,deg,n", [(2, 4, 255), (2, 8, 239)])
def test_factor_long_lengths_coset_sizes(p, deg, n):
    """GF(16) n = 255 and GF(256) n = 239: monic factors whose degrees are
    the q-cyclotomic coset sizes mod n, and whose product is x^n - 1."""
    field = make_field(p, deg)
    fs = factor_xn_minus_1(field, n)
    assert sorted(int(f.degree) for f in fs) == cyclotomic_coset_sizes(field.q, n)
    assert all(f.lc() == 1 for f in fs)
    prod = Poly.one(field)
    for f in fs:
        prod = prod * f
    assert prod == Poly.x_pow_n_minus_1(field, n)


FACTOR_PIN_SHA256 = "73b3f47cf3701bb3067deac210f117415f6a61af7ee5083201517f651e6fb73c"


def test_factor_outputs_pinned():
    """The factor codes of x^n - 1, byte for byte: every n <= 24 coprime to
    q over the pinned fields, and GF(2) n = 255, GF(3) n = 242.  The monic
    irreducible factors are unique and their order is fixed by the sort, so
    these bytes do not depend on how x^n - 1 is split."""
    out = []
    for p, deg in PINNED_FIELDS:
        field = make_field(p, deg)
        for n in range(1, 25):
            if n % p:
                out.append((field.q, n, [f.codes for f in factor_xn_minus_1(field, n)]))
    for p, n in ((2, 255), (3, 242)):
        out.append((p, n, [f.codes for f in factor_xn_minus_1(make_field(p, 1), n)]))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == FACTOR_PIN_SHA256


def test_poly_gcd_examples(F2, F4):
    x = Poly.x(F4)
    one = Poly.one(F4)
    f = x * x - one
    g = x - one
    assert poly_gcd(f, g) == g.monic()
    assert poly_gcd(f, one) == one
    f2a = Poly(F2, (1, 1, 0, 1))  # x^3+x+1
    f2b = Poly(F2, (1, 0, 1, 1))  # x^3+x^2+1
    assert poly_gcd(f2a, f2b) == Poly.one(F2)
    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(F2), Poly.zero(F2))


@pytest.mark.parametrize("p,deg", PINNED_FIELDS)
def test_ext_gcd_matches_poly_euclid(p, deg):
    """The code-list poly_ext_gcd returns the (d, u) of the same Euclid on
    Poly objects (helpers.poly_ext_gcd_by_polys), on random pairs: coprime
    and not (a common factor of degree 1-3 multiplied in), either degree
    the larger, f = 0 and g = 0; gcd(0, 0) raises BothZero on both."""
    field = make_field(p, deg)
    rng = random.Random(f"ext-gcd:{p}:{deg}")

    def rand(lo, hi):
        return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(lo, hi))] + [1])

    zero = Poly.zero(field)
    pairs = [(zero, rand(0, 4)), (rand(0, 4), zero), (rand(5, 8), rand(0, 4))]
    for _ in range(30):
        f, g = rand(0, 6), rand(0, 6)
        if rng.random() < 0.4:
            c = rand(1, 3)
            f, g = f * c, g * c
        pairs.append((f.scale(rng.randrange(1, field.q)), g.scale(rng.randrange(1, field.q))))
    shared = 0
    for f, g in pairs:
        d, u = poly_ext_gcd(f, g)
        assert (d, u) == poly_ext_gcd_by_polys(f, g), (f, g)
        assert d.lc() == 1 and (f % d).is_zero() and (g % d).is_zero()
        if not g.is_zero():
            assert ((u * f - d) % g).is_zero()
        shared += d.degree > 0
    assert shared > 0
    for ext_gcd in (poly_ext_gcd, poly_ext_gcd_by_polys):
        with pytest.raises(BothZero):
            ext_gcd(zero, zero)


def test_poly_divmod_roundtrip(F4):
    import random

    rng = random.Random(7)
    for _ in range(200):
        f = Poly(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 8))])
        g = Poly(F4, [rng.randrange(4) for _ in range(rng.randrange(1, 5))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_monic_polys_order(F4):
    first = list(itertools.islice(monic_polys(F4, 1), 4))
    assert [p.to_str("x") for p in first] == ["x", "1+x", "a+x", "a^2+x"]


def test_element_display(F4, F8):
    assert str(F4.zero) == "0"
    assert str(F4.one) == "1"
    assert str(F4.gen) == "a"
    assert str(F8.gen ** 5) == "a^5"


@pytest.mark.parametrize("p,deg", PINNED_FIELDS)
def test_tables_match_residue_arithmetic(p, deg):
    """The digit-wise sums and the a*y^i products give the tables of Poly
    residue arithmetic mod the modulus: for every monic irreducible modulus
    of the fields with q <= 64 (every monic linear one for GF(p)), and for
    the default modulus of the larger ones."""
    if p ** deg <= 64:
        moduli = [f.codes for f in monic_polys(make_field(p, 1), deg) if is_irreducible(f)]
    else:
        moduli = [make_field(p, deg).modulus]
    for modulus in moduli:
        field = FieldSpec(p, deg, modulus)
        assert (field._add, field._mul, field._neg) == field_tables_by_residues(field), modulus


@pytest.mark.parametrize("spec", [(2, 1, None), (2, 2, None), (3, 1, None), (3, 2, None), (5, 1, None)])
def test_poly_ops_match_coefficient_arithmetic(spec):
    """Sum, difference, negation, product, a*b - c*d and division with
    remainder against coefficient-by-coefficient table arithmetic, with
    leading terms that cancel."""
    field = make_field(*spec)
    q = field.q
    rng = random.Random(f"poly ops {q}")

    def rand():
        return Poly(field, [rng.randrange(q) for _ in range(rng.randrange(0, 6))])

    def coeffwise(op, f, g):
        pairs = itertools.zip_longest(f.codes, g.codes, fillvalue=0)
        return Poly(field, [op(x, y) for x, y in pairs])

    def product(f, g):
        out = [0] * (len(f.codes) + len(g.codes))
        for i, x in enumerate(f.codes):
            for j, y in enumerate(g.codes):
                out[i + j] = field.add_c(out[i + j], field.mul_c(x, y))
        return Poly(field, out)

    for _ in range(150):
        f, g, h, k = rand(), rand(), rand(), rand()
        for a, b in ((f, g), (f, f), (f, f + Poly(field, [rng.randrange(q)]))):
            assert a + b == coeffwise(field.add_c, a, b)
            assert a - b == coeffwise(field.sub_c, a, b)
            assert -a == coeffwise(field.sub_c, Poly.zero(field), a)
            assert a * b == product(a, b)
        assert cross_difference(f, g, h, k) == coeffwise(field.sub_c, product(f, g), product(h, k))
        assert cross_difference(f, g, g, f).is_zero()
        if g:
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.degree < g.degree
            assert quot.codes[-1:] != (0,) and rem.codes[-1:] != (0,)


# (p, deg) -> (default modulus, generator code), as built before the field
# tables were made from Poly arithmetic
DEFAULT_FIELDS = {
    (2, 1): ((0, 1), 1),
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 0, 1, 1), 2),
    (2, 4): ((1, 0, 0, 1, 1), 2),
    (2, 5): ((1, 0, 0, 1, 0, 1), 2),
    (2, 6): ((1, 0, 0, 0, 0, 1, 1), 2),
    (3, 1): ((0, 1), 2),
    (3, 2): ((1, 0, 1), 4),
    (3, 3): ((1, 0, 2, 1), 3),
    (3, 4): ((1, 0, 1, 1, 1), 10),
    (5, 1): ((0, 1), 2),
    (5, 2): ((1, 1, 1), 7),
    (7, 1): ((0, 1), 3),
    (7, 2): ((1, 0, 1), 9),
}


@pytest.mark.parametrize("p,deg", sorted(DEFAULT_FIELDS))
def test_default_modulus_and_generator(p, deg):
    field = make_field(p, deg)
    assert (field.modulus, field.generator_code) == DEFAULT_FIELDS[(p, deg)]


# every monic irreducible of degree 2-4 over GF(2), 2-3 over GF(3) and 2
# over GF(5), with the generator code of its field
IRREDUCIBLE_MODULI = {
    (2, (1, 1, 1)): 2,
    (2, (1, 0, 1, 1)): 2,
    (2, (1, 1, 0, 1)): 2,
    (2, (1, 0, 0, 1, 1)): 2,
    (2, (1, 1, 0, 0, 1)): 2,
    (2, (1, 1, 1, 1, 1)): 3,
    (3, (1, 0, 1)): 4,
    (3, (2, 1, 1)): 3,
    (3, (2, 2, 1)): 3,
    (3, (1, 0, 2, 1)): 3,
    (3, (1, 1, 2, 1)): 3,
    (3, (1, 2, 0, 1)): 3,
    (3, (1, 2, 1, 1)): 3,
    (3, (2, 0, 1, 1)): 5,
    (3, (2, 1, 1, 1)): 4,
    (3, (2, 2, 0, 1)): 6,
    (3, (2, 2, 2, 1)): 4,
    (5, (1, 1, 1)): 7,
    (5, (1, 4, 1)): 6,
    (5, (2, 0, 1)): 6,
    (5, (2, 1, 1)): 5,
    (5, (2, 4, 1)): 5,
    (5, (3, 0, 1)): 7,
    (5, (3, 2, 1)): 5,
    (5, (3, 3, 1)): 5,
    (5, (4, 2, 1)): 8,
    (5, (4, 3, 1)): 6,
}


def test_every_small_monic_modulus_accepted_or_rejected():
    """All 89 monic moduli: the irreducible ones build their field, every
    other one raises ReducibleModulus."""
    seen = 0
    for p, degs in ((2, (2, 3, 4)), (3, (2, 3)), (5, (2,))):
        for deg in degs:
            for tail in itertools.product(range(p), repeat=deg):
                modulus = tail + (1,)
                seen += 1
                if (p, modulus) in IRREDUCIBLE_MODULI:
                    field = make_field(p, deg, modulus)
                    assert field.generator_code == IRREDUCIBLE_MODULI[(p, modulus)]
                else:
                    with pytest.raises(ReducibleModulus):
                        make_field(p, deg, modulus)
    assert seen == 89


@pytest.mark.parametrize("build", [
    lambda: make_field(2, 9),
    lambda: make_field(3, 6),
    lambda: make_field(257, 1),
    lambda: make_field(65537, 1),
    lambda: make_field(2, 10 ** 9),
    lambda: make_field(2, 0),
    lambda: make_field(3, -1),
    lambda: make_field(2, 10, (1, 0, 0, 1) + (0,) * 6 + (1,)),
    lambda: FieldSpec(2, 9, (1, 1) + (0,) * 7 + (1,)),
    lambda: FieldSpec(2, 0, (1,)),
], ids=["2^9", "3^6", "257", "65537", "2^huge", "deg-0", "deg-negative",
        "modulus-2^10", "spec-2^9", "spec-deg-0"])
def test_field_size_cap(build):
    """q > MAX_FIELD_SIZE and deg < 1 fail before any table is built."""
    start = time.perf_counter()
    with pytest.raises(BadParameters):
        build()
    assert time.perf_counter() - start < 0.5


def test_field_size_cap_admits_the_largest_prime():
    assert MAX_FIELD_SIZE == 256
    assert make_field(251, 1).q == 251


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_element_eq_hash_contract(spec):
    """x == y implies hash(x) == hash(y), elements against elements and ints."""
    field = make_field(*spec)
    items = list(field.elements()) + list(range(-field.p, 2 * field.p + 1))
    for x in items:
        for y in items:
            if x == y:
                assert hash(x) == hash(y)
    assert 1 in {field.one} and field.one in {1}
    assert field.zero == 0 and field.one == 1
    assert field.one != field.p + 1 and field.zero != field.p and field.one != 1 - field.p


@pytest.mark.parametrize("spec", [(2, 2), (3, 2), (5, 1)])
def test_element_subtraction_and_truth(spec):
    """x - y is the y with (x - y) + y = x; an element is true iff nonzero."""
    field = make_field(*spec)
    elements = list(field.elements())
    for x in elements:
        assert bool(x) == (x != field.zero)
        assert x - x == field.zero and field.zero - x == -x
        for y in elements:
            assert (x - y) + y == x


@pytest.mark.parametrize("e", [-1, -5])
def test_pow_mod_refuses_negative_exponent(e):
    """A negative power has no meaning for a polynomial that may not be
    invertible mod the modulus: BadParameters, not the constant 1."""
    F3 = make_field(3, 1)
    f, mod = Poly(F3, [1, 1]), Poly(F3, [1, 0, 1])
    with pytest.raises(BadParameters, match="negative exponent"):
        f.pow_mod(e, mod)
    assert f.pow_mod(0, mod) == Poly.one(F3)
    assert f.pow_mod(5, mod) == f * f * f * f * f % mod
