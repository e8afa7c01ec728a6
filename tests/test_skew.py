import itertools
import math
import random

import pytest

from helpers import (
    SWEEP_CONTEXTS,
    Monomial,
    generator_rows_by_products,
    inverse_degree_bound,
    is_reduced_by_terms,
    is_unit_by_components,
    leading_monomial,
    module_determinant,
    module_unit_inverse,
    skew_product_by_terms,
    unit_inverse_by_solving,
    x_multiples_by_products,
)
from skewcyclic import (
    Automorphism,
    RingContext,
    decompose_into_elementary,
    elementary_unit,
    elementary_unit_inverse,
    enumerate_automorphisms,
    find_automorphism_for_permutation,
    generator_matrix,
    identity_automorphism,
    is_elementary_unit,
    make_field,
    permutation_from_cycles,
    simple_unit,
    unit_product,
)
from skewcyclic.errors import (
    BadParameters,
    FixedIdempotent,
    MixedAlgebras,
    NonUnitScalar,
    NotAUnit,
    ZeroPolynomial,
)
from skewcyclic.literals import parse_field
from skewcyclic.skew import SkewPoly, x_multiples


def _random_skew(rng, sig, max_deg):
    ctx = sig.context
    q, n = ctx.field.q, ctx.n
    deg = rng.randrange(max_deg + 1)
    return SkewPoly(
        sig,
        [ctx.from_codes([rng.randrange(q) for _ in range(n)]) for _ in range(deg + 1)],
    )


def test_shift_goldens(sig27, poly_g):
    ctx = sig27.context
    x = SkewPoly.constant(sig27, ctx.x)
    xg = x * poly_g
    assert xg == SkewPoly(
        sig27,
        (
            ctx.element([0, 1, 0, 1, 1, 1]),
            ctx.element([1, 1, 0, 1, 0, 0, 1]),
            ctx.element([0, 1, 0, 1, 1, 1]),
        ),
    )
    x2g = x * xg
    assert x2g == SkewPoly(
        sig27,
        (
            ctx.element([0, 0, 1, 0, 1, 1, 1]),
            ctx.element([0, 1, 0, 0, 1, 1, 1]),
            ctx.element([1, 1, 1, 0, 0, 1]),
        ),
    )
    assert x * x2g == poly_g + x2g  # x^3 g = g + x^2 g


def test_zx_squared(sig27):
    ctx = sig27.context
    zx = SkewPoly.z_power(sig27, 1, ctx.x)
    x6 = ctx.element([0, 0, 0, 0, 0, 0, 1])
    assert zx * zx == SkewPoly.z_power(sig27, 2, x6)


def test_twist_rule_az_equals_z_sigma_a(sig27, sig43):
    rng = random.Random(3)
    for sig in (sig27, sig43):
        ctx = sig.context
        z = SkewPoly.z_power(sig, 1)
        for _ in range(50):
            a = ctx.from_codes(
                [rng.randrange(ctx.field.q) for _ in range(ctx.n)]
            )
            ac = SkewPoly.constant(sig, a)
            assert ac * z == z * SkewPoly.constant(sig, sig.apply(a))


def test_idempotent_transport(sig27, sig87):
    for sig in (sig27, sig87):
        ctx = sig.context
        z = SkewPoly.z_power(sig, 1)
        for k in range(1, ctx.r + 1):
            ek = SkewPoly.constant(sig, ctx.idempotent(k))
            img = SkewPoly.constant(sig, ctx.idempotent(sig.perm[k - 1]))
            assert ek * z == z * img


def test_components_of_g(sig27, poly_g):
    ctx = sig27.context
    assert poly_g.component(1) == SkewPoly.zero(sig27)
    assert poly_g.component(2) == SkewPoly.zero(sig27)
    assert poly_g.component(3) == poly_g
    assert poly_g.support() == (3,)
    # explicit component form: eps3(1+x+x^2) + z eps2 x + z^2 eps3 x
    e2, e3, x = ctx.idempotent(2), ctx.idempotent(3), ctx.x
    want = SkewPoly(
        sig27, (e3 * ctx.element([1, 1, 1]), e2 * x, e3 * x)
    )
    assert poly_g == want


def test_components_of_v(sig27, poly_v):
    ctx = sig27.context
    e1, e2, e3 = (ctx.idempotent(k) for k in (1, 2, 3))
    assert poly_v.component(1) == SkewPoly.constant(sig27, e1)
    assert poly_v.component(2) == SkewPoly(
        sig27, (e2 * ctx.element([1, 1, 1]), e3)
    )
    assert poly_v.support() == (1, 2, 3)
    assert sum(
        (poly_v.component(k) for k in (1, 2, 3)), SkewPoly.zero(sig27)
    ) == poly_v


def test_support_of_one(sig27):
    assert SkewPoly.one(sig27).support() == (1, 2, 3)


def test_leading_monomial(sig43, sig27, poly_g):
    ctx = sig43.context
    f = SkewPoly(sig43, (ctx.idempotent(2), ctx.idempotent(3)))
    lm, coeff = leading_monomial(f)
    assert lm == Monomial(1, 3)
    assert coeff == ctx.idempotent(3)
    g1 = SkewPoly.constant(sig43, ctx.idempotent(1))
    assert leading_monomial(g1)[0] == Monomial(0, 1)
    lm_g, coeff_g = leading_monomial(poly_g)
    assert lm_g == Monomial(2, 3)
    assert coeff_g == sig27.context.idempotent(3) * sig27.context.x
    with pytest.raises(ZeroPolynomial):
        leading_monomial(SkewPoly.zero(sig43))


def test_monomial_order():
    assert Monomial(0, 3) < Monomial(1, 1)
    assert Monomial(1, 1) < Monomial(1, 2)


def test_is_reduced(sig27, poly_g, poly_v):
    assert poly_g.is_reduced()  # components always are
    assert SkewPoly.one(sig27).is_reduced()
    assert not poly_v.is_reduced()  # nonconstant units never are


def _sparse_skew(rng, sig, max_deg):
    """sum of parts z^nu a eps_j, a random, each (nu, j) present with
    probability 2.5 / r, so both reduced and non-reduced sums are common."""
    ctx = sig.context
    q, n, r = ctx.field.q, ctx.n, ctx.r
    coeffs = []
    for _ in range(rng.randrange(max_deg + 1) + 1):
        c = ctx.zero
        for j in range(1, r + 1):
            if rng.random() < 2.5 / r:
                a = ctx.from_codes([rng.randrange(q) for _ in range(n)])
                c = c + a * ctx.idempotent(j)
        coeffs.append(c)
    return SkewPoly(sig, coeffs)


def test_is_reduced_sweep_matches_term_oracle():
    """is_reduced, read off the sigma-cycles, against the term-by-term
    definition, on 180 sparse random sums per context over GF(2) n=7 and
    15, GF(4) n=3 and 5, GF(3) n=4 and 8, GF(5) n=4, GF(9) n=4 and
    GF(8) n=7, each twisted by a random automorphism.  Every reduced one
    also has its generator matrix checked against rows formed by skew
    multiplication."""
    rng = random.Random(71)
    for field_text, n in SWEEP_CONTEXTS:
        ctx = RingContext(parse_field(field_text), n)
        sigmas = enumerate_automorphisms(ctx)
        outcomes = {True: 0, False: 0}
        for _ in range(180):
            f = _sparse_skew(rng, rng.choice(sigmas), 3)
            reduced = f.is_reduced()
            assert reduced == is_reduced_by_terms(f), f
            outcomes[reduced] += 1
            if reduced and f:
                rows = generator_matrix(f).entries
                assert rows == tuple(generator_rows_by_products(f)), f
        assert min(outcomes.values()) >= 10, (field_text, n, outcomes)


def test_reduced_orthogonal_supports(sig87):
    ctx = sig87.context
    u1 = unit_product(sig87, 1, [ctx.one, ctx.scalar(ctx.field.gen)])
    u2 = unit_product(sig87, 3, [ctx.one])
    g = u1.component(1) + u2.component(3)
    assert g.is_reduced()


def test_mixed_algebras(sig27, sig43):
    with pytest.raises(MixedAlgebras):
        SkewPoly.one(sig27) * SkewPoly.one(sig43)


def test_associativity_distributivity_random(sig43, sig27):
    """Associativity on every triple of F-basis monomials z^j x^i (j up to
    the degree bound); distributivity and F-scalars on random triples.
    sigma fixes F, so F is central and the product is F-bilinear; with
    bilinearity, associativity on a basis covers every triple within the
    degree bound."""
    rng = random.Random(17)
    for sig, samples, max_deg in ((sig43, 1000, 2), (sig27, 1000, 1)):
        ctx = sig.context
        one = SkewPoly.one(sig)
        monomials = [
            SkewPoly.z_power(sig, j, ctx.from_codes([int(t == i) for t in range(ctx.n)]))
            for i in range(ctx.n)
            for j in range(max_deg + 1)
        ]
        for f, g, h in itertools.product(monomials, repeat=3):
            assert (f * g) * h == f * (g * h)
        for _ in range(samples):
            f = _random_skew(rng, sig, max_deg)
            g = _random_skew(rng, sig, max_deg)
            h = _random_skew(rng, sig, max_deg)
            c = SkewPoly.constant(sig, ctx.scalar(rng.randrange(1, ctx.field.q)))
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            assert (c * f) * g == c * (f * g) == f * (c * g)
        assert one * f == f == f * one


def test_component_orthogonality_random(sig43, sig27):
    """f^(k) g^(l) = 0 = g^(l) f^(k) for k, l in different cycles."""
    rng = random.Random(23)
    zero43 = SkewPoly.zero(sig43)
    for _ in range(10000):
        f = _random_skew(rng, sig43, 2)
        g = _random_skew(rng, sig43, 2)
        fk = f.component(1)
        gl = g.component(rng.choice((2, 3)))
        assert fk * gl == zero43
        assert gl * fk == zero43
    zero27 = SkewPoly.zero(sig27)
    for _ in range(2000):
        f = _random_skew(rng, sig27, 1)
        g = _random_skew(rng, sig27, 1)
        assert f.component(1) * g.component(2) == zero27
        assert g.component(3) * f.component(1) == zero27


def test_unit_inverse_golden(sig27, poly_v):
    ctx = sig27.context
    want = SkewPoly(
        sig27,
        (
            ctx.element([1, 0, 1, 1, 0, 1, 1]),
            ctx.element([0, 1, 1]),
            ctx.element([1, 0, 1, 0, 0, 1, 1]),
        ),
    )
    got = poly_v.unit_inverse()
    assert got == want
    one = SkewPoly.one(sig27)
    assert poly_v * want == one and want * poly_v == one


def test_source_misprint_of_v_inverse_is_not_an_inverse(sig27, poly_v):
    # the printed inverse drops the x^5 term of the constant coefficient;
    # it fails the defining equation, so the corrected value is golden
    ctx = sig27.context
    printed = SkewPoly(
        sig27,
        (
            ctx.element([1, 0, 1, 1, 0, 0, 1]),
            ctx.element([0, 1, 1]),
            ctx.element([1, 0, 1, 0, 0, 1, 1]),
        ),
    )
    assert poly_v * printed != SkewPoly.one(sig27)
    assert printed + SkewPoly.constant(sig27, ctx.element([0] * 5 + [1])) == poly_v.unit_inverse()


def test_unit_inverse_trivia(sig27, poly_g):
    one = SkewPoly.one(sig27)
    assert one.unit_inverse() == one
    assert not poly_g.is_unit()
    with pytest.raises(NotAUnit):
        poly_g.unit_inverse()
    with pytest.raises(NotAUnit):
        SkewPoly.zero(sig27).unit_inverse()


def test_zero_cycle_block_rejection(sig27, poly_g):
    # g vanishes on the whole cycle {1}? no; but eps2+eps3-supported elements
    # vanish on cycle (1): proven non-unit without any solving
    f = poly_g  # support {3}: cycle {2,3} is hit, cycle {1} is all zero
    assert f.component(1) == SkewPoly.zero(sig27)
    assert not f.is_unit()


def test_non_unit_constant_term_rejected(sig27):
    """Nonzero on every sigma-cycle, yet not a unit: the constant term
    eps1 + eps2 vanishes on component 3, and z = 0 maps units to units."""
    ctx = sig27.context
    e = ctx.idempotent
    f = SkewPoly(sig27, (e(1) + e(2), e(3)))
    assert all(any(f.component(j) for j in cyc) for cyc in sig27.cycles)
    assert not ctx.is_unit(f.constant_term)
    assert not f.is_unit()
    with pytest.raises(NotAUnit):
        f.unit_inverse()
    assert unit_inverse_by_solving(f) is None


def _sigma_by_cycles(field, n, cycles):
    ctx = RingContext(field, n)
    return find_automorphism_for_permutation(
        ctx, permutation_from_cycles(ctx.r, cycles)
    )


def test_unit_decision_agrees_with_linear_system_oracle(sig27, sig43, sig87):
    """is_unit and unit_inverse against one solve of f*g = 1 at the proven
    degree bound, over prime and extension fields of characteristic 2 and
    of odd characteristic.  Samples:
    units u = c * unit_product(...), non-units with a unit constant term
    u * (1 + z c e_C) with e_C the idempotent of a whole sigma-cycle (its
    e_C block has a unit leading coefficient, so degrees add there), and
    random f."""
    rng = random.Random(61)
    cases = (
        (sig27, 2, 2),
        (sig43, 3, 3),
        (sig87, 3, 3),
        (_sigma_by_cycles(make_field(3, 1), 4, [(1, 2)]), 3, 3),
        (_sigma_by_cycles(make_field(5, 1), 4, [(1, 2), (3, 4)]), 3, 3),
        (_sigma_by_cycles(make_field(3, 2), 4, [(2, 3, 4)]), 3, 3),
    )
    for sig, unit_deg, rand_deg in cases:
        ctx = sig.context
        one = SkewPoly.one(sig)
        moved = [min(c) for c in sig.cycles if len(c) > 1]
        samples = []
        for _ in range(10):
            c = SkewPoly.constant(sig, _some_units(ctx, rng, 1)[0])
            d = rng.randrange(unit_deg + 1)
            u = c * unit_product(sig, rng.choice(moved), _some_units(ctx, rng, d))
            cyc = rng.choice(sig.cycles)
            e_c = sum((ctx.idempotent(j) for j in cyc), ctx.zero)
            a = _some_units(ctx, rng, 1)[0] * e_c
            samples.append((u, True))
            samples.append((u * (one + SkewPoly.z_power(sig, 1, a)), False))
            samples.append((_random_skew(rng, sig, rand_deg), None))
        for f, built_as_unit in samples:
            want = unit_inverse_by_solving(f)
            assert f.is_unit() == (want is not None), f
            if built_as_unit is not None:
                assert f.is_unit() == built_as_unit, f
            if want is None:
                with pytest.raises(NotAUnit):
                    f.unit_inverse()
            else:
                assert f.unit_inverse() == want
                assert want * f == f * want == one, f


def _perturb(rng, f):
    """f with one field coefficient (of one x^i in one f_j) changed."""
    ctx = f.context
    field = ctx.field
    coeffs = list(f.coeffs)
    j, i = rng.randrange(len(coeffs)), rng.randrange(ctx.n)
    codes = list(coeffs[j].codes)
    codes[i] = field.add_c(codes[i], rng.randrange(1, field.q))
    coeffs[j] = ctx.from_codes(codes)
    return SkewPoly(f.sigma, coeffs)


def _unit_oracle_sigmas(sig45, sig87):
    """GF(2) n=7 with sigma = x^3 and with the identity, GF(4) n=5, GF(8)
    n=7 with (1,2)(3,4,5), GF(3) n=8 with (1,2)(3,4) and GF(9) n=4 with
    (2,3,4)."""
    ctx27 = RingContext(make_field(2, 1), 7)
    return (
        Automorphism(ctx27, ctx27.element([0, 0, 0, 1])),
        identity_automorphism(ctx27),
        sig45,
        sig87,
        _sigma_by_cycles(make_field(3, 1), 8, [(1, 2), (3, 4)]),
        _sigma_by_cycles(make_field(3, 2), 4, [(2, 3, 4)]),
    )


def test_module_matrix_matches_skew_products(sig45, sig87):
    """module_matrix, built by x_multiples, against rows vec(x^i f) formed
    by skew multiplication with x, on the unit-oracle contexts: random f
    of z-degree <= 3, the zero polynomial and units from unit_product."""
    rng = random.Random(73)
    for sig in _unit_oracle_sigmas(sig45, sig87):
        n = sig.context.n
        moved = [min(c) for c in sig.cycles if len(c) > 1]
        samples = [SkewPoly.zero(sig)] + [_random_skew(rng, sig, 3) for _ in range(6)]
        if moved:
            units = _some_units(sig.context, rng, 3)
            samples.append(unit_product(sig, rng.choice(moved), units))
        for f in samples:
            rows = [tuple(row) for row in f.module_matrix()]
            assert rows == x_multiples_by_products(f, n), (sig, f)


def _sweep_sigmas(ctx):
    """The identity, x -> x^t with t the least unit mod n above 1, and the
    permutation-built sigma that cycles the last degree class of two or more
    components."""
    t = next(t for t in range(2, ctx.n + 1) if math.gcd(t, ctx.n) == 1)
    cls = [c for c in ctx.degree_classes if len(c) > 1][-1]
    return (
        identity_automorphism(ctx),
        Automorphism(ctx, ctx.x ** t),
        find_automorphism_for_permutation(ctx, permutation_from_cycles(ctx.r, [cls])),
    )


def _mixed_skew(rng, sig, max_deg):
    """Random f of z-degree <= max_deg whose coefficients are, a third of the
    time each, zero, a field scalar or a random ring element."""
    ctx = sig.context
    q, n = ctx.field.q, ctx.n
    coeffs = []
    for _ in range(rng.randrange(max_deg + 1) + 1):
        kind = rng.randrange(3)
        if kind == 0:
            coeffs.append(ctx.zero)
        elif kind == 1:
            coeffs.append(ctx.scalar(rng.randrange(q)))
        else:
            coeffs.append(ctx.from_codes([rng.randrange(q) for _ in range(n)]))
    return SkewPoly(sig, coeffs)


@pytest.mark.parametrize(
    "field_text,n", [c for c in SWEEP_CONTEXTS if c != ("GF(2)", 15)], ids=str
)
def test_kernels_match_term_oracles_beyond_char_2(field_text, n):
    """SkewPoly.__mul__ against the term-wise product of helpers, and
    x_multiples against rows formed by term-wise products with x, over
    characteristics 2, 3 and 5: for the identity, an x^t and a
    permutation-built sigma, on the zero polynomial, constants and seeded f
    with zero coefficients.  x_multiples gives all n rows, the module
    matrix."""
    rng = random.Random(f"{field_text}:{n}")
    ctx = RingContext(parse_field(field_text), n)
    for sig in _sweep_sigmas(ctx):
        samples = [
            SkewPoly.zero(sig),
            SkewPoly.one(sig),
            SkewPoly.constant(sig, ctx.scalar(-1)),
            SkewPoly.z_power(sig, 2, ctx.x),
        ] + [_mixed_skew(rng, sig, 3) for _ in range(16)]
        for f in samples:
            for g in rng.sample(samples, 4) + [f]:
                assert f * g == skew_product_by_terms(f, g), (sig, f, g)
            rows = [tuple(row) for row in x_multiples(f, n)]
            assert rows == x_multiples_by_products(f, n), (sig, f)


def test_unit_decision_sweep_matches_whole_module_oracle(sig45, sig87):
    """Production is_unit and unit_inverse, which work one sigma-cycle at a
    time, against the whole n x n module matrix (its determinant, and one
    fraction-free solve for the inverse), on the contexts of
    _unit_oracle_sigmas.
    Samples: units c * unit_product(...) with c a unit constant, a
    one-coefficient perturbation of each, and for every sigma-cycle C the
    non-unit u * (1 + z a e_C), which fails on C alone (a fixed or a moved
    cycle; on C its leading coefficient is a unit, so degrees add)."""
    rng = random.Random(67)
    for sig in _unit_oracle_sigmas(sig45, sig87):
        ctx = sig.context
        one = SkewPoly.one(sig)
        moved = [min(c) for c in sig.cycles if len(c) > 1]
        samples = []
        for _ in range(8):
            u = SkewPoly.constant(sig, _some_units(ctx, rng, 1)[0])
            if moved:
                scalars = _some_units(ctx, rng, rng.randrange(4))
                u = u * unit_product(sig, rng.choice(moved), scalars)
            samples.append((u, True))
            samples.append((_perturb(rng, u), None))
            for cyc in sig.cycles:
                e_c = sum((ctx.idempotent(k) for k in cyc), ctx.zero)
                a = _some_units(ctx, rng, 1)[0] * e_c
                samples.append((u * (one + SkewPoly.z_power(sig, 1, a)), False))
        units = 0
        for f, built_as_unit in samples:
            unit = module_determinant(f).degree == 0
            if built_as_unit is not None:
                assert unit == built_as_unit, f
            assert f.is_unit() == unit, (sig, f)
            if unit:
                units += 1
                assert f.unit_inverse() == module_unit_inverse(f), (sig, f)
            else:
                with pytest.raises(NotAUnit):
                    f.unit_inverse()
        assert 0 < units < len(samples)


# the solving oracle runs while its unknowns n * (bound + 1) stay this few:
# GF(2) n=15 at z-degree 3 has 510 and takes ~0.6 s a call
MAX_SOLVED_UNKNOWNS = 200


@pytest.mark.parametrize("field_text,n", SWEEP_CONTEXTS, ids=str)
def test_unit_series_matches_cycle_and_solving_oracles(field_text, n):
    """The power-series is_unit and unit_inverse against
    helpers.is_unit_by_components (one determinant per sigma-cycle) and
    helpers.unit_inverse_by_solving (one F-linear solve at the proven bound,
    run while it has at most MAX_SOLVED_UNKNOWNS unknowns), for the
    identity, an x^t and a permutation-built sigma over characteristics 2,
    3 and 5, up to z-degree 3.  Samples: 0, 1, a constant idempotent, units
    u = c * prod over the moved cycles C of unit_product(C, d scalars) for
    d = 1, 2, 3, a one-coefficient perturbation of each, u * (1 + z a e_C)
    for every cycle C, random f, and a unit 1 + N with N nilpotent on each
    cycle of length three or more.  Over GF(4) n=5 and GF(2) n=15, sigma's
    map order exceeds its longest cycle, and the scan of some unit runs past
    that order, so the twist table wraps."""
    rng = random.Random(f"series:{field_text}:{n}")
    ctx = RingContext(parse_field(field_text), n)
    wraps = 0
    for sig in _sweep_sigmas(ctx):
        one = SkewPoly.one(sig)
        moved = [min(c) for c in sig.cycles if len(c) > 1]
        samples = [SkewPoly.zero(sig), one, SkewPoly.constant(sig, ctx.idempotent(1))]
        for d in (1, 2, 3):
            u = SkewPoly.constant(sig, _some_units(ctx, rng, 1)[0])
            for l in moved:
                u = u * unit_product(sig, l, _some_units(ctx, rng, d))
            samples += [u, _perturb(rng, u), _mixed_skew(rng, sig, 3)]
            if u.degree < 3:
                for cyc in sig.cycles:
                    e_c = sum((ctx.idempotent(k) for k in cyc), ctx.zero)
                    a = _some_units(ctx, rng, 1)[0] * e_c
                    samples.append(u * (one + SkewPoly.z_power(sig, 1, a)))
        for cyc in sig.cycles:
            if len(cyc) > 2:
                # N = z^2 (a eps_l + b eps_Pi^2(l)) has N^3 = 0, so 1 + N is a
                # unit of z-degree 2 whose inverse 1 - N + N^2 has z-degree 4
                a, b = _some_units(ctx, rng, 2)
                c = a * ctx.idempotent(cyc[0]) + b * ctx.idempotent(cyc[2])
                samples.append(one + SkewPoly.z_power(sig, 2, c))
        units = 0
        for f in samples:
            unit = is_unit_by_components(f)
            assert f.is_unit() == unit, (sig, f)
            if unit:
                got = f.unit_inverse()
                assert got * f == f * got == one, (sig, f)
            else:
                got = None
                with pytest.raises(NotAUnit):
                    f.unit_inverse()
            if n * (inverse_degree_bound(f) + 1) <= MAX_SOLVED_UNKNOWNS:
                assert got == unit_inverse_by_solving(f), (sig, f)
            else:
                assert not unit or got * f == f * got == one, (sig, f)
            units += unit
            if unit and sig.order > max(map(len, sig.cycles)):
                wraps += got.degree + f.degree >= sig.order
        assert 0 < units < len(samples), sig
    if (field_text, n) in (("GF(4):y^2+y+1", 5), ("GF(2)", 15)):
        assert wraps > 0


@pytest.mark.parametrize(
    "field_text,n,cycles",
    [
        ("GF(3)", 8, [(1, 2), (3, 4, 5)]),
        ("GF(8):y^3+y+1", 7, [(1, 2), (3, 4, 5)]),
        ("GF(5)", 4, [(1, 2), (3, 4)]),
        ("GF(9):y^2+1", 4, [(1, 2), (3, 4)]),
    ],
    ids=str,
)
def test_unit_decision_fails_on_each_moved_cycle(field_text, n, cycles):
    """_series_inverse bounds each moved sigma-cycle C by its own
    B_C = (dim_C - 1) d.  For units u = c * prod over the moved cycles of
    unit_product(C, d scalars), d = 1, 2, 3, and for the non-units
    u * (1 + z a e_C), which fail on one moved cycle C each, in turn, the
    decision and the inverse agree with helpers.is_unit_by_components (one
    determinant per cycle), and a unit's inverse is two-sided."""
    rng = random.Random(f"cycles:{field_text}:{n}")
    sig = _sigma_by_cycles(parse_field(field_text), n, cycles)
    ctx = sig.context
    one = SkewPoly.one(sig)
    moved = [c for c in sig.cycles if len(c) > 1]
    assert len(moved) == 2
    for d in (1, 2, 3):
        u = SkewPoly.constant(sig, _some_units(ctx, rng, 1)[0])
        for cyc in moved:
            u = u * unit_product(sig, cyc[0], _some_units(ctx, rng, d))
        assert is_unit_by_components(u) and u.is_unit(), u
        inverse = u.unit_inverse()
        assert inverse * u == u * inverse == one
        for cyc in moved:
            e_c = sum((ctx.idempotent(k) for k in cyc), ctx.zero)
            f = u * (one + SkewPoly.z_power(sig, 1, _some_units(ctx, rng, 1)[0] * e_c))
            assert not is_unit_by_components(f), (cyc, f)
            assert not f.is_unit(), (cyc, f)
            with pytest.raises(NotAUnit):
                f.unit_inverse()


def test_unit_inverse_above_a_smaller_cycle_bound():
    """Over GF(3) n=8 with sigma = (1,2)(3,4,5), N = z^2 (a eps_3 + b eps_5)
    has N^3 = 0 and N^2 = z^4 sigma^2(a) b eps_5 != 0, so 1 + N is a unit
    whose inverse 1 - N + N^2 has z-degree 4.  That is above
    B_(1,2) = (2 - 1) * 2 = 2, so the scan tests the (1,2) projection on a
    unit, and it must pass; on (3,4,5) the bound is (6 - 1) * 2 = 10."""
    sig = _sigma_by_cycles(make_field(3, 1), 8, [(1, 2), (3, 4, 5)])
    ctx = sig.context
    moved, _ = sig.unit_blocks
    assert [len(row) for row in moved] == [2, 6]
    a, b = ctx.element([1, 2, 0, 1]), ctx.element([2, 0, 1, 1])
    assert ctx.is_unit(a) and ctx.is_unit(b)
    N = SkewPoly.z_power(sig, 2, a * ctx.idempotent(3) + b * ctx.idempotent(5))
    one = SkewPoly.one(sig)
    f = one + N
    inverse = one - N + N * N
    assert inverse.degree == 4 > (len(moved[0]) - 1) * f.degree
    assert is_unit_by_components(f) and f.is_unit()
    assert f.unit_inverse() == inverse == unit_inverse_by_solving(f)


def test_simple_unit_examples(sig43, sig27):
    ctx = sig43.context
    u = simple_unit(sig43, ctx.one, 1, 2)
    assert u == SkewPoly.one(sig43) + SkewPoly.z_power(sig43, 1, ctx.idempotent(3))
    assert simple_unit(sig43, ctx.zero, 5, 2) == SkewPoly.one(sig43)
    um = simple_unit(sig43, -ctx.one, 1, 2)
    assert u * um == SkewPoly.one(sig43)
    c27 = sig27.context
    u27 = simple_unit(sig27, c27.one, 1, 2)
    um27 = simple_unit(sig27, -c27.one, 1, 2)
    assert u27 * um27 == SkewPoly.one(sig27)
    with pytest.raises(FixedIdempotent):
        simple_unit(sig43, ctx.one, 1, 1)  # sigma fixes eps_1


def test_elementary_unit_criterion(sig43, sig27):
    ctx = sig43.context
    one = SkewPoly.one(sig43)
    # d = 1 with o_l = 2: always a unit, inverse by sign flip
    for a in (ctx.one, ctx.scalar(ctx.field.gen), ctx.x):
        assert is_elementary_unit(sig43, 1, a, 2)
        u = elementary_unit(sig43, 1, a, 2)
        assert u * elementary_unit(sig43, 1, -a, 2) == one
        assert elementary_unit_inverse(sig43, 1, a, 2) == elementary_unit(sig43, 1, -a, 2)
    # d = 0 with a^(l) = -eps_l: not a unit
    a_bad = -ctx.idempotent(2)
    assert not is_elementary_unit(sig43, 0, a_bad, 2)
    assert not elementary_unit(sig43, 0, a_bad, 2).is_unit()
    # d = o_l with a^(l) != 0: not a unit
    assert not is_elementary_unit(sig43, 2, ctx.one, 2)
    assert not elementary_unit(sig43, 2, ctx.one, 2).is_unit()
    # but a^(l) = 0 rescues it
    a0 = ctx.idempotent(1)
    assert is_elementary_unit(sig43, 2, a0, 2)
    assert elementary_unit(sig43, 2, a0, 2).is_unit()


@pytest.mark.parametrize("d", [-1, -3])
def test_negative_z_power_refused(sig27, d):
    """z^d with d < 0 is not in A[z;sigma]: z_power, elementary_unit,
    is_elementary_unit and elementary_unit_inverse raise BadParameters
    rather than read it as the constant 1."""
    ctx = sig27.context
    with pytest.raises(BadParameters, match="negative z-power"):
        SkewPoly.z_power(sig27, d)
    with pytest.raises(BadParameters, match="negative z-power"):
        SkewPoly.z_power(sig27, d, ctx.x)
    for check in (elementary_unit, is_elementary_unit, elementary_unit_inverse):
        with pytest.raises(BadParameters, match="negative z-power"):
            check(sig27, d, ctx.one, 2)
    assert SkewPoly.z_power(sig27, 0, ctx.x) == SkewPoly.constant(sig27, ctx.x)


def test_elementary_criterion_matches_unit_test_exhaustive(sig43):
    ctx = sig43.context
    for d in range(0, 5):
        for l in (1, 2, 3):
            for codes in itertools.product(range(4), repeat=3):
                a = ctx.from_codes(codes)
                u = elementary_unit(sig43, d, a, l)
                assert is_elementary_unit(sig43, d, a, l) == u.is_unit()


def test_d0_elementary_inverse_is_ring_inverse(sig43):
    ctx = sig43.context
    a = ctx.scalar(ctx.field.gen)
    u = elementary_unit(sig43, 0, a, 2)
    inv = elementary_unit_inverse(sig43, 0, a, 2)
    assert u * inv == SkewPoly.one(sig43)
    # the naive sign flip is NOT the inverse at degree zero here
    assert u * elementary_unit(sig43, 0, -a, 2) != SkewPoly.one(sig43)


def test_unit_product_contract(sig43, sig45, sig27, sig87):
    rng = random.Random(29)
    cases = [(sig43, 2), (sig45, 2), (sig27, 2), (sig87, 3)]
    for sig, l in cases:
        ctx = sig.context
        units = [a for a in _some_units(ctx, rng, 12)]
        for d in range(0, 7):
            scalars = [units[rng.randrange(len(units))] for _ in range(d)]
            u = unit_product(sig, l, scalars)
            assert u.is_unit()
            if d == 0:
                assert u == SkewPoly.one(sig)
                continue
            assert u.degree == d
            assert u.component(l).degree == d
            for lp in range(1, ctx.r + 1):
                if lp != l:
                    comp = u.component(lp)
                    assert comp and comp.degree < d


def _some_units(ctx, rng, count):
    out = []
    while len(out) < count:
        a = ctx.from_codes([rng.randrange(ctx.field.q) for _ in range(ctx.n)])
        if ctx.is_unit(a):
            out.append(a)
    return out


def test_unit_product_rejects(sig43):
    ctx = sig43.context
    with pytest.raises(FixedIdempotent):
        unit_product(sig43, 1, [ctx.one])
    with pytest.raises(NonUnitScalar):
        unit_product(sig43, 2, [ctx.idempotent(2)])


def test_identity_units_are_constant_exhaustive_f2n3(F2):
    from helpers import identity_units_constant
    from skewcyclic import RingContext

    identity_units_constant(RingContext(F2, 3), degree_cap=3)


def test_identity_units_are_constant_f2n7_degree_one(ctx27):
    """Exhaustive over degree <= 1 with unit constant term (a unit's constant
    term is always a unit of A, so the rest are non-units a priori), plus a
    spot check of the excluded region."""
    from helpers import identity_units_constant, is_unit_by_components

    identity_units_constant(ctx27, degree_cap=1, restrict_to_unit_constant=True)
    ide = identity_automorphism(ctx27)
    rng = random.Random(31)
    for _ in range(100):
        f0 = ctx27.from_codes([rng.randrange(2) for _ in range(7)])
        if ctx27.is_unit(f0):
            continue
        f = SkewPoly(ide, (f0, ctx27.from_codes([rng.randrange(2) for _ in range(7)])))
        assert not is_unit_by_components(f)


def test_decompose_examples(sig43):
    ctx = sig43.context
    u1 = simple_unit(sig43, ctx.one, 1, 2)
    assert decompose_into_elementary(u1) == [u1]
    assert decompose_into_elementary(SkewPoly.one(sig43)) == []
    u = unit_product(sig43, 2, [ctx.one, ctx.scalar(ctx.field.gen)])
    factors = decompose_into_elementary(u)
    assert len(factors) >= 2
    prod = SkewPoly.one(sig43)
    for f in factors:
        prod = prod * f
    assert prod == u


def test_decompose_random_units(sig27, sig43):
    rng = random.Random(37)
    for sig in (sig43, sig27):
        ctx = sig.context
        for _ in range(10):
            d = rng.randrange(1, 4)
            scalars = _some_units(ctx, rng, d)
            u = unit_product(sig, 2, scalars)
            # left-multiply by a constant unit for variety
            c = _some_units(ctx, rng, 1)[0]
            u = SkewPoly.constant(sig, c) * u
            factors = decompose_into_elementary(u)
            prod = SkewPoly.one(sig)
            for f in factors:
                prod = prod * f
            assert prod == u


def test_decompose_elementary_unit_is_itself(sig27, sig43, sig87):
    """An elementary unit u = 1 + z^d a eps_l decomposes as [u] by the
    greedy loop alone: with d = 0 it is its own constant factor, and with
    o_l not dividing d the one move is (d, -a, l), which leaves 1.  Seeded
    a over every l, with d = 0 and each d <= 2 o_l + 1 that o_l does not
    divide."""
    rng = random.Random(41)
    for sig in (sig27, sig43, sig87):
        ctx = sig.context
        q, n = ctx.field.q, ctx.n
        for l in range(1, ctx.r + 1):
            o = sig.l_order(l)
            for d in [0] + [d for d in range(1, 2 * o + 2) if d % o]:
                for _ in range(3):
                    a = ctx.from_codes([rng.randrange(q) for _ in range(n)]) * ctx.idempotent(l)
                    if not a or not is_elementary_unit(sig, d, a, l):
                        continue
                    u = elementary_unit(sig, d, a, l)
                    assert decompose_into_elementary(u) == [u], (sig, d, a, l)


def test_skew_str_roundtrip(sig27, poly_g):
    assert (
        str(poly_g)
        == "1+x^2+x^3+x^4 + z*(x+x^2+x^3+x^5) + z^2*(1+x+x^4+x^6)"
    )


def test_left_scalar_multiplication_and_hash():
    """a * f and c * f (a in A, c an int) are the products by the constant
    skew polynomials a and c; equal skew polynomials hash alike."""
    ctx = RingContext(make_field(3, 1), 4)
    sig = identity_automorphism(ctx)
    rng = random.Random(5)
    for _ in range(20):
        f = _random_skew(rng, sig, 3)
        a = ctx.from_codes([rng.randrange(3) for _ in range(ctx.n)])
        assert a * f == SkewPoly.constant(sig, a) * f
        assert 2 * f == f + f == SkewPoly.constant(sig, ctx.scalar(2)) * f
        assert 3 * f == SkewPoly.zero(sig)
        copy = SkewPoly(sig, list(f.coeffs) + [ctx.zero])
        assert copy == f and hash(copy) == hash(f)


def test_int_scalars_match_ring_constants(sig27, sig87):
    """An int scalar names the constant of A it embeds to: elementary_unit,
    is_elementary_unit, elementary_unit_inverse, simple_unit and
    unit_product give the same results for the int and for that ring
    element (the first four raised AttributeError on an int before)."""
    for sig in (sig27, sig87):
        ctx = sig.context
        l = next(k for cyc in sig.cycles if len(cyc) > 1 for k in cyc)
        for s in (0, 1, 2, 3):
            a = ctx.scalar(s)
            for d in (0, 1, 2):
                assert elementary_unit(sig, d, s, l) == elementary_unit(sig, d, a, l)
                ok = is_elementary_unit(sig, d, s, l)
                assert ok == is_elementary_unit(sig, d, a, l)
                if ok:
                    assert elementary_unit_inverse(sig, d, s, l) == elementary_unit_inverse(
                        sig, d, a, l
                    )
                else:
                    with pytest.raises(NotAUnit):
                        elementary_unit_inverse(sig, d, s, l)
            assert simple_unit(sig, s, 1, l) == simple_unit(sig, a, 1, l)
        assert unit_product(sig, l, [1, 1]) == unit_product(sig, l, [ctx.one, ctx.one])
