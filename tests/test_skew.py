import itertools
import random

import pytest

from helpers import module_determinant, module_unit_inverse, unit_inverse_by_solving
from skewcyclic import (
    Automorphism,
    RingContext,
    decompose_into_elementary,
    elementary_unit,
    elementary_unit_inverse,
    find_automorphism_for_permutation,
    identity_automorphism,
    is_elementary_unit,
    make_field,
    permutation_from_cycles,
    simple_unit,
    unit_product,
)
from skewcyclic.errors import (
    FixedIdempotent,
    MixedAlgebras,
    NonUnitScalar,
    NotAUnit,
    ZeroPolynomial,
)
from skewcyclic.skew import Monomial, SkewPoly


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
    lm, coeff = f.leading_monomial()
    assert lm == Monomial(1, 3)
    assert coeff == ctx.idempotent(3)
    g1 = SkewPoly.constant(sig43, ctx.idempotent(1))
    assert g1.leading_monomial()[0] == Monomial(0, 1)
    lm_g, coeff_g = poly_g.leading_monomial()
    assert lm_g == Monomial(2, 3)
    assert coeff_g == sig27.context.idempotent(3) * sig27.context.x
    with pytest.raises(ZeroPolynomial):
        SkewPoly.zero(sig43).leading_monomial()


def test_monomial_order():
    assert Monomial(0, 3) < Monomial(1, 1)
    assert Monomial(1, 1) < Monomial(1, 2)


def test_is_reduced(sig27, poly_g, poly_v):
    assert poly_g.is_reduced()  # components always are
    assert SkewPoly.one(sig27).is_reduced()
    assert not poly_v.is_reduced()  # nonconstant units never are


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
    rng = random.Random(17)
    for sig, samples, max_deg in ((sig43, 10000, 2), (sig27, 10000, 1)):
        one = SkewPoly.one(sig)
        for _ in range(samples):
            f = _random_skew(rng, sig, max_deg)
            g = _random_skew(rng, sig, max_deg)
            h = _random_skew(rng, sig, max_deg)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
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


def test_unit_decision_sweep_matches_whole_module_oracle(sig45, sig87):
    """Production is_unit and unit_inverse, which work one sigma-cycle at a
    time, against the whole n x n module matrix (its determinant, and one
    fraction-free solve for the inverse).  Contexts: GF(2) n=7 with
    sigma = x^3 and with the identity, GF(4) n=5, GF(8) n=7 with
    (1,2)(3,4,5), GF(3) n=8 with (1,2)(3,4) and GF(9) n=4 with (2,3,4).
    Samples: units c * unit_product(...) with c a unit constant, a
    one-coefficient perturbation of each, and for every sigma-cycle C the
    non-unit u * (1 + z a e_C), which fails on C alone (a fixed or a moved
    cycle; on C its leading coefficient is a unit, so degrees add)."""
    ctx27 = RingContext(make_field(2, 1), 7)
    cases = (
        Automorphism(ctx27, ctx27.element([0, 0, 0, 1])),
        identity_automorphism(ctx27),
        sig45,
        sig87,
        _sigma_by_cycles(make_field(3, 1), 8, [(1, 2), (3, 4)]),
        _sigma_by_cycles(make_field(3, 2), 4, [(2, 3, 4)]),
    )
    rng = random.Random(67)
    for sig in cases:
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


def test_skew_str_roundtrip(sig27, poly_g):
    assert (
        str(poly_g)
        == "1+x^2+x^3+x^4 + z*(x+x^2+x^3+x^5) + z^2*(1+x+x^4+x^6)"
    )
