import itertools
import random

import pytest

from skewcyclic import linalg
from skewcyclic import (
    ConvCode,
    MinimalCodeRecipe,
    build_minimal_code,
    build_unit_for_profile,
    default_scalars,
    degree_profile_feasible,
    direct_complement,
    generator_matrix,
    idempotent_generator,
    membership,
    orthogonal_sum,
    unit_product,
    vector_from_skew,
)
from skewcyclic.errors import (
    BadParameters,
    ComponentMismatch,
    FixedIdempotent,
    IndexOutOfRange,
    MixedContexts,
    NonUnitScalar,
    NotAUnit,
    OverlappingCycles,
)
from skewcyclic.distance import free_distance
from skewcyclic.fields import Poly
from skewcyclic.ring import RingElement
from skewcyclic.skew import SkewPoly


def test_minimal_code_f4n3_d1(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,)))
    assert code.params == (3, 1, 1)
    assert code.generator.to_strings() == [["1+z", "a^2+a*z", "a+a^2*z"]]


def test_minimal_code_block_case(sig43, ctx43):
    for l in (1, 2, 3):
        code = build_minimal_code(MinimalCodeRecipe(sig43, l, 0))
        assert code.params == (3, 1, 0)
        assert code.generator == generator_matrix(
            SkewPoly.constant(sig43, ctx43.idempotent(l))
        )


def test_minimal_code_rejects_fixed_idempotent(sig43):
    with pytest.raises(FixedIdempotent):
        MinimalCodeRecipe(sig43, 1, 1)


@pytest.mark.parametrize("l", [0, 4, 99])
@pytest.mark.parametrize("d", [0, 1])
def test_minimal_code_recipe_checks_component_index(sig43, l, d):
    """l outside 1..r is refused when the recipe is made, for d = 0 too."""
    with pytest.raises(IndexOutOfRange, match=rf"^component index {l} not in 1\.\.3$"):
        MinimalCodeRecipe(sig43, l, d)


def test_minimal_code_recipe_checks_and_scalars(sig43, ctx43, ctx45):
    """The recipe refuses bad inputs in a fixed order (Forney index, fixed
    idempotent, scalar count, units), and a ring element of another
    context; it turns int scalars into ring elements and fills in the
    default scalars when given none."""
    with pytest.raises(BadParameters):
        MinimalCodeRecipe(sig43, 1, -1, (0,))
    with pytest.raises(FixedIdempotent):
        MinimalCodeRecipe(sig43, 1, 1, (0, 0))
    with pytest.raises(BadParameters):
        MinimalCodeRecipe(sig43, 2, 2, (0,))
    with pytest.raises(NonUnitScalar):
        MinimalCodeRecipe(sig43, 2, 1, (0,))
    with pytest.raises(NonUnitScalar):
        MinimalCodeRecipe(sig43, 2, 1, [ctx43.idempotent(2)])
    with pytest.raises(MixedContexts):
        MinimalCodeRecipe(sig43, 2, 1, [ctx45.one])
    recipe = MinimalCodeRecipe(sig43, 2, 2, [1, 3])  # ints read in GF(2)
    assert recipe.scalars == (ctx43.one, ctx43.one)
    assert all(isinstance(s, RingElement) for s in recipe.scalars)
    assert MinimalCodeRecipe(sig43, 2, 2).scalars == default_scalars(ctx43, 2)
    assert MinimalCodeRecipe(sig43, 3, 0).scalars == ()


def test_records_are_immutable_values(sig43, ctx43):
    """The result records compare, hash and print by their fields, and
    refuse assignment to a field or to any other attribute."""
    recipe = MinimalCodeRecipe(sig43, 2, 1, (1,))
    code = build_minimal_code(recipe)
    report = free_distance(code.generator)
    for record, name in ((recipe, "d"), (code, "k"), (report, "distance")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.note = None
    twin = MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,))
    assert recipe == twin and hash(recipe) == hash(twin)
    assert repr(recipe) == f"MinimalCodeRecipe(sigma={sig43!r}, l=2, d=1, scalars=({ctx43.one!r},))"
    assert code == ConvCode.from_reduced(code.reduced_generator)
    assert repr(ConvCode(code.generator, 3, 1, 1, (1,))).endswith(
        "delta=1, forney=(1,), support=None, reduced_generator=None)"
    )
    assert report == free_distance(code.generator)


def test_minimal_code_invariants_all_contexts(sig43, sig45, sig27, sig87):
    cases = [(sig43, 2), (sig45, 3), (sig27, 3), (sig87, 4)]
    for sig, l in cases:
        ctx = sig.context
        kappa = ctx.kappas[l - 1]
        for d in range(0, 7):
            code = build_minimal_code(MinimalCodeRecipe(sig, l, d))
            assert code.params == (ctx.n, kappa, d * kappa)
            assert code.forney == (d,) * kappa
            assert code.support == (l,)
            assert code.generator.is_right_invertible()
            assert code.generator.is_minimal()


def test_build_computes_each_component_once(sig87, monkeypatch):
    """One build_minimal_code call computes each component of each skew
    polynomial at most once: g's components are kept on g, and
    is_reduced, support, generator_matrix and from_reduced all read them."""
    calls = []
    component = SkewPoly.component

    def recording(self, k):
        calls.append((self, k))
        return component(self, k)

    monkeypatch.setattr(SkewPoly, "component", recording)
    code = build_minimal_code(MinimalCodeRecipe(sig87, 3, 2))
    assert code.params == (7, 1, 2)
    assert calls
    keys = [(id(f), k) for f, k in calls]
    assert len(keys) == len(set(keys)), calls
    g = code.reduced_generator
    assert sorted(k for f, k in calls if f is g) == list(range(1, sig87.context.r + 1))


def test_default_scalars_cycle(ctx43, ctx87):
    sc = default_scalars(ctx43, 5)
    gen = ctx43.field.gen
    assert [s.codes for s in sc] == [
        ctx43.scalar(gen ** (i % 3)).codes for i in range(5)
    ]
    sc8 = default_scalars(ctx87, 9)
    assert sc8[7] == ctx87.one  # period q-1 = 7


def test_no_proper_subcode_rank_argument(sig43, sig45, sig27):
    """Minimal codes: the generator is a single component, and the module
    span of all x^i g already has the full code rank."""
    from skewcyclic import PolyMatrix

    for sig, l in ((sig43, 2), (sig45, 2), (sig27, 2)):
        ctx = sig.context
        for d in (1, 2):
            code = build_minimal_code(MinimalCodeRecipe(sig, l, d))
            g = code.reduced_generator
            assert g.support() == (l,)
            xs = SkewPoly.constant(sig, ctx.x)
            rows = []
            cur = g
            for _ in range(ctx.n):
                rows.append(vector_from_skew(cur))
                cur = xs * cur
            M = PolyMatrix(ctx.field, rows)
            assert M.rank() == code.k


def test_direct_complement_golden(sig27, poly_g, poly_v):
    ctx = sig27.context
    gp = direct_complement(poly_g, poly_v)
    assert gp == SkewPoly(
        sig27,
        (ctx.element([0, 1, 0, 1, 1]), ctx.element([1, 0, 0, 1, 0, 1, 1])),
    )
    assert poly_g + gp == poly_v


def test_direct_complement_trivia(sig27, poly_v, sig43, ctx43):
    # g = u with full support: complement is zero
    assert direct_complement(poly_v, poly_v) == SkewPoly.zero(sig27)
    u1 = unit_product(sig43, 2, [ctx43.one])
    g = u1.component(2)
    gp = direct_complement(g, u1)
    assert gp == u1.component(1) + u1.component(3)


def test_direct_complement_rejects(sig27, poly_g, poly_v):
    with pytest.raises(NotAUnit):
        direct_complement(poly_g, poly_g)
    wrong = poly_v + SkewPoly.constant(sig27, sig27.context.idempotent(3))
    if wrong.is_unit():
        with pytest.raises(ComponentMismatch):
            direct_complement(poly_g, wrong)


def test_complement_intersection_trivial(sig27, poly_g, poly_v):
    """Random codeword probes: members of <g> never lie in <g'> except 0."""
    gp = direct_complement(poly_g, poly_v)
    G = generator_matrix(poly_g)
    Gp = generator_matrix(gp)
    rng = random.Random(59)
    field = G.field
    hits = 0
    for _ in range(100):
        u = [
            Poly(field, [rng.randrange(2) for _ in range(3)])
            for _ in range(G.nrows)
        ]
        from skewcyclic import PolyMatrix

        w = (PolyMatrix(field, [u]) * G).entries[0]
        if all(p.is_zero() for p in w):
            continue
        hits += 1
        assert membership(Gp, w) is None
    assert hits > 50


def test_idempotent_generator(sig27, poly_g, poly_v, sig43, ctx43):
    e = idempotent_generator(poly_g, poly_v)
    assert e * e == e
    # same left ideal: e = v^-1 g in <g>, and g = v e in <e>
    assert poly_v * e == poly_g
    G = generator_matrix(poly_g)
    assert membership(G, vector_from_skew(e)) is not None
    # trivial cases
    assert idempotent_generator(poly_v, poly_v) == SkewPoly.one(sig27)
    one43 = SkewPoly.one(sig43)
    e2 = SkewPoly.constant(sig43, ctx43.idempotent(2))
    assert idempotent_generator(e2, one43) == e2


def test_idempotent_generator_decides_the_unit_once(poly_g, poly_v, monkeypatch):
    """unit_inverse decides whether v is a unit and inverts it with one
    power-series solve, with no elimination and no separate determinant;
    sigma = x^5 on GF(2) n=7 moves one cycle, {2, 3}."""
    calls = {"bareiss": 0, "poly_det": 0, "_series_inverse": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(linalg, "bareiss")
    counting(linalg, "poly_det")
    counting(SkewPoly, "_series_inverse")
    e = idempotent_generator(poly_g, poly_v)
    assert calls == {"bareiss": 0, "poly_det": 0, "_series_inverse": 1}
    assert sum(len(c) > 1 for c in poly_v.sigma.cycles) == 1
    assert poly_v * e == poly_g
    with pytest.raises(NotAUnit):
        idempotent_generator(poly_g, poly_g)


def test_orthogonal_sum_f8(sig87, ctx87):
    alpha = ctx87.field.gen
    e = ctx87.idempotent
    g1 = SkewPoly(sig87, (e(1), e(2), e(1) * ctx87.scalar(alpha)))
    g2 = SkewPoly(
        sig87, (e(3), e(4) * ctx87.scalar(alpha), e(5) * ctx87.scalar(alpha ** 2))
    )
    c1, c2 = ConvCode.from_reduced(g1), ConvCode.from_reduced(g2)
    assert c1.params == (7, 1, 2) and c2.params == (7, 1, 2)
    total = orthogonal_sum([c1, c2])
    assert total.params == (7, 2, 4)
    assert total.forney == (2, 2)
    assert total.support == (1, 3)
    assert total.delta == c1.delta + c2.delta


def test_orthogonal_sum_trivia(sig87, ctx87, sig43, ctx43):
    code = ConvCode.from_reduced(
        SkewPoly.constant(sig43, ctx43.idempotent(1))
    )
    assert orthogonal_sum([code]) is code
    # two block codes in disjoint cycles sum to a block code
    e1 = SkewPoly.constant(sig43, ctx43.idempotent(1))
    e2 = SkewPoly.constant(sig43, ctx43.idempotent(2))
    s = orthogonal_sum([ConvCode.from_reduced(e1), ConvCode.from_reduced(e2)])
    assert s.delta == 0
    assert s.k == 2
    assert s.generator == generator_matrix(e1 + e2)
    with pytest.raises(BadParameters):
        orthogonal_sum([])
    both = ConvCode.from_reduced(e1 + e2)  # support (1, 2): not minimal
    with pytest.raises(BadParameters):
        orthogonal_sum([both, ConvCode.from_reduced(e1)])


def test_orthogonal_sum_rejects_same_cycle(sig43, ctx43):
    c2 = ConvCode.from_reduced(SkewPoly.constant(sig43, ctx43.idempotent(2)))
    c3 = ConvCode.from_reduced(SkewPoly.constant(sig43, ctx43.idempotent(3)))
    with pytest.raises(OverlappingCycles):
        orthogonal_sum([c2, c3])


def test_build_unit_for_profile(sig87):
    w = build_unit_for_profile(sig87, [(1, 2), (3, 2)])
    assert w.is_unit()
    assert w.component(1).degree == 2
    assert w.component(3).degree == 2
    g = w.component(1) + w.component(3)
    assert g.is_reduced()
    code = ConvCode.from_reduced(g)
    assert code.params == (7, 2, 4)


def test_build_unit_for_profile_trivia(sig87, sig43, ctx43):
    w0 = build_unit_for_profile(sig87, [(1, 0), (3, 0)])
    assert w0 == SkewPoly.one(sig87)
    # single target agrees with the plain unit product on that component
    w = build_unit_for_profile(sig43, [(2, 2)])
    u = unit_product(sig43, 2, default_scalars(ctx43, 2))
    assert w.component(2) == u.component(2)


def test_build_unit_for_profile_rejects(sig87, sig43):
    with pytest.raises(OverlappingCycles):
        build_unit_for_profile(sig87, [(3, 1), (4, 1)])
    with pytest.raises(FixedIdempotent):
        build_unit_for_profile(sig87, [(6, 1)])
    with pytest.raises(FixedIdempotent):
        build_unit_for_profile(sig43, [(1, 2)])


def test_degree_profile_feasible_examples():
    ok, _ = degree_profile_feasible(3, [1, 1])
    assert ok
    ok, why = degree_profile_feasible(2, [1, 1])
    assert not ok and "equal degrees" in why
    ok, why = degree_profile_feasible(3, [2, 1])
    assert not ok and "collide" in why
    with pytest.raises(BadParameters):
        degree_profile_feasible(2, [1, 1, 1])


def test_degree_profile_feasible_unit_one(sig87):
    """The unit 1 has degree 0 on every component, so its profile along a
    whole cycle is all zeros, and it is feasible: on a fixed cycle, a
    2-cycle and a 3-cycle of sigma = (1,2)(3,4,5)(6)(7) over GF(8), n = 7."""
    one = SkewPoly.one(sig87)
    lengths = []
    for cycle in sig87.cycles:
        profile = [one.component(l).degree for l in cycle]
        assert profile == [0] * len(cycle)
        ok, why = degree_profile_feasible(len(cycle), profile)
        assert ok, (cycle, why)
        lengths.append(len(cycle))
    assert sorted(set(lengths)) == [1, 2, 3]


def test_degree_profile_feasible_truth_table():
    """Re-derive both necessary conditions independently for o <= 4; the
    all-zero profile over the whole cycle passes (it is the unit 1's)."""
    for o in range(1, 5):
        for c in range(1, o + 1):
            for profile in itertools.product(range(4), repeat=c):
                marks = [(i + d) % o for i, d in enumerate(profile, start=1)]
                expect = len(set(marks)) == c and not (
                    c == o and len(set(profile)) == 1 and profile != (0,) * c
                )
                got, _ = degree_profile_feasible(o, list(profile))
                assert got == expect, (o, profile)
