import itertools
import random

import pytest

from skewcyclic import RingContext
from skewcyclic.errors import (
    BadParameters,
    IndexOutOfRange,
    LengthNotCoprime,
    MixedContexts,
    NotAUnit,
    ZeroInput,
)
from skewcyclic.fields import Poly, factor_xn_minus_1


def test_context_rejects_noncoprime(F2):
    with pytest.raises(LengthNotCoprime):
        RingContext(F2, 14)


@pytest.mark.parametrize("n", [0, -1, -7])
def test_context_rejects_nonpositive_length(F2, n):
    with pytest.raises(BadParameters, match="length must be positive"):
        RingContext(F2, n)
    with pytest.raises(BadParameters, match="length must be positive"):
        factor_xn_minus_1(F2, n)


def test_idempotents_f2n7(ctx27):
    assert str(ctx27.idempotent(1)) == "1+x+x^2+x^3+x^4+x^5+x^6"
    assert str(ctx27.idempotent(2)) == "1+x+x^2+x^4"
    assert str(ctx27.idempotent(3)) == "1+x^3+x^5+x^6"
    assert ctx27.degree_classes == ((1,), (2, 3))


def test_idempotents_f4n3(ctx43):
    assert str(ctx43.idempotent(1)) == "1+x+x^2"
    assert str(ctx43.idempotent(2)) == "1+a^2*x+a*x^2"
    assert str(ctx43.idempotent(3)) == "1+a*x+a^2*x^2"


def test_idempotents_f4n5(ctx45):
    assert str(ctx45.idempotent(2)) == "a*x+a^2*x^2+a^2*x^3+a*x^4"


def test_idempotent_identities(ctx27, ctx43, ctx45, ctx87):
    for ctx in (ctx27, ctx43, ctx45, ctx87):
        total = ctx.zero
        for i in range(1, ctx.r + 1):
            e_i = ctx.idempotent(i)
            total = total + e_i
            for j in range(1, ctx.r + 1):
                prod = e_i * ctx.idempotent(j)
                assert prod == (e_i if i == j else ctx.zero)
        assert total == ctx.one


def test_ring_mul_examples(ctx27):
    x = ctx27.x
    assert x ** 7 == ctx27.one
    assert x * x ** 6 == ctx27.one
    e2, e3 = ctx27.idempotent(2), ctx27.idempotent(3)
    assert e2 * e3 == ctx27.zero
    assert e2 * e2 == e2


def test_index_range(ctx27):
    with pytest.raises(IndexOutOfRange):
        ctx27.idempotent(0)
    with pytest.raises(IndexOutOfRange):
        ctx27.idempotent(4)


def test_mixed_contexts(ctx27, ctx43):
    with pytest.raises(MixedContexts):
        ctx27.one + ctx43.one  # type: ignore[operator]


def test_crt_goldens(ctx27):
    v = ctx27.crt_forward(ctx27.idempotent(3))
    assert [p.to_str("x") for p in v.parts] == ["0", "0", "1"]
    v1 = ctx27.crt_forward(ctx27.one)
    assert all(p == Poly.one(ctx27.field) for p in v1.parts)
    g0 = ctx27.element([1, 0, 1, 1, 1])
    assert [p.to_str("x") for p in ctx27.crt_forward(g0).parts] == ["0", "0", "1+x+x^2"]


def _all_elements(ctx):
    q = ctx.field.q
    return [ctx.from_codes(c) for c in itertools.product(range(q), repeat=ctx.n)]


@pytest.mark.parametrize("ctx_name", ["ctx27", "ctx43", "ctx45"])
def test_crt_isomorphism_exhaustive(ctx_name, request):
    """Bijection plus multiplicativity on all pairs, for every q^n <= 4096."""
    from helpers import psi_isomorphism_exhaustive

    psi_isomorphism_exhaustive(request.getfixturevalue(ctx_name))


def test_component_examples(ctx27):
    one = ctx27.one
    for k in range(1, 4):
        assert ctx27.component(one, k) == ctx27.idempotent(k)
    assert ctx27.component(ctx27.idempotent(2), 3) == ctx27.zero
    a = ctx27.element([1, 1, 1])
    assert ctx27.component(a, 1) == ctx27.idempotent(1)


def test_unit_examples(ctx27):
    assert not ctx27.is_unit(ctx27.idempotent(2))
    assert ctx27.is_unit(ctx27.one)
    a = ctx27.element([1, 1, 1])
    assert ctx27.is_unit(a)
    assert ctx27.inv(a) * a == ctx27.one
    with pytest.raises(NotAUnit):
        ctx27.inv(ctx27.idempotent(2))


@pytest.mark.parametrize("ctx_name", ["ctx27", "ctx43", "ctx45"])
def test_unit_test_agrees_with_exhaustive_search(ctx_name, request):
    from helpers import unit_test_agrees_with_exhaustive_search

    unit_test_agrees_with_exhaustive_search(request.getfixturevalue(ctx_name))


def test_normalize_examples(ctx27):
    e2 = ctx27.idempotent(2)
    bhat, supp = ctx27.normalize_to_idempotent_sum(e2)
    assert supp == (2,)
    assert bhat * e2 == e2
    _, supp_one = ctx27.normalize_to_idempotent_sum(ctx27.one)
    assert supp_one == (1, 2, 3)
    a = ctx27.element([1, 1, 1])
    bhat, supp = ctx27.normalize_to_idempotent_sum(a)
    assert supp == (1, 2, 3)
    assert bhat * a == ctx27.one
    assert bhat == ctx27.inv(a)
    with pytest.raises(ZeroInput):
        ctx27.normalize_to_idempotent_sum(ctx27.zero)


def test_normalize_property_random(ctx45):
    rng = random.Random(11)
    for _ in range(200):
        a = ctx45.from_codes([rng.randrange(4) for _ in range(5)])
        if not a:
            continue
        bhat, supp = ctx45.normalize_to_idempotent_sum(a)
        assert ctx45.is_unit(bhat)
        total = ctx45.zero
        for l in supp:
            total = total + ctx45.idempotent(l)
        assert bhat * a == total
        assert supp == tuple(
            l for l in range(1, ctx45.r + 1) if ctx45.component(a, l)
        )
