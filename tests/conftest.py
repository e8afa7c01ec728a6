import pytest

# the shared property checks keep their asserts under python -O too
pytest.register_assert_rewrite("helpers")

from skewcyclic import (
    Automorphism,
    RingContext,
    find_automorphism_for_permutation,
    make_field,
    permutation_from_cycles,
)
from skewcyclic.skew import SkewPoly


@pytest.fixture(scope="session")
def F2():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2, [1, 1, 1])


@pytest.fixture(scope="session")
def F8():
    return make_field(2, 3, [1, 1, 0, 1])


@pytest.fixture(scope="session")
def ctx27(F2):
    return RingContext(F2, 7)


@pytest.fixture(scope="session")
def sig27(ctx27):
    # sigma(x) = x^5, the running binary length-7 example
    return Automorphism(ctx27, ctx27.element([0, 0, 0, 0, 0, 1]))


@pytest.fixture(scope="session")
def ctx43(F4):
    return RingContext(F4, 3)


@pytest.fixture(scope="session")
def sig43(ctx43):
    return Automorphism(ctx43, ctx43.element([0, 0, 1]))


@pytest.fixture(scope="session")
def ctx45(F4):
    return RingContext(F4, 5)


@pytest.fixture(scope="session")
def sig45(ctx45):
    return Automorphism(ctx45, ctx45.element([0, 0, 1]))


@pytest.fixture(scope="session")
def ctx87(F8):
    return RingContext(F8, 7)


@pytest.fixture(scope="session")
def sig87(ctx87):
    perm = permutation_from_cycles(7, [(1, 2), (3, 4, 5)])
    return find_automorphism_for_permutation(ctx87, perm)


@pytest.fixture(scope="session")
def poly_g(sig27):
    """The length-7 binary generator 1+x^2+x^3+x^4 + z(...) + z^2(...)."""
    ctx = sig27.context
    return SkewPoly(
        sig27,
        (
            ctx.element([1, 0, 1, 1, 1]),
            ctx.element([0, 1, 1, 1, 0, 1]),
            ctx.element([1, 1, 0, 0, 1, 0, 1]),
        ),
    )


@pytest.fixture(scope="session")
def poly_v(sig27):
    """The unit v = g + g' of the same example."""
    ctx = sig27.context
    return SkewPoly(
        sig27,
        (
            ctx.element([1, 1, 1]),
            ctx.element([1, 1, 1, 0, 0, 0, 1]),
            ctx.element([1, 1, 0, 0, 1, 0, 1]),
        ),
    )
