import random

import pytest

from skewcyclic import (
    MinimalCodeRecipe,
    PolyMatrix,
    build_minimal_code,
    free_distance,
    free_distance_bruteforce,
    generator_matrix,
    griesmer_bound,
    membership,
    singleton_bound,
    weight,
)
from skewcyclic.errors import (
    BadParameters,
    EnumerationCapExceeded,
    NotMinimal,
    NotRightInvertible,
    StateCapExceeded,
)
from skewcyclic.fields import Poly
from skewcyclic.skew import SkewPoly


def test_weight_examples(F2, sig27, poly_g):
    zero = [Poly.zero(F2)] * 3
    assert weight(zero) == 0
    one, z = Poly.one(F2), Poly.x(F2)
    assert weight([one + z, Poly.zero(F2), z * z]) == 3
    G = generator_matrix(poly_g)
    assert weight(G.row(0)) == 12


def test_singleton_examples():
    assert singleton_bound(3, 1, 1) == 6
    assert singleton_bound(7, 1, 2) == 21
    for n, k in ((5, 2), (7, 3), (9, 4)):
        assert singleton_bound(n, k, 0) == n - k + 1
    with pytest.raises(BadParameters):
        singleton_bound(3, 3, 1)
    with pytest.raises(BadParameters):
        singleton_bound(3, 0, 1)


def test_griesmer_examples():
    assert griesmer_bound(3, 1, 6, 6, 4) == 19
    assert griesmer_bound(7, 3, 6, 2, 2) == 12
    assert griesmer_bound(7, 2, 4, 2, 8) == 18
    with pytest.raises(BadParameters):
        griesmer_bound(3, 1, 1, 1, 1)


def test_griesmer_never_exceeds_singleton():
    for n, k, delta, m, q in (
        (3, 1, 1, 1, 4), (5, 2, 4, 2, 4), (7, 3, 6, 2, 2), (7, 1, 2, 2, 8),
        (4, 2, 3, 2, 3), (6, 2, 2, 1, 2),
    ):
        assert griesmer_bound(n, k, delta, m, q) <= singleton_bound(n, k, delta)


def test_free_distance_first_example(sig27, poly_g):
    G = generator_matrix(poly_g)
    rep = free_distance(G)
    assert rep.distance == 12
    assert rep.singleton == 19 and rep.griesmer == 12
    assert rep.attains == "griesmer"
    # witness is a codeword of exactly that weight
    assert weight(rep.witness) == 12
    assert membership(G, rep.witness) is not None


def test_free_distance_smallest_family(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,)))
    rep = free_distance(code.generator)
    assert rep.distance == 6
    assert rep.attains == "singleton"


def test_free_distance_block_code(sig43, ctx43, sig27, ctx27):
    """delta = 0: every nonzero input block returns to the zero state at
    once, so the general search scans the q^k - 1 messages itself."""
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 0))
    rep = free_distance(code.generator)
    # <eps_2> is the cyclic code with generator (x+1)(x+a^2): an MDS (3,1) code
    assert rep.distance == 3
    assert [p.to_str("z") for p in rep.witness] == ["1", "a^2", "a"]
    # <eps_2> over GF(2), n = 7: a [7,3,4] block code
    G = generator_matrix(SkewPoly.constant(sig27, ctx27.idempotent(2)))
    rep = free_distance(G)
    assert (rep.distance, rep.attains) == (4, "griesmer")
    assert [p.to_str("z") for p in rep.witness] == ["0", "0", "1", "1", "1", "0", "1"]


def test_free_distance_requires_minimal(F2):
    one, z, zero = Poly.one(F2), Poly.x(F2), Poly.zero(F2)
    G = PolyMatrix(F2, [[one, z], [zero, one]])
    assert G.is_right_invertible()
    assert not G.is_minimal()
    with pytest.raises(NotMinimal):
        free_distance(G)
    with pytest.raises(NotRightInvertible):
        free_distance(PolyMatrix(F2, [[z, zero]]))


def test_state_cap(sig27, poly_g):
    with pytest.raises(StateCapExceeded):
        free_distance(generator_matrix(poly_g), state_cap=1)


def test_enumeration_cap(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,)))
    with pytest.raises(EnumerationCapExceeded):
        free_distance_bruteforce(code.generator, 20)


def test_bruteforce_monotone_and_agrees(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 2))
    exact = free_distance(code.generator).distance
    prev = None
    for D in range(0, 6):
        val = free_distance_bruteforce(code.generator, D)
        assert val >= exact
        if prev is not None:
            assert val <= prev
        if D >= code.delta:
            assert val == exact  # stable from D = delta onward here
        prev = val


def test_bruteforce_matches_state_graph_random(sig43, sig45):
    rng = random.Random(61)
    for sig in (sig43, sig45):
        ctx = sig.context
        for _ in range(4):
            d = rng.randrange(0, 3)
            scalars = []
            while len(scalars) < d:
                a = ctx.from_codes(
                    [rng.randrange(ctx.field.q) for _ in range(ctx.n)]
                )
                if ctx.is_unit(a):
                    scalars.append(a)
            code = build_minimal_code(MinimalCodeRecipe(sig, 2, d, tuple(scalars)))
            exact = free_distance(code.generator).distance
            assert free_distance_bruteforce(
                code.generator, code.delta + ctx.n, cap=2 ** 60
            ) == exact


def test_bound_chain(sig43, ctx43, sig45):
    """distance <= griesmer <= singleton on every tested code."""
    for sig in (sig43, sig45):
        for d in range(0, 4):
            code = build_minimal_code(MinimalCodeRecipe(sig, 2, d))
            rep = free_distance(code.generator)
            assert rep.distance <= rep.griesmer <= rep.singleton


def test_report_json_shape(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,)))
    d = free_distance(code.generator).as_dict()
    assert set(d) == {"distance", "singleton", "griesmer", "attains", "witness"}
    assert all(isinstance(w, str) for w in d["witness"])
