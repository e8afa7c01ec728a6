import functools
import heapq
import random
import time
import types

import pytest

from helpers import (
    SWEEP_CONTEXTS,
    free_distance_by_edges,
    griesmer_bound_by_levels,
    min_weight_by_enumeration,
)

from skewcyclic import (
    MinimalCodeRecipe,
    PolyMatrix,
    RingContext,
    build_minimal_code,
    enumerate_automorphisms,
    free_distance,
    free_distance_bruteforce,
    generator_matrix,
    griesmer_bound,
    make_field,
    membership,
    orthogonal_sum,
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
from skewcyclic import distance
from skewcyclic.fields import MAX_FIELD_SIZE, Poly
from skewcyclic.literals import parse_field, parse_sigma
from skewcyclic.packed import _unpacker, _word_ops
from skewcyclic.skew import SkewPoly
from skewcyclic.verify import golden_codes, load_default_fixtures


def test_weight_examples(F2, sig27, poly_g):
    zero = [Poly.zero(F2)] * 3
    assert weight(zero) == 0
    one, z = Poly.one(F2), Poly.x(F2)
    assert weight([one + z, Poly.zero(F2), z * z]) == 3
    G = generator_matrix(poly_g)
    assert weight(G.entries[0]) == 12


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


def test_griesmer_matches_level_oracle():
    """griesmer_bound, which stops one level after the sums settle, against
    the oracle that checks every level up to 64, over n <= 8, k < n,
    delta <= 8, m <= 4 and q in {2, 3, 4, 5, 8, 9}, wherever Forney indices
    of maximum m and sum delta exist (m <= delta <= k*m); it refuses the
    rest."""
    for n in range(2, 9):
        for k in range(1, n):
            for delta in range(9):
                for m in range(5):
                    for q in (2, 3, 4, 5, 8, 9):
                        if m <= delta <= k * m:
                            want = griesmer_bound_by_levels(n, k, delta, m, q)
                            got = griesmer_bound(n, k, delta, m, q)
                            assert got == want, (n, k, delta, m, q)
                        else:
                            with pytest.raises(BadParameters):
                                griesmer_bound(n, k, delta, m, q)


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


def test_state_cap_before_validation(F2):
    """The state cap is checked before the minors and gcds that decide right
    invertibility and minimality; only a zero row is refused first."""
    rng = random.Random(2000)
    G = PolyMatrix(
        F2,
        [[Poly(F2, [rng.randrange(2) for _ in range(2000)] + [1]) for _ in range(3)]
         for _ in range(2)],
    )
    start = time.perf_counter()
    with pytest.raises(StateCapExceeded, match=r"2\^4000"):
        free_distance(G)
    assert time.perf_counter() - start < 0.5
    zero = Poly.zero(F2)
    with pytest.raises(NotRightInvertible):
        free_distance(PolyMatrix(F2, [G.entries[0], [zero, zero, zero]]))


def test_enumeration_cap(sig43, ctx43):
    code = build_minimal_code(MinimalCodeRecipe(sig43, 2, 1, (ctx43.one,)))
    with pytest.raises(EnumerationCapExceeded):
        free_distance_bruteforce(code.generator, 20)


def test_caps_are_checked_before_the_power_is_built(F2):
    """A state or message count far past its cap is refused at once, with
    the count printed as q^x: the power itself has more decimal digits than
    int-to-str conversion allows."""
    one = Poly.one(F2)
    G = PolyMatrix(F2, [[one, Poly(F2, [1] + [0] * 14999 + [1])]])
    start = time.perf_counter()
    with pytest.raises(StateCapExceeded, match=r"2\^15000"):
        free_distance(G)
    assert time.perf_counter() - start < 1
    F3 = make_field(3, 1)
    G = PolyMatrix(F3, [[Poly.one(F3), Poly(F3, [1, 1])]])
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded, match=r"3\^10000001"):
        free_distance_bruteforce(G, 10 ** 7)
    assert time.perf_counter() - start < 1


def test_bruteforce_negative_degree(F2):
    """No message has degree < 0, so there is no codeword to weigh."""
    one = Poly.one(F2)
    with pytest.raises(BadParameters):
        free_distance_bruteforce(PolyMatrix(F2, [[one, one, one]]), -1)


def test_bruteforce_zero_row(F2):
    """A zero row sends a nonzero message to the zero word: weight 0."""
    one, z, zero = Poly.one(F2), Poly.x(F2), Poly.zero(F2)
    G = PolyMatrix(F2, [[one, one + z], [zero, zero]])
    assert free_distance_bruteforce(G, 2) == 0


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


def _random_units(rng, ctx, count):
    units = []
    while len(units) < count:
        a = ctx.from_codes([rng.randrange(ctx.field.q) for _ in range(ctx.n)])
        if ctx.is_unit(a):
            units.append(a)
    return tuple(units)


def test_bruteforce_matches_state_graph_random(sig43, sig45):
    rng = random.Random(61)
    for sig in (sig43, sig45):
        ctx = sig.context
        for _ in range(4):
            d = rng.randrange(0, 3)
            code = build_minimal_code(MinimalCodeRecipe(sig, 2, d, _random_units(rng, ctx, d)))
            exact = free_distance(code.generator).distance
            assert free_distance_bruteforce(
                code.generator, code.delta + ctx.n, cap=2 ** 60
            ) == exact


def test_bruteforce_matches_plain_enumeration():
    """The oracle against a plain walk over every nonzero message of degree
    <= D, for D = 0..2, over GF(3) (k = 1 and k = 2), GF(4) (k = 2),
    GF(5), GF(8) and GF(9); and on a k = 2 GF(3) matrix whose lightest
    words come from its second row alone, which a scan that fixes the
    wrong symbol of the first block misses."""
    golden = {name: code for name, code, _ in golden_codes(load_default_fixtures())}
    codes = [_seeded_code(i) for i in (0, 2, 3, 4)]
    matrices = [c.generator for c in codes + [golden["minC5-m1"], golden["F8n7-g1"]]]
    F3 = make_field(3, 1)
    zero, one, one_z, two_z = (Poly(F3, c) for c in ([], [1], [1, 1], [0, 2]))
    matrices.append(
        PolyMatrix(F3, [[one_z, one_z, one_z, one_z], [zero, one, two_z, zero]])
    )
    for G in matrices:
        for D in range(3):
            assert free_distance_bruteforce(G, D) == min_weight_by_enumeration(G, D)


def test_bruteforce_matches_plain_enumeration_past_the_row_degrees():
    """The oracle against a plain walk over every message at D above the
    largest row degree, where prefixes that leave one pending word meet and
    only the lightest is expanded; 4,096 messages each.  dist-F2n7 (row
    degrees 2, 2, 2) at D = 3: its lightest word comes from a message of
    degree 0, so its output ends before D, and every message still pending
    at D weighs more.  A GF(2) sweep sum code (row degrees 0, 1, 1, 1) at
    D = 2: expanding the first prefix to reach a pending word instead of
    the lightest gives 7, not 6."""
    golden = {name: code for name, code, _ in golden_codes(load_default_fixtures())}
    cases = [(golden["dist-F2n7"].generator, 3, True), (_sweep_codes()[2].generator, 2, False)]
    for G, D, ends_early in cases:
        assert max(G.row_degrees()) < D
        want = min_weight_by_enumeration(G, D)
        assert free_distance_bruteforce(G, D) == want, G
        assert (min_weight_by_enumeration(G, 0) == want) == ends_early, G


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


# minimal codes beyond characteristic 2: (field, n, sigma as a permutation of
# the components, component l, Forney index d); the unit scalars are drawn
# with random.Random(index in this table)
SEEDED_CODES = (
    ("GF(3)", 4, "(1,2)(3)", 1, 5),
    ("GF(3)", 8, "(1,2)(3,4,5)", 2, 4),
    ("GF(3)", 8, "(1,2)(3,4,5)", 3, 2),
    ("GF(5)", 4, "(1,2)(3,4)", 3, 3),
    ("GF(9):y^2+1", 4, "(1,2)(3,4)", 1, 2),
    ("GF(9):y^2+1", 4, "(1,2)(3,4)", 4, 2),
)


def _seeded_code(index):
    field_text, n, perm, l, d = SEEDED_CODES[index]
    ctx = RingContext(parse_field(field_text), n)
    sig = parse_sigma(ctx, "perm:" + perm)
    units = _random_units(random.Random(index), ctx, d)
    return build_minimal_code(MinimalCodeRecipe(sig, l, d, units))


# free_distance(G).as_dict(), witnesses included, recorded with an earlier
# engine that added symbol tuples through the field tables: a packing error
# or a change in the order ties are broken shows up here
GOLDEN_REPORTS = {
    "F8n7-g1": {
        "distance": 21, "singleton": 21, "griesmer": 21, "attains": "singleton",
        "witness": [
            "1+z+a*z^2",
            "1+a^6*z+a*z^2",
            "1+a^5*z+a*z^2",
            "1+a^4*z+a*z^2",
            "1+a^3*z+a*z^2",
            "1+a^2*z+a*z^2",
            "1+a*z+a*z^2",
        ],
    },
    "F8n7-g2": {
        "distance": 21, "singleton": 21, "griesmer": 21, "attains": "singleton",
        "witness": [
            "1+a*z+a^2*z^2",
            "a^5+a^5*z+a^5*z^2",
            "a^3+a^2*z+a*z^2",
            "a+a^6*z+a^4*z^2",
            "a^6+a^3*z+z^2",
            "a^4+z+a^3*z^2",
            "a^2+a^4*z+a^6*z^2",
        ],
    },
    "F8n7-sum": {
        "distance": 18, "singleton": 20, "griesmer": 18, "attains": "griesmer",
        "witness": [
            "a^3*z+a^4*z^2",
            "a^4+a*z+a^6*z^2",
            "a+a^3*z",
            "a^3+a^3*z+a^2*z^2",
            "a^2+a^3*z^2",
            "a^5+a^6*z+z^2",
            "a^6+a^2*z+a^5*z^2",
        ],
    },
    "dist-F2n7": {
        "distance": 12, "singleton": 19, "griesmer": 12, "attains": "griesmer",
        "witness": [
            "z^2",
            "z+z^2",
            "1+z^2",
            "0",
            "1+z",
            "1+z+z^2",
            "1+z",
        ],
    },
    "minC3-d1": {
        "distance": 6, "singleton": 6, "griesmer": 6, "attains": "singleton",
        "witness": [
            "1+z",
            "a^2+a*z",
            "a+a^2*z",
        ],
    },
    "minC3-d2": {
        "distance": 9, "singleton": 9, "griesmer": 9, "attains": "singleton",
        "witness": [
            "1+z+a*z^2",
            "a^2+a*z+z^2",
            "a+a^2*z+a^2*z^2",
        ],
    },
    "minC3-d3": {
        "distance": 12, "singleton": 12, "griesmer": 12, "attains": "singleton",
        "witness": [
            "1+a*z+a*z^2+z^3",
            "a^2+a^2*z+z^2+a*z^3",
            "a+z+a^2*z^2+a^2*z^3",
        ],
    },
    "minC3-d4": {
        "distance": 14, "singleton": 15, "griesmer": 14, "attains": "griesmer",
        "witness": [
            "1+a^2*z+a^2*z^2+a^2*z^4+a*z^5",
            "a^2+z^3+a^2*z^4+z^5",
            "a+a^2*z+a^2*z^2+z^3+a^2*z^5",
        ],
    },
    "minC3-d5": {
        "distance": 16, "singleton": 18, "griesmer": 16, "attains": "griesmer",
        "witness": [
            "1+a^2*z^3+a^2*z^5+z^6",
            "a^2+z+z^2+a*z^4+a^2*z^5+a*z^6",
            "a+z+z^2+a^2*z^3+a*z^4+a^2*z^6",
        ],
    },
    "minC3-d6": {
        "distance": 18, "singleton": 21, "griesmer": 19, "attains": "below",
        "witness": [
            "a^2+a^2*z+a^2*z^2+z^5+z^7+a*z^8",
            "a+z+a*z^2+a*z^5+a*z^7+z^8",
            "1+a*z+z^2+a^2*z^5+a^2*z^7+a^2*z^8",
        ],
    },
    "minC5-m1": {
        "distance": 8, "singleton": 9, "griesmer": 8, "attains": "griesmer",
        "witness": [
            "a+a*z",
            "a^2*z",
            "a",
            "a^2+a^2*z",
            "a^2+a*z",
        ],
    },
    "minC5-m2": {
        "distance": 12, "singleton": 14, "griesmer": 12, "attains": "griesmer",
        "witness": [
            "a+a*z+a^2*z^2",
            "a^2*z+z^2",
            "a+z^2",
            "a^2+a^2*z+a^2*z^2",
            "a^2+a*z",
        ],
    },
    "minC5-m3": {
        "distance": 16, "singleton": 19, "griesmer": 16, "attains": "griesmer",
        "witness": [
            "a+a^2*z+a^2*z^2+a*z^3",
            "z+z^2+a*z^3",
            "a+z^2+a^2*z^3",
            "a^2+z+a^2*z^2",
            "a^2+a^2*z+a^2*z^3",
        ],
    },
}

# the same for SEEDED_CODES, in order
SEEDED_REPORTS = [
    {
        "distance": 16, "singleton": 24, "griesmer": 21, "attains": "below",
        "witness": [
            "1+a*z^3+z^4+a*z^5",
            "a+a*z^3+a*z^4+a*z^5",
            "1+a*z^3+z^4+a*z^5",
            "a+a*z^3+a*z^4+a*z^5",
        ],
    },
    {
        "distance": 32, "singleton": 40, "griesmer": 36, "attains": "below",
        "witness": [
            "a+z+a*z^3+a*z^4+z^5",
            "a+a*z^2+z^5",
            "a+z+a*z^3+a*z^4+z^5",
            "a+a*z^2+z^5",
            "a+z+a*z^3+a*z^4+z^5",
            "a+a*z^2+z^5",
            "a+z+a*z^3+a*z^4+z^5",
            "a+a*z^2+z^5",
        ],
    },
    {
        "distance": 16, "singleton": 23, "griesmer": 18, "attains": "below",
        "witness": [
            "a*z+a*z^2",
            "1+z+a*z^2",
            "0",
            "a+z+a*z^2",
            "z+z^2",
            "1+a*z+z^2",
            "0",
            "a+a*z+z^2",
        ],
    },
    {
        "distance": 16, "singleton": 16, "griesmer": 16, "attains": "singleton",
        "witness": [
            "a^2+a^2*z+a*z^2+a^2*z^3",
            "a^2+a*z+a*z^2+a*z^3",
            "a^2+z+a*z^2+z^3",
            "a^2+a^3*z+a*z^2+a^3*z^3",
        ],
    },
    {
        "distance": 12, "singleton": 12, "griesmer": 12, "attains": "singleton",
        "witness": [
            "1+a^2*z+a^6*z^2",
            "a^4+a^4*z+a^2*z^2",
            "1+a^6*z+a^6*z^2",
            "a^4+z+a^2*z^2",
        ],
    },
    {
        "distance": 12, "singleton": 12, "griesmer": 12, "attains": "singleton",
        "witness": [
            "1+a^5*z+a^4*z^2",
            "a^6+a^5*z+a^2*z^2",
            "a^4+a^5*z+z^2",
            "a^2+a^5*z+a^6*z^2",
        ],
    },
]


def test_golden_reports_pinned():
    reports = {
        name: free_distance(code.generator).as_dict()
        for name, code, _ in golden_codes(load_default_fixtures())
    }
    assert reports == GOLDEN_REPORTS
    seeded = [free_distance(_seeded_code(i).generator).as_dict() for i in range(len(SEEDED_CODES))]
    assert seeded == SEEDED_REPORTS


@pytest.mark.parametrize("index", range(len(SEEDED_CODES)))
def test_odd_characteristic_state_graph_matches_oracle(index):
    code = _seeded_code(index)
    rep = free_distance(code.generator)
    assert free_distance_bruteforce(
        code.generator, code.delta + code.n, cap=2 ** 80
    ) == rep.distance
    assert rep.distance <= rep.griesmer <= rep.singleton


@functools.cache  # two tests share the codes
def _sweep_codes():
    """34 seeded codes over each SWEEP_CONTEXTS context, in turn: a block
    code (delta = 0, every row of degree 0), a minimal code of delta > 0 on
    a moved cycle, and the orthogonal sum of a block code with such a
    minimal code, whose degree-0 rows send several input blocks to one
    successor.  At most 1024 states and 256 input blocks each."""
    per_context, max_states, max_inputs = 34, 1024, 256
    rng = random.Random(131)
    codes = []
    for field_text, n in SWEEP_CONTEXTS:
        ctx = RingContext(parse_field(field_text), n)
        q, kappas = ctx.field.q, ctx.kappas
        sigmas = [s for s in enumerate_automorphisms(ctx) if len(s.cycles) < ctx.r]

        def minimal(sig, l, d):
            return build_minimal_code(MinimalCodeRecipe(sig, l, d, _random_units(rng, ctx, d)))

        def moved_code(sig, l):
            ds = [d for d in (1, 2, 3) if q ** (d * kappas[l - 1]) <= max_states]
            return minimal(sig, l, rng.choice(ds))

        made = []
        while len(made) < per_context:
            sig = rng.choice(sigmas)
            moved = [l for c in sig.cycles if len(c) > 1 for l in c]
            kind = len(made) % 3
            if kind == 0:
                l = rng.randrange(1, ctx.r + 1)
                if q ** kappas[l - 1] <= max_inputs:
                    made.append(minimal(sig, l, 0))
            elif kind == 1:
                l = rng.choice(moved)
                if q ** kappas[l - 1] <= max_inputs:
                    made.append(moved_code(sig, l))
            else:
                l = rng.choice(moved)
                others = [j for j in range(1, ctx.r + 1) if not sig.same_cycle(j, l)]
                if others:
                    j = rng.choice(others)
                    if q ** (kappas[j - 1] + kappas[l - 1]) <= max_inputs:
                        made.append(orthogonal_sum([minimal(sig, j, 0), moved_code(sig, l)]))
        codes += made
    return tuple(codes)


def test_state_graph_sweep_matches_edge_reference():
    """free_distance, which flags a whole input fan at once, against the
    reference that relaxes one edge at a time: the same report, witness
    included, on 306 seeded codes (see _sweep_codes)."""
    codes = _sweep_codes()
    assert len(codes) >= 300
    block = [c for c in codes if c.delta == 0]
    mixed = [c for c in codes if c.delta and 0 in c.forney]
    assert len(block) >= 90 and len(mixed) >= 90
    for code in codes:
        G = code.generator
        assert free_distance(G).as_dict() == free_distance_by_edges(G).as_dict(), G


# orthogonal sums of two minimal codes, one on each of two moved cycles, at
# 1024 < q^delta <= 4096, past the sweep: (field, n, sigma, Forney index on
# the first moved cycle and on the second, for each code)
LARGE_SUMS = (
    ("GF(3)", 8, "(1,2)(3,4,5)", ((1, 3), (5, 1))),
    ("GF(4):y^2+y+1", 9, "(1)(2,3)(4,5)", ((3, 1),)),
    ("GF(5)", 4, "(1,2)(3,4)", ((2, 3), (4, 1))),
    ("GF(8):y^3+y+1", 7, "(1,2)(3,4,5)(6)(7)", ((1, 3), (3, 1))),
)


def test_class_search_matches_edge_reference_past_the_sweep():
    """free_distance, a search over classes of scalar multiples, against
    the reference over every state, on seeded sums of 1,025 to 4,096
    states: the same report, witness included."""
    rng = random.Random(1511)
    for field_text, n, perm, splits in LARGE_SUMS:
        ctx = RingContext(parse_field(field_text), n)
        sig = parse_sigma(ctx, "perm:" + perm)
        moved = [c for c in sig.cycles if len(c) > 1]
        for ds in splits:
            code = orthogonal_sum(
                build_minimal_code(
                    MinimalCodeRecipe(sig, rng.choice(c), d, _random_units(rng, ctx, d))
                )
                for c, d in zip(moved, ds)
            )
            assert 1024 < ctx.field.q ** code.delta <= 4096
            G = code.generator
            assert free_distance(G).as_dict() == free_distance_by_edges(G).as_dict(), G


def test_witness_follows_the_settling_order():
    """A (3,2,2) code over GF(3) with edges of weight 0 between nonzero
    states.  State 5 reaches distance 1 only through such an edge from
    state 8, so the search settles it after 7 and 8, though 5 < 7; 5 and 7
    both close a path of weight 3, and the witness takes 7's edge, as the
    reference does."""
    F = parse_field("GF(3)")
    rows = [[(2,), (2, 2), (1,)], [(1, 1), (1, 2), (0, 1)]]
    G = PolyMatrix(F, [[Poly(F, list(c)) for c in row] for row in rows])
    rep = free_distance(G)
    assert rep.as_dict() == free_distance_by_edges(G).as_dict()
    assert rep.distance == 3
    assert [p.to_str("z") for p in rep.witness] == ["z^2", "0", "1+z^2"]


def test_state_graph_matches_edge_reference_on_random_matrices():
    """free_distance against the reference on 1,000 seeded minimal matrices
    over GF(2), GF(3), GF(4) and GF(5), k <= 2, n <= k + 2, row degrees <=
    3: with so few columns, many edges between nonzero states weigh 0, and
    they change the order in which the search settles states."""
    fields = [parse_field(t) for t in ("GF(2)", "GF(3)", "GF(4):y^2+y+1", "GF(5)")]
    rng = random.Random(2203)
    tested = 0
    while tested < 1000:
        F = rng.choice(fields)
        k = rng.choice((1, 2))
        n = rng.randrange(k + 1, k + 3)
        degs = [rng.randrange(4) for _ in range(k)]
        if not 0 < sum(degs) or F.q ** sum(degs) > 2048:
            continue
        rows = [
            [Poly(F, [rng.randrange(F.q) for _ in range(d + 1)]) for _ in range(n)]
            for d in degs
        ]
        G = PolyMatrix(F, rows)
        if min(G.row_degrees()) < 0 or not G.is_right_invertible() or not G.is_minimal():
            continue
        tested += 1
        assert free_distance(G).as_dict() == free_distance_by_edges(G).as_dict(), G


def test_heap_pushes_pinned(monkeypatch):
    """The search pushes one heap entry per improved class: on the
    (7,2,4)/GF(8) sum, 1/7 of the 4,116 pushes a search over states makes;
    over GF(2) every class is one state."""
    pushes = []

    def push(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(
        distance, "heapq", types.SimpleNamespace(heappush=push, heappop=heapq.heappop)
    )
    codes = {name: code for name, code, _ in golden_codes(load_default_fixtures())}
    for name, want in (("F8n7-sum", 588), ("dist-F2n7", 70)):
        pushes.clear()
        free_distance(codes[name].generator)
        assert len(pushes) == want, name


def test_oracle_sweep_matches_enumeration_and_state_graph():
    """free_distance_bruteforce on the sweep codes: against the plain
    enumeration for D <= 2 while it walks at most 256 messages, and against
    the state graph at D = delta + n on every other code."""
    codes = _sweep_codes()
    enumerated = 0
    for index, code in enumerate(codes):
        G = code.generator
        q, k = G.field.q, G.nrows
        for D in range(3):
            if q ** (k * (D + 1)) <= 256:
                enumerated += 1
                assert free_distance_bruteforce(G, D) == min_weight_by_enumeration(G, D), G
        if index % 2 == 0:
            exact = free_distance(G).distance
            assert free_distance_bruteforce(G, code.delta + code.n, cap=2 ** 400) == exact, G
    assert enumerated >= 300


@functools.cache  # two tests share the fields; building them takes ~2 s
def _default_fields():
    primes = [p for p in range(2, MAX_FIELD_SIZE + 1) if all(p % d for d in range(2, p))]
    return tuple(
        make_field(p, e)
        for p in primes
        for e in range(1, MAX_FIELD_SIZE.bit_length())
        if p ** e <= MAX_FIELD_SIZE
    )


def _nonzero(word):
    return sum(1 for c in word if c)


def test_packed_word_arithmetic():
    """The packed add and weight against the field tables and a plain count,
    and unpack as the inverse of pack: every symbol pair at each position
    of a length-3 word whose other symbols are seeded, and for q <= 16
    every pair of length-2 words."""
    fields = _default_fields()
    assert len(fields) == 70
    for field in fields:
        q, table = field.q, field._add
        rng = random.Random(q)
        pack, add, weight, _, _ = _word_ops(field, 3)
        unpack = _unpacker(field, 3)
        u = [rng.randrange(q) for _ in range(3)]
        v = [rng.randrange(q) for _ in range(3)]
        uv = [table[x][y] for x, y in zip(u, v)]
        for j in range(3):
            us, vs, sums = (
                [w[:j] + [c] + w[j + 1:] for c in range(q)] for w in (u, v, uv)
            )
            packed_sums = [pack(w) for w in sums]
            assert len(set(packed_sums)) == q
            for words in (us, vs, sums):
                assert [weight(pack(w)) for w in words] == [_nonzero(w) for w in words]
                assert [unpack(pack(w)) for w in words] == [tuple(w) for w in words]
            packed_vs = [pack(w) for w in vs]
            for a in range(q):
                x = pack(us[a])
                assert [add(x, y) for y in packed_vs] == [packed_sums[c] for c in table[a]]
        # words of up to three blocks
        pack, add, weight, _, _ = _word_ops(field, 3, 3)
        u = [rng.randrange(q) for _ in range(9)]
        v = [rng.randrange(q) for _ in range(9)]
        assert add(pack(u), pack(v)) == pack([table[x][y] for x, y in zip(u, v)])
        assert weight(pack(u)) == _nonzero(u)
        if q > 16:
            continue
        pack, add, weight, _, _ = _word_ops(field, 2)
        unpack = _unpacker(field, 2)
        packed = {pack([a, b]): [a, b] for a in range(q) for b in range(q)}
        assert len(packed) == q * q
        for x, w in packed.items():
            assert weight(x) == _nonzero(w)
            assert unpack(x) == tuple(w)
            for y, w2 in packed.items():
                assert packed[add(x, y)] == [table[a][b] for a, b in zip(w, w2)]


def _packed(weights, S):
    """The one int that holds weights[a] in bits [a*S, (a+1)*S)."""
    return sum(w << (a * S) for a, w in enumerate(weights))


def test_block_weights():
    """weights(base) against a plain count of every base + words[a], packed
    one count per S-bit field with every other bit 0: for every default
    field, tables of 1, q and 64 seeded words of 3 symbols, one word the
    negation of base; and 300-symbol words, whose counts pass 255, in
    characteristic 2 and in odd characteristic."""
    for field in _default_fields():
        q, table, neg = field.q, field._add, field._neg
        rng = random.Random(q)
        pack, _, _, S, block_weights = _word_ops(field, 3)
        for size in (1, q, 64):
            base = [rng.randrange(q) for _ in range(3)]
            words = [[neg[c] for c in base]]
            words += [[rng.randrange(q) for _ in range(3)] for _ in range(size - 1)]
            weights = block_weights([pack(w) for w in words])
            expected = [_nonzero(table[x][y] for x, y in zip(base, w)) for w in words]
            assert weights(pack(base)) == _packed(expected, S)
    by_size = {field.q: field for field in _default_fields()}
    for q in (2, 256, 3, 251):
        field, table = by_size[q], by_size[q]._add
        rng = random.Random(q)
        pack, _, _, S, block_weights = _word_ops(field, 300)
        base = [rng.randrange(1, q) for _ in range(300)]
        words = [[0] * 300, [field._neg[c] for c in base]]
        words += [[rng.randrange(q) for _ in range(300)] for _ in range(5)]
        weights = block_weights([pack(w) for w in words])
        expected = [_nonzero(table[x][y] for x, y in zip(base, w)) for w in words]
        assert expected[0] == 300
        assert weights(pack(base)) == _packed(expected, S)
