import math
import random
from types import SimpleNamespace

import pytest

from skewcyclic import (
    Automorphism,
    RingContext,
    automorphism_count,
    enumerate_automorphisms,
    enumerate_automorphisms_bruteforce,
    find_automorphism_for_permutation,
    identity_automorphism,
    make_field,
    permutation_from_cycles,
)
from skewcyclic import automorphisms
from skewcyclic.errors import (
    BadParameters,
    ClassViolation,
    IndexOutOfRange,
    NotAnAutomorphism,
    SearchSpaceTooLarge,
)
from skewcyclic.literals import parse_field
from skewcyclic.skew import SkewPoly

from helpers import SWEEP_CONTEXTS, automorphism_perm_by_rank, automorphisms_by_crt_lift


def test_x5_induces_transposition(ctx27, sig27):
    assert sig27.perm == (1, 3, 2)
    assert sig27.cycle_str() == "(1)(2,3)"
    assert sig27.apply(ctx27.idempotent(2)) == ctx27.idempotent(3)
    assert sig27.apply(ctx27.idempotent(3)) == ctx27.idempotent(2)


def test_identity(ctx27):
    ide = identity_automorphism(ctx27)
    assert ide.perm == (1, 2, 3)
    assert ide.sigma_equiv_classes() == ((1,), (2,), (3,))
    a = ctx27.element([1, 0, 1])
    assert ide.apply(a) == a


def test_f4n3_x_squared(ctx43, sig43):
    assert sig43.apply(ctx43.idempotent(2)) == ctx43.idempotent(3)
    assert sig43.apply(ctx43.idempotent(3)) == ctx43.idempotent(2)
    assert sig43.cycle_str() == "(1)(2,3)"


def test_apply_powers(ctx27, sig27):
    e2 = ctx27.idempotent(2)
    a = ctx27.element([1, 1, 0, 1])
    assert sig27.apply(a, 0) == a
    assert sig27.apply(e2, 1) == ctx27.idempotent(3)
    assert sig27.apply(e2, 2) == e2
    # negative powers via the map order
    assert sig27.apply(sig27.apply(a, 1), -1) == a


def test_rejects_non_automorphism(ctx27):
    # x^2 + 1 squares to x^4 + ... but (1+x^2)^7 != 1; and eps_2 is idempotent
    with pytest.raises(NotAnAutomorphism):
        Automorphism(ctx27, ctx27.idempotent(2))
    with pytest.raises(NotAnAutomorphism):
        Automorphism(ctx27, ctx27.zero)
    # a^n = 1 but powers dependent: a = 1
    with pytest.raises(NotAnAutomorphism):
        Automorphism(ctx27, ctx27.one)


@pytest.mark.parametrize(
    "field, n",
    [("GF(2)", 7), ("GF(4):y^2+y+1", 3), ("GF(3)", 4), ("GF(5)", 4), ("GF(4):y^2+y+1", 5)],
)
def test_validation_agrees_with_rank_oracle(field, n):
    """Over every a in A, Automorphism(A, a) succeeds iff the full criterion
    (a^n = 1, powers of rank n, idempotents permuted) accepts a, with the
    same permutation; otherwise it raises NotAnAutomorphism.  The accepted
    images are the whole group."""
    ctx = RingContext(parse_field(field), n)
    accepted = 0
    for a in ctx.elements():
        want = automorphism_perm_by_rank(ctx, a)
        try:
            got = Automorphism(ctx, a).perm
        except NotAnAutomorphism:
            got = None
        assert got == want, a
        accepted += got is not None
    assert accepted == automorphism_count(ctx)


def test_rejection_names_primitive_idempotents(ctx27):
    """a = 1 has a^n = 1 but sends every eps_k to 0 or 1."""
    with pytest.raises(NotAnAutomorphism, match="maps to no primitive idempotent"):
        Automorphism(ctx27, ctx27.one)


def test_apply_reduces_every_power_mod_order(monkeypatch, ctx27, ctx87, sig87):
    """apply(a, p) equals apply(a, p % order) for huge powers of either
    sign, and maps a code list fewer than order times (the counting wrapper
    stops a run that reaches order maps)."""
    sigmas = enumerate_automorphisms(ctx27) + [sig87]
    assert {s.order for s in sigmas} == {1, 2, 3, 6}
    calls = []
    once = Automorphism._apply_once

    def counted(self, codes):
        calls.append(1)
        if len(calls) >= self.order:
            raise AssertionError(f"{self} mapped {len(calls)} times")
        return once(self, codes)

    for s in sigmas:
        a = s.context.from_codes([(3 * i + 1) % s.context.field.q for i in range(s.context.n)])
        for p in (10 ** 18, 10 ** 18 + 1, -(10 ** 18 + 1)):
            want = s.apply(a, p % s.order)
            monkeypatch.setattr(Automorphism, "_apply_once", counted)
            calls.clear()
            assert s.apply(a, p) == want, (s, p)
            assert len(calls) == p % s.order < s.order, (s, p)
            monkeypatch.setattr(Automorphism, "_apply_once", once)


def test_sigma_equiv_classes(ctx27, sig27, ctx87, sig87):
    assert sig27.sigma_equiv_classes() == ((1,), (2, 3))
    assert sig87.sigma_equiv_classes() == ((1, 2), (3, 4, 5), (6,), (7,))


def test_l_order(sig43, sig87):
    assert sig43.l_order(2) == 2
    assert sig43.l_order(1) == 1
    assert sig87.l_order(4) == 3
    assert sig87.l_order(6) == 1
    with pytest.raises(IndexOutOfRange):
        sig43.l_order(0)


def test_perm_power_matches_walk():
    """perm_power(k, t), one index into k's cycle, against t mod order
    steps along perm, for every k and every t in [-2 order, 2 order], on
    up to 12 seeded automorphisms of each sweep context."""
    rng = random.Random(29)
    for field_text, n in SWEEP_CONTEXTS:
        ctx = RingContext(parse_field(field_text), n)
        sigmas = enumerate_automorphisms(ctx)
        for sig in rng.sample(sigmas, min(12, len(sigmas))):
            for k in range(1, ctx.r + 1):
                for t in range(-2 * sig.order, 2 * sig.order + 1):
                    walked = k
                    for _ in range(t % sig.order):
                        walked = sig.perm[walked - 1]
                    assert sig.perm_power(k, t) == walked, (sig, k, t)
            for k in (0, ctx.r + 1):
                with pytest.raises(IndexOutOfRange):
                    sig.perm_power(k, 1)


def test_same_cycle_checks_indices(sig27, sig87):
    """same_cycle against the cycle list, on every pair of 1..r; an index
    outside 1..r, in either place, raises IndexOutOfRange as perm_power and
    l_order do (same_cycle(0, 9) answered False before)."""
    for sig in (sig27, sig87):
        r = sig.context.r
        for k in range(1, r + 1):
            for l in range(1, r + 1):
                want = any(k in cyc and l in cyc for cyc in sig.cycles)
                assert sig.same_cycle(k, l) == want, (sig, k, l)
            for bad in (0, r + 1, 9):
                with pytest.raises(IndexOutOfRange):
                    sig.same_cycle(k, bad)
                with pytest.raises(IndexOutOfRange):
                    sig.same_cycle(bad, k)
    with pytest.raises(IndexOutOfRange):
        sig27.same_cycle(0, 9)


def test_l_order_is_minimal(sig27, sig87):
    for sig in (sig27, sig87):
        ctx = sig.context
        for l in range(1, ctx.r + 1):
            o = sig.l_order(l)
            e = ctx.idempotent(l)
            assert sig.apply(e, o) == e
            for m in range(1, o):
                assert sig.apply(e, m) != e


def test_enumeration_counts(ctx27, ctx43, ctx45):
    for ctx, want in ((ctx27, 18), (ctx43, 6), (ctx45, 8)):
        auts = enumerate_automorphisms(ctx)
        assert len(auts) == want == automorphism_count(ctx)
        images = {s.sigma_x.codes for s in auts}
        assert len(images) == want
        bf = enumerate_automorphisms_bruteforce(ctx)
        assert {s.sigma_x.codes for s in bf} == images


def test_enumeration_cap_before_root_search(monkeypatch):
    """GF(2), n = 31 has 11,250,000 automorphisms: the listing is refused
    before any root of a factor is searched for."""
    ctx = RingContext(make_field(2, 1), 31)

    def refuse(*args):
        raise AssertionError("root search started before the cap")

    monkeypatch.setattr(automorphisms, "_roots_in_component", refuse)
    with pytest.raises(SearchSpaceTooLarge, match="11250000 automorphisms exceed"):
        enumerate_automorphisms(ctx)


def test_enumeration_n1():
    F2 = make_field(2, 1)
    ctx = RingContext(F2, 1)
    auts = enumerate_automorphisms(ctx)
    assert len(auts) == 1 == automorphism_count(ctx)


def test_f8n7_count_formula(ctx87):
    assert automorphism_count(ctx87) == 5040  # 1^7 * 7!


def test_enumerated_are_homomorphisms(ctx27):
    rng = random.Random(5)
    for sig in enumerate_automorphisms(ctx27):
        # multiplicative on a basis sample and additive by construction
        for _ in range(10):
            a = ctx27.from_codes([rng.randrange(2) for _ in range(7)])
            b = ctx27.from_codes([rng.randrange(2) for _ in range(7)])
            assert sig.apply(a * b) == sig.apply(a) * sig.apply(b)
            assert sig.apply(a + b) == sig.apply(a) + sig.apply(b)
        assert sig.apply(ctx27.one) == ctx27.one


def test_perm_preserves_degree_classes(ctx27, ctx45):
    for ctx in (ctx27, ctx45):
        for sig in enumerate_automorphisms(ctx):
            for cls in ctx.degree_classes:
                assert {sig.perm[k - 1] for k in cls} == set(cls)


def test_find_for_permutation(ctx27, ctx87):
    sig = find_automorphism_for_permutation(ctx27, (1, 3, 2))
    assert sig.perm == (1, 3, 2)
    # x^5 is among all automorphisms inducing (1)(2,3)
    images = {
        s.sigma_x.codes
        for s in enumerate_automorphisms(ctx27)
        if s.perm == (1, 3, 2)
    }
    x5 = ctx27.element([0, 0, 0, 0, 0, 1])
    assert x5.codes in images
    # identity permutation: sigma(x) = x qualifies
    ide = find_automorphism_for_permutation(ctx27, (1, 2, 3))
    assert ide.perm == (1, 2, 3)
    big = find_automorphism_for_permutation(
        ctx87, permutation_from_cycles(7, [(1, 2), (3, 4, 5)])
    )
    assert big.cycle_str() == "(1,2)(3,4,5)(6)(7)"


def test_find_rejects_class_violation(ctx27):
    with pytest.raises(ClassViolation):
        find_automorphism_for_permutation(ctx27, (2, 1, 3))
    with pytest.raises(ClassViolation):
        find_automorphism_for_permutation(ctx27, (1, 1, 2))


@pytest.mark.parametrize("field, n", SWEEP_CONTEXTS)
def test_constructed_match_validated(field, n):
    """Every enumerated automorphism, built without re-checking, equals the
    one the validating constructor builds from its image of x."""
    ctx = RingContext(parse_field(field), n)
    auts = enumerate_automorphisms(ctx)
    assert len(auts) == automorphism_count(ctx)
    for s in auts:
        v = Automorphism(ctx, s.sigma_x)
        assert v.perm == s.perm and v.cycles == s.cycles
        assert v.order == s.order
        assert v._power_matrix == s._power_matrix


@pytest.mark.parametrize("field, n", SWEEP_CONTEXTS)
def test_enumeration_matches_crt_lift_in_order(field, n):
    """The enumeration by summed component lifts against one CRT lift per
    element, element by element and in order: sigma(x), perm and cycles
    (built on first use in production, walked afresh by the helper)."""
    ctx = RingContext(parse_field(field), n)
    got = enumerate_automorphisms(ctx)
    want = automorphisms_by_crt_lift(ctx)
    assert len(got) == len(want) == automorphism_count(ctx)
    for s, (sigma_x, perm, cycles) in zip(got, want):
        assert s.sigma_x.codes == sigma_x.codes
        assert s.perm == perm
        assert s.cycles == cycles


@pytest.mark.parametrize("field, n", SWEEP_CONTEXTS)
def test_find_for_permutation_is_first_enumerated(field, n):
    """The direct CRT lift for one permutation equals the first element of
    the packed enumeration with that permutation, for every class-preserving
    permutation."""
    ctx = RingContext(parse_field(field), n)
    first = {}
    for s in enumerate_automorphisms(ctx):
        first.setdefault(s.perm, s)
    assert len(first) == math.prod(math.factorial(len(c)) for c in ctx.degree_classes)
    for perm, s in first.items():
        found = find_automorphism_for_permutation(ctx, perm)
        assert (found.sigma_x.codes, found.perm) == (s.sigma_x.codes, perm)


def test_enumerated_cycles_built_on_first_use(ctx27):
    """Enumeration builds sigma(x) and perm only; cycles wait for a read."""
    auts = enumerate_automorphisms(ctx27)
    assert not any("cycles" in vars(s) for s in auts)
    s = next(s for s in auts if s.perm == (1, 3, 2))
    assert s.cycle_str() == "(1)(2,3)"
    assert "cycles" in vars(s) and s.cycles == ((1,), (2, 3))


def test_bruteforce_cap_message_past_int_str_limit():
    """n*q^n is refused without being built or printed in full: at n =
    15001 it has more digits than Python converts to a string.  A stand-in
    context carries only n and q, as a real ring that long takes minutes."""
    ctx = SimpleNamespace(n=15001, field=SimpleNamespace(q=2))
    with pytest.raises(SearchSpaceTooLarge, match=r"got 15001\*2\^15001$"):
        enumerate_automorphisms_bruteforce(ctx)


def test_construction_does_not_validate(monkeypatch, ctx27):
    def refuse(self, context, sigma_x):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(Automorphism, "__init__", refuse)
    assert len(enumerate_automorphisms(ctx27)) == 18
    assert find_automorphism_for_permutation(ctx27, (1, 3, 2)).perm == (1, 3, 2)
    assert identity_automorphism(ctx27).perm == (1, 2, 3)


def test_permutation_from_cycles_expands_disjoint_cycles():
    assert permutation_from_cycles(5, [(2, 3), (1, 5, 4)]) == (5, 3, 2, 1, 4)
    assert permutation_from_cycles(3, [(2,)]) == (1, 2, 3)
    assert permutation_from_cycles(3, []) == (1, 2, 3)


def test_permutation_from_cycles_refuses_shared_index():
    """Cycles that share an index are no permutation: (1,2)(2,3) read as
    (2, 3, 2) before."""
    with pytest.raises(BadParameters, match="index 2 appears twice"):
        permutation_from_cycles(3, [(1, 2), (2, 3)])


def test_permutation_from_cycles_refuses_index_repeated_in_a_cycle():
    """(1,1) named 1 twice and read as the identity before."""
    with pytest.raises(BadParameters, match="index 1 appears twice"):
        permutation_from_cycles(3, [(1, 1)])


@pytest.mark.parametrize("cycles", [[(1, 5)], [(0, 1)], [(-1, 2)]], ids=str)
def test_permutation_from_cycles_refuses_out_of_range_index(cycles):
    """An index outside 1..r raised a bare IndexError (5) or wrapped around
    the list (0, -1) before."""
    with pytest.raises(IndexOutOfRange, match=r"not in 1\.\.3"):
        permutation_from_cycles(3, cycles)


def _horner(a, y):
    """a(y) for a in A = F[x]/(x^n - 1), by Horner's rule in RingElement
    products: the image of a under the algebra map x -> y."""
    ctx = a.context
    out = ctx.zero
    for c in reversed(a.codes):
        out = out * y + ctx.from_codes((c,) + (0,) * (ctx.n - 1))
    return out


def _oracle_sigmas(ctx, rng):
    """One monomial sigma(x) = x^t (t > 1 a seeded unit mod n), through the
    validating constructor, and one sigma built from the permutation that
    rotates every degree class of size > 1."""
    ts = [t for t in range(2, ctx.n) if math.gcd(t, ctx.n) == 1]
    monomial = Automorphism(ctx, ctx.element([0] * rng.choice(ts) + [1]))
    cycles = [cls for cls in ctx.degree_classes if len(cls) > 1]
    built = find_automorphism_for_permutation(ctx, permutation_from_cycles(ctx.r, cycles))
    return monomial, built


@pytest.mark.parametrize("field, n", SWEEP_CONTEXTS)
def test_sigma_matches_horner_oracle(field, n):
    """sigma^p(a) against Horner's evaluation of a at sigma^p(x), for every
    p below the map order, where sigma^p(x) is itself Horner-evaluated from
    sigma^(p-1)(x): no row of sigma's matrix is read.  And a z = z sigma(a)
    in A[z;sigma], where the product twists a through skew._twists.  The
    term-wise product oracle of the skew tests goes through `apply`, so this
    is the independent check of the rows sigma is applied through."""
    ctx = RingContext(parse_field(field), n)
    rng = random.Random(7 * n + ctx.field.q)
    for sig in _oracle_sigmas(ctx, rng):
        images = [ctx.x]
        while True:
            y = _horner(images[-1], sig.sigma_x)
            if y == ctx.x:
                break
            images.append(y)
        # the oracle's order is pinned first, so a faulty row fails on a value
        # below rather than looping in x_images; sigma's own order is read last
        sig.__dict__["order"] = len(images)
        z = SkewPoly.z_power(sig, 1)
        for _ in range(20):
            a = ctx.from_codes([rng.randrange(ctx.field.q) for _ in range(n)])
            for p, y in enumerate(images):
                assert sig.apply(a, p) == _horner(a, y), (sig, a, p)
            twisted = SkewPoly.constant(sig, _horner(a, images[1 % len(images)]))
            assert SkewPoly.constant(sig, a) * z == z * twisted, (sig, a)
        assert Automorphism(ctx, sig.sigma_x).order == len(images)
