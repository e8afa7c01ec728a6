"""High-level code constructions on top of the skew-polynomial machinery.

Minimal codes come from single components of units; sums over components
in disjoint permutation cycles stay direct and add their parameters.
"""

from __future__ import annotations

from typing import NamedTuple

from .automorphisms import Automorphism
from .convolutional import ConvCode
from .errors import (
    BadParameters,
    ComponentMismatch,
    FixedIdempotent,
    NotAUnit,
    NonUnitScalar,
    OverlappingCycles,
)
from .skew import MAX_Z_DEGREE, SkewPoly, _ring_scalar, unit_product


class _RecipeFields(NamedTuple):
    sigma: Automorphism
    l: int
    d: int
    scalars: tuple = ()


class MinimalCodeRecipe(_RecipeFields):
    """One minimal code: component l, target Forney index d, unit scalars.

    Checked when made: 0 <= d <= MAX_Z_DEGREE (the z-degree of the
    generator), l in 1..r, sigma moves eps_l when d > 0, and exactly d
    scalars, each a unit of A; int and field scalars become ring elements
    (skew._ring_scalar, which refuses a ring element of another context),
    and no scalars means `default_scalars`."""

    __slots__ = ()

    def __new__(cls, sigma: Automorphism, l: int, d: int, scalars: tuple = ()):
        if d < 0:
            raise BadParameters("Forney index must be >= 0")
        if d > MAX_Z_DEGREE:
            raise BadParameters(f"Forney index must be <= MAX_Z_DEGREE = {MAX_Z_DEGREE}")
        if sigma.l_order(l) == 1 and d > 0:  # l_order checks l in 1..r
            raise FixedIdempotent(f"sigma fixes eps_{l}: positive complexity is impossible there")
        ctx = sigma.context
        scalars = tuple(_ring_scalar(ctx, s) for s in scalars or default_scalars(ctx, d))
        if len(scalars) != d:
            raise BadParameters(f"need exactly {d} scalars")
        for s in scalars:
            if not ctx.is_unit(s):
                raise NonUnitScalar(f"scalar {s} is not a unit of A")
        return super().__new__(cls, sigma, l, d, scalars)


def default_scalars(ctx, d: int):
    """Cyclically repeating powers 1, a, a^2, ... of the field generator."""
    gen = ctx.field.gen
    period = max(ctx.field.q - 1, 1)
    return tuple(ctx.scalar(gen ** (i % period)) for i in range(d))


def build_minimal_code(recipe: MinimalCodeRecipe) -> ConvCode:
    """Minimal code with support {l} and all Forney indices equal to d.

    Generator polynomial: eps_l * u_{a_1}(1) * ... * u_{a_d}(d).
    """
    sigma = recipe.sigma
    ctx = sigma.context
    u = unit_product(sigma, recipe.l, recipe.scalars)
    g = u.component(recipe.l)
    code = ConvCode.from_reduced(g)
    kappa = ctx.kappas[recipe.l - 1]
    if code.params != (ctx.n, kappa, recipe.d * kappa):
        raise AssertionError("minimal code has the wrong parameters")
    if code.forney != (recipe.d,) * kappa:
        raise AssertionError("minimal code has the wrong Forney indices")
    return code


def _check_components(g: SkewPoly, u: SkewPoly) -> None:
    """u must agree with g on every component of g's support."""
    ucomps = u.components()
    for l, gl in g.components().items():
        if ucomps.get(l) != gl:
            raise ComponentMismatch(f"u and g differ in component {l}")


def _check_disjoint_cycles(sigma: Automorphism, ls) -> None:
    """The components ls must lie in pairwise disjoint cycles of sigma."""
    for i, li in enumerate(ls):
        for lj in ls[i + 1 :]:
            if sigma.same_cycle(li, lj):
                raise OverlappingCycles(
                    f"components {li} and {lj} share a cycle of the permutation"
                )


def direct_complement(g: SkewPoly, u: SkewPoly) -> SkewPoly:
    """g' = sum of the components of u outside the support of g.

    Requires u to be a unit agreeing with g on g's support; then
    g + g' = u and the ideals of g and g' intersect trivially.
    """
    if not u.is_unit():
        raise NotAUnit("the completing polynomial must be a unit")
    _check_components(g, u)
    support = g.components()
    out = SkewPoly.zero(g.sigma)
    for l, ul in u.components().items():
        if l not in support:
            out = out + ul
    return out


def idempotent_generator(g: SkewPoly, u: SkewPoly) -> SkewPoly:
    """e = u^{-1} g; idempotent, generating the same left ideal as g.

    u must be a unit (unit_inverse decides, raising NotAUnit) agreeing
    with g on g's support S.  Then g = eps_S u, eps_S the sum of the eps_l
    over l in S (component l is eps_l u), so
    e^2 = u^{-1} eps_S u u^{-1} eps_S u = u^{-1} eps_S u = e, and e is
    returned unchecked; test_idempotent_generator forms e*e."""
    u_inv = u.unit_inverse()
    _check_components(g, u)
    return u_inv * g


def orthogonal_sum(codes) -> ConvCode:
    """Direct sum of minimal codes whose supports sit in disjoint cycles."""
    codes = list(codes)
    if not codes:
        raise BadParameters("need at least one code")
    if len(codes) == 1:
        return codes[0]
    for c in codes:
        if c.reduced_generator is None:
            raise BadParameters("codes must carry their generators")
        if len(c.support) != 1:
            raise BadParameters("summands must be minimal (singleton support)")
    sigma = codes[0].reduced_generator.sigma
    _check_disjoint_cycles(sigma, [c.support[0] for c in codes])
    g = SkewPoly.zero(sigma)
    for c in codes:
        g = g + c.reduced_generator
    combined = ConvCode.from_reduced(g)
    want = tuple(sorted(f for c in codes for f in c.forney))
    if combined.delta != sum(c.delta for c in codes) or combined.forney != want:
        raise AssertionError("direct sum failed to add the parameters")
    return combined


def build_unit_for_profile(sigma: Automorphism, targets) -> SkewPoly:
    """Unit w with deg_z w^(l_i) = d_i for the given (l_i, d_i) targets.

    Unused components are filled from the unit 1.  Targets must live in
    pairwise disjoint cycles, with nontrivial cycles wherever d_i > 0.
    """
    ctx = sigma.context
    targets = [(int(l), int(d)) for l, d in targets]
    _check_disjoint_cycles(sigma, [l for l, _ in targets])
    covered = set()
    w = SkewPoly.zero(sigma)
    for l, d in targets:
        # raises FixedIdempotent when d > 0 and sigma fixes eps_l
        u = unit_product(sigma, l, default_scalars(ctx, d))
        for j in range(1, ctx.r + 1):
            if sigma.same_cycle(j, l):
                covered.add(j)
                w = w + u.component(j)
    for j in range(1, ctx.r + 1):
        if j not in covered:
            w = w + SkewPoly.constant(sigma, ctx.idempotent(j))
    if not w.is_unit():
        raise AssertionError("assembled unit is not a unit")
    for l, d in targets:
        comp = w.component(l)
        if not (comp and comp.degree == d):
            raise AssertionError(f"component {l} of the unit does not have degree {d}")
    return w


def degree_profile_feasible(o: int, profile):
    """Necessary conditions on component degrees along one cycle of length o.

    Positions are 1-based along the cycle; returns (ok, reason).  The marks
    (i + d_i) mod o must be distinct, and a profile over the whole cycle
    must not be one positive degree repeated; the all-zero profile over the
    whole cycle is the unit 1's.
    """
    profile = [int(d) for d in profile]
    c = len(profile)
    if not 1 <= c <= o:
        raise BadParameters(f"need 1 <= len(profile) <= {o}")
    marks = [(i + d) % o for i, d in enumerate(profile, start=1)]
    if len(set(marks)) != c:
        return False, "leading coefficients collide: positions not distinct mod o"
    if c == o and len(set(profile)) == 1 and profile[0] > 0:
        return False, "full-cycle support with equal degrees d > 0 cannot extend to a unit"
    return True, "passes both necessary conditions"
