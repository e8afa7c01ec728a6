"""Skew polynomials over A = F[x]/(x^n - 1) twisted by an automorphism.

Elements are stored with right coefficients, f = sum_j z^j f_j, and
multiply by the twisted convolution

    (sum_j z^j a_j) (sum_l z^l b_l) = sum_t z^t sum_{j+l=t} sigma^l(a_j) b_l,

equivalently a z = z sigma(a).  When sigma is not the identity the ring
has zero divisors among the coefficients and therefore units of positive
z-degree; those units are what the code constructions are built from.
Reducedness is index arithmetic on the sigma-cycles, units are decided and
inverted by one power-series recurrence on code lists, and every matrix of
x-multiples (generator and module matrices) comes from `x_multiples`, one
cyclic convolution in A per coefficient and row.
"""

from __future__ import annotations

from itertools import islice
from types import MappingProxyType

from .errors import (
    BadParameters,
    DecompositionNotFound,
    FixedIdempotent,
    IndexOutOfRange,
    LengthMismatch,
    MixedAlgebras,
    NonUnitScalar,
    NotAUnit,
)
from .automorphisms import Automorphism
from .fields import NEG_INF, Poly, _divide, _normalized
from .ring import RingElement, accumulate_rows, cyclic_accumulate

# the largest z-degree of a literal or a recipe's Forney index: a valid GF(2)
# n=7 generator of z-degree 1000 builds in ~2 s, and the time grows as degree^2
MAX_Z_DEGREE = 1000


def _twists(sigma: Automorphism, codes: list):
    """codes, sigma(codes), ..., sigma^(order-1)(codes), each twisted from the
    one before as the caller draws it: codes is a list of code lists (None
    for a zero entry).  sigma^order = 1, so a caller reads power l at
    l % sigma.order and never twists the same list twice.  Each twist is
    accumulate_rows over the sparse rows sigma(x^i) of sigma._power_matrix,
    one pair per nonzero entry: a single pair per row for sigma(x) = x^t."""
    field, n, rows = sigma.context.field, sigma.context.n, sigma._power_matrix
    for _ in range(sigma.order):
        yield codes
        codes = [c and accumulate_rows(field, [0] * n, c, rows) for c in codes]


class SkewPoly:
    """Element of the twisted polynomial ring, right-coefficient form."""

    __slots__ = ("sigma", "coeffs", "_components")

    def __init__(self, sigma: Automorphism, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.sigma = sigma
        self.coeffs = tuple(coeffs)
        self._components = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sigma):
        return cls(sigma, ())

    @classmethod
    def one(cls, sigma):
        return cls(sigma, (sigma.context.one,))

    @classmethod
    def constant(cls, sigma, a: RingElement):
        sigma.context._check(a)
        return cls(sigma, (a,))

    @classmethod
    def z_power(cls, sigma, d: int, coeff: RingElement = None):
        """z^d coeff (coeff 1 when omitted); BadParameters for d < 0."""
        if d < 0:
            raise BadParameters(f"negative z-power {d}")
        ctx = sigma.context
        coeff = ctx.one if coeff is None else ctx._check(coeff)
        return cls(sigma, (ctx.zero,) * d + (coeff,))

    # -- basics -------------------------------------------------------------

    @property
    def context(self):
        return self.sigma.context

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, j: int) -> RingElement:
        ctx = self.context
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else ctx.zero

    @property
    def constant_term(self) -> RingElement:
        return self.coeff(0)

    def _check(self, other) -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return NotImplemented
        if other.sigma != self.sigma:
            raise MixedAlgebras("operands twisted by different automorphisms")
        return other

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            return self._check(other)
        if isinstance(other, RingElement):
            return SkewPoly.constant(self.sigma, other)
        if isinstance(other, int):
            return SkewPoly.constant(self.sigma, self.context.scalar(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return SkewPoly(self.sigma, out)

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.sigma, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return SkewPoly.zero(self.sigma)
        sigma, ctx = self.sigma, self.context
        field, n, order = ctx.field, ctx.n, sigma.order
        # sigma^l(f_j) for l below the right factor's length and the map order
        left = [a.codes if a else None for a in self.coeffs]
        twists = list(islice(_twists(sigma, left), len(other.coeffs)))
        out = [[0] * n for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for l, b in enumerate(other.coeffs):
            if b:
                for acc, a in zip(out[l:], twists[l % order]):
                    if a:
                        cyclic_accumulate(field, acc, a, b.codes)
        return SkewPoly(sigma, [RingElement(ctx, c) for c in out])

    def __rmul__(self, other):
        # other * self with other a ring constant (or int)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.sigma == other.sigma
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(c.codes for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- components, support, reducedness -------------------------------------

    def component(self, k: int) -> "SkewPoly":
        """eps_k * f; the z^nu coefficient is eps_{Pi^nu(k)} f_nu."""
        ctx = self.context
        if not 1 <= k <= ctx.r:
            raise IndexOutOfRange(f"component index {k} not in 1..{ctx.r}")
        out = []
        idx = k
        for c in self.coeffs:
            out.append(ctx.idempotent(idx) * c)
            idx = self.sigma.perm_power(idx)
        return SkewPoly(self.sigma, out)

    def components(self) -> MappingProxyType:
        """Read-only {k: eps_k f} over the support, k increasing.  The
        polynomial is immutable, so the components are computed once and kept."""
        if self._components is None:
            comps = ((k, self.component(k)) for k in range(1, self.context.r + 1))
            self._components = MappingProxyType({k: c for k, c in comps if c})
        return self._components

    def support(self):
        return tuple(self.components())

    def is_reduced(self) -> bool:
        """No term of one component right-divisible by another's leading monomial.

        Right multiples of z^mu eps_i are the polynomials with all
        coefficients in K^(i) and order >= mu.  Component l of degree mu
        leads with z^mu eps_{Pi^mu(l)}, and the z^nu term of component k
        lies in K^(Pi^nu(k)); so a term of component k != l clashes exactly
        when nu >= mu and Pi^(nu - mu)(k) = l.
        """
        comps = self.components()
        for l, fl in comps.items():
            mu = len(fl.coeffs) - 1
            for k, fk in comps.items():
                # t = nu - mu runs over the terms of fk at or above mu
                if k != l and any(
                    c and self.sigma.perm_power(k, t) == l
                    for t, c in enumerate(fk.coeffs[mu:])
                ):
                    return False
        return True

    def to_str(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                zp = "z" if j == 1 else f"z^{j}"
                parts.append(f"{zp}*({c})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"SkewPoly({self})"

    # -- units ---------------------------------------------------------------

    def module_matrix(self):
        """Right multiplication by f as an n x n matrix over F[z]: row i is
        vec(x^i f).  No unit decision uses it: it is the whole-module oracle
        of the tests, and perfbench spans it by name."""
        return x_multiples(self, self.context.n)

    def _series_inverse(self):
        """The inverse of f = sum_j z^j f_j as code lists h_0..h_e (None for
        a zero h_t), or None when f is not a unit.

        h = sum_t z^t h_t is the right inverse of f as a power series.  The
        z^t coefficient of f h is sum_{i+j=t} sigma^i(f_j) h_i, so with
        d = deg_z f and, for t >= 1,

            acc_t = sum_{i=max(0,t-d)}^{t-1} sigma^i(f_{t-i}) h_i,

        h_t = sigma^t(-f_0^-1) acc_t.  Setting z = 0 is a ring map onto A,
        so a unit's f_0 is a unit of A (RingContext._inverse_codes decides).
        - If h_s, ..., h_{s+d-1} vanish, so does every later h_t, whose sum
          reads only the d previous h_i; h is then a polynomial with f h = 1.
        - f_0 a unit gives f a left inverse l as a power series too, and
          l = l (f h) = (l f) h = h, so a polynomial right inverse is the
          two-sided inverse, and a unit's inverse is h itself.
        - For a sigma-cycle C, eps_C, the sum of the eps_k over k in C, is
          fixed by sigma, so it commutes with z and with A: it is central,
          and A[z;sigma] is the product of the rings eps_C A[z;sigma].  f is
          a unit iff every eps_C f is one, and eps_C h is then the inverse
          of eps_C f in eps_C A[z;sigma].
        - On a fixed cycle {k} that ring is the domain K_k[z;theta], whose
          units are constants, so a unit's f_j (j >= 1) vanish mod g_fix;
          this shortcut runs first, and after it every acc_t is 0 mod g_fix.
        - On a moved cycle C that ring is the free F[z]-module of rank
          dim_C = deg g_C in the basis x^i eps_C, and right multiplication
          by f has a dim_C x dim_C matrix M_C with entries of degree <= d.
          eps_C g f = eps_C reads vec_C(g) M_C = e_1, and for a unit det M_C
          is a nonzero constant, so vec_C(g) = e_1 adj(M_C) / det M_C is
          made of (dim_C - 1)-minors: eps_C h_t = 0 for t > B_C =
          (dim_C - 1) d.
        - sigma^t(-f_0^-1) is a unit of A, so eps_C h_t = 0 iff
          eps_C acc_t = 0, that is iff acc_t mod g_C = 0.
        So the scan stops at the first run of d zero steps (a unit), or at
        the first acc_t, t > B_C, that is nonzero mod g_C (not a unit; past
        the largest B_C a nonzero acc_t decides with no division).  The
        cycles are tested shortest first, and a unit whose acc_t vanish past
        the smallest B_C divides nothing.  sigma^i(f_j) and
        sigma^i(-f_0^-1) come from _twists as the scan reaches them, and
        repeat with the order of sigma; each product is one
        cyclic_accumulate on code lists.
        """
        ctx = self.context
        moved, fixed = self.sigma.unit_blocks
        if not self.coeffs:
            return None
        field, n, d = ctx.field, ctx.n, len(self.coeffs) - 1
        if fixed is not None and any(
            any(_divide(field, list(c.codes), fixed)[: len(fixed)]) for c in self.coeffs[1:]
        ):
            return None
        f0_inv = ctx._inverse_codes(self.coeffs[0])
        if f0_inv is None:
            return None
        # B_C for the moved cycles, shortest first, beside their division rows
        bounds = [((len(row) - 1) * d, row) for row in moved]
        bound = bounds[-1][0] if bounds else 0
        order = self.sigma.order
        # twists[i] = [sigma^i(-f_0^-1), sigma^i(f_1), ..., sigma^i(f_d)], None for 0
        tail = [c.codes if c else None for c in self.coeffs[1:]]
        draw = _twists(self.sigma, [[field._neg[c] for c in f0_inv]] + tail)
        twists = [next(draw)]
        h, run, t = [f0_inv], 0, 0
        while run < d:
            t += 1
            if t < order:
                twists.append(next(draw))
            acc = [0] * n
            for i in range(max(0, t - d), t):
                a = twists[i % order][t - i]
                if a and h[i]:
                    cyclic_accumulate(field, acc, a, h[i])
            if any(acc):
                if t > bound:
                    return None
                for b, row in bounds:
                    if b >= t:
                        break
                    if any(_divide(field, list(acc), row)[: len(row)]):
                        return None
                h.append(cyclic_accumulate(field, [0] * n, twists[t % order][0], acc))
                run = 0
            else:
                h.append(None)
                run += 1
        return h[: t - d + 1]

    def is_unit(self) -> bool:
        """Exact unit test: the power-series inverse of _series_inverse ends
        within each sigma-cycle's adjugate bound.  No matrix over F[z] is
        formed."""
        return self._series_inverse() is not None

    def unit_inverse(self) -> "SkewPoly":
        """Two-sided inverse of a unit; NotAUnit for anything else.  The
        inverse is the power series h of _series_inverse, cut where it ends,
        unchecked: that docstring proves f h = h f = 1, and the unit sweeps
        of the tests form both products."""
        h = self._series_inverse()
        if h is None:
            raise NotAUnit(f"{self} is not a unit")
        ctx = self.context
        return SkewPoly(self.sigma, [RingElement(ctx, c) if c else ctx.zero for c in h])


# -- bridge between F[z]^n and the skew ring ----------------------------------


def x_multiples(f: SkewPoly, count: int) -> list:
    """vec(x^i f) for 0 <= i < count, each as n polynomials in z.
    x z^j = z^j sigma^j(x), so the z^j coefficient of x^i f is
    sigma^j(x)^i f_j in A: each row multiplies the f_j of the row before
    by sigma^j(x), one cyclic_accumulate each.  The f_j stay code lists;
    each row's polynomials are built once."""
    ctx, images = f.context, f.sigma.x_images
    field, n = ctx.field, ctx.n
    cur = [c.codes for c in f.coeffs]
    steps = [images[j % len(images)].codes for j in range(len(cur))]
    rows = []
    for i in range(count):
        if i:
            cur = [cyclic_accumulate(field, [0] * n, s, p) for p, s in zip(cur, steps)]
        rows.append([_normalized(field, [c[t] for c in cur]) for t in range(n)])
    return rows


def vector_from_skew(f: SkewPoly):
    """vec(f): n polynomials in z; entry i has the x^i coefficient of f_j
    as its z^j coefficient."""
    ctx = f.context
    return tuple(
        Poly(ctx.field, [c.codes[i] for c in f.coeffs]) for i in range(ctx.n)
    )


def skew_from_vector(sigma, polys) -> SkewPoly:
    """Inverse of vector_from_skew: lift n polynomials in z into the skew ring."""
    ctx = sigma.context
    polys = list(polys)
    if len(polys) != ctx.n:
        raise LengthMismatch(f"expected {ctx.n} entries, got {len(polys)}")
    depth = max((len(p.codes) for p in polys), default=0)
    return SkewPoly(
        sigma,
        [
            RingElement(ctx, tuple(p.codes[j] if j < len(p.codes) else 0 for p in polys))
            for j in range(depth)
        ],
    )


# -- elementary and simple units ---------------------------------------------
# each scalar a below is a ring element of sigma's context, or an int or field
# element that _ring_scalar turns into the constant of A it names (simple_unit
# through elementary_unit)


def _ring_scalar(ctx, a) -> RingElement:
    """a as an element of A: a ring element is checked to lie in ctx, an int
    or a field element becomes the constant ctx.scalar(a)."""
    return ctx._check(a) if isinstance(a, RingElement) else ctx.scalar(a)


def elementary_unit(sigma: Automorphism, d: int, a: RingElement, l: int) -> SkewPoly:
    """u = 1 + z^d a eps_l (no validity check; see is_elementary_unit)."""
    ctx = sigma.context
    coeff = _ring_scalar(ctx, a) * ctx.idempotent(l)
    return SkewPoly.one(sigma) + SkewPoly.z_power(sigma, d, coeff)


def is_elementary_unit(sigma: Automorphism, d: int, a: RingElement, l: int) -> bool:
    """Unit criterion: a^(l) != -eps_l if d = 0; a^(l) = 0 or o_l does not
    divide d if d > 0.  BadParameters for d < 0."""
    if d < 0:
        raise BadParameters(f"negative z-power {d}")
    ctx = sigma.context
    al = ctx.component(_ring_scalar(ctx, a), l)
    if d == 0:
        return al != -ctx.idempotent(l)
    return (not al) or d % sigma.l_order(l) != 0


def elementary_unit_inverse(sigma: Automorphism, d: int, a: RingElement, l: int) -> SkewPoly:
    ctx = sigma.context
    a = _ring_scalar(ctx, a)
    if not is_elementary_unit(sigma, d, a, l):
        raise NotAUnit(f"1 + z^{d} a eps_{l} fails the elementary-unit criterion")
    if d > 0:
        return elementary_unit(sigma, d, -a, l)
    # degree zero: invert in A (1 - a eps_l is not the inverse in general)
    return SkewPoly.constant(sigma, ctx.inv(ctx.one + a * ctx.idempotent(l)))


def simple_unit(sigma: Automorphism, a: RingElement, i: int, l: int) -> SkewPoly:
    """u_a(i) = 1 + z a sigma^i(eps_l); needs the cycle through l nontrivial."""
    if sigma.l_order(l) == 1:
        raise FixedIdempotent(f"sigma fixes eps_{l}; no degree-1 unit there")
    # sigma^i(eps_l) = eps_{Pi^i(l)}
    return elementary_unit(sigma, 1, a, sigma.perm_power(l, i))


def unit_product(sigma: Automorphism, l: int, scalars) -> SkewPoly:
    """u_{a_1}(1) * ... * u_{a_d}(d); component l keeps full degree d."""
    ctx = sigma.context
    scalars = [_ring_scalar(ctx, s) for s in scalars]
    if scalars and sigma.l_order(l) == 1:
        raise FixedIdempotent(f"sigma fixes eps_{l}")
    u = SkewPoly.one(sigma)
    for i, a in enumerate(scalars, start=1):
        if not ctx.is_unit(a):
            raise NonUnitScalar(f"scalar {a} is not a unit of A")
        u = u * simple_unit(sigma, a, i, l)
    return u


# -- decomposition into elementary units --------------------------------------

# guard on decompose_into_elementary's greedy loop, each step of which lowers
# the total of the component degrees
MAX_DECOMPOSITION_STEPS = 1000


def _local_inverse(ctx, c: RingElement, i: int) -> RingElement:
    """Inverse of a nonzero element of K^(i), inside that component."""
    e = ctx.idempotent(i)
    return ctx.inv(c * e + ctx.one - e) * e


def _constant_factors(sigma, c: RingElement):
    """Write a constant unit c as a product of degree-0 elementary units."""
    ctx = sigma.context
    out = []
    for l in range(1, ctx.r + 1):
        a = (c - ctx.one) * ctx.idempotent(l)
        if a:
            out.append(elementary_unit(sigma, 0, a, l))
    return out


def decompose_into_elementary(u: SkewPoly):
    """Best-effort factorization of a unit into elementary units.

    Returns factors e_1, ..., e_t (each elementary) with e_1 * ... * e_t = u.
    Works by repeatedly killing the top term of a maximal-degree component
    against a lower component of the same cycle, which strictly decreases
    the total of the component degrees; raises DecompositionNotFound when
    no such cancellation applies (the paper-level existence proof relies on
    a reduction engine that is out of scope here).  The unit 1 comes back
    as [] and an elementary unit as [u]: the one move cancels it to 1, or
    it is constant.
    """
    sigma = u.sigma
    ctx = u.context
    if not u.is_unit():
        raise NotAUnit("only units decompose into elementary units")
    applied = []
    cur = u
    for _ in range(MAX_DECOMPOSITION_STEPS):
        comps = {k: cur.component(k) for k in range(1, ctx.r + 1)}
        degs = {k: (len(f.coeffs) - 1 if f.coeffs else -1) for k, f in comps.items()}
        if all(d <= 0 for d in degs.values()):
            break
        move = None
        for j in sorted(degs, key=lambda k: (-degs[k], k)):
            dj = degs[j]
            if dj <= 0:
                continue
            for d in range(1, dj + 1):
                l = sigma.perm_power(j, d)
                if degs[l] != dj - d:
                    continue
                i = sigma.perm_power(j, dj)  # leading component index of comp j
                c_j = comps[j].coeffs[dj]
                c_l = comps[l].coeffs[dj - d]
                b = (-c_j) * _local_inverse(ctx, c_l, i)
                a = sigma.apply(b, -(dj - d))
                move = (d, a, l)
                break
            if move:
                break
        if move is None:
            raise DecompositionNotFound(
                "greedy cancellation found no applicable elementary unit"
            )
        d, a, l = move
        e = elementary_unit(sigma, d, a, l)
        if not is_elementary_unit(sigma, d, a, l):
            raise AssertionError(f"u_a({d}) on component {l} is not an elementary unit")
        applied.append((d, a, l))
        cur = e * cur
    else:
        raise DecompositionNotFound(
            f"no constant reached in {MAX_DECOMPOSITION_STEPS} steps"
        )
    factors = [elementary_unit(sigma, d, -a, l) for d, a, l in applied]
    factors.extend(_constant_factors(sigma, cur.constant_term))
    check = SkewPoly.one(sigma)
    for f in factors:
        check = check * f
    if check != u:
        raise DecompositionNotFound("factor product failed verification")
    return factors
