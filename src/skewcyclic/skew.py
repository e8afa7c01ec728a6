"""Skew polynomials over A = F[x]/(x^n - 1) twisted by an automorphism.

Elements are stored with right coefficients, f = sum_j z^j f_j, and
multiply by the twisted convolution

    (sum_j z^j a_j) (sum_l z^l b_l) = sum_t z^t sum_{j+l=t} sigma^l(a_j) b_l,

equivalently a z = z sigma(a).  When sigma is not the identity the ring
has zero divisors among the coefficients and therefore units of positive
z-degree; those units are what the code constructions are built from.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .errors import (
    DecompositionNotFound,
    FixedIdempotent,
    IndexOutOfRange,
    LengthMismatch,
    MixedAlgebras,
    NonUnitScalar,
    NotAUnit,
    ZeroPolynomial,
)
from .automorphisms import Automorphism
from .fields import NEG_INF, Poly, poly_ext_gcd
from .ring import RingElement


class Monomial(NamedTuple):
    """z^mu eps_k; ordered by z-degree first, then component index."""

    z_degree: int
    idempotent_index: int

    def __str__(self):
        mu, k = self.z_degree, self.idempotent_index
        zpart = "" if mu == 0 else ("z*" if mu == 1 else f"z^{mu}*")
        return f"{zpart}eps{k}"


class SkewPoly:
    """Element of the twisted polynomial ring, right-coefficient form."""

    __slots__ = ("sigma", "coeffs")

    def __init__(self, sigma: Automorphism, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.sigma = sigma
        self.coeffs = tuple(coeffs)

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
        sigma = self.sigma
        ctx = self.context
        # cache sigma^l(f_j) as l runs over the right factor's degrees
        twisted = list(self.coeffs)
        out = [ctx.zero for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for l, b in enumerate(other.coeffs):
            if l > 0:
                twisted = [sigma.apply(a) for a in twisted]
            if b:
                for j, a in enumerate(twisted):
                    if a:
                        out[j + l] = out[j + l] + a * b
        return SkewPoly(sigma, out)

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

    # -- components, support, monomials --------------------------------------

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

    def support(self):
        return tuple(k for k in range(1, self.context.r + 1) if self.component(k))

    def terms(self):
        """Nonzero terms as (z_degree, idempotent index, coefficient in K^(j))."""
        ctx = self.context
        out = []
        for nu, c in enumerate(self.coeffs):
            if not c:
                continue
            for j in range(1, ctx.r + 1):
                part = ctx.idempotent(j) * c
                if part:
                    out.append((nu, j, part))
        return out

    def leading_monomial(self):
        """Largest monomial with a nonzero coefficient, plus that coefficient."""
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading monomial")
        ctx = self.context
        mu = len(self.coeffs) - 1
        top = self.coeffs[mu]
        for j in range(ctx.r, 0, -1):
            part = ctx.idempotent(j) * top
            if part:
                return Monomial(mu, j), part
        raise AssertionError("nonzero coefficient with no nonzero component")

    def is_reduced(self) -> bool:
        """No term of one component right-divisible by another's leading monomial.

        A term z^nu c with 0 != c in K^(j) is right divisible by z^mu eps_i
        exactly when nu >= mu and j = i (right multiples of z^mu eps_i are
        the polynomials with all coefficients in K^(i) and order >= mu).
        """
        comps = [(k, self.component(k)) for k in range(1, self.context.r + 1)]
        comps = [(k, f) for k, f in comps if f]
        for l, fl in comps:
            lm, _ = fl.leading_monomial()
            for k, fk in comps:
                if k == l:
                    continue
                for nu, j, _ in fk.terms():
                    if nu >= lm.z_degree and j == lm.idempotent_index:
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
        xs = SkewPoly.constant(self.sigma, self.context.x)
        rows = []
        cur = self
        for _ in range(self.context.n):
            rows.append(vector_from_skew(cur))
            cur = xs * cur
        return rows

    def _passes_unit_shortcuts(self) -> bool:
        """The two necessary conditions read off without elimination.
        Setting z = 0 is a ring map onto A, so a unit's constant term is a
        unit of A.  On a fixed cycle {k}, eps_k A[z;sigma] is K_k[z;theta],
        a domain, whose units are constants; so every f_j, j >= 1, vanishes
        on the fixed block (is 0 mod its modulus)."""
        if not self.coeffs or not self.context.is_unit(self.coeffs[0]):
            return False
        fixed = self.sigma.unit_blocks[1]
        return fixed is None or not any(
            c.as_poly() % fixed.modulus for c in self.coeffs[1:]
        )

    def _block_matrix(self, block) -> list:
        """Right multiplication by f on eps_C A[z;sigma] as a dim_C x dim_C
        matrix over F[z], in the basis x^i of eps_C A = F[x]/(g_C): row i
        holds the z-coefficients of x^i f mod g_C, whose z^j coefficient is
        sigma^j(x)^i f_j mod g_C."""
        field = self.context.field
        g, dim, images = block.modulus, block.dim, block.x_images
        cur = [c.as_poly() % g for c in self.coeffs]
        steps = [images[j % len(images)] for j in range(len(cur))]
        rows = []
        for i in range(dim):
            padded = [p.codes + (0,) * (dim - len(p.codes)) for p in cur]
            rows.append([Poly(field, col) for col in zip(*padded)])
            if i + 1 < dim:
                cur = [(p * s) % g for p, s in zip(cur, steps)]
        return rows

    def is_unit(self) -> bool:
        """Exact unit test, one sigma-cycle at a time: a unit constant term,
        vanishing of the z^j coefficients (j >= 1) on the fixed cycles, and
        for each moved cycle C a nonzero constant determinant of the block
        matrix (_block_matrix).  The eps_C are central and sum to 1 with
        eps_fix, so f is a unit iff every block is one."""
        if not self._passes_unit_shortcuts():
            return False
        field = self.context.field
        return all(
            linalg.poly_det(field, self._block_matrix(b)).degree == 0
            for b in self.sigma.unit_blocks[0]
        )

    def unit_inverse(self) -> "SkewPoly":
        """Two-sided inverse of a unit; NotAUnit for anything else.

        After the checks of _passes_unit_shortcuts the part of f on the
        fixed block is the constant eps_fix f_0, inverted modulo the block's
        modulus and lifted back as eps_fix (f_0^-1 mod g_fix).  On a moved
        cycle C with block matrix M, g f = eps_C is the system
        M^T vec_C(g) = e_1 over F[z] (eps_C = 1 mod g_C).  One
        fraction-free elimination of [M^T | e_1] decides and solves it: a
        unit constant term makes M(0) invertible, so the pivots sit on the
        diagonal and the last one is d = +-det M; the block is a unit iff d
        is constant.  Back-substitution gives d vec_C(g), whose entries are
        minors of [M^T | e_1] (Cramer), by exact divisions, and each
        coordinate p lifts back to A as eps_C p.
        """
        ctx = self.context
        if not self._passes_unit_shortcuts():
            raise NotAUnit(f"{self} is not a unit")
        field = ctx.field
        one, zero = Poly.one(field), Poly.zero(field)
        blocks, fixed = self.sigma.unit_blocks
        coeffs = [ctx.zero]
        if fixed is not None:
            _, u, _ = poly_ext_gcd(self.coeffs[0].as_poly(), fixed.modulus)
            coeffs[0] = fixed.idempotent * ctx.from_poly(u)
        for block in blocks:
            dim = block.dim
            M = self._block_matrix(block)
            _, _, a = linalg.bareiss(
                field,
                [[row[c] for row in M] + [one if c == 0 else zero] for c in range(dim)],
            )
            if any(a[i][i].is_zero() for i in range(dim)):
                raise AssertionError("block matrix singular under a unit constant term")
            d = a[dim - 1][dim - 1]
            if d.degree != 0:
                raise NotAUnit(f"{self} is not a unit")
            # only entries on and right of the diagonal are valid after bareiss
            y = [None] * dim
            for i in range(dim - 1, -1, -1):
                acc = d * a[i][dim]
                for j in range(i + 1, dim):
                    acc = acc - a[i][j] * y[j]
                y[i] = acc.exact_div(a[i][i])
            p = [c.exact_div(d).codes for c in y]
            depth = max(len(c) for c in p)
            padded = [c + (0,) * (depth - len(c)) for c in p]
            # the z^j coefficient of the inverse on C is sum_i p_i[j] x^i
            for j, col in enumerate(zip(*padded)):
                part = block.idempotent * RingElement(ctx, col + (0,) * (ctx.n - dim))
                if j < len(coeffs):
                    coeffs[j] = coeffs[j] + part
                else:
                    coeffs.append(part)
        g = SkewPoly(self.sigma, coeffs)
        identity = SkewPoly.one(self.sigma)
        if g * self != identity or self * g != identity:
            raise AssertionError("inverse failed to be two-sided")
        return g


# -- bridge between F[z]^n and the skew ring ----------------------------------


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


def elementary_unit(sigma: Automorphism, d: int, a: RingElement, l: int) -> SkewPoly:
    """u = 1 + z^d a eps_l (no validity check; see is_elementary_unit)."""
    ctx = sigma.context
    coeff = ctx._check(a) * ctx.idempotent(l)
    if d == 0:
        return SkewPoly(sigma, (ctx.one + coeff,))
    return SkewPoly.one(sigma) + SkewPoly.z_power(sigma, d, coeff)


def is_elementary_unit(sigma: Automorphism, d: int, a: RingElement, l: int) -> bool:
    """Unit criterion: a^(l) != -eps_l if d = 0; a^(l) = 0 or o_l does not
    divide d if d > 0."""
    ctx = sigma.context
    al = ctx.component(a, l)
    if d == 0:
        return al != -ctx.idempotent(l)
    return (not al) or d % sigma.l_order(l) != 0


def elementary_unit_inverse(sigma: Automorphism, d: int, a: RingElement, l: int) -> SkewPoly:
    if not is_elementary_unit(sigma, d, a, l):
        raise NotAUnit(f"1 + z^{d} a eps_{l} fails the elementary-unit criterion")
    if d > 0:
        return elementary_unit(sigma, d, -a, l)
    # degree zero: invert in A (1 - a eps_l is not the inverse in general)
    return SkewPoly.constant(
        sigma, sigma.context.inv(sigma.context.one + a * sigma.context.idempotent(l))
    )


def simple_unit(sigma: Automorphism, a: RingElement, i: int, l: int) -> SkewPoly:
    """u_a(i) = 1 + z a sigma^i(eps_l); needs the cycle through l nontrivial."""
    ctx = sigma.context
    if sigma.l_order(l) == 1:
        raise FixedIdempotent(f"sigma fixes eps_{l}; no degree-1 unit there")
    coeff = ctx._check(a) * sigma.apply(ctx.idempotent(l), i)
    return SkewPoly.one(sigma) + SkewPoly.z_power(sigma, 1, coeff)


def unit_product(sigma: Automorphism, l: int, scalars) -> SkewPoly:
    """u_{a_1}(1) * ... * u_{a_d}(d); component l keeps full degree d."""
    ctx = sigma.context
    scalars = [s if isinstance(s, RingElement) else ctx.scalar(s) for s in scalars]
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


def _is_single_component_shift(u: SkewPoly):
    """Detect u = 1 + z^d a eps_l directly; returns (d, a, l) or None."""
    ctx = u.context
    diff = u - SkewPoly.one(u.sigma)
    if not diff:
        return None
    nonzero = [(j, c) for j, c in enumerate(diff.coeffs) if c]
    if len(nonzero) != 1:
        return None
    d, c = nonzero[0]
    supp = [k for k in range(1, ctx.r + 1) if ctx.component(c, k)]
    if len(supp) != 1:
        return None
    return d, c, supp[0]


def decompose_into_elementary(u: SkewPoly):
    """Best-effort factorization of a unit into elementary units.

    Returns factors e_1, ..., e_t (each elementary) with e_1 * ... * e_t = u.
    Works by repeatedly killing the top term of a maximal-degree component
    against a lower component of the same cycle, which strictly decreases
    the total of the component degrees; raises DecompositionNotFound when
    no such cancellation applies (the paper-level existence proof relies on
    a reduction engine that is out of scope here).
    """
    sigma = u.sigma
    ctx = u.context
    if not u.is_unit():
        raise NotAUnit("only units decompose into elementary units")
    if u == SkewPoly.one(sigma):
        return []
    direct = _is_single_component_shift(u)
    if direct is not None:
        d, c, l = direct
        if d == 0 or is_elementary_unit(sigma, d, c, l):
            return [u]
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
