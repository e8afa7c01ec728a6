"""The commutative quotient ring A = F[x]/(x^n - 1).

A RingContext bundles the ordered irreducible factors pi_1..pi_r of
x^n - 1 and the primitive idempotents eps_1..eps_r; A splits into the
fields K_k = eps_k A, and the component of a in K_k is the product
eps_k * a.  Component indices are 1-based throughout.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import (
    BadParameters,
    IndexOutOfRange,
    LengthMismatch,
    MixedContexts,
    MixedFields,
    NotAUnit,
    ZeroInput,
)
from .fields import FieldSpec, FieldElement, Poly, factor_xn_minus_1, poly_ext_gcd


def sparse_row(codes) -> tuple:
    """The (index, code) pairs of the nonzero entries of a code sequence."""
    return tuple(filter(itemgetter(1), enumerate(codes)))


def accumulate_rows(field: FieldSpec, out: list, coeffs, rows) -> list:
    """Add sum_i coeffs[i] * rows[i] into the code list `out`, in place.
    Each row is a tuple of (index, code) pairs, one per nonzero entry, as
    `sparse_row` makes it: row i adds coeffs[i] * code at slot index."""
    mul, add = field._mul, field._add
    for c, row in zip(coeffs, rows):
        if c:
            mc = mul[c]
            for j, m in row:
                out[j] = add[out[j]][mc[m]]
    return out


def cyclic_accumulate(field: FieldSpec, out: list, a, b) -> list:
    """Add a * b mod x^n - 1 into the code list `out` of length n, in place;
    a and b are code sequences of length at most n."""
    n = len(out)
    mul, add = field._mul, field._add
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for t, y in enumerate(b, i):
                if y:
                    if t >= n:
                        t -= n
                    out[t] = add[out[t]][row[y]]
    return out


class RingContext:
    """F[x]/(x^n - 1) with its factors and primitive idempotents precomputed."""

    def __init__(self, field: FieldSpec, n: int):
        self.factors = factor_xn_minus_1(field, n)  # checks n >= 1 and gcd(n, q) = 1
        self.field = field
        self.n = n
        self.modulus = Poly.x_pow_n_minus_1(field, n)
        self.r = len(self.factors)
        self.kappas = tuple(int(f.degree) for f in self.factors)
        # partition of {1..r} into runs of equal factor degree
        runs = itertools.groupby(range(1, self.r + 1), key=lambda k: self.kappas[k - 1])
        self.degree_classes = tuple(tuple(run) for _, run in runs)
        # eps_k = u*m_k with cofactor m_k = (x^n-1)/pi_k, u its inverse mod pi_k
        idems = []
        for pi in self.factors:
            m_k = self.modulus.exact_div(pi)
            _, u = poly_ext_gcd(m_k, pi)  # u*m_k = 1 mod pi_k
            idems.append(RingElement(self, cyclic_accumulate(field, [0] * n, u.codes, m_k.codes)))
        self.idempotents = tuple(idems)

    # -- element constructors --------------------------------------------

    def element(self, coeffs) -> "RingElement":
        codes = [self.field.element(c).code for c in coeffs]
        if len(codes) > self.n:
            raise IndexOutOfRange(f"too many coefficients for length {self.n}")
        codes += [0] * (self.n - len(codes))
        return RingElement(self, tuple(codes))

    def from_codes(self, codes) -> "RingElement":
        codes = tuple(codes)
        if len(codes) != self.n:
            raise LengthMismatch(f"expected {self.n} coefficients, got {len(codes)}")
        return RingElement(self, codes)

    def from_poly(self, poly: Poly) -> "RingElement":
        """The class of `poly` in A: x^i lands in slot i mod n, as x^n = 1."""
        if poly.field is not self.field and poly.field != self.field:
            raise MixedFields("polynomial over a different field")
        n, add = self.n, self.field._add
        codes = [0] * n
        for i, c in enumerate(poly.codes):
            codes[i % n] = add[codes[i % n]][c]
        return RingElement(self, codes)

    def scalar(self, c) -> "RingElement":
        return self.element([c])

    @property
    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.n)

    @property
    def one(self) -> "RingElement":
        return RingElement(self, (1,) + (0,) * (self.n - 1))

    @property
    def x(self) -> "RingElement":
        return self.from_poly(Poly.x(self.field))

    def idempotent(self, k: int) -> "RingElement":
        if not 1 <= k <= self.r:
            raise IndexOutOfRange(f"component index {k} not in 1..{self.r}")
        return self.idempotents[k - 1]

    def elements(self):
        """All q^n ring elements (use only at desk scale)."""
        for codes in itertools.product(range(self.field.q), repeat=self.n):
            yield RingElement(self, codes)

    def component(self, a: "RingElement", k: int) -> "RingElement":
        """The part eps_k * a of a in the field K_k = eps_k A."""
        return self.idempotent(k) * self._check(a)

    def _inverse_codes(self, a: "RingElement"):
        """The codes of a^-1, or None when a is no unit, from one extended gcd:
        u*a = d mod x^n - 1 with d the monic gcd, a is a unit iff d = 1, and
        then deg u < n."""
        d, u = poly_ext_gcd(self._check(a).as_poly(), self.modulus)
        if d.degree != 0:
            return None
        return u.codes + (0,) * (self.n - len(u.codes))

    def is_unit(self, a: "RingElement") -> bool:
        """By the extended gcd of `inv`: true iff inv(a) does not raise."""
        return self._inverse_codes(a) is not None

    def inv(self, a: "RingElement") -> "RingElement":
        """a^-1 by `_inverse_codes`; NotAUnit when a is no unit."""
        codes = self._inverse_codes(a)
        if codes is None:
            raise NotAUnit(f"{a} shares a factor with x^{self.n} - 1")
        return RingElement(self, codes)

    def normalize_to_idempotent_sum(self, a: "RingElement"):
        """Return (unit b, support) with b*a = sum of idempotents over the support."""
        self._check(a)
        if not a:
            raise ZeroInput("cannot normalize the zero element")
        support = tuple(k for k in range(1, self.r + 1) if self.component(a, k))
        # a + (idempotents off the support) is a unit whose inverse b has
        # b*a = sum of the idempotents on the support
        fill = [self.idempotent(k) for k in range(1, self.r + 1) if k not in support]
        return self.inv(sum(fill, a)), support

    def _check(self, a: "RingElement") -> "RingElement":
        if a.context is not self and a.context != self:
            raise MixedContexts("ring element from a different context")
        return a

    def __eq__(self, other):
        return other is self or (
            isinstance(other, RingContext)
            and (other.field is self.field or other.field == self.field)
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.field, self.n))

    def __repr__(self):
        return f"GF({self.field.q})[x]/(x^{self.n}-1)"


class RingElement:
    """Length-n coefficient vector over the field; coefficient of x^i at slot i."""

    __slots__ = ("context", "codes")

    def __init__(self, context: RingContext, codes):
        self.context = context
        self.codes = tuple(codes)

    def _check(self, other) -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.context is not self.context and other.context != self.context:
            raise MixedContexts("operands from different ring contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        add = self.context.field._add
        return RingElement(
            self.context, tuple(add[a][b] for a, b in zip(self.codes, other.codes))
        )

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        sub = self.context.field.sub_c
        return RingElement(
            self.context, tuple(sub(a, b) for a, b in zip(self.codes, other.codes))
        )

    def __neg__(self):
        neg = self.context.field._neg
        return RingElement(self.context, tuple(neg[a] for a in self.codes))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            mul = self.context.field._mul
            return RingElement(
                self.context, tuple(mul[a][other.code] for a in self.codes)
            )
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.context
        return RingElement(ctx, cyclic_accumulate(ctx.field, [0] * ctx.n, self.codes, other.codes))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise BadParameters(f"negative exponent {e}")
        result = self.context.one
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.context == other.context
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash(self.codes)

    def __bool__(self):
        return any(self.codes)

    def as_poly(self) -> Poly:
        return Poly(self.context.field, self.codes)

    def __str__(self):
        return self.as_poly().to_str("x")

    def __repr__(self):
        return f"({self}) in {self.context!r}"

