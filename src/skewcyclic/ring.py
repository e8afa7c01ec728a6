"""The commutative quotient ring A = F[x]/(x^n - 1).

A RingContext bundles the ordered irreducible factors pi_1..pi_r of
x^n - 1, the primitive idempotents eps_1..eps_r, and the Chinese
remainder isomorphism onto prod F[x]/(pi_k).  Component indices are
1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadParameters,
    IndexOutOfRange,
    LengthMismatch,
    LengthNotCoprime,
    MixedContexts,
    NotAUnit,
    ZeroInput,
)
from .fields import FieldSpec, FieldElement, Poly, factor_xn_minus_1, poly_ext_gcd


class RingContext:
    """F[x]/(x^n - 1) with its CRT decomposition precomputed."""

    def __init__(self, field: FieldSpec, n: int):
        if n < 1:
            raise BadParameters(f"length must be positive, got {n}")
        if n % field.p == 0:
            raise LengthNotCoprime(
                f"length {n} is not coprime to the field size {field.q}"
            )
        self.field = field
        self.n = n
        self.modulus = Poly.x_pow_n_minus_1(field, n)
        self.factors = factor_xn_minus_1(field, n)
        self.r = len(self.factors)
        self.kappas = tuple(int(f.degree) for f in self.factors)
        # partition of {1..r} into runs of equal factor degree
        classes = []
        for k, kappa in enumerate(self.kappas, start=1):
            if classes and self.kappas[classes[-1][0] - 1] == kappa:
                classes[-1].append(k)
            else:
                classes.append([k])
        self.degree_classes = tuple(tuple(c) for c in classes)
        # eps_k = u*m_k with cofactor m_k = (x^n-1)/pi_k, u its inverse mod pi_k
        idems = []
        for pi in self.factors:
            m_k = self.modulus.exact_div(pi)
            _, u, _ = poly_ext_gcd(m_k, pi)  # u*m_k = 1 mod pi_k
            eps = (u * m_k) % self.modulus
            idems.append(self.from_poly(eps))
        self.idempotents = tuple(idems)
        self._check_idempotents()

    def _check_idempotents(self):
        total = self.zero
        for i, e_i in enumerate(self.idempotents):
            total = total + e_i
            for j, e_j in enumerate(self.idempotents):
                prod = e_i * e_j
                want = e_i if i == j else self.zero
                if prod != want:
                    raise AssertionError("idempotent orthogonality failed")
        if total != self.one:
            raise AssertionError("idempotents do not sum to 1")

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
        poly = poly % self.modulus
        codes = list(poly.codes) + [0] * (self.n - len(poly.codes))
        return RingElement(self, tuple(codes))

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
        import itertools

        for codes in itertools.product(range(self.field.q), repeat=self.n):
            yield RingElement(self, codes)

    # -- CRT --------------------------------------------------------------

    def crt_forward(self, a: "RingElement") -> "CrtVector":
        self._check(a)
        poly = a.as_poly()
        return CrtVector(self, tuple(poly % pi for pi in self.factors))

    def crt_backward(self, v: "CrtVector") -> "RingElement":
        if v.context is not self and v.context != self:
            raise MixedContexts("CRT vector from a different ring")
        acc = self.zero
        for part, eps in zip(v.parts, self.idempotents):
            acc = acc + self.from_poly(part) * eps
        return acc

    def component(self, a: "RingElement", k: int) -> "RingElement":
        return self.idempotent(k) * self._check(a)

    def is_unit(self, a: "RingElement") -> bool:
        self._check(a)
        return all(not part.is_zero() for part in self.crt_forward(a).parts)

    def inv(self, a: "RingElement") -> "RingElement":
        self._check(a)
        parts = []
        for part, pi in zip(self.crt_forward(a).parts, self.factors):
            if part.is_zero():
                raise NotAUnit(f"{a} has a zero component mod {pi}")
            _, u, _ = poly_ext_gcd(part, pi)
            parts.append(u % pi)
        return self.crt_backward(CrtVector(self, tuple(parts)))

    def normalize_to_idempotent_sum(self, a: "RingElement"):
        """Return (unit b, support) with b*a = sum of idempotents over the support."""
        self._check(a)
        if not a:
            raise ZeroInput("cannot normalize the zero element")
        support = tuple(
            k
            for k, part in enumerate(self.crt_forward(a).parts, start=1)
            if not part.is_zero()
        )
        # a + (idempotents off the support) is a unit whose inverse b has
        # b*a = sum of the idempotents on the support
        fill = [self.idempotent(k) for k in range(1, self.r + 1) if k not in support]
        return self.inv(sum(fill, a)), support

    def _check(self, a: "RingElement") -> "RingElement":
        if a.context is not self and a.context != self:
            raise MixedContexts("ring element from a different context")
        return a

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and self.field == other.field
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
        # cyclic convolution mod x^n - 1
        n = self.context.n
        field = self.context.field
        mul, add = field._mul, field._add
        out = [0] * n
        for i, a in enumerate(self.codes):
            if a:
                row = mul[a]
                for j, b in enumerate(other.codes):
                    if b:
                        t = i + j
                        if t >= n:
                            t -= n
                        out[t] = add[out[t]][row[b]]
        return RingElement(self.context, out)

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

    @property
    def coeffs(self):
        return tuple(FieldElement(self.context.field, c) for c in self.codes)

    def as_poly(self) -> Poly:
        return Poly(self.context.field, self.codes)

    def __str__(self):
        return self.as_poly().to_str("x")

    def __repr__(self):
        return f"({self}) in {self.context!r}"


@dataclass(frozen=True)
class CrtVector:
    """Residues of a ring element modulo each pi_k, reduced."""

    context: RingContext
    parts: tuple

    def __str__(self):
        return "<" + ", ".join(p.to_str("x") for p in self.parts) + ">"
