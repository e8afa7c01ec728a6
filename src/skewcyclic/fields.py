"""Exact arithmetic in GF(q) = F_p[y]/(mu) and univariate polynomials over it.

Field elements are encoded as integers in [0, q): the code of an element
with coefficient vector (c_0, ..., c_{deg-1}) over F_p is sum(c_i * p**i).
All arithmetic goes through tables built once per field, so the fields
handled here are deliberately small: q <= MAX_FIELD_SIZE = 256.  The
tables of GF(p) are integer arithmetic mod p; those of GF(p^deg) are sums
and products of `Poly` residues over GF(p) reduced mod the modulus.
"""

from __future__ import annotations

import itertools
import random

from .errors import (
    BadParameters,
    BothZero,
    DivisionByZero,
    LengthNotCoprime,
    MixedFields,
    NonPrimeCharacteristic,
    ReducibleModulus,
)

NEG_INF = float("-inf")
# every field is a pair of q x q tables; GF(512) would take seconds to build
MAX_FIELD_SIZE = 256


def _check_size(p: int, deg: int):
    """Refuse GF(p^deg) before any table is built or modulus searched."""
    if deg < 1:
        raise BadParameters(f"extension degree must be >= 1, got {deg}")
    # p >= 2, so a deg past log2(MAX_FIELD_SIZE) is too big without computing p ** deg
    if deg >= MAX_FIELD_SIZE.bit_length() or p ** deg > MAX_FIELD_SIZE:
        raise BadParameters(f"field size {p}^{deg} exceeds MAX_FIELD_SIZE = {MAX_FIELD_SIZE}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class FieldSpec:
    """The field GF(p^deg) with a fixed monic irreducible modulus over F_p.

    A multiplicative generator is discovered at construction; elements
    print as 0, 1 or powers a^k of that generator.
    """

    def __init__(self, p: int, deg: int, modulus):
        _check_size(p, deg)
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != deg + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {deg} over F_{p}"
            )
        self.p = p
        self.deg = deg
        self.q = p ** deg
        self.modulus = modulus
        if deg == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[a * b % p for b in range(p)] for a in range(p)]
            self._neg = [-a % p for a in range(p)]
        else:
            mod = Poly(FieldSpec(p, 1, (0, 1)), modulus)
            if not is_irreducible(mod):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            self._build_tables(mod)
        self._find_generator()

    # -- construction helpers ------------------------------------------

    def _code_coeffs(self, code: int):
        cs = []
        for _ in range(self.deg):
            cs.append(code % self.p)
            code //= self.p
        return cs

    def _coeffs_code(self, cs) -> int:
        code = 0
        for c in reversed(cs):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self, mod: "Poly"):
        """Sums and products of the residues mod `mod`, a Poly over F_p."""
        q = self.q
        elems = [Poly(mod.field, self._code_coeffs(c)) for c in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a, fa in enumerate(elems):
            for b in range(a, q):
                fb = elems[b]
                add[a][b] = add[b][a] = self._coeffs_code((fa + fb).codes)
                mul[a][b] = mul[b][a] = self._coeffs_code((fa * fb % mod).codes)
        self._add = add
        self._mul = mul
        self._neg = [self._coeffs_code((-f).codes) for f in elems]

    def _find_generator(self):
        # first code (in natural code order) of multiplicative order q-1
        q = self.q
        for g in range(1, q):
            x, order = g, 1
            while x != 1:
                x = self._mul[x][g]
                order += 1
            if order == q - 1:
                self.generator_code = g
                break
        exp = [1] * max(q - 1, 1)
        log = [0] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = self._mul[x][self.generator_code]
        self._exp = exp
        self._log = log
        self._inv = [0] + [exp[-log[a] % (q - 1)] for a in range(1, q)]

    # -- code-level ops (hot paths use these directly) ------------------

    def add_c(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub_c(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul_c(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv_c(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def pow_c(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def element_key(self, code: int) -> int:
        """Total order 0 < 1 < a < a^2 < ... used for deterministic sorting."""
        return 0 if code == 0 else 1 + self._log[code]

    # -- public element interface ---------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        return FieldElement(self, self.generator_code)

    def from_int(self, n: int) -> "FieldElement":
        """Embed an integer via the prime subfield (n maps to n*1)."""
        return FieldElement(self, n % self.p)

    def element(self, v) -> "FieldElement":
        if isinstance(v, FieldElement):
            if v.field != self:
                raise MixedFields("element from a different field")
            return v
        return self.from_int(v)

    def elements(self):
        for c in range(self.q):
            yield FieldElement(self, c)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.deg == other.deg
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.deg, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def make_field(p: int, deg: int, modulus=None) -> FieldSpec:
    """Build GF(p^deg); the modulus defaults to y for deg 1, else to the
    first irreducible of `monic_polys` over F_p (low-to-high lex order).
    Raises BadParameters for deg < 1 or p^deg > MAX_FIELD_SIZE."""
    _check_size(p, deg)
    if modulus is None:
        if deg == 1:
            modulus = (0, 1)
        else:
            prime = make_field(p, 1)
            modulus = next(f for f in monic_polys(prime, deg) if is_irreducible(f)).codes
    return FieldSpec(p, deg, modulus)


class FieldElement:
    """An element of a FieldSpec, stored as its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: FieldSpec, code: int):
        self.field = field
        self.code = code

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            if isinstance(other, int):
                return self.field.from_int(other)
            return NotImplemented
        if other.field != self.field:
            raise MixedFields("operands from different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._add[self.code][other.code])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.sub_c(self.code, other.code))

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field._mul[self.code][other.code])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __neg__(self):
        return FieldElement(self.field, self.field._neg[self.code])

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_c(self.code, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_c(self.code))

    def __eq__(self, other):
        # an int n names the prime-subfield element n only for 0 <= n < p,
        # so equal operands hash alike
        if isinstance(other, int):
            return 0 <= other < self.field.p and self.code == other
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.code == other.code
        )

    def __hash__(self):
        if self.code < self.field.p:
            return hash(self.code)
        return hash((self.field.q, self.code))

    def __bool__(self):
        return self.code != 0

    def __str__(self):
        if self.code == 0:
            return "0"
        if self.code == 1:
            return "1"
        k = self.field._log[self.code]
        return "a" if k == 1 else f"a^{k}"

    def __repr__(self):
        return f"{self} in {self.field!r}"


class Poly:
    """Univariate polynomial over a FieldSpec, coefficients low-to-high.

    Stored as a tuple of element codes with no trailing zeros; the zero
    polynomial is the empty tuple and has degree -inf.
    """

    __slots__ = ("field", "codes")

    def __init__(self, field: FieldSpec, codes):
        codes = list(codes)
        while codes and codes[-1] == 0:
            codes.pop()
        self.field = field
        self.codes = tuple(codes)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def x_pow_n_minus_1(cls, field, n):
        codes = [0] * (n + 1)
        codes[0] = field._neg[1]
        codes[n] = 1
        return cls(field, codes)

    @property
    def degree(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    def is_zero(self) -> bool:
        return not self.codes

    def lc(self) -> int:
        """Leading coefficient code; 0 for the zero polynomial."""
        return self.codes[-1] if self.codes else 0

    def coeff(self, i: int) -> "FieldElement":
        c = self.codes[i] if 0 <= i < len(self.codes) else 0
        return FieldElement(self.field, c)

    def _checked(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field != self.field:
            raise MixedFields("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._checked(other)
        add = self.field._add
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly(self.field, out)

    def __neg__(self):
        neg = self.field._neg
        return Poly(self.field, [neg[c] for c in self.codes])

    def __sub__(self, other):
        return self + (-self._checked(other))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other.code)
        other = self._checked(other)
        if not self.codes or not other.codes:
            return Poly.zero(self.field)
        mul = self.field._mul
        add = self.field._add
        out = [0] * (len(self.codes) + len(other.codes) - 1)
        for i, x in enumerate(self.codes):
            if x:
                row = mul[x]
                for j, y in enumerate(other.codes):
                    if y:
                        out[i + j] = add[out[i + j]][row[y]]
        return Poly(self.field, out)

    def scale(self, code: int) -> "Poly":
        mul = self.field._mul
        return Poly(self.field, [mul[c][code] for c in self.codes])

    def __divmod__(self, other):
        other = self._checked(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        rem = list(self.codes)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return Poly.zero(field), self
        inv_lc = field.inv_c(other.lc())
        quot = [0] * (dd - dv + 1)
        mul, sub = field._mul, field.sub_c
        for i in range(dd, dv - 1, -1):
            c = rem[i]
            if c:
                f = mul[c][inv_lc]
                quot[i - dv] = f
                for j, oc in enumerate(other.codes):
                    rem[i - dv + j] = sub(rem[i - dv + j], mul[f][oc])
        return Poly(field, quot), Poly(field, rem[:dv])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc() == 1:
            return self
        return self.scale(self.field.inv_c(self.lc()))

    def __call__(self, x: FieldElement) -> FieldElement:
        field = self.field
        acc = 0
        for c in reversed(self.codes):
            acc = field._add[field._mul[acc][x.code]][c]
        return FieldElement(field, acc)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field)
        base = self % mod
        while e > 0:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.field.q, self.codes))

    def __bool__(self):
        return bool(self.codes)

    def lex_key(self):
        """Sort key: degree first, then coefficients from the leading one down,
        each compared in the 0 < 1 < a < a^2 < ... order."""
        key = self.field.element_key
        return (len(self.codes), tuple(key(c) for c in reversed(self.codes)))

    def to_str(self, var: str = "x") -> str:
        if not self.codes:
            return "0"
        parts = []
        for i, c in enumerate(self.codes):
            if not c:
                continue
            ce = FieldElement(self.field, c)
            if i == 0:
                parts.append(str(ce))
            elif c == 1:
                parts.append(var if i == 1 else f"{var}^{i}")
            else:
                parts.append(f"{ce}*{var}" if i == 1 else f"{ce}*{var}^{i}")
        return "+".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Poly({self.to_str()})"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def poly_ext_gcd(f: Poly, g: Poly):
    """Return (d, u, v) with u*f + v*g = d, d the monic gcd."""
    field = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(field), Poly.zero(field)
    v0, v1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    lc_inv = field.inv_c(r0.lc())
    return r0.scale(lc_inv), u0.scale(lc_inv), v0.scale(lc_inv)


def monic_polys(field: FieldSpec, degree: int):
    """All monic polynomials of exact degree, low-to-high coefficient lex order."""
    for tail in itertools.product(range(field.q), repeat=degree):
        yield Poly(field, tuple(tail) + (1,))


def is_irreducible(f: Poly) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    d = f.degree
    if d is NEG_INF or d < 1:
        return False
    for k in range(1, int(d) // 2 + 1):
        for g in monic_polys(f.field, k):
            if (f % g).is_zero():
                return False
    return True


def _distinct_degree(f: Poly):
    """Split a squarefree monic f into (d, product-of-degree-d-factors) parts."""
    field = f.field
    out = []
    g = f
    h = Poly.x(field)
    d = 0
    while g.degree >= 1:
        d += 1
        if 2 * d > g.degree:
            out.append((int(g.degree), g))
            break
        h = h.pow_mod(field.q, g)
        c = poly_gcd(g, h - Poly.x(field))
        if c.degree >= 1:
            out.append((d, c))
            g = g.exact_div(c)
            h = h % g
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random):
    """Split a product of distinct irreducibles, all of degree d."""
    if f.degree == d:
        return [f]
    field = f.field
    e = field.deg  # q = p^e
    while True:
        h = Poly(field, [rng.randrange(field.q) for _ in range(int(f.degree))])
        if h.degree < 1:
            continue
        if field.p == 2:
            # absolute trace map h + h^2 + h^4 + ... splits in char 2
            t = h % f
            acc = Poly.zero(field)
            for _ in range(e * d):
                acc = acc + t
                t = (t * t) % f
            g = poly_gcd(f, acc) if not acc.is_zero() else Poly.zero(field)
        else:
            m = (field.q ** d - 1) // 2
            g = poly_gcd(f, h.pow_mod(m, f) - Poly.one(field))
        if not g.is_zero() and 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                f.exact_div(g), d, rng
            )


def factor_xn_minus_1(field: FieldSpec, n: int):
    """Ordered irreducible factorization of x^n - 1 over the field.

    Requires n >= 1 and gcd(n, q) = 1 so the polynomial is squarefree.  Factors come
    back sorted by degree, ties broken by coefficient lex order with
    0 < 1 < a < a^2 < ...; this order fixes the component indices 1..r.
    """
    if n < 1:
        raise BadParameters(f"length must be positive, got {n}")
    if n % field.p == 0:
        raise LengthNotCoprime(f"length {n} is not coprime to the field size {field.q}")
    f = Poly.x_pow_n_minus_1(field, n)
    rng = random.Random(0xC0DE)
    factors = []
    for d, part in _distinct_degree(f):
        factors.extend(_equal_degree_split(part, d, rng))
    factors.sort(key=Poly.lex_key)
    prod = Poly.one(field)
    for g in factors:
        prod = prod * g
    if prod != f:
        raise AssertionError("factorization sanity check failed")
    return tuple(factors)
