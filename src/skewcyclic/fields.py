"""Exact arithmetic in GF(q) = F_p[y]/(mu) and univariate polynomials over it.

Field elements are encoded as integers in [0, q): the code of an element
with coefficient vector (c_0, ..., c_{deg-1}) over F_p is sum(c_i * p**i).
All arithmetic goes through tables built once per field, so the fields
handled here are deliberately small: q <= MAX_FIELD_SIZE = 256.  Sums are
taken digit by digit (coefficient by coefficient mod p); the product a*b
is the F_p-linear combination sum_i b_i * (a*y^i) of the images of the
basis 1, y, ..., y^(deg-1), with a*y a shift reduced by the modulus.
The one polynomial factored, x^n - 1, has each cyclotomic part Phi_m split
at degree ord_m(q) with no randomness: by gcds with the F_p-coordinates of
the sums of x^j over the q-cyclotomic cosets of Z/m, which are constants
modulo every irreducible factor.  Trial division, q-cyclotomic coset sizes
and sympy are the oracles in the tests.
"""

from __future__ import annotations

import itertools

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

    A multiplicative generator is discovered at construction, and none
    existing means a reducible modulus; elements print as 0, 1 or powers
    a^k of that generator.
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
        self._build_tables()
        self._find_generator()

    # -- construction helpers ------------------------------------------

    def _build_tables(self):
        """Sum, product and negation tables on element codes.

        A code's base-p digits are its coefficients over F_p, so sums and
        negatives are built one digit at a time.  Row a of the product
        table is the F_p-linear map b -> a*b = sum_i b_i * (a*y^i), built
        one digit of b at a time from the images a*y^i.
        """
        p, deg, q = self.p, self.deg, self.q
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        neg = [-a % p for a in range(p)]
        size = p
        for _ in range(deg - 1):
            # a = hi * size + low: the low digits add by the old table
            tops = [[size * ((ha + hb) % p) for hb in range(p)] for ha in range(p)]
            add = [
                [low + top for top in tops[ha] for low in add[la]]
                for ha in range(p)
                for la in range(size)
            ]
            neg = [low + size * (-hi % p) for hi in range(p) for low in neg]
            size *= p

        def multiples(v):
            out = [0]
            for _ in range(p - 1):
                out.append(add[out[-1]][v])
            return out

        # a*y shifts the digits up; the top digit t wraps as t*y^deg, and
        # y^deg = -(m_0 + m_1 y + ... + m_(deg-1) y^(deg-1)) mod the modulus
        top = q // p
        wrap = multiples(neg[sum(c * p ** i for i, c in enumerate(self.modulus[:-1]))])
        times_y = [add[a % top * p][wrap[a // top]] for a in range(q)]
        mul = []
        for a in range(q):
            row, v = [0], a
            for _ in range(deg):
                # row covers the b below p^i; the next digit adds b_i * (a*y^i)
                row = [add[r][w] for w in multiples(v) for r in row]
                v = times_y[v]
            mul.append(row)
        self._add = add
        self._mul = mul
        self._neg = neg

    def _find_generator(self):
        """The first code (in natural code order) of multiplicative order
        q - 1, which also decides irreducibility: F_p[y]/(mu) is a field iff
        such an element exists, as a reducible mu leaves zero divisors and
        so fewer than q - 1 units.  Powers stop at q - 1, where a zero
        divisor's would cycle short of 1 forever."""
        q, mul = self.q, self._mul
        for g in range(1, q):
            x, order = g, 1
            while x != 1 and order < q - 1:
                x = mul[x][g]
                order += 1
            if x == 1 and order == q - 1:
                self.generator_code = g
                break
        else:
            raise ReducibleModulus(f"modulus {self.modulus} is reducible over F_{self.p}")
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
    def _trusted(cls, field, codes: tuple):
        """A Poly from a tuple that already has no trailing zeros."""
        f = object.__new__(cls)
        f.field = field
        f.codes = codes
        return f

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

    def _checked(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
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
        return _normalized(self.field, out)

    def __neg__(self):
        neg = self.field._neg
        return Poly._trusted(self.field, tuple(neg[c] for c in self.codes))

    def __sub__(self, other):
        return self + -self._checked(other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other.code)
        other = self._checked(other)
        field = self.field
        if not self.codes or not other.codes:
            return Poly._trusted(field, ())
        # the leading coefficients multiply to a nonzero one: no trimming
        out = [0] * (len(self.codes) + len(other.codes) - 1)
        _accumulate(field, out, self.codes, other.codes)
        return Poly._trusted(field, tuple(out))

    def scale(self, code: int) -> "Poly":
        if not code:
            return Poly._trusted(self.field, ())
        row = self.field._mul[code]
        return Poly._trusted(self.field, tuple(row[c] for c in self.codes))

    def __divmod__(self, other):
        other = self._checked(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        dv = len(other.codes) - 1
        if len(self.codes) <= dv:
            return Poly.zero(field), self
        scale, neg = field._mul[field.inv_c(other.lc())], field._neg
        rem = _divide(field, list(self.codes), [neg[scale[c]] for c in other.codes[:-1]])
        # the top quotient coefficient is lc(self) / lc(other), nonzero
        return Poly._trusted(field, tuple([scale[c] for c in rem[dv:]])), _normalized(field, rem[:dv])

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

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        """self^e mod `mod` by square and multiply; BadParameters for e < 0."""
        if e < 0:
            raise BadParameters(f"negative exponent {e}")
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


def _normalized(field, out: list) -> Poly:
    """The Poly of a fresh code list, its trailing zeros popped in place."""
    while out and not out[-1]:
        out.pop()
    return Poly._trusted(field, tuple(out))


def _accumulate(field, out: list, a, b) -> list:
    """out += a * b on code sequences, in place (out holds the product)."""
    mul, add = field._mul, field._add
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add[out[j]][row[y]]
    return out


def _divide(field, rem: list, pivot) -> list:
    """Long division of the code list `rem`, in place, by the divisor d whose
    row `pivot` holds the codes of -d_i / lc(d), i < deg d: rem[:deg d]
    becomes the remainder, and rem[deg d + k] lc(d) times the x^k
    coefficient of the quotient.  Returns rem."""
    mul, add = field._mul, field._add
    dv = len(pivot)
    # rem += c * pivot clears rem[i] but leaves c there, and c is never read
    # again; the quotient's coefficient is c / lc(d)
    for i in range(len(rem) - 1, dv - 1, -1):
        c = rem[i]
        if c:
            row = mul[c]
            for j, pc in enumerate(pivot, i - dv):
                rem[j] = add[rem[j]][row[pc]]
    return rem


def cross_difference(a: Poly, b: Poly, c: Poly, d: Poly) -> Poly:
    """a*b - c*d in one pass, with no intermediate Poly; all four over one
    field."""
    field = a.field
    out = [0] * max(len(a.codes) + len(b.codes), len(c.codes) + len(d.codes))
    neg = field._neg
    _accumulate(field, out, a.codes, b.codes)
    _accumulate(field, out, [neg[x] for x in c.codes], d.codes)
    return _normalized(field, out)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return Poly._trusted(f.field, tuple(_monic_gcd(f.field, f.codes, f._checked(g).codes)))


def _monic_gcd(field, a, b) -> list:
    """Monic gcd of two code lists, not both empty: Euclid by `_divide`."""
    mul, neg, inv = field._mul, field._neg, field._inv
    a, b = list(a), list(b)
    while b:
        dv = len(b) - 1
        scale = mul[inv[b[-1]]]
        r = _divide(field, a, [neg[scale[c]] for c in b[:-1]])[:dv]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    scale = mul[inv[a[-1]]]
    return [scale[c] for c in a]


def poly_ext_gcd(f: Poly, g: Poly):
    """Return (d, u) with u*f = d mod g, d the monic gcd of f and g.

    Euclid on code lists: each step divides r0 by r1 in place (`_divide`)
    and forms u0 - q*u1 by one `_accumulate`; only d and u become Poly."""
    field = f.field
    mul, neg = field._mul, field._neg
    r0, r1 = list(f.codes), list(g.codes)
    u0, u1 = [1], []
    while r1:
        dv = len(r1) - 1
        scale = mul[field.inv_c(r1[-1])]
        rem = _divide(field, r0, [neg[scale[c]] for c in r1[:-1]])
        # rem[dv:] is lc(r1) times the quotient q, empty when deg r0 < deg r1
        u = u0 + [0] * (len(rem) - dv + len(u1) - 1 - len(u0))
        _accumulate(field, u, [neg[scale[c]] for c in rem[dv:]], u1)
        r = rem[:dv]
        while r and not r[-1]:
            r.pop()
        r0, r1, u0, u1 = r1, r, u1, u
    if not r0:
        raise BothZero("gcd(0, 0) is undefined")
    scale = mul[field.inv_c(r0[-1])]
    d = Poly._trusted(field, tuple(scale[c] for c in r0))
    return d, _normalized(field, [scale[c] for c in u0])


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


def _cyclotomic_cosets(q: int, n: int):
    """The q-cyclotomic cosets {i, iq, iq^2, ...} of Z/n, gcd(n, q) = 1,
    in the order of their least elements, each listed from that element."""
    seen = [False] * n
    cosets = []
    for i in range(n):
        if not seen[i]:
            coset, j = [], i
            while not seen[j]:
                seen[j] = True
                coset.append(j)
                j = j * q % n
            cosets.append(coset)
    return cosets


def _mul_mod(field, a, b, pivot) -> list:
    """a * b reduced by the monic divisor whose `_divide` row is `pivot`."""
    out = [0] * (len(a) + len(b) - 1)
    _accumulate(field, out, a, b)
    r = _divide(field, out, pivot)[: len(pivot)]
    while r and not r[-1]:
        r.pop()
    return r


def _values_mod(field, t, pivot):
    """The values in F_p of t modulo the irreducible factors of f (monic,
    squarefree, `pivot` its `_divide` row), where t is not a constant and
    t^p = t mod f.

    They are the roots of the minimal polynomial of t in F[x]/(f): that
    polynomial divides X^p - X, so its roots lie in F_p and are distinct.
    It is read off the first linear relation among 1, t, t^2, ..., found
    by elimination (a row per power, with the combination of powers it
    stands for).  1 and t are independent; with no relation below t^p,
    it is X^p - X itself and every element of F_p is a value, so no p-th
    power is formed."""
    p, size = field.p, len(pivot)
    if p == 2:
        return [0, 1]  # the loop below is empty: X^2 - X
    mul, add, neg, inv = field._mul, field._add, field._neg, field._inv
    # (lead index, row with 1 there, its combination of powers); the row
    # of t is t - t_0, scaled, led by its first nonzero coefficient past 0
    lead = next(i for i, c in enumerate(t) if i and c)
    s = mul[inv[t[lead]]]
    row = [0] + [s[c] for c in t[1:]]
    rows = [(0, [1] + [0] * (size - 1), [1]), (lead, row + [0] * (size - len(row)), [s[neg[t[0]]], s[1]])]
    power = t
    for j in range(2, p):
        power = _mul_mod(field, power, t, pivot)
        vec = power + [0] * (size - len(power))
        comb = [0] * j + [1]
        for lead, row, rcomb in rows:
            c = vec[lead]
            if c:
                s = mul[neg[c]]
                vec = [add[a][s[b]] for a, b in zip(vec, row)]
                for i, b in enumerate(rcomb):
                    comb[i] = add[comb[i]][s[b]]
        lead = next((i for i, c in enumerate(vec) if c), None)
        if lead is None:
            break
        s = mul[inv[vec[lead]]]
        rows.append((lead, [s[c] for c in vec], [s[c] for c in comb]))
    else:
        return list(range(p))  # the codes below p are the elements of F_p
    roots = []
    for c in range(p):
        acc = 0
        for a in reversed(comb):
            acc = add[mul[acc][c]][a]
        if not acc:
            roots.append(c)
    return roots


def _split_by_values(field, f, u) -> list:
    """The monic squarefree code list f, split into the products of its
    irreducible factors on which u (a code list of length > deg f, F_p-valued
    modulo each of them) takes one value: gcd(f, u - c) for each value c but
    the last, whose class is what is left."""
    add, neg = field._add, field._neg
    pivot = [neg[c] for c in f[:-1]]
    t = _divide(field, list(u), pivot)[: len(pivot)]
    while t and not t[-1]:
        t.pop()
    if len(t) < 2:  # a constant: one value on every factor
        return [f]
    values = _values_mod(field, t, pivot)
    out, rest = [], f
    for c in values[:-1]:
        w = list(t)
        w[0] = add[w[0]][neg[c]]
        g = _monic_gcd(field, rest, w)
        rest = _divide(field, list(rest), [neg[b] for b in g[:-1]])[len(g) - 1 :]
        out.append(g)
    out.append(rest)
    return out


def _refine(field, part, order: int, cosets, m: int) -> list:
    """Split Phi_m (the code list `part`) by the F_p-coordinates of the theta_C,
    C over the q-cyclotomic `cosets` of Z/m, until every piece has degree
    `order` or the coordinates run out.  The coordinates of pC are those of
    C, so one coset of each orbit under multiplication by p is used."""
    add = field._add
    p, e = field.p, field.deg
    done, todo = [], [part]
    seen = {0}  # theta_{0} = 1 is constant
    for coset in cosets:
        if not todo:
            break
        if coset[0] in seen:
            continue
        seen.update(j * p ** k % m for k in range(e) for j in coset)
        for i in range(e):
            # Tr(y^i theta_C) = sum_k y^(i p^k) theta_(p^k C), a code list mod x^m - 1
            u = [0] * m
            for k in range(e):
                c = field.pow_c(p ** i, p ** k)
                for j in coset:
                    idx = j * p ** k % m
                    u[idx] = add[u[idx]][c]
            pending, todo = todo, []
            for g in pending:
                for h in _split_by_values(field, g, u):
                    (todo if len(h) - 1 > order else done).append(h)
            if not todo:
                break
    return done + todo


def factor_xn_minus_1(field: FieldSpec, n: int):
    """Ordered irreducible factorization of x^n - 1 over the field.

    Requires n >= 1 and gcd(n, q) = 1 so the polynomial is squarefree.  It
    is the product of the cyclotomic parts Phi_m = (x^m - 1) / prod Phi_e
    (m | n, e | m, e < m), and each Phi_m is a product of distinct
    irreducibles of degree ord_m(q) (Lidl-Niederreiter, Finite Fields,
    Thm 2.47), split deterministically over the q-cyclotomic cosets C of
    Z/m (Berlekamp, Bell Syst. Tech. J. 46, 1967):

    - Frobenius a -> a^q is F_q-linear on F[x]/(x^m - 1) and sends x^j to
      x^(qj), so theta_C = sum_(j in C) x^j has theta_C^q = theta_C.  Modulo
      an irreducible factor g, F[x]/(g) is a field whose only such elements
      are those of F_q: each theta_C is a constant c_g(C) of F_q mod g.
    - The theta_C are linearly independent and as many as the irreducible
      factors of x^m - 1, which is squarefree; they span the subalgebra of
      Frobenius-fixed elements, which the CRT maps onto F_q^r.  So for any
      two factors g != h of Phi_m some theta_C has c_g(C) != c_h(C).
    - The F_p-coordinates u = Tr(beta theta_C) = sum_k beta^(p^k)
      theta_(p^k C) (beta over 1, y, ..., y^(e-1), q = p^e) take the values
      Tr(beta c_g(C)) in F_p mod g, and as the trace form is nondegenerate,
      two distinct values c_g(C) differ in some coordinate.  No power of
      u is formed: (beta theta_C)^(p^k) is beta^(p^k) theta_(p^k C).
    - A piece f is split into the classes gcd(f, u - c), one for each value
      c that u takes on its factors (`_values_mod`).  After every
      coordinate of every coset, any two factors of Phi_m lie in different
      pieces, so each piece is one factor of degree ord_m(q).

    The cosets of Z/n are computed once: those of Z/m are the cosets of
    multiples of n/m, divided by n/m.  Trial division and q-cyclotomic
    coset sizes are the oracles in the tests.  Factors come back sorted by
    degree, ties broken by coefficient lex order with 0 < 1 < a < a^2 < ...;
    this order fixes the component indices 1..r.
    """
    if n < 1:
        raise BadParameters(f"length must be positive, got {n}")
    if n % field.p == 0:
        raise LengthNotCoprime(f"length {n} is not coprime to the field size {field.q}")
    neg = field._neg
    cosets = _cyclotomic_cosets(field.q, n)
    factors = []
    unsplit = False
    pivots = {}  # e -> the `_divide` row of Phi_e, for the divisors e of n so far
    for m in (m for m in range(1, n + 1) if n % m == 0):
        part = [neg[1]] + [0] * (m - 1) + [1]
        for e, pivot in pivots.items():
            if m % e == 0:
                part = _divide(field, part, pivot)[len(pivot) :]
        pivots[m] = [neg[c] for c in part[:-1]]
        order = next(d for d in itertools.count(1) if pow(field.q, d, m) == 1 % m)
        pieces = [part]
        if len(part) - 1 > order:
            step = n // m
            ours = [[j // step for j in c] for c in cosets if c[0] % step == 0]
            pieces = _refine(field, part, order, ours, m)
        unsplit = unsplit or any(len(g) - 1 != order for g in pieces)
        factors.extend(Poly._trusted(field, tuple(g)) for g in pieces)
    factors.sort(key=Poly.lex_key)
    prod = [1]
    for g in factors:
        prod = _accumulate(field, [0] * (len(prod) + len(g.codes) - 1), prod, g.codes)
    if unsplit or prod != [neg[1]] + [0] * (n - 1) + [1]:
        raise AssertionError("factorization sanity check failed")
    return tuple(factors)
