"""The group of F-algebra automorphisms of A = F[x]/(x^n - 1).

An automorphism is pinned down by the image of x, which must satisfy
sigma(x)^n = 1 with 1, sigma(x), ..., sigma(x)^{n-1} linearly independent
over F.
Each automorphism permutes the primitive idempotents; that permutation,
its cycles, and the per-component orders are precomputed.
"""

from __future__ import annotations

import itertools

from . import linalg
from .errors import ClassViolation, IndexOutOfRange, NotAnAutomorphism
from .fields import Poly
from .ring import CrtVector, RingContext, RingElement


class Automorphism:
    """An element of Aut_F(A), stored via sigma(x) plus derived data."""

    def __init__(self, context: RingContext, sigma_x: RingElement):
        context._check(sigma_x)
        self.context = context
        self.sigma_x = sigma_x
        n = context.n
        # rows[i] = coefficient codes of sigma(x)^i = sigma(x^i)
        rows = []
        power = context.one
        for _ in range(n):
            rows.append(power.codes)
            power = power * sigma_x
        if power != context.one:  # sigma(x)^n must be 1
            raise NotAnAutomorphism(f"({sigma_x})^{n} != 1")
        if linalg.rank(context.field, rows) != n:
            raise NotAnAutomorphism(
                f"powers of {sigma_x} are linearly dependent over F"
            )
        self._matrix = tuple(rows)
        # induced permutation on the idempotents
        by_codes = {e.codes: k for k, e in enumerate(context.idempotents, start=1)}
        perm = [0] * (context.r + 1)
        for k in range(1, context.r + 1):
            image = self.apply(context.idempotent(k))
            l = by_codes.get(image.codes)
            if l is None:
                raise NotAnAutomorphism("image of an idempotent is not an idempotent")
            perm[k] = l
        self.perm = tuple(perm[1:])  # perm[k-1] = Pi_sigma(k)
        self.cycles = self._cycle_decomposition()
        self._order_of = {}
        for cyc in self.cycles:
            for l in cyc:
                self._order_of[l] = len(cyc)
        self._map_order = None

    def _cycle_decomposition(self):
        seen = set()
        cycles = []
        for start in range(1, self.context.r + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self.perm[start - 1]
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self.perm[k - 1]
            cycles.append(tuple(cyc))
        return tuple(cycles)

    # -- evaluation --------------------------------------------------------

    def _apply_once(self, codes):
        field = self.context.field
        mul, add = field._mul, field._add
        out = [0] * self.context.n
        for i, c in enumerate(codes):
            if c:
                row = self._matrix[i]
                mc = mul[c]
                for j, m in enumerate(row):
                    if m:
                        out[j] = add[out[j]][mc[m]]
        return tuple(out)

    @property
    def order(self) -> int:
        """Order of sigma as a map (cached)."""
        if self._map_order is None:
            m = 1
            codes = self.sigma_x.codes
            ident = self.context.x.codes
            while codes != ident:
                codes = self._apply_once(codes)
                m += 1
            self._map_order = m
        return self._map_order

    def apply(self, a: RingElement, power: int = 1) -> RingElement:
        """sigma^power(a); negative powers go through the map order."""
        self.context._check(a)
        if power < 0:
            power %= self.order
        codes = a.codes
        for _ in range(power):
            codes = self._apply_once(codes)
        return RingElement(self.context, codes)

    def perm_power(self, k: int, power: int = 1) -> int:
        """Pi_sigma^power(k) on 1..r."""
        if not 1 <= k <= self.context.r:
            raise IndexOutOfRange(f"component index {k} not in 1..{self.context.r}")
        if power < 0:
            power %= self._order_of[k]
        for _ in range(power % self._order_of[k]):
            k = self.perm[k - 1]
        return k

    def sigma_equiv_classes(self):
        """The cycles of Pi_sigma as index sets (partition of 1..r)."""
        return tuple(tuple(sorted(c)) for c in self.cycles)

    def l_order(self, l: int) -> int:
        """Length of the Pi_sigma-cycle containing l."""
        if not 1 <= l <= self.context.r:
            raise IndexOutOfRange(f"component index {l} not in 1..{self.context.r}")
        return self._order_of[l]

    def same_cycle(self, k: int, l: int) -> bool:
        for cyc in self.cycles:
            if k in cyc:
                return l in cyc
        return False

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.context == other.context
            and self.sigma_x == other.sigma_x
        )

    def __hash__(self):
        return hash((self.context, self.sigma_x.codes))

    def cycle_str(self) -> str:
        return "".join(
            "(" + ",".join(str(i) for i in cyc) + ")" for cyc in self.cycles
        )

    def __repr__(self):
        return f"sigma: x -> {self.sigma_x} [{self.cycle_str()}]"


def identity_automorphism(ctx: RingContext) -> Automorphism:
    return Automorphism(ctx, ctx.x)


def _roots_in_component(ctx: RingContext, l: int, m: int):
    """Roots of pi_l inside K_m = F[x]/(pi_m), as a Frobenius orbit.

    The first root is the earliest one in a scan of K_m residues by
    coefficient-code order; the rest are its q-power iterates.  Valid only
    for deg pi_l == deg pi_m.
    """
    field = ctx.field
    pi_l, pi_m = ctx.factors[l - 1], ctx.factors[m - 1]
    kappa = int(pi_m.degree)
    first = None
    for codes in itertools.product(range(field.q), repeat=kappa):
        beta = Poly(field, codes)
        if (_eval_poly_mod(pi_l, beta, pi_m)).is_zero():
            first = beta
            break
    if first is None:
        raise AssertionError("equal-degree factors must share roots")
    orbit = [first]
    cur = first
    for _ in range(kappa - 1):
        cur = cur.pow_mod(field.q, pi_m)
        orbit.append(cur)
    return orbit


def _eval_poly_mod(f: Poly, beta: Poly, mod: Poly) -> Poly:
    """f(beta) mod `mod`, by Horner over the residue ring."""
    field = f.field
    acc = Poly.zero(field)
    for c in reversed(f.codes):
        acc = (acc * beta) % mod
        acc = acc + Poly(field, (c,))
    return acc


def _class_preserving_perms(ctx: RingContext):
    """All permutations of 1..r mapping each degree class onto itself."""
    per_class = [
        list(itertools.permutations(cls)) for cls in ctx.degree_classes
    ]
    for combo in itertools.product(*per_class):
        perm = [0] * ctx.r
        for cls, images in zip(ctx.degree_classes, combo):
            for src, dst in zip(cls, images):
                perm[src - 1] = dst
        yield tuple(perm)


def _sigma_x_for(ctx: RingContext, perm, exps, roots_cache) -> RingElement:
    """sigma(x) for the isomorphism choice x|_{K_k} -> root^(q^exps[k])."""
    field = ctx.field
    parts = [None] * ctx.r
    for k in range(1, ctx.r + 1):
        m = perm[k - 1]
        key = (k, m)
        if key not in roots_cache:
            roots_cache[key] = _roots_in_component(ctx, k, m)
        parts[m - 1] = roots_cache[key][exps[k - 1]]
    return ctx.crt_backward(CrtVector(ctx, tuple(parts)))


def enumerate_automorphisms(ctx: RingContext):
    """Every automorphism, built from class-preserving permutations of the
    components plus one Frobenius twist per component."""
    roots_cache = {}
    out = []
    for perm in _class_preserving_perms(ctx):
        for exps in itertools.product(*(range(kap) for kap in ctx.kappas)):
            sigma_x = _sigma_x_for(ctx, perm, exps, roots_cache)
            out.append(Automorphism(ctx, sigma_x))
    return out


def automorphism_count(ctx: RingContext) -> int:
    """Closed form: prod over classes of (degree^size * size!)."""
    import math

    total = 1
    for cls in ctx.degree_classes:
        kappa = ctx.kappas[cls[0] - 1]
        total *= kappa ** len(cls) * math.factorial(len(cls))
    return total


def enumerate_automorphisms_bruteforce(ctx: RingContext, cap: int = 10 ** 6):
    """Scan all candidate images a with a^n = 1 and independent powers.

    Exhaustive oracle for small contexts; guarded by n * q^n <= cap.
    """
    from .errors import SearchSpaceTooLarge

    if ctx.n * ctx.field.q ** ctx.n > cap:
        raise SearchSpaceTooLarge(
            f"brute force needs n*q^n <= {cap}, got {ctx.n * ctx.field.q ** ctx.n}"
        )
    out = []
    for a in ctx.elements():
        try:
            out.append(Automorphism(ctx, a))
        except NotAnAutomorphism:
            continue
    return out


def find_automorphism_for_permutation(ctx: RingContext, target) -> Automorphism:
    """First automorphism (lowest Frobenius exponents, lex) inducing the
    given permutation of 1..r; the permutation must preserve degree classes."""
    target = tuple(target)
    if sorted(target) != list(range(1, ctx.r + 1)):
        raise ClassViolation(f"{target} is not a permutation of 1..{ctx.r}")
    for cls in ctx.degree_classes:
        for k in cls:
            if target[k - 1] not in cls:
                raise ClassViolation(
                    f"permutation moves component {k} out of its degree class"
                )
    roots_cache = {}
    exps = (0,) * ctx.r
    sigma_x = _sigma_x_for(ctx, target, exps, roots_cache)
    sig = Automorphism(ctx, sigma_x)
    if sig.perm != target:
        raise AssertionError("automorphism does not induce the target permutation")
    return sig


def permutation_from_cycles(r: int, cycles) -> tuple:
    """Expand a cycle list like [(2,3)] into a 1-based permutation tuple."""
    perm = list(range(1, r + 1))
    for cyc in cycles:
        for i, src in enumerate(cyc):
            perm[src - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)
