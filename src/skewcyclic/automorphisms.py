"""The group of F-algebra automorphisms of A = F[x]/(x^n - 1).

An automorphism is pinned down by the image of x, which must satisfy
sigma(x)^n = 1 and map each primitive idempotent onto one, which makes it
bijective (see `Automorphism`).  That permutation of the primitive
idempotents, its cycles, and the per-component orders are kept with it.

Enumerated and permutation-built automorphisms are correct by construction
(sigma(x) is the sum over k of eps_perm(k) * root, for a root of pi_k in
K_perm(k)), so nothing is re-checked; only a supplied image of x
goes through `Automorphism(ctx, a)`.
The brute-force enumeration, the `aut-*` goldens and a test that rebuilds
every enumerated automorphism through that validating path cross-check it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import (
    BadParameters,
    ClassViolation,
    IndexOutOfRange,
    NotAnAutomorphism,
    SearchSpaceTooLarge,
)
from .fields import Poly, _accumulate, _divide
from .packed import _unpacker, _word_ops
from .ring import RingContext, RingElement, accumulate_rows, cyclic_accumulate, sparse_row

# enumerate_automorphisms refuses larger groups (GF(2), n = 31 has 11,250,000)
MAX_LISTED_AUTOMORPHISMS = 10 ** 5
# enumerate_automorphisms_bruteforce refuses larger scans, counted as n * q^n
MAX_BRUTEFORCE_CANDIDATES = 10 ** 6


def _powers(context: RingContext, sigma_x: RingElement, count: int) -> list:
    """sigma(x)^i = sigma(x^i) for 0 <= i < count."""
    powers = [context.one]
    for _ in range(count - 1):
        powers.append(powers[-1] * sigma_x)
    return powers


class Automorphism:
    """An element of Aut_F(A), stored via sigma(x) plus derived data."""

    def __init__(self, context: RingContext, sigma_x: RingElement):
        """Validate sigma(x): sigma(x)^n = 1, and each eps_k maps onto a primitive
        idempotent eps_pi(k).  Then x -> sigma(x) is an algebra map phi of A, pi is
        injective (pi(k) = pi(l), k != l, gives 0 = phi(eps_k eps_l) = eps_pi(k)),
        and phi embeds each field K_k = eps_k A in K_pi(k), its kernel there being
        an ideal without eps_k.  So phi is injective on A = sum K_k: bijective."""
        context._check(sigma_x)
        n = context.n
        powers = _powers(context, sigma_x, n + 1)
        if powers.pop() != context.one:
            raise NotAnAutomorphism(f"({sigma_x})^{n} != 1")
        rows = tuple(sparse_row(p.codes) for p in powers)
        by_codes = {e.codes: k for k, e in enumerate(context.idempotents, start=1)}
        perm = tuple(
            by_codes.get(tuple(accumulate_rows(context.field, [0] * n, e.codes, rows)))
            for e in context.idempotents
        )
        if None in perm:
            raise NotAnAutomorphism("a primitive idempotent maps to no primitive idempotent")
        self._init(context, sigma_x, perm)
        self._power_matrix = rows

    @classmethod
    def _trusted(cls, context: RingContext, sigma_x: RingElement, perm) -> "Automorphism":
        """An automorphism built to induce `perm`: nothing is re-checked."""
        self = cls.__new__(cls)
        self._init(context, sigma_x, tuple(perm))
        return self

    def _init(self, context, sigma_x, perm):
        self.context = context
        self.sigma_x = sigma_x
        self.perm = perm  # perm[k-1] = Pi_sigma(k)

    @functools.cached_property
    def cycles(self) -> tuple:
        """The cycles of Pi_sigma, each from its least element, in order of
        that element; built on first use."""
        return _cycle_decomposition(self.perm)

    @functools.cached_property
    def _power_matrix(self) -> tuple:
        """Row i is the sparse row (`ring.sparse_row`) of sigma(x^i), the
        layout accumulate_rows applies sigma through; built on first use."""
        powers = _powers(self.context, self.sigma_x, self.context.n)
        return tuple(sparse_row(p.codes) for p in powers)

    @functools.cached_property
    def _cycle_of(self) -> dict:
        """l -> (its cycle, its position there), so Pi^t(l) is one index;
        built on first use."""
        return {l: (cyc, i) for cyc in self.cycles for i, l in enumerate(cyc)}

    # -- evaluation --------------------------------------------------------

    def _apply_once(self, codes):
        out = [0] * self.context.n
        return tuple(accumulate_rows(self.context.field, out, codes, self._power_matrix))

    @functools.cached_property
    def x_images(self) -> tuple:
        """sigma^j(x) as polynomials in x, 0 <= j < order (cached)."""
        field, x = self.context.field, self.context.x.codes
        images, codes = [Poly(field, x)], self._apply_once(x)
        while codes != x:
            images.append(Poly(field, codes))
            codes = self._apply_once(codes)
        return tuple(images)

    @functools.cached_property
    def order(self) -> int:
        """Order of sigma as a map: the orbit length of x (cached)."""
        return len(self.x_images)

    @functools.cached_property
    def unit_blocks(self):
        """(moved, fixed), computed on first use and cached.  For g_C the
        product of pi_k over the k in a cycle C, the `fields._divide` row of
        g_C holds the codes of -g_i, i < deg g_C, and a code list a has
        eps_C a = 0 iff a mod g_C is 0.  moved holds the rows of the cycles
        of length > 1, shortest first, so a row's length is dim_C = deg g_C;
        fixed is the row of g_fix, the product over the fixed cycles, or
        None when there are none.  The idempotent of a whole cycle is
        sigma-fixed, hence central in A[z;sigma], so a unit's inverse is
        bounded one cycle at a time."""
        ctx = self.context
        neg = ctx.field._neg

        def pivot(cycles):
            g = functools.reduce(operator.mul, (ctx.factors[k - 1] for c in cycles for k in c))
            return tuple(neg[c] for c in g.codes[:-1])

        moved = sorted((pivot([c]) for c in self.cycles if len(c) > 1), key=len)
        fixed = [c for c in self.cycles if len(c) == 1]
        return tuple(moved), pivot(fixed) if fixed else None

    def apply(self, a: RingElement, power: int = 1) -> RingElement:
        """sigma^power(a) for any integer power, taken mod the map order."""
        self.context._check(a)
        power %= self.order
        codes = a.codes
        for _ in range(power):
            codes = self._apply_once(codes)
        return RingElement(self.context, codes)

    def _cycle_at(self, k: int):
        """(the Pi_sigma-cycle holding k, k's position there);
        IndexOutOfRange unless 1 <= k <= r."""
        if not 1 <= k <= self.context.r:
            raise IndexOutOfRange(f"component index {k} not in 1..{self.context.r}")
        return self._cycle_of[k]

    def perm_power(self, k: int, power: int = 1) -> int:
        """Pi_sigma^power(k) on 1..r."""
        cyc, i = self._cycle_at(k)
        return cyc[(i + power) % len(cyc)]

    def sigma_equiv_classes(self):
        """The cycles of Pi_sigma as index sets (partition of 1..r)."""
        return tuple(tuple(sorted(c)) for c in self.cycles)

    def l_order(self, l: int) -> int:
        """Length of the Pi_sigma-cycle containing l."""
        return len(self._cycle_at(l)[0])

    def same_cycle(self, k: int, l: int) -> bool:
        """Whether k and l lie in one Pi_sigma-cycle (the cycles are
        disjoint, so one cycle object holds both)."""
        return self._cycle_at(k)[0] is self._cycle_at(l)[0]

    def __eq__(self, other):
        # RingElement equality compares the contexts too
        return isinstance(other, Automorphism) and self.sigma_x == other.sigma_x

    def __hash__(self):
        return hash((self.context, self.sigma_x.codes))

    def cycle_str(self) -> str:
        return "".join("(" + ",".join(str(i) for i in cyc) + ")" for cyc in self.cycles)

    def __repr__(self):
        return f"sigma: x -> {self.sigma_x} [{self.cycle_str()}]"


def _cycle_decomposition(perm) -> tuple:
    """The cycles of the permutation perm of 1..r, each from its least
    element, in order of that element."""
    cycles = []
    todo = [True] * (len(perm) + 1)
    for k, j in enumerate(perm, start=1):
        if todo[k]:
            cyc = [k]
            while j != k:
                cyc.append(j)
                todo[j] = False
                j = perm[j - 1]
            cycles.append(tuple(cyc))
    return tuple(cycles)


def identity_automorphism(ctx: RingContext) -> Automorphism:
    return Automorphism._trusted(ctx, ctx.x, range(1, ctx.r + 1))


def _roots_in_component(ctx: RingContext, l: int, m: int):
    """Roots of pi_l inside K_m = F[x]/(pi_m), as a Frobenius orbit, lazily.

    The first root is the earliest one in a scan of K_m residues by
    coefficient-code order; the rest are its q-power iterates.  Valid only
    for deg pi_l == deg pi_m.  pi_l(beta) is found by Horner's rule on
    code lists, reduced mod the monic pi_m (`fields._divide`) at each step.
    """
    field = ctx.field
    add, neg = field._add, field._neg
    pi_l, pi_m = ctx.factors[l - 1], ctx.factors[m - 1]
    kappa = int(pi_m.degree)
    pivot = [neg[c] for c in pi_m.codes[:-1]]
    top = pi_l.codes[::-1]
    for codes in itertools.product(range(field.q), repeat=kappa):
        value = [top[0]]
        for c in top[1:]:
            acc = _accumulate(field, [0] * (len(value) + kappa - 1), value, codes)
            acc[0] = add[acc[0]][c]
            value = _divide(field, acc, pivot)[:kappa]
        if not any(value):
            break
    else:
        raise AssertionError("equal-degree factors must share roots")
    root = Poly(field, codes)
    yield root
    for _ in range(kappa - 1):
        root = root.pow_mod(field.q, pi_m)
        yield root


def enumerate_automorphisms(ctx: RingContext):
    """Every automorphism, built from class-preserving permutations of the
    components plus one Frobenius twist per component.  Raises
    SearchSpaceTooLarge, before any root search, when the group has more
    than MAX_LISTED_AUTOMORPHISMS elements.

    sigma(x) is the sum over k of the lifts eps_perm(k) * root of one root
    of pi_k in K_perm(k): each root of pi_k in each K_m of its class is
    lifted and packed once.  A depth-first walk over the positions
    k = 1..r tries the unused m of k's class in increasing order, so the
    permutations come in lexicographic order (the classes are consecutive
    runs of 1..r).  It carries the packed sum of the single-root lifts
    (kappa = 1) chosen so far, one add per tree node; each leaf expands the
    multi-root lifts in `itertools.product` order, so the Frobenius choices
    vary innermost, and unpacks each sum once.  Cycles are built on first
    use.
    """
    count = automorphism_count(ctx)
    if count > MAX_LISTED_AUTOMORPHISMS:
        raise SearchSpaceTooLarge(
            f"{count} automorphisms exceed MAX_LISTED_AUTOMORPHISMS = "
            f"{MAX_LISTED_AUTOMORPHISMS}"
        )
    pack, add, _, _, _ = _word_ops(ctx.field, ctx.n)
    unpack = _unpacker(ctx.field, ctx.n)

    def lifts(k, m):
        e = ctx.idempotents[m - 1].codes
        return [pack(cyclic_accumulate(ctx.field, [0] * ctx.n, root.codes, e))
                for root in _roots_in_component(ctx, k, m)]

    # options[k]: (m, lifts(k, m)) for each m of k's class, in increasing order
    options = [None] + [[(m, lifts(k, m)) for m in c] for c in ctx.degree_classes for k in c]
    r = ctx.r
    used = [False] * (r + 1)
    perm = [0] * r
    multi = []  # the multi-root lift lists chosen so far, by position
    out = []

    def walk(k, acc):
        if k > r:
            p = tuple(perm)
            for terms in itertools.product(*multi):
                sigma_x = RingElement(ctx, unpack(functools.reduce(add, terms, acc)))
                out.append(Automorphism._trusted(ctx, sigma_x, p))
            return
        for m, roots in options[k]:
            if used[m]:
                continue
            used[m] = True
            perm[k - 1] = m
            if len(roots) == 1:
                walk(k + 1, add(acc, roots[0]))
            else:
                multi.append(roots)
                walk(k + 1, acc)
                multi.pop()
            used[m] = False

    walk(1, 0)
    return out


def automorphism_count(ctx: RingContext) -> int:
    """Closed form: prod over classes of (degree^size * size!)."""
    total = 1
    for cls in ctx.degree_classes:
        kappa = ctx.kappas[cls[0] - 1]
        total *= kappa ** len(cls) * math.factorial(len(cls))
    return total


def enumerate_automorphisms_bruteforce(ctx: RingContext):
    """Every image of x the validating constructor accepts: the exhaustive
    oracle for small contexts, guarded by n * q^n <= MAX_BRUTEFORCE_CANDIDATES."""
    n, q = ctx.n, ctx.field.q
    # as q >= 2, n past the cap's bit length settles it before q^n is built
    if n > MAX_BRUTEFORCE_CANDIDATES.bit_length() or n * q ** n > MAX_BRUTEFORCE_CANDIDATES:
        raise SearchSpaceTooLarge(
            f"brute force needs n*q^n <= {MAX_BRUTEFORCE_CANDIDATES}, got {n}*{q}^{n}"
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
    given permutation of 1..r; the permutation must preserve degree classes.
    sigma(x) is the sum over k of eps_target(k) * the first root of pi_k in
    K_target(k), the lift the enumeration uses: so this is the first element
    with that permutation in the enumeration."""
    target = tuple(target)
    if sorted(target) != list(range(1, ctx.r + 1)):
        raise ClassViolation(f"{target} is not a permutation of 1..{ctx.r}")
    for cls in ctx.degree_classes:
        for k in cls:
            if target[k - 1] not in cls:
                raise ClassViolation(f"permutation moves component {k} out of its degree class")
    out = [0] * ctx.n
    for k, m in enumerate(target, start=1):
        root = next(_roots_in_component(ctx, k, m))
        cyclic_accumulate(ctx.field, out, root.codes, ctx.idempotents[m - 1].codes)
    return Automorphism._trusted(ctx, RingElement(ctx, out), target)


def permutation_from_cycles(r: int, cycles) -> tuple:
    """Expand a list of disjoint cycles like [(2,3)] into a 1-based
    permutation tuple of 1..r.  IndexOutOfRange for an index outside 1..r,
    BadParameters for an index named twice."""
    perm = list(range(1, r + 1))
    seen = set()
    for cyc in cycles:
        for i, src in enumerate(cyc):
            if not 1 <= src <= r:
                raise IndexOutOfRange(f"permutation index {src} not in 1..{r}")
            if src in seen:
                raise BadParameters(f"permutation index {src} appears twice")
            seen.add(src)
            perm[src - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)
