"""Shared heavy property checks used by module tests and the acceptance gate."""

import heapq
import itertools
import random
import re
from typing import NamedTuple

from skewcyclic import linalg
from skewcyclic.automorphisms import Automorphism
from skewcyclic.convolutional import (
    EQUIVALENCE_MAX_N,
    EQUIVALENCE_MAX_Q,
    PolyMatrix,
    _nonvanishing_combination,
)
from skewcyclic.distance import (
    _check_cap,
    _coefficient_tables,
    _report,
    _witness_from_inputs,
    weight,
)
from skewcyclic.errors import (
    BothZero,
    NotMinimal,
    NotRightInvertible,
    ParseError,
    SearchSpaceTooLarge,
    StateCapExceeded,
    ZeroPolynomial,
)
from skewcyclic.fields import NEG_INF, FieldElement, FieldSpec, Poly, monic_polys, poly_gcd
from skewcyclic.literals import parse_element
from skewcyclic.packed import _word_ops
from skewcyclic.ring import cyclic_accumulate
from skewcyclic.skew import SkewPoly


# (field literal, n): the contexts that the automorphism and CRT
# cross-checks sweep, characteristics 2, 3 and 5
SWEEP_CONTEXTS = (
    ("GF(2)", 7),
    ("GF(2)", 15),
    ("GF(4):y^2+y+1", 3),
    ("GF(4):y^2+y+1", 5),
    ("GF(3)", 4),
    ("GF(3)", 8),
    ("GF(5)", 4),
    ("GF(9):y^2+1", 4),
    ("GF(8):y^3+y+1", 7),
)


# (p, deg): the fields whose tables are checked against residue arithmetic
# and whose factors of x^n - 1 are pinned
PINNED_FIELDS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (251, 1),
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2),
    (2, 7), (2, 8), (3, 4), (3, 5), (5, 3), (11, 2), (13, 2),
]


def crt_forward(ctx, a):
    """The CRT map psi: the residues a mod pi_k, one per component."""
    poly = ctx._check(a).as_poly()
    return tuple(poly % pi for pi in ctx.factors)


def crt_backward(ctx, parts):
    """The inverse of psi: sum_k eps_k * part_k, one cyclic product per
    component; a part of degree >= kappa_k is reduced mod pi_k first, as
    eps_k * pi_k = 0."""
    out = [0] * ctx.n
    for part, pi, e in zip(parts, ctx.factors, ctx.idempotents):
        if part.degree >= pi.degree:
            part = part % pi
        cyclic_accumulate(ctx.field, out, part.codes, e.codes)
    return ctx.from_codes(out)


def crt_round_trip(ctx, samples, seed):
    """backward(forward(a)) == a on `samples` random elements and on 0, 1, x."""
    rng = random.Random(seed)
    q, n = ctx.field.q, ctx.n
    elements = [ctx.zero, ctx.one, ctx.x] + [
        ctx.from_codes([rng.randrange(q) for _ in range(n)]) for _ in range(samples)
    ]
    for a in elements:
        assert crt_backward(ctx, crt_forward(ctx, a)) == a, f"round trip fails on {a}"


def _class_preserving_perms(ctx):
    """All permutations of 1..r mapping each degree class onto itself."""
    per_class = [list(itertools.permutations(cls)) for cls in ctx.degree_classes]
    for combo in itertools.product(*per_class):
        perm = [0] * ctx.r
        for cls, images in zip(ctx.degree_classes, combo):
            for src, dst in zip(cls, images):
                perm[src - 1] = dst
        yield tuple(perm)


def _cycles_by_walk(perm):
    """The cycles of a permutation of 1..r, each walked from its least
    element, in order of that element."""
    cycles, seen = [], set()
    for k in range(1, len(perm) + 1):
        cyc = []
        while k not in seen:
            seen.add(k)
            cyc.append(k)
            k = perm[k - 1]
        if cyc:
            cycles.append(tuple(cyc))
    return tuple(cycles)


def roots_by_scan(ctx, l, m):
    """Test-only oracle for automorphisms._roots_in_component: the roots of
    pi_l in K_m = F[x]/(pi_m) as a Frobenius orbit.  The first root is the
    first residue beta, in `itertools.product` code order, at which the sum
    of c_i * beta^i mod pi_m vanishes in Poly arithmetic; the orbit is
    beta^(q^j) by pow_mod, j < deg pi_m."""
    field = ctx.field
    pi_l, pi_m = ctx.factors[l - 1], ctx.factors[m - 1]
    kappa = int(pi_m.degree)
    for codes in itertools.product(range(field.q), repeat=kappa):
        beta = Poly(field, codes)
        value = Poly.zero(field)
        for i, c in enumerate(pi_l.codes):
            value = value + beta.pow_mod(i, pi_m).scale(c)
        if (value % pi_m).is_zero():
            return [beta.pow_mod(field.q ** j, pi_m) for j in range(kappa)]
    raise AssertionError(f"pi_{l} has no root in K_{m}")


def inverse_by_elimination(field, rows):
    """The inverse of a nonsingular square matrix of field codes, by
    Gauss-Jordan elimination on [M | I] with the FieldSpec code operations."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.inv_c(aug[col][col])
        aug[col] = [field.mul_c(inv, v) for v in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [field.sub_c(v, field.mul_c(f, w)) for v, w in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def crt_lift_by_solving(ctx):
    """The inverse of the CRT map psi as a function of the parts, by solving
    the F-linear system a mod pi_k = part_k: column j of the system holds
    the codes of x^j mod pi_k for every k, stacked, and it is inverted once
    by `inverse_by_elimination`.  No idempotent is read."""
    field, n = ctx.field, ctx.n
    x_pows = [Poly(field, [0] * j + [1]) for j in range(n)]
    rows = []
    for pi in ctx.factors:
        residues = [(xj % pi).codes for xj in x_pows]
        for i in range(int(pi.degree)):
            rows.append([r[i] if i < len(r) else 0 for r in residues])
    inverse = inverse_by_elimination(field, rows)

    def lift(parts):
        rhs = [
            part.codes[i] if i < len(part.codes) else 0
            for part, pi in zip(parts, ctx.factors)
            for i in range(int(pi.degree))
        ]
        codes = [0] * n
        for j, row in enumerate(inverse):
            for w, b in zip(row, rhs):
                if w and b:
                    codes[j] = field.add_c(codes[j], field.mul_c(w, b))
        return ctx.from_codes(codes)

    return lift


def automorphisms_by_crt_lift(ctx):
    """The automorphism group in enumeration order, as (sigma(x), perm,
    cycles), independent of the production lift and root search: for each
    class-preserving permutation, then each Frobenius exponent tuple in
    `itertools.product` order, sigma(x) is the solution a of a mod pi_m =
    root^(q^exps[k]) of pi_k in K_m, m = perm(k), for every k
    (`crt_lift_by_solving`, on roots from `roots_by_scan`), and the cycles
    are walked afresh for every element."""
    lift = crt_lift_by_solving(ctx)
    roots = {}
    out = []
    for perm in _class_preserving_perms(ctx):
        for exps in itertools.product(*(range(kap) for kap in ctx.kappas)):
            parts = [None] * ctx.r
            for k, m in enumerate(perm, start=1):
                if (k, m) not in roots:
                    roots[k, m] = roots_by_scan(ctx, k, m)
                parts[m - 1] = roots[k, m][exps[k - 1]]
            out.append((lift(parts), perm, _cycles_by_walk(perm)))
    return out


def automorphism_perm_by_rank(ctx, a):
    """The permutation x -> a induces on the primitive idempotents, or None
    when it is no automorphism, by the full criterion: a^n = 1, the powers
    1, a, ..., a^(n-1) of rank n over F, and the primitive idempotents
    permuted.  Each image is the polynomial eps_k(a), evaluated in A."""
    n = ctx.n
    if a ** n != ctx.one:
        return None
    powers = [a ** i for i in range(n)]
    if linalg.rank(ctx.field, [p.codes for p in powers]) != n:
        return None
    by_codes = {e.codes: k for k, e in enumerate(ctx.idempotents, start=1)}
    perm = []
    for e in ctx.idempotents:
        terms = (p * FieldElement(ctx.field, c) for p, c in zip(powers, e.codes) if c)
        perm.append(by_codes.get(sum(terms, ctx.zero).codes))
    if None in perm or len(set(perm)) != ctx.r:
        return None
    return tuple(perm)


def is_unit_by_crt_residues(ctx, a):
    """a is a unit of A iff no residue a mod pi_k vanishes."""
    return all(not part.is_zero() for part in crt_forward(ctx, a))


def all_element_codes(ctx):
    return list(itertools.product(range(ctx.field.q), repeat=ctx.n))


def psi_isomorphism_exhaustive(ctx):
    """CRT map is a bijective ring homomorphism, verified on all pairs.

    Tuned inner loop so q^n = 4096 stays in a few seconds.
    """
    field = ctx.field
    q, n = field.q, ctx.n
    mul, add = field._mul, field._add
    codes_list = all_element_codes(ctx)
    degs = [int(pi.degree) for pi in ctx.factors]

    def norm(codes, deg):
        c = list(codes) + [0] * (deg - len(codes))
        return tuple(c[:deg])

    image = {}
    for codes in codes_list:
        a = ctx.from_codes(codes)
        v = crt_forward(ctx, a)
        assert crt_backward(ctx, v) == a, "backward(forward(a)) != a"
        image[codes] = tuple(
            norm(p.codes, d) for p, d in zip(v, degs)
        )
    assert len(set(image.values())) == len(codes_list), "psi is not injective"

    part_tables = []
    for pi, deg in zip(ctx.factors, degs):
        residues = list(itertools.product(range(q), repeat=deg))
        tbl = {}
        for ra in residues:
            pa = Poly(field, ra)
            for rb in residues:
                prod = (pa * Poly(field, rb)) % pi
                tbl[(ra, rb)] = norm(prod.codes, deg)
        part_tables.append(tbl)

    for ai, acodes in enumerate(codes_list):
        ia = image[acodes]
        for bcodes in codes_list[ai:]:
            out = [0] * n
            for i, x in enumerate(acodes):
                if x:
                    row = mul[x]
                    for j, y in enumerate(bcodes):
                        if y:
                            t = i + j
                            if t >= n:
                                t -= n
                            out[t] = add[out[t]][row[y]]
            ib = image[bcodes]
            want = tuple(t[(pa, pb)] for t, pa, pb in zip(part_tables, ia, ib))
            assert image[tuple(out)] == want, "psi(ab) != psi(a)psi(b)"


def unit_test_agrees_with_exhaustive_search(ctx):
    """is_unit matches a literal scan for a multiplicative inverse."""
    field = ctx.field
    q, n = field.q, ctx.n
    mul, add = field._mul, field._add
    one_codes = ctx.one.codes
    all_codes = all_element_codes(ctx)
    units = 0
    for acodes in all_codes:
        found = False
        for bcodes in all_codes:
            t0 = 0
            for i, x in enumerate(acodes):
                if x:
                    y = bcodes[-i % n]
                    if y:
                        t0 = add[t0][mul[x][y]]
            if t0 != 1:
                continue
            out = [0] * n
            for i, x in enumerate(acodes):
                if x:
                    row = mul[x]
                    for j, y in enumerate(bcodes):
                        if y:
                            t = i + j
                            if t >= n:
                                t -= n
                            out[t] = add[out[t]][row[y]]
            if tuple(out) == one_codes:
                found = True
                break
        assert found == ctx.is_unit(ctx.from_codes(acodes))
        units += found
    want = 1
    for kappa in ctx.kappas:
        want *= q ** kappa - 1
    assert units == want


def module_determinant(f):
    """Test-only oracle: det of the whole n x n module matrix over F[z]; f
    is a unit iff it is a nonzero constant."""
    return linalg.poly_det(f.context.field, f.module_matrix())


def module_unit_inverse(f):
    """Test-only oracle: the inverse of f from one fraction-free solve of
    M^T vec(g) = vec(1) on the whole module matrix M, or None when det M is
    not a nonzero constant.  Row i of M is vec(x^i f), so vec(g f) =
    vec(g) M."""
    from skewcyclic.skew import SkewPoly, skew_from_vector, vector_from_skew

    if module_determinant(f).degree != 0:
        return None
    ctx = f.context
    n = ctx.n
    M = f.module_matrix()
    rhs = vector_from_skew(SkewPoly.one(f.sigma))
    _, _, a = linalg.bareiss(
        ctx.field, [[row[c] for row in M] + [rhs[c]] for c in range(n)]
    )
    # M is nonsingular, so column i pivots in row i (after any swaps) and
    # the last pivot d is +-det M, a constant
    d = a[n - 1][n - 1]
    y = [None] * n
    for i in range(n - 1, -1, -1):
        acc = d * a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * y[j]
        y[i] = acc.exact_div(a[i][i])
    return skew_from_vector(f.sigma, [p.exact_div(d) for p in y])


def is_unit_by_components(f):
    """Test-only unit decision: one determinant per sigma-cycle C, fixed
    cycles included, on right multiplication by f restricted to
    eps_C A[z;sigma] = (F[x]/(g_C))[z;sigma], with no shortcut.  Row i of
    the block holds the z-coefficients of x^i f reduced mod g_C."""
    from skewcyclic.skew import SkewPoly

    ctx = f.context
    field = ctx.field
    xs = SkewPoly.constant(f.sigma, ctx.x)
    for cyc in f.sigma.cycles:
        g = Poly.one(field)
        for k in cyc:
            g = g * ctx.factors[k - 1]
        dim = int(g.degree)
        rows = []
        cur = f
        for _ in range(dim):
            reduced = [(c.as_poly() % g).codes for c in cur.coeffs]
            rows.append(
                [
                    Poly(field, [r[t] if t < len(r) else 0 for r in reduced])
                    for t in range(dim)
                ]
            )
            cur = xs * cur
        if linalg.poly_det(field, rows).degree != 0:
            return False
    return True


def identity_units_constant(ctx, degree_cap, restrict_to_unit_constant=False):
    """With the identity twist, every unit of the polynomial ring is constant.
    Units are decided by is_unit_by_components, never by the production
    test, which assumes this very theorem on fixed cycles."""
    from skewcyclic import identity_automorphism
    from skewcyclic.skew import SkewPoly

    ide = identity_automorphism(ctx)
    elems = [ctx.from_codes(c) for c in all_element_codes(ctx)]
    if restrict_to_unit_constant:
        heads = [a for a in elems if ctx.is_unit(a)]
        units = 0
        for f0 in heads:
            for f1 in elems:
                f = SkewPoly(ide, (f0, f1))
                if is_unit_by_components(f):
                    units += 1
                    assert f.degree <= 0
        assert units == len(heads)
    else:
        units = 0
        for coeffs in itertools.product(elems, repeat=degree_cap + 1):
            f = SkewPoly(ide, coeffs)
            if is_unit_by_components(f):
                units += 1
                assert f.degree <= 0
        assert units > 0


def skew_product_by_terms(f, g):
    """Test-only oracle for SkewPoly.__mul__: the twisted convolution
    sum_t z^t sum_{j+l=t} sigma^l(f_j) g_l, one RingElement product and sum
    per term, with sigma^l(f_j) from Automorphism.apply."""
    from skewcyclic.skew import SkewPoly

    if f.sigma != g.sigma:
        raise ValueError("operands twisted by different automorphisms")
    sigma, ctx = f.sigma, f.context
    if not f.coeffs or not g.coeffs:
        return SkewPoly.zero(sigma)
    out = [ctx.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for l, b in enumerate(g.coeffs):
        for j, a in enumerate(f.coeffs):
            out[j + l] = out[j + l] + sigma.apply(a, l) * b
    return SkewPoly(sigma, out)


def x_multiples_by_products(f, count):
    """Test-only oracle: vec(x^i f) for i < count, each x^i f formed by
    the term-wise skew product with the constant x."""
    from skewcyclic.skew import SkewPoly, vector_from_skew

    xs = SkewPoly.constant(f.sigma, f.context.x)
    rows = []
    for _ in range(count):
        rows.append(vector_from_skew(f))
        f = skew_product_by_terms(xs, f)
    return rows


def generator_rows_by_products(g):
    """Test-only oracle: the generator-matrix rows vec(x^i g^(l)), i < deg
    pi_l, over the support l, with g^(l) = eps_l g and every product a
    term-wise skew product."""
    from skewcyclic.skew import SkewPoly

    ctx = g.context
    rows = []
    for l in range(1, ctx.r + 1):
        comp = skew_product_by_terms(SkewPoly.constant(g.sigma, ctx.idempotent(l)), g)
        if comp:
            rows += x_multiples_by_products(comp, ctx.kappas[l - 1])
    return rows


def is_reduced_by_terms(f):
    """Test-only oracle: reducedness by the definition, term by term.  The
    components eps_k f are skew products, each nonzero coefficient c of one
    is split into its parts eps_j c, and a component's leading monomial is
    its largest (z-degree, j).  A term z^nu (part in K^(j)) of one component
    is right divisible by the leading monomial z^mu eps_i of another exactly
    when nu >= mu and j = i."""
    from skewcyclic.skew import SkewPoly

    ctx = f.context
    comps = []
    for k in range(1, ctx.r + 1):
        comp = SkewPoly.constant(f.sigma, ctx.idempotent(k)) * f
        terms = [
            (nu, j)
            for nu, c in enumerate(comp.coeffs)
            for j in range(1, ctx.r + 1)
            if ctx.idempotent(j) * c
        ]
        if terms:
            comps.append((k, terms))
    for l, lead_terms in comps:
        mu, i = max(lead_terms)
        for k, terms in comps:
            if k != l and any(nu >= mu and j == i for nu, j in terms):
                return False
    return True


class Monomial(NamedTuple):
    """z^mu eps_k; ordered by z-degree first, then component index."""

    z_degree: int
    idempotent_index: int


def leading_monomial(f):
    """Test-side: the largest monomial of f with a nonzero coefficient, and
    that coefficient's part, found by idempotent products from eps_r down."""
    if not f.coeffs:
        raise ZeroPolynomial("the zero polynomial has no leading monomial")
    ctx = f.context
    mu = len(f.coeffs) - 1
    top = f.coeffs[mu]
    for j in range(ctx.r, 0, -1):
        part = ctx.idempotent(j) * top
        if part:
            return Monomial(mu, j), part
    raise AssertionError("nonzero coefficient with no nonzero component")


def griesmer_bound_by_levels(n, k, delta, m, q, levels=64):
    """Test-only oracle for distance.griesmer_bound: the largest
    d <= S(n,k,delta) for which sum_{l=0}^{top} ceil(d/q^l) <= n(m+i),
    top = k(m+i) - delta - 1, holds at every level i <= levels, each sum
    taken in full, with no stopping rule."""
    cap = (n - k) * (delta // k + 1) + delta + 1
    sizes = [max(k * (m + i) - delta, 0) for i in range(levels + 1)]
    for d in range(cap, 0, -1):
        # prefix[t] = sum_{l<t} ceil(d/q^l); q^l is held at d once it passes
        # d, where the ceiling is 1 either way
        prefix, power = [0], 1
        for _ in range(max(sizes)):
            prefix.append(prefix[-1] - (-d // power))
            power = min(power * q, d)
        if all(prefix[t] <= n * (m + i) for i, t in enumerate(sizes)):
            return d
    return 1


def inverse_degree_bound(f) -> int:
    """Proven bound on deg_z of an inverse: the largest (dim_C - 1) * deg_z f
    over the sigma-cycles C of length > 1, with dim_C the sum of deg pi_k over
    C; 0 when sigma moves no cycle.

    The idempotent eps_C of a whole cycle is sigma-fixed, hence central, so
    an inverse g is the sum of its parts eps_C g, each the inverse of eps_C f
    in eps_C A[z;sigma].  On a fixed cycle {k} that ring is the domain
    K_k[z;theta], whose units are constants.  On a moved cycle C it is the
    free F[z]-module F[z]^dim_C in the basis x^i eps_C, and right
    multiplication by f has a matrix M_C with entries of degree <= deg_z f.
    eps_C g f = eps_C reads vec_C(g) M_C = e_1, and for a unit det M_C is a
    nonzero constant, so vec_C(g) = e_1 adj(M_C) / det M_C: each entry is a
    (dim_C - 1)-minor of M_C, of degree <= (dim_C - 1) deg_z f.
    """
    ctx = f.context
    deg = max(len(f.coeffs) - 1, 0)
    dims = [sum(ctx.kappas[k - 1] for k in cyc) for cyc in f.sigma.cycles if len(cyc) > 1]
    return max(((dim - 1) * deg for dim in dims), default=0)


def unit_inverse_by_solving(f):
    """Test-only oracle for units of A[z;sigma], independent of the module
    determinant: one F-linear solve of f*g = 1, built from the twisted
    product, with deg_z g at the proven bound.  The inverse is unique and a
    right inverse is two-sided, so this returns the inverse of a unit and
    None for a non-unit."""
    from skewcyclic.skew import SkewPoly

    if not f:
        return None
    ctx = f.context
    n, D, depth = ctx.n, inverse_degree_bound(f), len(f.coeffs)
    # (f g)_t = sum_{j+l=t} sigma^l(f_j) g_l: column l*n + i holds
    # sigma^l(f_j) x^i in the rows of z^(j+l)
    rows = [[0] * (n * (D + 1)) for _ in range(n * (depth + D))]
    for l in range(D + 1):
        for j, a in enumerate(f.coeffs):
            c = f.sigma.apply(a, l)
            for i in range(n):
                for r, code in enumerate(c.codes):
                    rows[(j + l) * n + r][l * n + i] = code
                c = c * ctx.x
    rhs = list(ctx.one.codes) + [0] * (n * (depth + D - 1))
    sol = linalg.solve(ctx.field, rows, rhs)
    if sol is None:
        return None
    return SkewPoly(
        f.sigma, [ctx.from_codes(sol[l * n : (l + 1) * n]) for l in range(D + 1)]
    )


def poly_ext_gcd_by_polys(f: Poly, g: Poly):
    """Test-only oracle for fields.poly_ext_gcd: the same Euclid on Poly
    objects, (d, u) with u*f = d mod g, d the monic gcd of f and g."""
    field = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(field), Poly.zero(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    if r0.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    lc_inv = field.inv_c(r0.lc())
    return r0.scale(lc_inv), u0.scale(lc_inv)


def factor_squarefree_trial(f: Poly):
    """Trial-division factorization of a squarefree monic polynomial (test oracle)."""
    factors = []
    g = f.monic()
    d = 1
    while g.degree >= 1:
        if 2 * d > g.degree:
            factors.append(g)
            break
        found = False
        for cand in monic_polys(f.field, d):
            if (g % cand).is_zero():
                factors.append(cand)
                g = g.exact_div(cand)
                found = True
                break
        if not found:
            d += 1
    return sorted(factors, key=Poly.lex_key)


def cyclotomic_coset_sizes(q: int, n: int):
    """Sorted sizes of the q-cyclotomic cosets {i, iq, iq^2, ...} mod n
    (test oracle for the factor degrees of x^n - 1, gcd(n, q) = 1)."""
    seen = set()
    sizes = []
    for i in range(n):
        if i in seen:
            continue
        j, size = i, 0
        while j not in seen:
            seen.add(j)
            j = j * q % n
            size += 1
        sizes.append(size)
    return sorted(sizes)


def min_weight_by_enumeration(G, D: int) -> int:
    """Min weight of uG over every nonzero message u with deg u <= D (test
    oracle): each u is built as a 1 x k PolyMatrix and multiplied out, with
    no pruning, packing or normalization."""
    field = G.field
    k = G.nrows
    best = None
    for coeffs in itertools.product(range(field.q), repeat=k * (D + 1)):
        if not any(coeffs):
            continue
        u = [Poly(field, list(coeffs[i * (D + 1) : (i + 1) * (D + 1)])) for i in range(k)]
        w = weight((PolyMatrix(field, [u]) * G).entries[0])
        if best is None or w < best:
            best = w
    return best


def right_invertible_by_minors(G: PolyMatrix) -> bool:
    """Test-only oracle for PolyMatrix.is_right_invertible: the gcd of the
    maximal minors is a nonzero constant (all zero, as when k > n, means
    not right invertible); stops at the first minor that makes it
    constant."""
    g = None
    for m in G.k_minors():
        if m.is_zero():
            continue
        g = m if g is None else poly_gcd(g, m)
        if g.degree == 0:
            return True
    return False


def free_distance_by_edges(G, state_cap: int = 2 ** 16):
    """Test-only reference for distance.free_distance: Dijkstra over every
    state (free_distance searches classes of scalar multiples), relaxing
    every edge of a state one at a time, in input order, each edge weighed
    alone, and keeping parent pointers.  It pins the tie rules that pick
    the witness.

    A state is the base-q number whose digits are the input registers, row
    0's newest first, then row 1's, and so on; input blocks are numbered in
    `itertools.product` order, so the zero state and the zero block are 0.
    """
    field = G.field
    k, n = G.shape
    q = field.q
    # the cap precedes the minor gcd below; a zero row (degree -inf) first
    row_degrees = G.row_degrees()
    if NEG_INF in row_degrees:
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    _check_cap(q, sum(row_degrees), state_cap, StateCapExceeded, "q^delta")
    if not right_invertible_by_minors(G):
        raise NotRightInvertible("free distance needs a right-invertible matrix")
    if not G.is_minimal():
        raise NotMinimal("state realization needs a minimal generator matrix")
    pack, add, word_weight, _, _ = _word_ops(field, n)
    rows, degs = _coefficient_tables(G, pack)
    delta = sum(degs)
    nstates = q ** delta
    inputs = list(itertools.product(range(q), repeat=k))
    # place value of each register digit; the newest one of row i is first[i]
    radix = [q ** (delta - 1 - f) for f in range(delta)]
    first = [sum(degs[:i]) for i in range(k)]
    place = [
        sum(c * radix[first[i]] for i, c in enumerate(a) if degs[i]) for a in inputs
    ]
    inp_out = []
    for a in inputs:
        y = 0
        for i, c in enumerate(a):
            y = add(y, rows[i][0][c])
        inp_out.append(y)
    # by linearity, one register digit at a time (most significant first):
    # out[s] is the word the registers of s emit, shift[s] is s with every
    # register moved one step older, so the next state is shift[s] + place[a]
    out, shift = [0], [0]
    for i in range(k):
        for j in range(1, degs[i] + 1):
            moved = radix[first[i] + j] if j < degs[i] else 0
            out = [add(y, t) for y in out for t in rows[i][j]]
            shift = [s + c * moved for s in shift for c in range(q)]
    indices = range(len(inputs))

    # Dijkstra over states; a path must leave the zero state with a nonzero
    # input block and ends on its first return to the zero state.  The heap
    # key w * nstates + s pops in (w, s) order.
    unreached = n * nstates + 1  # a shortest path has at most nstates edges
    dist = [unreached] * nstates
    parent = [None] * nstates
    heap = [0]
    best = None
    best_final = None  # (last state, last input) of the closing edge
    while heap:
        w, s = divmod(heapq.heappop(heap), nstates)
        if w > dist[s]:
            continue
        if best is not None and w >= best:
            break
        sh = shift[s]
        edges = zip((word_weight(add(out[s], y)) for y in inp_out), place, indices)
        if not s:
            next(edges)  # the zero block does not leave the zero state
        for y, pl, ai in edges:
            cand = w + y
            ns = sh + pl
            if ns == 0:
                if best is None or cand < best:
                    best, best_final = cand, (s, ai)
            elif cand < dist[ns]:
                dist[ns] = cand
                parent[ns] = (s, ai)
                heapq.heappush(heap, cand * nstates + ns)
    if best is None:
        raise AssertionError("the state graph has no path back to the zero state")
    # reconstruct the input block sequence of the optimal excursion
    s, ai = best_final
    blocks = [inputs[ai]]
    while s:
        s, ai = parent[s]
        blocks.append(inputs[ai])
    blocks.reverse()
    witness = _witness_from_inputs(G, blocks)
    if weight(witness) != best:
        raise AssertionError("witness weight differs from the free distance")
    return _report(G, best, witness, q)


def strong_equivalence_by_permutations(G: PolyMatrix, Gp: PolyMatrix):
    """Test-only oracle for convolutional.strong_equivalence: the same
    search with no pruning, one F-nullspace for each of the n! column
    permutations, and every product Gp[r][i] * Q[j][c] formed before the
    loop.  Q = I - Gtilde*G takes Gtilde from the Smith form, so a fault in
    the column reduction cannot reach both sides.  The first permutation (in itertools order) with a diagonal of
    nonzero entries is the answer, so it must give the same (P, D)."""
    field = G.field
    if G.shape != Gp.shape:
        return None
    k, n = G.shape
    if n > EQUIVALENCE_MAX_N or field.q > EQUIVALENCE_MAX_Q:
        raise SearchSpaceTooLarge(
            f"n <= {EQUIVALENCE_MAX_N} and q <= {EQUIVALENCE_MAX_Q} required"
        )
    if not (right_invertible_by_minors(G) and right_invertible_by_minors(Gp)):
        raise NotRightInvertible("both matrices must be right invertible")
    # Gtilde from the Smith form, not from the column reduction that
    # production uses: Linv*G*Rinv = [I 0], so G * Rinv[:, :k] * Linv = I
    _, Linv, Rinv = G.smith_form()
    gt = PolyMatrix(field, [row[:k] for row in Rinv.entries]) * Linv
    # Q = I - Gtilde*G annihilates exactly im G (row vectors w with w*Q = 0)
    Q = PolyMatrix.identity(field, n) - (gt * G)
    # z-coefficients of Gp[r][i] * Q[j][c], shared by every permutation
    prods = [
        [[[(a * q).codes for q in Q.entries[j]] for j in range(n)] for a in row]
        for row in Gp.entries
    ]
    one = Poly.one(field)
    zero = Poly.zero(field)
    for perm in itertools.permutations(range(n)):
        # rows of B*diag(d) lie in im G, B = Gp*P: for all r, c:
        # sum_j Gp[r][perm[j]] Q[j][c] d_j = 0, coefficient by coefficient in z
        eqs = []
        for r in range(k):
            for c in range(n):
                cols = [prods[r][perm[j]][j][c] for j in range(n)]
                for t in range(max(len(p) for p in cols)):
                    eqs.append([p[t] if t < len(p) else 0 for p in cols])
        if eqs:
            basis = linalg.nullspace(field, eqs)
            if not basis:
                continue
        else:
            basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        found = _nonvanishing_combination(field, basis)
        if found is None:
            continue
        B = PolyMatrix(
            field,
            [[row[p].scale(d) for p, d in zip(perm, found)] for row in Gp.entries],
        )
        T = B * gt
        if T * G != B or T.det().degree != 0:
            raise AssertionError("equivalence candidate failed its check")
        P = PolyMatrix(
            field,
            [[one if perm[j] == i else zero for j in range(n)] for i in range(n)],
        )
        D = PolyMatrix(
            field,
            [
                [Poly(field, (found[i],)) if i == j else zero for j in range(n)]
                for i in range(n)
            ],
        )
        return P, D
    return None


def nonvanishing_combination_by_scan(field, basis):
    """Test-only oracle for convolutional._nonvanishing_combination: the
    first combination, over all q^len(basis) coefficient vectors in
    itertools.product order, whose every coordinate is nonzero."""
    n = len(basis[0])
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(combo, basis):
            v = [field.add_c(x, field.mul_c(c, y)) for x, y in zip(v, b)]
        if all(v):
            return v
    return None


def field_tables_by_residues(field):
    """Test-only oracle for FieldSpec's tables: (add, mul, neg) from sums and
    products of Poly residues over F_p, reduced mod the modulus."""
    p, deg, q = field.p, field.deg, field.q
    prime = FieldSpec(p, 1, (0, 1))
    mod = Poly(prime, field.modulus)

    def coeffs(code):
        return [code // p ** i % p for i in range(deg)]

    def code_of(cs):
        return sum(c * p ** i for i, c in enumerate(cs))

    elems = [Poly(prime, coeffs(c)) for c in range(q)]
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for a, fa in enumerate(elems):
        for b in range(a, q):
            fb = elems[b]
            add[a][b] = add[b][a] = code_of((fa + fb).codes)
            mul[a][b] = mul[b][a] = code_of((fa * fb % mod).codes)
    return add, mul, [code_of((-f).codes) for f in elems]


# -- the literal grammar by terms: split at top-level signs, then match each
# term on its own, building one Poly per term; the reference for the
# one-pass parser in literals.py

_TERM_RE = re.compile(
    r"^(?P<coeff>\d+|a(?:\^\d+)?)?\s*(?P<star>\*)?\s*(?:(?P<var>[a-z])(?:\^(?P<exp>\d+))?)?$"
)


def _split_terms(text: str):
    """Top-level '+'/'-' split, honouring parentheses; yields (sign, term)."""
    text = "".join(text.split())
    if not text:
        raise ParseError("empty expression")
    out = []
    depth = 0
    cur = []
    sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if ch in "+-" and depth == 0:
            if cur:
                out.append((sign, "".join(cur)))
                cur = []
                sign = 1 if ch == "+" else -1
            else:
                sign = sign * (1 if ch == "+" else -1)
            continue
        cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    if cur:
        out.append((sign, "".join(cur)))
    if not out:
        raise ParseError(f"no terms in {text!r}")
    return out


def parse_poly_by_terms(field: FieldSpec, text: str, var: str = "x") -> Poly:
    acc = Poly.zero(field)
    for sign, term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"bad term {term!r}")
        if m.group("star") and None in (m.group("coeff"), m.group("var")):
            raise ParseError(f"bad term {term!r}: '*' needs a factor on each side")
        if m.group("var") not in (None, var):
            raise ParseError(f"unexpected variable in {term!r}; wanted {var!r}")
        coeff = (
            parse_element(field, m.group("coeff"))
            if m.group("coeff") is not None
            else field.one
        )
        if sign < 0:
            coeff = -coeff
        exp = 0
        if m.group("var"):
            exp = int(m.group("exp") or 1)
        acc = acc + Poly(field, (0,) * exp + (coeff.code,))
    return acc


def _ring_element_by_terms(ctx, text: str):
    return ctx.from_poly(parse_poly_by_terms(ctx.field, text, "x") % ctx.modulus)


def parse_skew_by_terms(sigma: Automorphism, text: str) -> SkewPoly:
    """Skew-polynomial literal: z^j terms carry parenthesized ring elements;
    every other term is a ring element, in at most one pair of parentheses."""
    ctx = sigma.context
    parts = {}
    for sign, term in _split_terms(text):
        if term.startswith("z"):
            m = re.match(r"^z(?:\^(\d+))?(?:\s*\*?\s*\((?P<inner>.*)\))?$", term)
            if not m:
                raise ParseError(f"bad skew term {term!r}")
            j = int(m.group(1) or 1)
            inner = m.group("inner")
            coeff = ctx.one if inner is None else _ring_element_by_terms(ctx, inner)
        else:
            j = 0
            if term.startswith("(") and term.endswith(")"):
                term = term[1:-1]
            coeff = _ring_element_by_terms(ctx, term)
        if sign < 0:
            coeff = -coeff
        parts[j] = parts.get(j, ctx.zero) + coeff
    depth = max(parts) + 1 if parts else 0
    coeffs = [parts.get(j, ctx.zero) for j in range(depth)]
    return SkewPoly(sigma, coeffs)
