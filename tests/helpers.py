"""Shared heavy property checks used by module tests and the acceptance gate."""

import itertools

from skewcyclic.fields import Poly, monic_polys


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
        v = ctx.crt_forward(a)
        assert ctx.crt_backward(v) == a, "backward(forward(a)) != a"
        image[codes] = tuple(
            norm(p.codes, d) for p, d in zip(v.parts, degs)
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
    from skewcyclic import linalg

    return linalg.poly_det(f.context.field, f.module_matrix())


def module_unit_inverse(f):
    """Test-only oracle: the inverse of f from one fraction-free solve of
    M^T vec(g) = vec(1) on the whole module matrix M, or None when det M is
    not a nonzero constant.  Row i of M is vec(x^i f), so vec(g f) =
    vec(g) M."""
    from skewcyclic import linalg
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
    from skewcyclic import linalg
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


def inverse_degree_bound(f) -> int:
    """Proven bound on deg_z of an inverse: (n-1) * deg_z f.

    Right multiplication by f is an F[z]-linear map on F[z]^n whose matrix
    has entry degrees <= deg_z f; f is a unit iff that matrix is unimodular,
    and then the inverse's coordinates are entries of the adjugate divided
    by the constant determinant.
    """
    return max((f.context.n - 1) * (len(f.coeffs) - 1), 0)


def unit_inverse_by_solving(f):
    """Test-only oracle for units of A[z;sigma], independent of the module
    determinant: one F-linear solve of f*g = 1, built from the twisted
    product, with deg_z g at the proven bound.  The inverse is unique and a
    right inverse is two-sided, so this returns the inverse of a unit and
    None for a non-unit."""
    from skewcyclic import linalg
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
