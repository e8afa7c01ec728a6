"""Polynomial matrices over F[z] and the codes skew polynomials generate.

Covers generator matrices of convolutional codes: complexity (max degree
of the k-minors), right invertibility via the minor gcd, minimality and
row degrees, Smith-form based right inverses and parity checks, and the
generator matrix read off a reduced skew polynomial through vec.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import linalg
from .errors import (
    LengthMismatch,
    MixedFields,
    NotMinimal,
    NotReduced,
    NotRightInvertible,
    RankDeficient,
    SearchSpaceTooLarge,
    ZeroPolynomial,
)
from .fields import NEG_INF, FieldSpec, Poly, poly_gcd
from .skew import SkewPoly, vector_from_skew


class PolyMatrix:
    """Rectangular matrix of polynomials in z over a fixed field."""

    __slots__ = ("field", "entries", "_right_invertible")

    def __init__(self, field: FieldSpec, entries):
        rows = tuple(tuple(e for e in row) for row in entries)
        if not rows:
            raise LengthMismatch("matrix needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise LengthMismatch("ragged matrix")
            for e in row:
                if not (isinstance(e, Poly) and e.field == field):
                    raise MixedFields("entries must be polynomials over the matrix field")
        self.field = field
        self.entries = rows
        self._right_invertible = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, field, k):
        one, zero = Poly.one(field), Poly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(k)] for i in range(k)])

    @classmethod
    def constant(cls, field, codes):
        return cls(field, [[Poly(field, (c,)) for c in row] for row in codes])

    # -- basics ---------------------------------------------------------------

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def row(self, i):
        return self.entries[i]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise LengthMismatch(f"cannot multiply {self.shape} by {other.shape}")
        zero = Poly.zero(self.field)
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for t in range(self.ncols):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.field, out)

    def _entrywise(self, other, op):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise LengthMismatch(f"shapes {self.shape} and {other.shape} differ")
        return PolyMatrix(
            self.field,
            [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def submatrix(self, rows, cols):
        return PolyMatrix(
            self.field, [[self.entries[i][j] for j in cols] for i in rows]
        )

    def row_degrees(self):
        out = []
        for row in self.entries:
            degs = [e.degree for e in row if not e.is_zero()]
            out.append(int(max(degs)) if degs else NEG_INF)
        return tuple(out)

    # -- determinants and rank ------------------------------------------------

    def det(self) -> Poly:
        """Fraction-free (Bareiss) determinant; exact over F[z]."""
        return linalg.poly_det(self.field, self.entries)

    def rank(self) -> int:
        """Rank over the rational function field F(z)."""
        return linalg.bareiss(self.field, self.entries)[0]

    def k_minors(self):
        """The maximal (k x k) minors, k = nrows, yielded lazily with the
        column sets in lexicographic order; none when nrows > ncols."""
        rows = range(self.nrows)
        for cols in itertools.combinations(range(self.ncols), self.nrows):
            yield self.submatrix(rows, cols).det()

    def complexity(self) -> int:
        """Max degree over the k-minors (the code's total memory)."""
        degs = [m.degree for m in self.k_minors() if not m.is_zero()]
        if not degs:
            raise RankDeficient("complexity needs full row rank")
        return int(max(degs))

    def is_minimal(self) -> bool:
        """Forney's predictable-degree criterion: the leading row-coefficient
        matrix (row i holds the z^d_i coefficients, d_i the degree of row i)
        has full row rank over F.  For a full-rank matrix this is
        complexity() == sum(row_degrees()); a rank-deficient one is never
        minimal."""
        lead = [
            [e.lc() if e.degree == d else 0 for e in row]
            for row, d in zip(self.entries, self.row_degrees())
        ]
        return linalg.rank(self.field, lead) == self.nrows

    def forney_indices(self):
        """Row degrees of a minimal generator matrix, as a sorted tuple."""
        if not self.is_minimal():
            raise NotMinimal("row-degree sum exceeds the complexity")
        return tuple(sorted(self.row_degrees()))

    def is_right_invertible(self) -> bool:
        """Constant nonzero gcd of the maximal minors (all zero means the
        rows are dependent); stops at the first minor that makes the gcd
        constant.  The matrix is immutable, so the answer is kept."""
        if self._right_invertible is None:
            found, g = False, None
            for m in self.k_minors():
                if m.is_zero():
                    continue
                g = m if g is None else poly_gcd(g, m)
                if g.degree == 0:
                    found = True
                    break
            self._right_invertible = found
        return self._right_invertible

    # -- Smith form and consequences -------------------------------------------

    def smith_form(self):
        """(S, Linv, Rinv) with Linv*self*Rinv = S, Linv and Rinv unimodular,
        S diagonal with each diagonal entry dividing the next."""
        field = self.field
        m, n = self.nrows, self.ncols
        S = [list(row) for row in self.entries]
        Li = [list(row) for row in PolyMatrix.identity(field, m).entries]
        Ri = [list(row) for row in PolyMatrix.identity(field, n).entries]

        def row_swap(i, j):
            S[i], S[j] = S[j], S[i]
            Li[i], Li[j] = Li[j], Li[i]

        def col_swap(i, j):
            for t in range(m):
                S[t][i], S[t][j] = S[t][j], S[t][i]
            for t in range(n):
                Ri[t][i], Ri[t][j] = Ri[t][j], Ri[t][i]

        def row_addmul(dst, src, q: Poly):
            S[dst] = [a + q * b for a, b in zip(S[dst], S[src])]
            Li[dst] = [a + q * b for a, b in zip(Li[dst], Li[src])]

        def col_addmul(dst, src, q: Poly):
            for t in range(m):
                S[t][dst] = S[t][dst] + S[t][src] * q
            for t in range(n):
                Ri[t][dst] = Ri[t][dst] + Ri[t][src] * q

        def row_scale(i, c_code):
            S[i] = [e.scale(c_code) for e in S[i]]
            Li[i] = [e.scale(c_code) for e in Li[i]]

        rank_pos = 0
        while True:
            # find the lowest-degree nonzero entry in the remaining block
            best = None
            for i in range(rank_pos, m):
                for j in range(rank_pos, n):
                    e = S[i][j]
                    if not e.is_zero() and (best is None or e.degree < best[2]):
                        best = (i, j, e.degree)
            if best is None:
                break
            bi, bj, _ = best
            if bi != rank_pos:
                row_swap(rank_pos, bi)
            if bj != rank_pos:
                col_swap(rank_pos, bj)
            # clear the pivot row and column; restart if a remainder pops up
            dirty = False
            for i in range(rank_pos + 1, m):
                if S[i][rank_pos].is_zero():
                    continue
                q, r = divmod(S[i][rank_pos], S[rank_pos][rank_pos])
                row_addmul(i, rank_pos, -q)
                if not r.is_zero():
                    dirty = True
            for j in range(rank_pos + 1, n):
                if S[rank_pos][j].is_zero():
                    continue
                q, r = divmod(S[rank_pos][j], S[rank_pos][rank_pos])
                col_addmul(j, rank_pos, -q)
                if not r.is_zero():
                    dirty = True
            if dirty:
                continue
            # pivot divides its row and column; check the rest of the block
            piv = S[rank_pos][rank_pos]
            offender = None
            for i in range(rank_pos + 1, m):
                for j in range(rank_pos + 1, n):
                    if not (S[i][j] % piv).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is not None:
                row_addmul(rank_pos, offender, Poly.one(field))
                continue
            row_scale(rank_pos, field.inv_c(piv.lc()))
            rank_pos += 1
            if rank_pos == min(m, n):
                break
        return PolyMatrix(field, S), PolyMatrix(field, Li), PolyMatrix(field, Ri)

    def _smith_completion(self):
        """(Li, Ri) from one Smith form, with Li * self * Ri = [I 0].

        smith_form makes each nonzero invariant factor monic, so a right
        invertible k x n matrix (k <= n, constant invariant factors) has
        S = [I 0]; any other S raises NotRightInvertible.
        """
        k, n = self.shape
        if k > n:
            raise NotRightInvertible("more rows than columns")
        S, Li, Ri = self.smith_form()
        one = Poly.one(self.field)
        if any(S[i, i] != one for i in range(k)):
            raise NotRightInvertible("invariant factors are not all 1")
        return Li, Ri

    def right_inverse(self) -> "PolyMatrix":
        """Gtilde with self * Gtilde = I, via the Smith form."""
        k, n = self.shape
        Li, Ri = self._smith_completion()
        # Li * self * Ri = [I 0], so self * Ri[:, :k] = Li^-1
        gt = Ri.submatrix(range(n), range(k)) * Li
        if self * gt != PolyMatrix.identity(self.field, k):
            raise AssertionError("Smith-form right inverse failed its check")
        return gt

    def parity_check(self) -> "PolyMatrix":
        """H (n x (n-k)) with self * H = 0: the last n-k columns of the
        unimodular Smith-form completion."""
        k, n = self.shape
        _, Ri = self._smith_completion()
        H = Ri.submatrix(range(n), range(k, n))
        if not (self * H).is_zero():
            raise AssertionError("Smith-form parity check failed its check")
        return H

    def to_strings(self):
        return [[e.to_str("z") for e in row] for row in self.entries]

    def __str__(self):
        rows = self.to_strings()
        width = max(len(s) for row in rows for s in row)
        return "\n".join(
            "[" + "  ".join(s.rjust(width) for s in row) + "]" for row in rows
        )

    def __repr__(self):
        return f"PolyMatrix {self.nrows}x{self.ncols} over GF({self.field.q})"


def membership(G: PolyMatrix, w):
    """Message u with u*G = w, or None; w is a sequence of n polynomials."""
    wm = PolyMatrix(G.field, [list(w)])
    u = wm * G.right_inverse()
    return tuple(u.entries[0]) if (u * G) == wm else None


def generator_matrix(g: SkewPoly) -> PolyMatrix:
    """Minimal generator matrix of the module generated by a reduced g.

    Block for each support component l (in increasing order): rows are the
    vectors of x^i * g^(l) for i = 0..deg(pi_l)-1.
    """
    ctx = g.context
    if not g:
        raise ZeroPolynomial("zero polynomial generates the zero module")
    if not g.is_reduced():
        raise NotReduced("generator matrix formula needs a reduced polynomial")
    xs = SkewPoly.constant(g.sigma, ctx.x)
    rows = []
    for l in g.support():
        comp = g.component(l)
        cur = comp
        for _ in range(ctx.kappas[l - 1]):
            rows.append(vector_from_skew(cur))
            cur = xs * cur
    return PolyMatrix(ctx.field, rows)


@dataclass(frozen=True)
class ConvCode:
    """A convolutional code with its minimal generator matrix and parameters."""

    generator: PolyMatrix
    n: int
    k: int
    delta: int
    forney: tuple
    support: tuple | None = None
    reduced_generator: SkewPoly | None = None

    @classmethod
    def from_generator(cls, G: PolyMatrix, support=None, reduced=None):
        if not G.is_right_invertible():
            raise NotRightInvertible("generator matrix must be right invertible")
        forney = G.forney_indices()
        return cls(
            generator=G,
            n=G.ncols,
            k=G.nrows,
            delta=sum(forney),
            forney=forney,
            support=tuple(support) if support is not None else None,
            reduced_generator=reduced,
        )

    @classmethod
    def from_reduced(cls, g: SkewPoly):
        G = generator_matrix(g)
        return cls.from_generator(G, support=g.support(), reduced=g)

    @property
    def params(self):
        return (self.n, self.k, self.delta)


# strong_equivalence enumerates n! permutations and up to q^nullity diagonals
EQUIVALENCE_MAX_N = 8
EQUIVALENCE_MAX_Q = 9
EQUIVALENCE_MAX_NULLITY = 14


def strong_equivalence(G: PolyMatrix, Gp: PolyMatrix):
    """Search for (P, D) with im G = im(Gp * P * D); None if inequivalent.

    P runs over all n! column permutations.  For each P the diagonal D is
    not enumerated directly: membership of the rows of Gp*P*D in im G is
    linear in the diagonal entries, so candidates come from a nullspace
    over F, and the first one with all entries nonzero is checked.

    The witness is checked with T = B*Gtilde, B = Gp*P*D: T*G == B and
    det T a nonzero constant, one k x k determinant.  Why this decides
    im B = im G: B is a column permutation and nonzero rescaling of Gp, so
    each maximal minor of B is a nonzero constant times a minor of Gp, and
    B is right invertible.  B = T*G with T square, and T*(G*Btilde) = I, so
    T is right invertible, hence unimodular, and im B = im G.  Every
    nullspace candidate has rows of B in im G, that is T*G == B, so the
    check never fails and the first candidate is the answer.
    """
    field = G.field
    if G.shape != Gp.shape:
        return None
    k, n = G.shape
    if n > EQUIVALENCE_MAX_N or field.q > EQUIVALENCE_MAX_Q:
        raise SearchSpaceTooLarge(
            f"n <= {EQUIVALENCE_MAX_N} and q <= {EQUIVALENCE_MAX_Q} required"
        )
    gt = G.right_inverse()
    if not Gp.is_right_invertible():
        raise NotRightInvertible("both matrices must be right invertible")
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
        if len(basis) > EQUIVALENCE_MAX_NULLITY:
            raise SearchSpaceTooLarge("nullspace too large to enumerate")
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


def _nonvanishing_combination(field, basis):
    """A vector in the span of basis with every coordinate nonzero, or None."""
    n = len(basis[0])
    for combo in itertools.product(range(field.q), repeat=len(basis)):
        if not any(combo):
            continue
        v = [0] * n
        for c, b in zip(combo, basis):
            if c:
                v = [field.add_c(x, field.mul_c(c, y)) for x, y in zip(v, b)]
        if all(v):
            return v
    return None
