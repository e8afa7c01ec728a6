"""Polynomial matrices over F[z] and the codes skew polynomials generate.

Covers generator matrices of convolutional codes: complexity (max degree
of the k-minors), minimality and row degrees, one column reduction
G*R = [L 0] that decides right invertibility and gives right inverses
and parity checks, and the generator matrix read off a reduced skew
polynomial through vec.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

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
from .skew import SkewPoly, x_multiples


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
                if not (isinstance(e, Poly) and (e.field is field or e.field == field)):
                    raise MixedFields("entries must be polynomials over the matrix field")
        self.field = field
        self.entries = rows
        self._right_invertible = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, field, k):
        one, zero = Poly.one(field), Poly.zero(field)
        return cls(field, [[one if i == j else zero for j in range(k)] for i in range(k)])

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
        for cols in itertools.combinations(range(self.ncols), self.nrows):
            yield linalg.poly_det(self.field, [[row[j] for j in cols] for row in self.entries])

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
        """Whether every pivot of the column reduction is a nonzero
        constant.  The matrix is immutable, so the answer is kept."""
        if self._right_invertible is None:
            self._right_invertible = self._column_reduction() is not None
        return self._right_invertible

    # -- column reduction, its consequences, and the Smith form ----------------

    def _column_reduction(self, complete=False):
        """Reduce self (k x n) to [L 0] = self*R by column operations, L
        lower triangular and R unimodular.  Row i is reduced on columns
        i..n-1: the first least-degree nonzero entry is the pivot, the
        others are reduced modulo it until one is left, which moves to
        column i.  A constant pivot still clears its row, for the rows
        below; the last row has none unless complete, so a running gcd of
        its entries decides it.  None unless every pivot is a nonzero
        constant, that is, unless self is right invertible.  Else, when
        complete, the rows of R: I_n is stacked under self, and each pivot
        also clears its row left of the diagonal and is scaled to 1, so
        self*R = [I 0].  Else [].

        When complete, every step is a column operation on all of
        B = [self; I_n]: add q times column p >= i to column j (row i's
        entry becomes the remainder, that sum), swap columns i and p, scale
        column i by a nonzero constant.  Skipping the rows above stage i
        changes nothing, as stage r < i leaves row r = e_r, zero in every
        column >= i.  So B ends as [self; I_n] * R, R unimodular: its bottom
        block is R and its top block self*R = [I 0], and R is used unchecked.

        Stage i raises each row below it by at most D_i, the largest degree
        of row i when it starts: a column reduced by a pivot of degree m
        stays within D_i - m of its start, and pivot degrees fall.  So
        D_i <= 2^i d, d the largest row degree, R[:, k:] has degree at most
        (2^k - 1) d, and R[:, :k] at most (2^(k+1) - 2) d.
        """
        k, n = self.shape
        B = [list(row) for row in self.entries]
        if complete:
            B += [list(row) for row in PolyMatrix.identity(self.field, n).entries]
        for i, top in enumerate(B[:k]):
            if i == k - 1 and not complete:
                gcds = itertools.accumulate((a for a in top[i:] if a), poly_gcd)
                return [] if any(g.degree == 0 for g in gcds) else None
            while True:
                live = [j for j in range(i, n) if top[j]]
                if not live:
                    return None
                p = min(live, key=lambda j: top[j].degree)
                others = [j for j in live if j != p]
                if complete and top[p].degree == 0:
                    others += [j for j in range(i) if top[j]]
                if not others:
                    break
                for j in others:
                    q, top[j] = divmod(top[j], top[p])
                    q = -q
                    for row in B[i + 1:]:
                        if row[p]:
                            row[j] = row[j] + q * row[p]
            for row in B:
                row[i], row[p] = row[p], row[i]
            if top[i].degree:
                return None
            c = self.field.inv_c(top[i].lc())
            for row in B[i:]:
                row[i] = row[i].scale(c)
        return B[k:]

    def right_inverse(self) -> "PolyMatrix":
        """Gtilde with self * Gtilde = I: the first k columns of R, unchecked
        (_column_reduction proves self * R = [I 0])."""
        return self._completion(slice(None, self.nrows))

    def parity_check(self) -> "PolyMatrix":
        """H (n x (n-k)) with self * H = 0: the last n-k columns of R,
        unchecked (_column_reduction proves self * R = [I 0])."""
        return self._completion(slice(self.nrows, None))

    def _completion(self, cols):
        """R[:, cols] for the unimodular R with self * R = [I 0]; the tests'
        column-reduction sweep forms both products."""
        R = self._column_reduction(complete=True)
        if R is None:
            raise NotRightInvertible("a pivot of the column reduction is not a nonzero constant")
        return PolyMatrix(self.field, [row[cols] for row in R])

    def smith_form(self):
        """(S, Linv, Rinv) with Linv*self*Rinv = S, Linv and Rinv unimodular,
        S diagonal with each diagonal entry dividing the next.

        One block matrix B = [[self, I_m], [I_n, 0]] is reduced: a row
        operation on its first m rows acts on S and Linv in one step, and a
        column operation on its first n columns on S and Rinv.
        """
        field = self.field
        m, n = self.nrows, self.ncols
        one, zero = Poly.one(field), Poly.zero(field)
        B = [
            list(row) + [one if t == i else zero for t in range(m)]
            for i, row in enumerate(self.entries)
        ] + [[one if t == j else zero for t in range(n + m)] for j in range(n)]
        r = 0
        while r < min(m, n):
            # the pivot: a least-degree nonzero entry of the remaining block,
            # first in row order
            nonzero = [
                (B[i][j].degree, i, j) for i in range(r, m) for j in range(r, n) if B[i][j]
            ]
            if not nonzero:
                break
            _, pi, pj = min(nonzero)
            B[r], B[pi] = B[pi], B[r]
            for row in B:
                row[r], row[pj] = row[pj], row[r]
            piv = B[r][r]
            # clear the pivot row and column; restart if a remainder pops up
            dirty = False
            for i in range(r + 1, m):
                if B[i][r]:
                    q, rem = divmod(B[i][r], piv)
                    q = -q
                    B[i] = [a + q * b for a, b in zip(B[i], B[r])]
                    dirty = dirty or bool(rem)
            for j in range(r + 1, n):
                if B[r][j]:
                    q, rem = divmod(B[r][j], piv)
                    q = -q
                    for row in B:
                        row[j] = row[j] + row[r] * q
                    dirty = dirty or bool(rem)
            if dirty:
                continue
            # the pivot divides its row and column; the first row of the rest
            # of the block with an entry it does not divide joins the pivot row
            offender = next(
                (i for i in range(r + 1, m) if any(B[i][j] % piv for j in range(r + 1, n))),
                None,
            )
            if offender is not None:
                B[r] = [a + b for a, b in zip(B[r], B[offender])]
                continue
            c = field.inv_c(piv.lc())
            B[r] = [e.scale(c) for e in B[r]]
            r += 1
        return (
            PolyMatrix(field, [row[:n] for row in B[:m]]),
            PolyMatrix(field, [row[n:] for row in B[:m]]),
            PolyMatrix(field, [row[:n] for row in B[m:]]),
        )

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
    rows = []
    for l, comp in g.components().items():
        rows += x_multiples(comp, ctx.kappas[l - 1])
    return PolyMatrix(ctx.field, rows)


class ConvCode(NamedTuple):
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


# strong_equivalence enumerates n! permutations and up to (q-1)^n diagonals
EQUIVALENCE_MAX_N = 8
EQUIVALENCE_MAX_Q = 9


def strong_equivalence(G: PolyMatrix, Gp: PolyMatrix):
    """Search for (P, D) with im G = im(Gp * P * D); None if inequivalent.

    P runs over the column permutations that the maximal minors allow.
    If B = Gp*P*D spans im G, then B = T*G and G = T'*B for k x k T and
    T', and T'*T = I as G has full row rank, so det T is a nonzero
    constant.  By Cauchy-Binet (here B[:, S] = T * G[:, S]) the minor of
    B on a k-set S of columns is det T times the minor of G on S.  It is
    also, up to sign, the product of the entries of D on S times the minor
    of Gp on perm(S).  So the monic minor of G on S equals the monic minor
    of Gp on perm(S), for every S.  Permutations are generated depth first
    in itertools.permutations order, and a prefix is dropped at the first
    set S that closes at its last position and disagrees.  A dropped
    permutation has no valid D, so the answer is the one a search over all
    n! permutations finds first.

    For each remaining P the diagonal D is not enumerated directly: a row
    vector w lies in im G iff w*H = 0, H = G.parity_check() (G is right
    invertible; Forney 1970), so membership of the rows of Gp*P*D in im G
    is linear in the diagonal entries.  Candidates come from a nullspace
    over F, in reduced echelon form, which depends only on the solution
    space, and the first one with all entries nonzero is the answer.

    The witness is returned unchecked.  The nullspace equations say
    B*H == 0, B = Gp*P*D, so the rows of B lie in im G.  B is a column
    permutation and nonzero rescaling of Gp, which is right invertible, so
    B is right invertible and im B is a direct summand of rank k inside
    the direct summand im G of rank k; the two are equal.  The tests'
    equivalence sweep forms B*H for every witness.
    """
    field = G.field
    if G.shape != Gp.shape:
        return None
    k, n = G.shape
    if n > EQUIVALENCE_MAX_N or field.q > EQUIVALENCE_MAX_Q:
        raise SearchSpaceTooLarge(
            f"n <= {EQUIVALENCE_MAX_N} and q <= {EQUIVALENCE_MAX_Q} required"
        )
    H = G.parity_check()
    if not Gp.is_right_invertible():
        raise NotRightInvertible("both matrices must be right invertible")
    perms = _minor_preserving_permutations(n, k, G.k_minors(), Gp.k_minors())
    # z-coefficients of Gp[r][i] * H[j][c] by (r, c), formed when a
    # remaining permutation first sends position j to column i
    prods = {}
    one = Poly.one(field)
    zero = Poly.zero(field)
    for perm in perms:
        blocks = []
        for j, i in enumerate(perm):
            block = prods.get((i, j))
            if block is None:
                block = prods[i, j] = [
                    [(row[i] * h).codes for h in H.entries[j]] for row in Gp.entries
                ]
            blocks.append(block)
        # rows of B*diag(d) lie in im G, B = Gp*P: for all r, c:
        # sum_j Gp[r][perm[j]] H[j][c] d_j = 0, coefficient by coefficient in z
        eqs = []
        for r in range(k):
            for c in range(n - k):
                cols = [block[r][c] for block in blocks]
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


def _minor_preserving_permutations(n, k, g_minors, gp_minors):
    """The permutations perm of range(n), in itertools.permutations order,
    with Gp's monic minor on perm(S) equal to G's on S for every k-set S of
    columns.  Both minor sequences come in itertools.combinations order.
    A prefix perm[:t+1] is dropped at the first S with max(S) = t whose
    minors disagree, so only prefixes that pass every closed set grow."""
    sets = list(itertools.combinations(range(n), k))
    # Gp's monic minors keyed by the bit mask of their column set
    gp_key = {
        sum(1 << j for j in s): m.monic().codes for s, m in zip(sets, gp_minors)
    }
    # closing[t]: (the other positions of S, G's monic minor on S), max(S) = t
    closing = [[] for _ in range(n)]
    for s, m in zip(sets, g_minors):
        closing[s[-1]].append((s[:-1], m.monic().codes))
    perm = [0] * n
    bits = [0] * n  # bits[j] = 1 << perm[j]

    def extend(t, used):
        for i in range(n):
            bit = 1 << i
            if used & bit:
                continue
            if all(
                gp_key[bit + sum(bits[j] for j in rest)] == key
                for rest, key in closing[t]
            ):
                perm[t], bits[t] = i, bit
                if t == n - 1:
                    yield tuple(perm)
                else:
                    yield from extend(t + 1, used | bit)

    return extend(0, 0)


def _nonvanishing_combination(field, basis):
    """A vector in the span of basis with every coordinate nonzero, or None.

    Each basis vector is 1 on its own free column and 0 on the others, so a
    hit has no zero coefficient: scanning the nonzero ones in product order
    finds the first hit of the scan over all q^len(basis) combinations."""
    n = len(basis[0])
    if not all(any(col) for col in zip(*basis)):  # a coordinate 0 in every combination
        return None
    for combo in itertools.product(range(1, field.q), repeat=len(basis)):
        v = [0] * n
        for c, b in zip(combo, basis):
            v = [field.add_c(x, field.mul_c(c, y)) for x, y in zip(v, b)]
        if all(v):
            return v
    return None
