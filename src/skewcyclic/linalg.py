"""Dense linear algebra over a FieldSpec, on integer-code matrices, plus one
fraction-free elimination (rank and determinant) for matrices of polynomials."""

from __future__ import annotations

from .errors import LengthMismatch
from .fields import FieldSpec, Poly, cross_difference


def bareiss(field: FieldSpec, rows):
    """Fraction-free (Bareiss) elimination of a list-of-lists of Poly over F[z].

    Works on any shape; a column without a pivot below the current row is
    skipped.  Returns (rank, det, rows): the rank over F(z); for square
    input the determinant (zero when singular), else None; and the
    eliminated rows, row swaps applied.  After each step every remaining
    entry is a minor of the input, so the divisions are exact.  In the
    returned rows only the entries on and to the right of each row's pivot
    are valid: left of it, the pivot columns of the rows above keep stale
    entries instead of zeros.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    sign = 1
    prev = Poly.one(field)
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r, m):
            if not a[i][c].is_zero():
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
            sign = -sign
        piv, prow = a[r][c], a[r]
        # dividing by a constant is scaling by its inverse (by nothing for 1)
        scale = field.inv_c(prev.codes[0]) if prev.degree == 0 else None
        for i in range(r + 1, m):
            row = a[i]
            f = row[c]
            for j in range(c + 1, n):
                t = cross_difference(row[j], piv, f, prow[j])
                if scale is None:
                    t = t.exact_div(prev)
                elif scale != 1:
                    t = t.scale(scale)
                row[j] = t
        prev = piv
        r += 1
    if m != n:
        return r, None, a
    if r < n:
        return r, Poly.zero(field), a
    return r, (-prev if sign < 0 else prev), a


def poly_det(field: FieldSpec, rows) -> Poly:
    """Determinant of a square list-of-lists of Poly over F[z]."""
    if any(len(r) != len(rows) for r in rows):
        raise LengthMismatch("determinant of a non-square matrix")
    return bareiss(field, rows)[1]


def _echelon(field: FieldSpec, rows, ncols):
    """Row-reduce in place; returns list of pivot column indices."""
    mul, inv, sub = field._mul, field.inv_c, field.sub_c
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r]
        f = inv(piv[c])
        if f != 1:
            rows[r] = piv = [mul[x][f] for x in piv]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                g = rows[i][c]
                row = rows[i]
                rows[i] = [sub(x, mul[g][y]) for x, y in zip(row, piv)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(field: FieldSpec, matrix) -> int:
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    return len(_echelon(field, rows, len(rows[0])))


def solve(field: FieldSpec, matrix, rhs):
    """One solution of matrix @ x = rhs (codes), or None if inconsistent."""
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivots = _echelon(field, rows, ncols)
    for i in range(len(pivots), len(rows)):
        if rows[i][ncols]:
            return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols]
    return x


def nullspace(field: FieldSpec, matrix):
    """Basis of the right nullspace of the matrix (list of code vectors)."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) for r in matrix]
    pivots = _echelon(field, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    neg = field._neg
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = neg[rows[r][fc]]
        basis.append(v)
    return basis
