"""Small dense exact linear algebra over Q (lists of Fractions).

Matrices are lists of row lists.  Everything is Gaussian elimination
with no pivoting cleverness beyond exactness; the largest matrices here
are the relation spans of graded pieces (126 columns for the degree-8
piece of a rank-6 ring).  ``QuotientSpace`` gives a coordinate space
modulo a span its lex-first basis and the coordinates in it.
"""

from __future__ import annotations

from fractions import Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0])


def reduce_against(vec: Vector, basis: Matrix, pivots: list[int]) -> Vector:
    """Residue of vec after eliminating the pivot coordinates of an rref basis."""
    v = vec[:]
    for row, c in zip(basis, pivots):
        if v[c] != 0:
            factor = v[c]
            v = [a - factor * b for a, b in zip(v, row)]
    return v


def in_span(vec: Vector, basis: Matrix, pivots: list[int]) -> bool:
    return all(x == 0 for x in reduce_against(vec, basis, pivots))


def kernel_basis(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel {x : A x = 0}, one vector per free column."""
    basis, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[c]
        out.append(v)
    return out


def mat_vec(rows: Matrix, v: Vector) -> Vector:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def identity(n: int) -> Matrix:
    return [
        [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]


def det(rows: Matrix) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            out = -out
        out *= m[c][c]
        inv = Fraction(1, 1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return out


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a small integer matrix (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            out += sign * rows[0][j] * int_det(minor)
        sign = -sign
    return out


def inverse(rows: Matrix) -> Matrix:
    n = len(rows)
    aug = [row[:] + ident_row for row, ident_row in zip(rows, identity(n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def solve(rows: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return x


class QuotientSpace:
    """A coordinate space modulo a span, with a lex-first basis.

    The quotient basis consists of the first coordinate vectors (in
    index order) that stay independent modulo the span, which makes the
    coordinates deterministic.  e_i is one of them iff no span element
    has i as its last nonzero index, i.e. iff i is not a pivot of the
    span's rref taken with the columns reversed.  That rref, mapped back
    to index order, is ``span_rows``/``span_pivots``; a vector's residue
    against it vanishes off the basis, so the residue read at the basis
    indices is the vector's coordinates.
    """

    def __init__(self, ambient_dim: int, span_rows: Matrix):
        self.ambient_dim = ambient_dim
        rows, pivots = rref([row[::-1] for row in span_rows])
        self.span_rows = [row[::-1] for row in reversed(rows)]
        self.span_pivots = [ambient_dim - 1 - c for c in reversed(pivots)]
        taken = set(self.span_pivots)
        self.basis_indices = [i for i in range(ambient_dim) if i not in taken]

    @property
    def dim(self) -> int:
        return len(self.basis_indices)

    def coords(self, vec: Vector) -> Vector:
        residue = reduce_against(list(vec), self.span_rows, self.span_pivots)
        return [residue[i] for i in self.basis_indices]
