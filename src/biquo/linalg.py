"""Exact linear algebra over Q on one sparse fraction-free echelon.

Every pivoting step is ``_eliminate``, an integer ``m*row - q*pivot``
(Bareiss 1968).  ``QuotientSpace`` gives a coordinate space modulo a
span its lex-first basis and the coordinates in it: a graded piece of a
rank-7 ring has 1716 columns, but a relation multiple has at most seven
nonzero integer entries.  ``rref`` (and ``kernel_basis`` and ``solve``
on it) reads the echelon of the column-reversed rows; ``det`` multiplies
the pivots of the same reduction.  Dense rows hold ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, int]  # column -> nonzero integer entry


def frac_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Reversing the columns turns each row's leading column into its
    largest, so the echelon of the reversed rows has the RREF pivots.
    The RREF row of pivot p is e_p minus the residue of e_p: the span
    element that is 1 at p and 0 at every other pivot.
    """
    ncols = len(rows[0]) if rows else 0
    last = ncols - 1
    space = QuotientSpace(ncols, [row[::-1] for row in rows])
    pivots = sorted(last - c for c in space._echelon)
    out = []
    for p in pivots:
        residue, scale = space._residue({last - p: 1})
        row = [Fraction(-residue.get(last - j, 0), scale) for j in range(ncols)]
        row[p] = Fraction(1)
        out.append(row)
    return out, pivots


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


def det(rows: Matrix) -> Fraction:
    """Determinant of a square matrix: reduced as in ``QuotientSpace``,
    the rows sorted by pivot column are triangular; the pivot columns in
    row order give the sign."""
    echelon: dict[int, SparseRow] = {}
    num = den = 1
    for row in rows:
        pivot, scale = _insert(echelon, row)
        if not pivot:
            return Fraction(0)
        num, den = num * pivot, den * scale
    columns = list(echelon)
    inversions = sum(a > b for i, a in enumerate(columns) for b in columns[i + 1 :])
    return Fraction(-num if inversions % 2 else num, den)


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


def _integer_row(row) -> tuple[SparseRow, int]:
    """The nonzero entries of a dense or ``{column: value}`` row of ints or
    Fractions, times the lcm of their denominators; returns (row, lcm)."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    nonzero = [(j, x) for j, x in items if x]
    den = lcm(*(x.denominator for _, x in nonzero))
    return {j: x.numerator * (den // x.denominator) for j, x in nonzero}, den


def _eliminate(row: SparseRow, pivot: SparseRow, c: int) -> tuple[SparseRow, int]:
    """m*row - q*pivot with the entry at column c cancelled, and m > 0."""
    a, b = row[c], pivot[c]
    g = gcd(a, b)
    q, m = a // g, b // g
    out = {j: m * x for j, x in row.items()} if m != 1 else dict(row)
    for j, y in pivot.items():
        x = out.get(j, 0) - q * y
        if x:
            out[j] = x
        else:
            del out[j]
    return out, m


def _insert(echelon: dict[int, SparseRow], row) -> tuple[int, int]:
    """Reduce a row into the echelon, stored primitive at its largest
    column; returns its pivot entry (0 if it vanished) and its
    denominator lcm times every multiplier ``m``."""
    row, den = _integer_row(row)
    while row and (c := max(row)) in echelon:
        row, m = _eliminate(row, echelon[c], c)
        den *= m
    if not row:
        return 0, den
    g = gcd(*row.values()) * (1 if row[c] > 0 else -1)
    echelon[c] = row if g == 1 else {j: x // g for j, x in row.items()}
    return row[c], den


class QuotientSpace:
    """A coordinate space modulo a span, with a lex-first basis.

    The basis is the first coordinate vectors (in index order) that stay
    independent modulo the span: e_i is one iff no span element has i as
    its last nonzero index.  The span is a fraction-free echelon, one
    primitive ``{column: int}`` row per pivot (its largest column, with a
    positive entry); a new row is reduced against the pivot owning its
    largest column until that column is free or the row vanishes.  A
    vector reduced through the pivots in descending order is the unique
    element of vec + span vanishing at every pivot: its coordinates.
    Rows and vectors are dense or ``{column: value}``, of ints or
    Fractions; ``base`` starts from another space's echelon.
    """

    def __init__(self, ambient_dim: int, rows, base: "QuotientSpace | None" = None):
        if base is not None and base.ambient_dim != ambient_dim:
            raise ValueError("base space has another ambient dimension")
        self.ambient_dim = ambient_dim
        echelon = {} if base is None else dict(base._echelon)
        for row in rows:
            _insert(echelon, row)
        self._echelon = echelon
        self._order = sorted(echelon, reverse=True)
        self.basis_indices = [i for i in range(ambient_dim) if i not in echelon]

    @property
    def dim(self) -> int:
        return len(self.basis_indices)

    def _residue(self, vec) -> tuple[SparseRow, int]:
        """(r, s) with r/s the vector's residue, which vanishes at every pivot."""
        row, scale = _integer_row(vec)
        for c in self._order:
            if c in row:
                row, m = _eliminate(row, self._echelon[c], c)
                scale *= m
        return row, scale

    def coords(self, vec) -> list[Fraction]:
        residue, scale = self._residue(vec)
        return [Fraction(residue.get(i, 0), scale) for i in self.basis_indices]

    def contains(self, vec) -> bool:
        """Whether the vector lies in the span."""
        return not self._residue(vec)[0]

    def same_span(self, other: "QuotientSpace") -> bool:
        """Whether both spaces divide the same ambient space by the same span."""
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and all(other.contains(row) for row in self._echelon.values())
            and all(self.contains(row) for row in other._echelon.values())
        )
