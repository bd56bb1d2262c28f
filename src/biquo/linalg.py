"""Exact linear algebra over Q on one sparse fraction-free echelon.

Every pivoting step is ``_eliminate``, an integer ``m*row - q*pivot``
(Bareiss 1968).  A row enters the echelon in two steps: ``_integer_row``
clears a dense or sparse row of ints or Fractions by the lcm of its
denominators, and ``_reduce`` reduces an integer row into the echelon.
``QuotientSpace`` gives a coordinate space modulo a span its lex-first
basis and the coordinates in it.  A graded piece (``graded``) builds its
integer rows itself, already cleared, hands them to ``_reduce`` and wraps
the echelon with ``QuotientSpace._trusted``: a piece of a rank-7 ring has
1716 columns, but a relation multiple has at most seven nonzero integer
entries.  ``rref``, ``kernel_basis`` and ``solve`` read the pivot
residues of the column-reversed rows' echelon once; ``kernel_basis``
reads them through ``_kernel_rows``, the integer kernel rows that
``graded`` builds quadric nets from.  ``det`` multiplies the pivots of
one reduction.  Dense rows hold ints or Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = list[Fraction]
Matrix = list[list[Fraction]]
SparseRow = dict[int, int]  # column -> nonzero integer entry


def _pivot_residues(rows, ncols: int) -> dict[int, tuple[SparseRow, int]]:
    """{p: (r, s)} for each RREF pivot p, ascending, r an integer row: the
    reduced basis (``QuotientSpace._reduced``) of the column-reversed rows'
    span, read back in the original columns, is the RREF."""
    last = ncols - 1
    space = QuotientSpace(ncols, [row[::-1] for row in rows])
    return {
        last - c: ({last - j: x for j, x in residue.items()}, scale)
        for c, (residue, scale) in reversed(space._reduced().items())
    }


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    ncols = len(rows[0]) if rows else 0
    residues = _pivot_residues(rows, ncols)
    out = []
    for p, (residue, scale) in residues.items():
        row = [Fraction(-residue.get(j, 0), scale) for j in range(ncols)]
        row[p] = Fraction(1)
        out.append(row)
    return out, list(residues)


def _kernel_rows(rows, ncols: int) -> list[tuple[SparseRow, int]]:
    """The kernel basis of ``kernel_basis`` as integer rows: (r, d) for
    each free column f, ascending, r/d the vector with 1 at f, 0 at the
    other free columns, and d > 0 the lcm of its denominators."""
    residues = _pivot_residues(rows, ncols)
    out = []
    for f in range(ncols):
        if f not in residues:
            entries = [(p, r[f], s) for p, (r, s) in residues.items() if f in r]
            den = lcm(*(s for _, _, s in entries))
            row = {f: den}
            for p, x, s in entries:
                row[p] = x * (den // s)
            out.append((row, den))
    return out


def kernel_basis(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel {x : A x = 0}, one vector per free column."""
    out = []
    for row, den in _kernel_rows(rows, ncols):
        v = [Fraction(0)] * ncols
        for j, x in row.items():
            v[j] = Fraction(x, den)
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
    """One exact solution of A x = b, or None if inconsistent: minus the
    kernel vector of (A | b) at b's column, so 0 at every free column."""
    ncols = len(rows[0])
    residues = _pivot_residues([[*row, b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in residues:
        return None
    x = [Fraction(0)] * ncols
    for p, (residue, scale) in residues.items():
        x[p] = Fraction(-residue.get(ncols, 0), scale)
    return x


def _integer_row(row) -> tuple[SparseRow, int]:
    """The nonzero entries of a dense or ``{column: value}`` row of ints or
    Fractions, times the lcm of their denominators; returns (row, lcm).
    An all-int row is returned as it is, with lcm 1."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    nonzero = [(j, x) for j, x in items if x]
    if all(type(x) is int for _, x in nonzero):
        return dict(nonzero), 1
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


def _reduce(echelon: dict[int, SparseRow], row: SparseRow) -> tuple[int, int]:
    """Reduce an integer row into the echelon, stored primitive at its
    largest column; returns its pivot entry (0 if it vanished) and the
    product of every multiplier ``m``."""
    scale = 1
    while row and (c := max(row)) in echelon:
        row, m = _eliminate(row, echelon[c], c)
        scale *= m
    if not row:
        return 0, scale
    g = gcd(*row.values()) * (1 if row[c] > 0 else -1)
    echelon[c] = row if g == 1 else {j: x // g for j, x in row.items()}
    return row[c], scale


def _insert(echelon: dict[int, SparseRow], row) -> tuple[int, int]:
    """Clear a row of ints or Fractions with ``_integer_row``, then
    ``_reduce`` it; the scale returned is its denominator lcm times every
    multiplier."""
    row, den = _integer_row(row)
    pivot, scale = _reduce(echelon, row)
    return pivot, den * scale


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

    @classmethod
    def _trusted(cls, ambient_dim: int, echelon: dict[int, SparseRow]) -> "QuotientSpace":
        """Wrap an echelon already in the stored form, without checks: a
        module constant built this way runs no reduction at import."""
        space = object.__new__(cls)
        space.ambient_dim = ambient_dim
        space._echelon = echelon
        space._order = sorted(echelon, reverse=True)
        space.basis_indices = [i for i in range(ambient_dim) if i not in echelon]
        return space

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

    def _reduced(self) -> dict[int, tuple[SparseRow, int]]:
        """{p: (r, s)} for each pivot p, ascending, r/s the residue of e_p: the
        reduced basis, e_p - r/s in the span, 1 at p and 0 at other pivots."""
        return {p: self._residue({p: 1}) for p in reversed(self._order)}

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
