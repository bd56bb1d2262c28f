"""Graded quotient rings Q[x1..xn]/(quadratic relations), by linear algebra.

Generators sit in cohomological degree 2 and every relation in degree 4,
so each graded piece is a finite monomial span modulo the span of
relation multiples; everything reduces to exact row reduction.  No
Groebner basis is computed: all computations here live in degree <= 2n+2.
One rule borrowed from Groebner theory skips rows without changing the
span: a relation multiple m * r_i is never built when m leads a row of
the piece four degrees lower spanned by r_0..r_(i-1) (the F5 criterion:
Faugere, "A new efficient algorithm for computing Groebner bases without
reduction to zero", ISSAC 2002).  On a complete intersection the rows it
skips are the Koszul syzygies r_j * r_i = r_i * r_j, and no row that is
built reduces to zero.

Quotient bases are the lexicographically first independent monomial
subsets, which pins deterministic coordinates for serialization; each
graded piece is a ``linalg.QuotientSpace``, the one place that basis is
built.  Each relation is cleared to primitive integer terms once.  A
monomial packs to one integer key, ``poly``'s encoding (``_places``) in
one base per ring, above every exponent up to max_degree (packed
exponent vectors: Monagan and Pearce, CASC 2007), so a relation
multiple's column is one key addition and one lookup, and its integer
row is stored at its lead column or reduced into the echelon
(``linalg._reduce``).  Degree-4 algorithms read the cup product as plain
data, a ring's ``product_table()``; a quadric's coordinates are its
coefficients at the pairs i <= j (``_pairs``).  A ``QuadricSystem``
keeps each quadric as an integer row (r, d), the quadric r/d, and
reduces its span from those rows (``_span_of``).  Both square-map
kernels read integer kernel rows and build their system through
``_net``, and ``from_polys`` clears each quadric's coefficients once;
``_grams``, the one Gram builder, makes the Fraction Grams of ``basis``
from the rows only when they are read, so no Gram is cleared back to
integers.
Rings are immutable; graded pieces and the table are cached (idempotent
writes, so concurrent readers are safe).  The column index of a weight
(``_column_index``) depends only on the packing places, so it is cached
once per process and shared by every ring with the same places.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import gcd
from typing import Sequence

from . import linalg
from .arith import CertificateError
from .poly import HomPoly, _pack, _places, monomials


@cache
def _column_index(places: tuple[int, ...], weight: int) -> dict[int, int]:
    """{key: column} for the monomials of a weight, in column order.

    A monomial's exponents pack to one key, read as digits in a ring's
    one base, max(max_degree // 2, 2) + 1 (``places``).  No exponent
    reaches the base, so no digit carries: the key of a product is the
    sum of the keys, and descending keys are the columns' descending lex
    order (``monomials``).  Built once per process for each (places,
    weight), shared by every ring with those places; read only.
    """
    keys = map(sum, combinations_with_replacement(places, weight))
    return {key: i for i, key in enumerate(sorted(keys, reverse=True))}


def hilbert_coefficients(
    gen_degrees: Sequence[int], rel_degrees: Sequence[int], max_degree: int
) -> list[int]:
    """Coefficients of prod(1-t^ri)/prod(1-t^gj) through max_degree.

    Degrees are cohomological; index d of the result is the coefficient
    of t^d.
    """
    series = [0] * (max_degree + 1)
    series[0] = 1
    for r in rel_degrees:
        nxt = series[:]
        for d in range(r, max_degree + 1):
            nxt[d] -= series[d - r]
        series = nxt
    for g in gen_degrees:
        # multiply by 1/(1-t^g)
        for d in range(g, max_degree + 1):
            series[d] += series[d - g]
    return series


class GradedQuotient:
    """Q[x1..xn] modulo homogeneous degree-4 relations, up to max_degree."""

    def __init__(
        self,
        generators: int,
        relations: Sequence[HomPoly],
        max_degree: int | None = None,
    ):
        for r in relations:
            if r.nvars != generators:
                raise ValueError("relation has the wrong number of variables")
            if r.weight != 2 or r.is_zero():
                raise ValueError("relations must be nonzero of cohomological degree 4")
        if max_degree is not None and max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        self.generators = generators
        self.relations = tuple(relations)
        self.max_degree = 2 * generators if max_degree is None else max_degree
        # one packing base for every weight: above every exponent of every
        # piece (and of the relations), so keys add across weights
        base = max(self.max_degree // 2, 2) + 1
        self._places = _places(generators, base)
        self._packed = tuple(map(self._pack, self.relations))
        self._pieces: dict[int, linalg.QuotientSpace] = {}
        # owner[col] = i: the pivot at col was stored inserting relation i's multiples
        self._owners: dict[int, dict[int, int]] = {}
        self._table: tuple[tuple[tuple[Fraction, ...], ...], ...] | None = None
        # lowest degree of a built zero piece; max_degree while none is known
        self._zero_degree = self.max_degree

    def __repr__(self) -> str:
        rels = ", ".join(r.to_str() for r in self.relations)
        return f"GradedQuotient({self.generators}, [{rels}])"

    # -- graded pieces ------------------------------------------------------

    def _check_degree(self, degree: int) -> None:
        if degree % 2 or degree < 0 or degree > self.max_degree:
            raise ValueError(
                f"degree {degree} out of bounds (even, 0..{self.max_degree})"
            )

    def _pack(self, relation: HomPoly) -> tuple[int, list[tuple[int, int]]]:
        """(lead, terms): the relation as primitive integer (key, c) terms,
        cleared by the lcm of its denominators and divided by its content
        times the sign of the lead coefficient.  The lead key is the
        lex-smallest monomial's; key order is multiplicative, so the lead
        lands in the largest column of every multiple."""
        row = _pack(linalg._integer_row(relation.coeffs)[0], self._places)
        terms = list(row.items())
        lead, c = min(terms)
        g = gcd(*row.values()) * (1 if c > 0 else -1)
        return lead, [(key, x // g) for key, x in terms]

    def piece(self, degree: int) -> linalg.QuotientSpace:
        """The piece of a degree: ``monomials(n, degree // 2)`` modulo relations.

        The rows are the multiples m * r_i, relation by relation, each
        relation's multipliers m in column order; a row is the packed
        relation shifted by m's key.  A row whose lead column is not yet a
        pivot is stored as it is, the row ``linalg._reduce`` would store;
        any other row is reduced into the echelon.  A row is never built
        if m is a pivot of ``piece(degree - 4)`` stored by a relation
        r_j, j < i (Faugere's F5 criterion): that pivot's row g lies in
        the span of r_0..r_(i-1) and its other monomials come earlier in
        the multiplier loop, so m * r_i lies in the span of the rows
        already inserted, and reducing it would leave the echelon as it
        is.  A piece above a zero piece is built the same way, and comes
        out zero; ``graded_dim`` answers its dimension without building it.
        """
        self._check_degree(degree)
        cached = self._pieces.get(degree)
        if cached is not None:
            return cached
        index = _column_index(self._places, degree // 2)
        echelon: dict[int, linalg.SparseRow] = {}
        owner: dict[int, int] = {}
        if degree >= 4:
            self.piece(degree - 4)
            below = self._owners[degree - 4]
            multipliers = _column_index(self._places, degree // 2 - 2).items()
            for i, (lead, terms) in enumerate(self._packed):
                for shift, m in multipliers:
                    if below.get(m, i) < i:
                        continue  # F5: m * r_i lies in the span already
                    row = {index[key + shift]: c for key, c in terms}
                    col = index[lead + shift]
                    if col not in echelon:
                        echelon[col] = row
                        owner[col] = i
                    elif linalg._reduce(echelon, row)[0]:
                        # a new pivot: the echelon's last key
                        owner[next(reversed(echelon))] = i
        piece = linalg.QuotientSpace._trusted(len(index), echelon)
        self._owners[degree] = owner
        self._pieces[degree] = piece
        if piece.dim == 0:
            self._zero_degree = min(self._zero_degree, degree)
        return piece

    def graded_dim(self, degree: int) -> int:
        """The piece's dimension.  The ring is generated in degree 2, so above
        a zero piece every monomial lies in the ideal: such a piece is 0."""
        self._check_degree(degree)
        if degree > self._zero_degree:
            return 0
        return self.piece(degree).dim

    def poly_coords(self, poly: HomPoly) -> list[Fraction]:
        """Coordinates of a polynomial's class in its degree's quotient basis."""
        if poly.nvars != self.generators:
            raise ValueError("polynomial has the wrong number of variables")
        piece = self.piece(poly.degree)
        index = _column_index(self._places, poly.weight)
        packed = _pack(poly.coeffs, self._places)
        return piece.coords({index[k]: c for k, c in packed.items()})

    # -- ring operations ----------------------------------------------------

    def is_complete_intersection(self) -> bool:
        """Dimension test against the expected complete-intersection series."""
        if len(self.relations) != self.generators:
            raise ValueError("needs exactly one relation per generator")
        expected = hilbert_coefficients(
            [2] * self.generators,
            [r.degree for r in self.relations],
            self.max_degree,
        )
        return all(
            self.graded_dim(d) == expected[d] for d in range(0, self.max_degree + 1, 2)
        )

    def product_table(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The n x n table of the degree-4 coordinates of x_i * x_j at
        (i, j), built once from one pass over the degree-4 monomials."""
        if self._table is None:
            piece, n = self.piece(4), self.generators
            table = [[()] * n for _ in range(n)]
            for col, (i, j) in enumerate(_pairs(n)):
                table[i][j] = table[j][i] = tuple(piece.coords({col: 1}))
            self._table = tuple(map(tuple, table))
        return self._table

    def h2_dim(self) -> int:
        dim = self.graded_dim(2)
        if dim != self.generators:
            raise CertificateError("degree-2 piece must be the generator span")
        return dim

    def h4_dim(self) -> int:
        return self.graded_dim(4)

    def kernel_of_square_map(self) -> "QuadricSystem":
        """The quadrics annihilated by the product map into degree 4: the
        degree-4 span of the relations.  Its lex-first basis (the one
        ``square_map_kernel`` reads off the product table) is the reduced
        basis of ``piece(4)``'s span (``QuotientSpace._reduced``): e_p - r/s
        is the integer row s*e_p - r over s."""
        rows = []
        for p, (residue, scale) in self.piece(4)._reduced().items():
            row = {j: -x for j, x in residue.items()}
            row[p] = scale
            rows.append((row, scale))
        return _net(self.generators, rows)

    def mult_by_class(self, y: HomPoly) -> "MultiplicationMap":
        """The linear map (degree 2) -> (degree 4) given by multiplication by y."""
        if y.degree != 2:
            raise ValueError("multiplier must have cohomological degree 2")
        return multiplication_map(self.product_table(), _class_coeffs(y, self.generators))

    def change_of_variables(self, matrix: Sequence[Sequence]) -> "GradedQuotient":
        """Rewrite the relations under x_i -> sum_j P[i][j] x_j (P invertible)."""
        rows = [[Fraction(x) for x in row] for row in matrix]
        if linalg.det(rows) == 0:
            raise ValueError("substitution matrix is singular")
        return GradedQuotient(
            self.generators,
            [r.substitute(rows) for r in self.relations],
            self.max_degree,
        )

    def same_ideal_through(self, other: "GradedQuotient", max_degree: int) -> bool:
        """Degreewise equality of the relation spans up to max_degree."""
        if self.generators != other.generators:
            return False
        return all(
            self.piece(d).same_span(other.piece(d)) for d in range(4, max_degree + 1, 2)
        )


@dataclass(frozen=True)
class QuadricSystem:
    """A linear system of quadrics: independent symmetric Gram matrices.

    A system keeps each quadric as an integer row (r, d), d > 0, the
    quadric r/d at ``_pairs``, and its span reduced from those rows
    (``_span_of``).  The public constructor clears the Grams it is given
    to such rows; ``from_polys`` and the net builder (``_net``) start from
    integer rows and build the Fraction Grams (``_grams``) only when
    ``basis`` is first read.
    """

    ambient_dim: int
    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _rows: tuple[tuple[linalg.SparseRow, int], ...] = field(
        init=False, repr=False, compare=False
    )
    _span: linalg.QuotientSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Certify the system: Grams given to the constructor are checked
        for shape and symmetry and cleared to integer rows (x_i^2 at G_ii,
        x_i x_j at 2 G_ij); rows that ``from_polys`` set are taken as
        they are.  The rows must be independent."""
        k = self.ambient_dim
        if "_rows" not in vars(self):
            for g in self.basis:
                if len(g) != k or any(len(row) != k for row in g):
                    raise ValueError("Gram matrix has the wrong shape")
                if list(map(tuple, g)) != list(zip(*g)):
                    raise ValueError("Gram matrix is not symmetric")
            rows = tuple(linalg._integer_row(_gram_coeffs(g)) for g in self.basis)
            object.__setattr__(self, "_rows", rows)
        span = _span_of(k, self._rows)
        if span is None:
            raise ValueError("quadric basis is linearly dependent")
        object.__setattr__(self, "_span", span)

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the Grams of a
        # system built from integer rows, made on first read
        if name != "basis":
            raise AttributeError(name)
        basis = _grams(self.ambient_dim, self._rows)
        object.__setattr__(self, "basis", basis)
        return basis

    @classmethod
    def _from_rows(cls, ambient_dim: int, rows) -> "QuadricSystem":
        """A system of integer rows, with no Grams built yet."""
        system = object.__new__(cls)
        object.__setattr__(system, "ambient_dim", ambient_dim)
        object.__setattr__(system, "_rows", tuple(rows))
        return system

    @staticmethod
    def _flatten(gram) -> list[Fraction]:
        return [gram[i][j] for i, j in _pairs(len(gram))]

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, gram) -> bool:
        return self._span.contains(_gram_coeffs(gram))

    def polys(self) -> list[HomPoly]:
        return [gram_to_poly(g) for g in self.basis]

    @classmethod
    def from_polys(cls, polys: Sequence[HomPoly]) -> "QuadricSystem":
        if not polys:
            raise ValueError("empty quadric list")
        n = polys[0].nvars
        rows = [_quadric_row(p) for p in polys]
        if any(p.nvars != n for p in polys):
            raise ValueError("Gram matrix has the wrong shape")
        system = cls._from_rows(n, rows)
        system.__post_init__()
        return system


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, j), i <= j, in ``monomials(n, 2)`` order: the
    coordinates of a quadric, and the upper triangle of its Gram matrix."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


def _gram_coeffs(gram) -> list:
    """A quadric's coefficients from its Gram: G_ii at x_i^2, 2 G_ij at x_i x_j."""
    return [gram[i][j] if i == j else 2 * gram[i][j] for i, j in _pairs(len(gram))]


def _class_coeffs(y: HomPoly, n: int) -> list:
    """A degree-2 class's coefficients at x_0, ..., x_{n-1}."""
    return [y.coefficient(e) for e in monomials(n, 1)]


def _grams(n: int, rows) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The Gram matrices of the quadrics r/d at ``_pairs(n)``, from integer
    rows (r, d), d > 0: x_i^2 gives r/d at (i, i), and x_i x_j is split
    over (i, j) and (j, i) as r/(2d); every entry is a Fraction."""
    pairs, zero = _pairs(n), Fraction(0)
    grams = []
    for row, den in rows:
        gram = [[zero] * n for _ in range(n)]
        for col, x in row.items():
            i, j = pairs[col]
            gram[i][j] = gram[j][i] = Fraction(x, den if i == j else 2 * den)
        grams.append(tuple(map(tuple, gram)))
    return tuple(grams)


def _span_of(n: int, rows) -> linalg.QuotientSpace | None:
    """The span of the quadrics' coefficients, reduced from their integer
    rows (r, d); None when a row reduces to zero."""
    echelon = {}
    for row, _ in rows:
        if not linalg._reduce(echelon, row)[0]:
            return None
    return linalg.QuotientSpace._trusted(len(_pairs(n)), echelon)


def _quadric_row(p: HomPoly) -> tuple[linalg.SparseRow, int]:
    """A quadric's integer row (r, d): its coefficients at ``_pairs`` as r/d."""
    if p.weight != 2:
        raise ValueError("not a quadric")
    return linalg._integer_row([p.coeffs.get(e, 0) for e in monomials(p.nvars, 2)])


def poly_to_gram(p: HomPoly) -> tuple[tuple[Fraction, ...], ...]:
    return _grams(p.nvars, [_quadric_row(p)])[0]


def gram_to_poly(gram) -> HomPoly:
    n = len(gram)
    return HomPoly(n, 2, dict(zip(monomials(n, 2), _gram_coeffs(gram))))


def square_map_kernel(table) -> QuadricSystem:
    """Kernel of S^2(degree-2) -> degree-4, from a product table, as Grams."""
    n = len(table)
    pairs = _pairs(n)
    rows = list(zip(*(table[i][j] for i, j in pairs)))
    return _net(n, linalg._kernel_rows(rows, len(pairs)))


def _net(n: int, rows: list[tuple[linalg.SparseRow, int]]) -> QuadricSystem:
    """The system of the quadrics of integer rows (r, d), kept as rows:
    the echelon ``QuadricSystem`` would store, with no Gram built (its
    ``basis`` is made on first read).  A row that reduces to zero raises
    ``CertificateError``."""
    span = _span_of(n, rows)
    if span is None:
        raise CertificateError("quadric basis is linearly dependent")
    system = QuadricSystem._from_rows(n, rows)
    object.__setattr__(system, "_span", span)
    return system


@dataclass(frozen=True)
class MultiplicationMap:
    """Multiplication by a degree-2 class, as an exact matrix.

    ``kernel`` is a basis of the source vectors killed by the map;
    ``cokernel`` is the target modulo the image, and ``cokernel_basis``
    its lex-first basis coordinates.
    """

    matrix: tuple[tuple[Fraction, ...], ...]  # target_dim x source_dim
    kernel: tuple[tuple[Fraction, ...], ...]
    cokernel: linalg.QuotientSpace = field(repr=False, compare=False)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    @property
    def rank(self) -> int:
        return len(self.matrix[0]) - self.kernel_dim if self.matrix else 0

    @property
    def cokernel_basis(self) -> tuple[int, ...]:
        return tuple(self.cokernel.basis_indices)

    @property
    def cokernel_dim(self) -> int:
        return self.cokernel.dim


def multiplication_map(table, y: Sequence[Fraction]) -> MultiplicationMap:
    """Multiplication by sum_j y_j x_j, from a product table."""
    # column i is x_i * y = sum_j y_j x_i x_j
    cols = [
        [sum((yj * c for yj, c in zip(y, coords) if yj), Fraction(0))
         for coords in zip(*products)]
        for products in table
    ]
    matrix = tuple(zip(*cols))
    return MultiplicationMap(
        matrix,
        tuple(map(tuple, linalg.kernel_basis(matrix, len(table)))),
        linalg.QuotientSpace(len(matrix), cols),
    )
