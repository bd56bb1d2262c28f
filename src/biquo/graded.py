"""Graded quotient rings Q[x1..xn]/(quadratic relations), by linear algebra.

Generators sit in cohomological degree 2 and every relation in degree 4,
so each graded piece is a finite monomial span modulo the span of
relation multiples; everything reduces to exact row reduction.  No
Groebner machinery: all computations here live in degree <= 2n+2.

Quotient bases are the lexicographically first independent monomial
subsets, which pins deterministic coordinates for serialization; each
graded piece is a ``linalg.QuotientSpace``, the one place that basis is
built.  Rings are immutable; computed graded pieces are cached per
degree (idempotent writes, so concurrent readers are safe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .arith import CertificateError
from .poly import HomPoly, monomials


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
        self._pieces: dict[int, linalg.QuotientSpace] = {}

    def __repr__(self) -> str:
        rels = ", ".join(r.to_str() for r in self.relations)
        return f"GradedQuotient({self.generators}, [{rels}])"

    # -- graded pieces ------------------------------------------------------

    def piece(self, degree: int) -> linalg.QuotientSpace:
        """The piece of a degree: ``monomials(n, degree // 2)`` modulo relations."""
        if degree % 2 or degree < 0 or degree > self.max_degree:
            raise ValueError(
                f"degree {degree} out of bounds (even, 0..{self.max_degree})"
            )
        cached = self._pieces.get(degree)
        if cached is not None:
            return cached
        weight = degree // 2
        monos = monomials(self.generators, weight)
        index = {m: i for i, m in enumerate(monos)}
        multipliers = monomials(self.generators, weight - 2) if weight >= 2 else []
        rows = []
        for rel in self.relations:
            terms = rel.coeffs.items()
            for mono in multipliers:
                rows.append({
                    index[tuple(a + b for a, b in zip(e, mono))]: c for e, c in terms
                })
        piece = linalg.QuotientSpace(len(monos), rows)
        self._pieces[degree] = piece
        return piece

    def graded_dim(self, degree: int) -> int:
        return self.piece(degree).dim

    def poly_coords(self, poly: HomPoly) -> list[Fraction]:
        """Coordinates of a polynomial's class in its degree's quotient basis."""
        piece = self.piece(poly.degree)
        index = {m: i for i, m in enumerate(monomials(self.generators, poly.weight))}
        return piece.coords({index[e]: c for e, c in poly.coeffs.items()})

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

    def pair_product_coords(self, i: int, j: int) -> list[Fraction]:
        """Coordinates of x_i * x_j in the degree-4 quotient basis."""
        xi = HomPoly.variable(self.generators, i)
        xj = HomPoly.variable(self.generators, j)
        return self.poly_coords(xi * xj)

    def h2_dim(self) -> int:
        dim = self.graded_dim(2)
        if dim != self.generators:
            raise CertificateError("degree-2 piece must be the generator span")
        return dim

    def h4_dim(self) -> int:
        return self.graded_dim(4)

    def kernel_of_square_map(self) -> "QuadricSystem":
        """The quadrics annihilated by the product map into degree 4."""
        return square_map_kernel(self.generators, self.pair_product_coords)

    def mult_by_class(self, y: HomPoly) -> "MultiplicationMap":
        """The linear map (degree 2) -> (degree 4) given by multiplication by y."""
        if y.degree != 2:
            raise ValueError("multiplier must have cohomological degree 2")
        return multiplication_map(
            self.generators,
            self.h4_dim(),
            self.pair_product_coords,
            [y.coefficient(tuple(int(k == i) for k in range(self.generators)))
             for i in range(self.generators)],
        )

    def change_of_variables(self, matrix: Sequence[Sequence]) -> "GradedQuotient":
        """Rewrite the relations under x_i -> sum_j P[i][j] x_j (P invertible)."""
        rows = linalg.frac_rows(matrix)
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
    """A linear system of quadrics: independent symmetric Gram matrices."""

    ambient_dim: int
    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _span: linalg.QuotientSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.ambient_dim
        for g in self.basis:
            if len(g) != k or any(len(row) != k for row in g):
                raise ValueError("Gram matrix has the wrong shape")
            if any(g[i][j] != g[j][i] for i in range(k) for j in range(k)):
                raise ValueError("Gram matrix is not symmetric")
        n = k * (k + 1) // 2
        span = linalg.QuotientSpace(n, map(self._flatten, self.basis))
        if span.dim != n - self.dim:
            raise ValueError("quadric basis is linearly dependent")
        object.__setattr__(self, "_span", span)

    @staticmethod
    def _flatten(gram) -> list[Fraction]:
        k = len(gram)
        return [gram[i][j] for i in range(k) for j in range(i, k)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, gram) -> bool:
        return self._span.contains(self._flatten(gram))

    def polys(self) -> list[HomPoly]:
        return [gram_to_poly(g) for g in self.basis]

    @classmethod
    def from_polys(cls, polys: Sequence[HomPoly]) -> "QuadricSystem":
        if not polys:
            raise ValueError("empty quadric list")
        n = polys[0].nvars
        return cls(n, tuple(poly_to_gram(p) for p in polys))


def poly_to_gram(p: HomPoly) -> tuple[tuple[Fraction, ...], ...]:
    if p.weight != 2:
        raise ValueError("not a quadric")
    n = p.nvars
    g = [[Fraction(0)] * n for _ in range(n)]
    for e, c in p.coeffs.items():
        idx = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idx
        if i == j:
            g[i][i] = c
        else:
            g[i][j] = g[j][i] = c / 2
    return tuple(tuple(row) for row in g)


def gram_to_poly(gram) -> HomPoly:
    n = len(gram)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            c = gram[i][j] if i == j else 2 * gram[i][j]
            if c:
                terms[tuple(e)] = c
    return HomPoly(n, 2, terms)


def square_map_kernel(
    nvars: int, pair_coords: Callable[[int, int], list[Fraction]]
) -> QuadricSystem:
    """Kernel of S^2(degree-2) -> degree-4 for any product-coordinate map."""
    pairs = [(i, j) for i in range(nvars) for j in range(i, nvars)]
    columns = [pair_coords(i, j) for i, j in pairs]
    target_dim = len(columns[0]) if columns else 0
    rows = [[col[r] for col in columns] for r in range(target_dim)]
    # the pairs run in monomials(nvars, 2) order: a kernel vector holds
    # a quadric's coefficients
    quadrics = [
        HomPoly(nvars, 2, zip(monomials(nvars, 2), vec))
        for vec in linalg.kernel_basis(rows, len(pairs))
    ]
    return QuadricSystem(nvars, tuple(poly_to_gram(q) for q in quadrics))


@dataclass(frozen=True)
class MultiplicationMap:
    """Multiplication by a degree-2 class, as an exact matrix.

    ``kernel`` is a basis of the source vectors killed by the map;
    ``cokernel`` is the target modulo the image, and ``cokernel_basis``
    its lex-first basis coordinates.
    """

    matrix: tuple[tuple[Fraction, ...], ...]  # target_dim x source_dim
    kernel: tuple[tuple[Fraction, ...], ...]
    cokernel_basis: tuple[int, ...]
    cokernel: linalg.QuotientSpace = field(repr=False, compare=False)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    @property
    def rank(self) -> int:
        return len(self.matrix[0]) - self.kernel_dim if self.matrix else 0

    @property
    def cokernel_dim(self) -> int:
        return len(self.cokernel_basis)


def multiplication_map(
    nvars: int,
    target_dim: int,
    pair_coords: Callable[[int, int], list[Fraction]],
    y: Sequence[Fraction],
) -> MultiplicationMap:
    cols = []
    for i in range(nvars):
        col = [Fraction(0)] * target_dim
        for j, yj in enumerate(y):
            if yj:
                pc = pair_coords(min(i, j), max(i, j))
                col = [a + yj * b for a, b in zip(col, pc)]
        cols.append(col)
    rows = [[cols[c][r] for c in range(nvars)] for r in range(target_dim)]
    kernel = linalg.kernel_basis(rows, nvars)
    cokernel = linalg.QuotientSpace(target_dim, cols)
    return MultiplicationMap(
        tuple(tuple(row) for row in rows),
        tuple(tuple(v) for v in kernel),
        tuple(cokernel.basis_indices),
        cokernel,
    )
