"""Torus actions on products of 3-spheres and their quotient ring data.

A k x k integer matrix A encodes an action of a k-torus on (S^3)^k:
coordinate i carries the weights (u_i : lambda_i) and
(v_i : prod_j lambda_j^{a_ij}).  Freeness only needs to be checked at
the 2^k special points with each coordinate (1,0) or (0,1), which turns
into the principal-minor criterion implemented here.

The quotient of a free action is an iterated 3-sphere bundle over a
product of classifying spaces, so its cohomology is the polynomial ring
modulo the Euler classes x_i * (sum_j a_ij x_j); that presentation is
what ``quotient_ring`` builds.

This module also provides the five-generator Poincare duality algebra
whose cup product is the polarized Klein cubic, and degree-<=4 circle
bundle data over either kind of base.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arith import _parse_integer
from .graded import (
    GradedQuotient,
    MultiplicationMap,
    QuadricSystem,
    _class_coeffs,
    _pairs,
    multiplication_map,
    square_map_kernel,
)
from .poly import HomPoly


@dataclass(frozen=True)
class TorusActionMatrix:
    """Integer weight matrix of a torus action on a product of 3-spheres."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.entries)
        if any(len(row) != k for row in self.entries):
            raise ValueError("weight matrix must be square")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "TorusActionMatrix":
        try:
            rows = [list(row) for row in rows]
        except TypeError as exc:
            raise ValueError("weight matrix must be a list of integer rows") from exc
        return cls(tuple(tuple(_weight(x) for x in row) for row in rows))

    @classmethod
    def parse(cls, text: str) -> "TorusActionMatrix":
        """Accepts JSON or semicolon-separated rows ("1,0,0;2,1,1;4,2,1") of
        ASCII ``[+-]?[0-9]+`` entries (``arith._parse_integer``), with
        optional whitespace around each."""
        text = text.strip()
        if text.startswith("["):
            import json

            return cls.from_rows(json.loads(text))
        return cls.from_rows(
            [[_parse_weight(x) for x in chunk.split(",")] for chunk in text.split(";")]
        )

    def __str__(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)


def _parse_weight(text: str) -> int:
    try:
        return _parse_integer(text)
    except ValueError:
        raise ValueError(f"weight {text.strip()!r} is not an integer") from None


def _weight(x) -> int:
    """x as an int if it is an integer (not a bool); ValueError otherwise."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"weight {x!r} is not an integer")


def _as_matrix(A) -> TorusActionMatrix:
    if isinstance(A, TorusActionMatrix):
        return A
    return TorusActionMatrix.from_rows(A)


def is_free(A) -> bool:
    """Freeness of the action: every principal minor has determinant +-1.

    For k = 3 this is exactly: unit diagonal entries, unit 2x2 principal
    minors, and unit full determinant; the general-k statement covers the
    lower-triangular families as a corollary.
    """
    return _unit_principal_minors([list(row) for row in _as_matrix(A).entries])


def _unit_principal_minors(rows: list[list[int]]) -> bool:
    """Every principal minor of the integer matrix is +-1.

    With a unit corner a, the minors avoiding it are those of the rest,
    and a minor through it is a times the minor of the Schur complement
    rest - column * a * row, which is again integral.
    """
    if not rows:
        return True
    a = rows[0][0]
    if a not in (1, -1):
        return False
    rest = [row[1:] for row in rows[1:]]
    if not any(rows[0][1:]) or not any(row[0] for row in rows[1:]):
        # a zero first row or column: the Schur complement is the rest
        return _unit_principal_minors(rest)
    schur = [
        [x - row[0] * a * y for x, y in zip(row[1:], rows[0][1:])] for row in rows[1:]
    ]
    return _unit_principal_minors(rest) and _unit_principal_minors(schur)


def quotient_ring(A, max_degree: int | None = None) -> GradedQuotient:
    """Cohomology presentation of the quotient: relations x_i (sum_j a_ij x_j).

    >>> quotient_ring([[1]]).relations[0].to_str()
    'x1^2'
    """
    A = _as_matrix(A)
    if not is_free(A):
        raise ValueError("action is not free; quotient ring undefined")
    k = A.size
    rels = []
    for i, row in enumerate(A.entries):
        terms = {}
        for j, a in enumerate(row):
            if a:
                e = [0] * k
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = a
        rels.append(HomPoly._trusted(k, 2, terms))
    return GradedQuotient(k, rels, max_degree)


def t1_action_matrix(b1: int, c1: int) -> TorusActionMatrix:
    """The two-parameter 3x3 family: free for every pair of integers."""
    return TorusActionMatrix.from_rows([[1, 0, 0], [b1, 1, 1], [c1, 2, 1]])


def t3_action_matrix() -> TorusActionMatrix:
    """The fixed lower-triangular 4x4 action behind the third family."""
    return TorusActionMatrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 2, 1, 0], [1, 2, 0, 1]]
    )


def t3_rational_ring(max_degree: int | None = None) -> GradedQuotient:
    """The 8-manifold ring after the rational change of variables.

    Relations: x1^2, x2^2, x3^2 - x1 x2, x4^2 - x1 x2.
    """
    x = [HomPoly.variable(4, i) for i in range(4)]
    return GradedQuotient(
        4,
        [x[0] * x[0], x[1] * x[1], x[2] * x[2] - x[0] * x[1], x[3] * x[3] - x[0] * x[1]],
        max_degree,
    )


# ---------------------------------------------------------------------------
# The Klein-cubic Poincare duality algebra
# ---------------------------------------------------------------------------


class KleinRing:
    """Degree-<=4 data of the 6-manifold whose cubic form is the Klein cubic.

    V = H^2 is five-dimensional with basis x0..x4; the full symmetric
    trilinear form T polarizes the cubic sum(a_i^2 a_{i+1}) (indices mod
    5, overall constant 1), and H^4 is identified with V* so that
    multiplication V x V -> H^4 is (u, v) -> T(u, v, .).
    """

    DIM = 5

    def trilinear(self, u: Sequence[Fraction], v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        """T(u, v, w): the product table contracted with u, v and w."""
        total = Fraction(0)
        for x, rows in zip(u, _KLEIN_PAIRS):
            if x:
                for y, row in zip(v, rows):
                    if y:
                        for z, t in zip(w, row):
                            if z and t:
                                total += t * x * y * z
        return total

    def h2_dim(self) -> int:
        return self.DIM

    def h4_dim(self) -> int:
        return self.DIM

    def product_table(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return _KLEIN_PAIRS

    def mult_by_class(self, y: Sequence[Fraction]) -> MultiplicationMap:
        return multiplication_map(_KLEIN_PAIRS, [Fraction(c) for c in y])

    def kernel_of_square_map(self) -> QuadricSystem:
        return square_map_kernel(_KLEIN_PAIRS)


def _klein_pairs() -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The tensor as a table, T(e_i, e_j, e_l) at [i][j][l]: row (i, j) is
    x_i * x_j in H^4 = V*.  The cubic's monomial a_i^2 a_{i+1} polarizes
    to 1/3 at each arrangement of its index triple (i, i, i+1)."""
    table = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        table[i][i][j] = table[i][j][i] = table[j][i][i] = Fraction(1, 3)
    return tuple(tuple(map(tuple, rows)) for rows in table)


# The only copy of the Klein tensor; plain data, so no ``trilinear`` call
# runs at import.
_KLEIN_PAIRS = _klein_pairs()


@dataclass(frozen=True)
class KleinBundleInput:
    """A Klein ring together with the distinguished classes y and z."""

    ring: KleinRing
    y: tuple[Fraction, ...]
    z: tuple[Fraction, ...]


def klein_ring(a0, a1) -> KleinBundleInput:
    """The Klein ring with y = a0 x0 - a1 x1 + (a1^3/a0^2) x3.

    Multiplication by y then has one-dimensional kernel, spanned by
    z = a0 x0 + a1 x1 + (a0^2/a1) x2.
    """
    a0, a1 = Fraction(a0), Fraction(a1)
    if a0 == 0 or a1 == 0:
        raise ValueError("parameters must be nonzero")
    y = (a0, -a1, Fraction(0), a1**3 / a0**2, Fraction(0))
    z = (a0, a1, a0**2 / a1, Fraction(0), Fraction(0))
    return KleinBundleInput(KleinRing(), y, z)


# ---------------------------------------------------------------------------
# Circle bundles: degree-<=4 ring data of the total space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleBundleData:
    """Degree-<=4 cohomology data of a circle bundle with Euler class y."""

    base: object
    y: tuple[Fraction, ...]
    dropped_index: int
    w_indices: tuple[int, ...]
    kernel: QuadricSystem
    target_dim: int
    image_dim: int


def _height(q: Fraction) -> int:
    return abs(q.numerator) * q.denominator


def _dropped_index(y: Sequence[Fraction]) -> int:
    """Index of y's nonzero entry of largest height (ties: the largest index)."""
    return max((_height(c), i) for i, c in enumerate(y) if c != 0)[1]


def circle_bundle_degree4(base, y) -> CircleBundleData:
    """W = V/<y> with its product map S^2 W -> H^4(base)/(y V).

    The complement basis drops the pivot coordinate of y with the
    largest height |numerator|*denominator (ties: the largest index), so
    the construction is deterministic.
    """
    if isinstance(y, HomPoly):
        y = _class_coeffs(y, y.nvars)
    y = [Fraction(c) for c in y]
    if all(c == 0 for c in y):
        raise ValueError("Euler class must be nonzero")
    n = base.h2_dim()
    if len(y) != n:
        raise ValueError("Euler class has the wrong length")
    drop = _dropped_index(y)
    w_indices = tuple(i for i in range(n) if i != drop)

    table = base.product_table()
    target = multiplication_map(table, y).cokernel
    # the base table's W rows and columns, reduced into the cokernel once
    m = len(w_indices)
    w_table = [[()] * m for _ in range(m)]
    for a, b in _pairs(m):
        w_table[a][b] = w_table[b][a] = target.coords(table[w_indices[a]][w_indices[b]])
    kernel = square_map_kernel(w_table)
    image_dim = m * (m + 1) // 2 - kernel.dim
    return CircleBundleData(
        base=base,
        y=tuple(y),
        dropped_index=drop,
        w_indices=w_indices,
        kernel=kernel,
        target_dim=target.dim,
        image_dim=image_dim,
    )
