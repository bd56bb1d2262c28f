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

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Sequence

from . import linalg
from .graded import (
    GradedQuotient,
    MultiplicationMap,
    QuadricSystem,
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
        ASCII ``-?[0-9]+`` entries, with optional whitespace around each."""
        text = text.strip()
        if text.startswith("["):
            return cls.from_rows(json.loads(text))
        rows = [[x.strip() for x in chunk.split(",")] for chunk in text.split(";")]
        bad = [x for row in rows for x in row if not _INTEGER.fullmatch(x)]
        if bad:
            raise ValueError(f"weight {bad[0]!r} is not an integer")
        return cls.from_rows([[int(x) for x in row] for row in rows])

    def __str__(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)


_INTEGER = re.compile("-?[0-9]+")


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
    A = _as_matrix(A)
    k = A.size
    for r in range(1, k + 1):
        for S in combinations(range(k), r):
            minor = [[A.entries[i][j] for j in S] for i in S]
            if linalg.det(minor) not in (1, -1):
                return False
    return True


def stabilizer_oracle(A, m: int) -> bool:
    """Brute-force cross-check: no nontrivial m-torsion element fixes any
    of the 2^k special points.

    Enumerates all of (Z/m)^S for each coordinate subset S, so it is
    completely independent of the determinant criterion in ``is_free``.
    """
    import numpy as np  # numpy stays off the CLI import path

    if not 2 <= m <= 12:
        raise ValueError("oracle torsion order must be between 2 and 12")
    A = _as_matrix(A)
    k = A.size
    arr = np.array(A.entries, dtype=np.int64)
    for r in range(1, k + 1):
        for S in combinations(range(k), r):
            sub = arr[np.ix_(S, S)]
            tuples = np.indices((m,) * r).reshape(r, -1)
            fixed = np.all((sub @ tuples) % m == 0, axis=0)
            nontrivial = np.any(tuples != 0, axis=0)
            if np.any(fixed & nontrivial):
                return False
    return True


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
    for i in range(k):
        xi = HomPoly.variable(k, i)
        row = HomPoly.linear([Fraction(a) for a in A.entries[i]])
        rels.append(xi * row)
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

    # one entry per sorted index triple of the cubic's monomials
    _entries: dict[tuple[int, int, int], Fraction] = {
        tuple(sorted((i, i, (i + 1) % 5))): Fraction(1, 3) for i in range(5)
    }

    def trilinear(self, u: Sequence[Fraction], v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for a, b, c, val in _KLEIN_TERMS:
            x = u[a]
            if x:
                y = v[b]
                if y:
                    z = w[c]
                    if z:
                        total += val * x * y * z
        return total

    def cubic(self, u: Sequence[Fraction]) -> Fraction:
        """The integral of the cube of a degree-2 class: sum u_i^2 u_{i+1}."""
        return self.trilinear(u, u, u)

    def h2_dim(self) -> int:
        return self.DIM

    def h4_dim(self) -> int:
        return self.DIM

    def pair_product_coords(self, i: int, j: int) -> list[Fraction]:
        ei = [Fraction(int(k == i)) for k in range(self.DIM)]
        ej = [Fraction(int(k == j)) for k in range(self.DIM)]
        basis = [[Fraction(int(k == l)) for k in range(self.DIM)] for l in range(self.DIM)]
        return [self.trilinear(ei, ej, el) for el in basis]

    def mult_by_class(self, y: Sequence[Fraction]) -> MultiplicationMap:
        return multiplication_map(
            self.DIM, self.DIM, self.pair_product_coords, [Fraction(c) for c in y]
        )

    def kernel_of_square_map(self) -> QuadricSystem:
        return square_map_kernel(self.DIM, self.pair_product_coords)


# The full symmetric tensor as (a, b, c, value) terms: every distinct
# permutation of every entry, built once.
_KLEIN_TERMS = tuple(
    (a, b, c, val)
    for key, val in KleinRing._entries.items()
    for a, b, c in sorted(set(permutations(key)))
)


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
        n = y.nvars
        y = [y.coefficient(tuple(int(k == i) for k in range(n))) for i in range(n)]
    y = [Fraction(c) for c in y]
    if all(c == 0 for c in y):
        raise ValueError("Euler class must be nonzero")
    n = base.h2_dim()
    if len(y) != n:
        raise ValueError("Euler class has the wrong length")
    drop = _dropped_index(y)
    w_indices = tuple(i for i in range(n) if i != drop)

    mult = multiplication_map(n, base.h4_dim(), base.pair_product_coords, y)
    target = mult.cokernel

    def w_pair_coords(a: int, b: int) -> list[Fraction]:
        i, j = w_indices[a], w_indices[b]
        return target.coords(base.pair_product_coords(min(i, j), max(i, j)))

    kernel = square_map_kernel(len(w_indices), w_pair_coords)
    n_pairs = len(w_indices) * (len(w_indices) + 1) // 2
    image_dim = n_pairs - kernel.dim
    return CircleBundleData(
        base=base,
        y=tuple(y),
        dropped_index=drop,
        w_indices=w_indices,
        kernel=kernel,
        target_dim=target.dim,
        image_dim=image_dim,
    )
