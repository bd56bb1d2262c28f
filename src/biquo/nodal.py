"""Ternary cubics: determinants of quadric nets, nodes, inflection lines.

The cubics live in projective coordinates (lam, mu, nu).  The scanned
family has the node shape

    F = lam * q(mu, nu) + c(mu, nu),      q = tangent cone at [1,0,0],

with q proportional to mu^2 + nu^2.  The binary cubic through the three
inflection points is computed by eliminating lam from {F = 0, Hess F = 0}
with a Sylvester resultant, stripping the tangent-cone factor, and
projecting onto the harmonic complement of (mu^2+nu^2)*(linear); for a
node-shaped input the non-harmonic component vanishes identically, and
the elimination carries one universal constant which is divided out so
the result is exact, not just exact-up-to-scale.

Rational common zeros of a few forms (the singular points of a cubic
here, the squares in a system of conics in ``invariants``) come from
one elimination: ``_eliminants`` removes lam from each pair of forms,
and ``_line_gcd`` takes the forms' gcd in lam on each line (lam, mu0,
nu0).  ``singular_points`` runs one loop over directions (mu0 : nu0),
fed either by the rational roots of the eliminants (a certified answer)
or by a bounded search when every eliminant vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .graded import QuadricSystem
from .poly import HomPoly, _mul_terms
from .univar import (
    UPoly,
    bf_divide_exact,
    bf_gcd,
    bf_is_zero,
    bf_rational_proj_roots,
    is_rational_square,
    rational_roots,
    up_gcd,
    up_trim,
)

VAR_NAMES = ("lam", "mu", "nu")

# Res_lam(F, Hess F) = _RESULTANT_SCALE * (mu^2+nu^2) * (inflection cubic)
# for every node-shaped cubic normalized to tangent cone -(mu^2+nu^2).
_RESULTANT_SCALE = Fraction(8)


class TernaryCubic:
    """A homogeneous cubic in (lam, mu, nu) with exact coefficients."""

    __slots__ = ("poly",)

    def __init__(self, poly: HomPoly):
        if poly.nvars != 3 or poly.weight != 3:
            raise ValueError("need a homogeneous cubic in three variables")
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, *_):
        raise AttributeError("TernaryCubic is immutable")

    @classmethod
    def from_coefficients(cls, coeffs) -> "TernaryCubic":
        return cls(HomPoly(3, 3, coeffs))

    def coefficient(self, i: int, j: int, k: int) -> Fraction:
        return self.poly.coefficient((i, j, k))

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, TernaryCubic) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def scale(self, c) -> "TernaryCubic":
        return TernaryCubic(self.poly.scale(c))

    def substitute(self, matrix) -> "TernaryCubic":
        return TernaryCubic(self.poly.substitute(matrix))

    def partials(self) -> list[HomPoly]:
        return [self.poly.partial(i) for i in range(3)]

    def hessian(self) -> "TernaryCubic":
        first = self.partials()
        second = [[d.partial(j) for j in range(3)] for d in first]
        return _cubic_det(second)

    def evaluate(self, point) -> Fraction:
        return self.poly.evaluate(point)

    def is_node_shape(self) -> bool:
        """True when F = lam * q(mu,nu) + c(mu,nu): no lam^2 or lam^3 terms."""
        return all(e[0] <= 1 for e in self.poly.coeffs)

    def lam_coefficient_form(self) -> tuple[Fraction, Fraction, Fraction]:
        """(A, B, C) with the lam part equal to lam*(A mu^2 + B mu nu + C nu^2)."""
        return (
            self.coefficient(1, 2, 0),
            self.coefficient(1, 1, 1),
            self.coefficient(1, 0, 2),
        )

    def cubic_part(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients of (mu^3, mu^2 nu, mu nu^2, nu^3) in the lam-free part."""
        return (
            self.coefficient(0, 3, 0),
            self.coefficient(0, 2, 1),
            self.coefficient(0, 1, 2),
            self.coefficient(0, 0, 3),
        )

    def to_str(self) -> str:
        return self.poly.to_str(VAR_NAMES)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"TernaryCubic({self.to_str()!r})"


def _poly_det(mat: list[list[HomPoly]]) -> HomPoly:
    """Determinant of a small matrix of homogeneous polynomials.

    Cofactor expansion along the top remaining row on term dicts, skipping
    zero entries and minors with no nonzero permutation product; each
    minor is computed once per column set, as (weight, terms) or None.  A
    matrix with no nonzero permutation product gives ``HomPoly.zero(nvars,
    0)``; otherwise the result has the weight of those products, even when
    they cancel.
    """
    n = len(mat)
    nvars = mat[0][0].nvars
    minors: dict[tuple[int, ...], tuple[int, dict] | None] = {
        (): (0, {(0,) * nvars: Fraction(1)})
    }

    def minor(cols: tuple[int, ...]) -> tuple[int, dict] | None:
        """The minor on the last len(cols) rows."""
        if cols in minors:
            return minors[cols]
        row = mat[n - len(cols)]
        weight, terms = None, {}
        for k, j in enumerate(cols):
            entry = row[j]
            sub = minor(cols[:k] + cols[k + 1 :]) if entry.coeffs else None
            if sub is None:
                continue
            weight = entry.weight + sub[0]
            for e, c in _mul_terms(entry.coeffs, sub[1]).items():
                c = -c if k % 2 else c
                terms[e] = terms[e] + c if e in terms else c
        if weight is not None:
            minors[cols] = weight, {e: c for e, c in terms.items() if c}
        else:
            minors[cols] = None
        return minors[cols]

    det = minor(tuple(range(n)))
    return HomPoly.zero(nvars, 0) if det is None else HomPoly._trusted(nvars, *det)


def _cubic_det(mat: list[list[HomPoly]]) -> TernaryCubic:
    """The determinant of a 3x3 matrix of linear forms; the zero cubic
    also when no permutation product is nonzero."""
    det = _poly_det(mat)
    return TernaryCubic(HomPoly.zero(3, 3) if det.is_zero() else det)


def det_cubic(net: QuadricSystem) -> TernaryCubic:
    """det(lam*G1 + mu*G2 + nu*G3) for a net of quadrics on a 3-space."""
    if net.ambient_dim != 3 or net.dim != 3:
        raise ValueError("need a 3-dimensional net of quadrics on a 3-space")
    g1, g2, g3 = net.basis
    entries = [
        [
            HomPoly.linear([g1[i][j], g2[i][j], g3[i][j]])
            for j in range(3)
        ]
        for i in range(3)
    ]
    return _cubic_det(entries)


# ---------------------------------------------------------------------------
# Resultant elimination
# ---------------------------------------------------------------------------


def _binary_coeff_form(p: HomPoly, t: int) -> list[Fraction]:
    """A binary form as a coefficient list indexed by the exponent of var t."""
    out = [Fraction(0)] * (p.weight + 1)
    for e, c in p.coeffs.items():
        out[e[t]] += c
    return out


def resultant_in_var(f: HomPoly, g: HomPoly, var: int) -> list[Fraction]:
    """Res_var(f, g) as a binary form in the two remaining variables.

    The Sylvester determinant at the actual degrees in ``var``: when one
    form does not involve ``var`` the matrix is diagonal and the result
    is c^deg; two forms free of ``var`` give the constant 1 by
    convention.  That constant certifies nothing about common zeros, so
    callers must not eliminate with such a pair; ``_eliminants`` takes
    the gcd of the two binary forms instead.
    """
    cf = f.coefficients_in_var(var)
    cg = g.coefficients_in_var(var)
    df = max(cf) if cf else 0
    dg = max(cg) if cg else 0
    if df == 0 and dg == 0:
        return [Fraction(1)]
    zero = HomPoly.zero(3, 0)
    size = df + dg
    rows: list[list[HomPoly]] = []
    for shift in range(dg):
        row = [zero] * size
        for k in range(df + 1):
            row[shift + df - k] = cf.get(k, zero)
        rows.append(row)
    for shift in range(df):
        row = [zero] * size
        for k in range(dg + 1):
            row[shift + dg - k] = cg.get(k, zero)
        rows.append(row)
    return _binary_coeff_form(_poly_det(rows), max(i for i in range(3) if i != var))


def _eliminants(polys: Sequence[HomPoly]) -> Iterator[list[Fraction]]:
    """The nonzero eliminant in (mu, nu) of each pair of nonzero forms.

    A pair's eliminant is its resultant in lam, or the gcd of the two
    binary forms when neither involves lam.  Every common zero off
    [1, 0, 0] has its (mu : nu) among the roots of each eliminant.  Lazy,
    so a caller that needs only the first computes one resultant.
    """
    nonzero = [p for p in polys if not p.is_zero()]
    for i, f in enumerate(nonzero):
        for g in nonzero[i + 1 :]:
            if any(e[0] for p in (f, g) for e in p.coeffs):
                r = resultant_in_var(f, g, 0)
            else:
                r = bf_gcd(_binary_coeff_form(f, 2), _binary_coeff_form(g, 2))
            if not bf_is_zero(r):
                yield r


# ---------------------------------------------------------------------------
# Singular points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularLocus:
    """Rational singular points, with a completeness certificate.

    ``complete`` is True when the list provably contains every rational
    singular point; otherwise only a bounded search ran ("search
    exhausted" rather than "no rational singular point proven").
    """

    points: tuple[tuple[int, int, int], ...]
    complete: bool
    method: str


def _normalize_point(coords: Sequence[Fraction]) -> tuple[int, int, int]:
    den = 1
    for c in coords:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coords]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)  # type: ignore[return-value]


def _is_singular_at(partials: list[HomPoly], point) -> bool:
    return all(p.evaluate(point) == 0 for p in partials)


def _lam_slice(p: HomPoly, mu0: int, nu0: int) -> UPoly:
    """p(lam, mu0, nu0) as a univariate polynomial in lam."""
    out: dict[int, Fraction] = {}
    for e, c in p.coeffs.items():
        out[e[0]] = out.get(e[0], Fraction(0)) + c * Fraction(mu0) ** e[1] * Fraction(
            nu0
        ) ** e[2]
    size = max(out) + 1 if out else 0
    return up_trim([out.get(i, Fraction(0)) for i in range(size)])


def _line_gcd(polys: Sequence[HomPoly], mu0: int, nu0: int) -> UPoly | None:
    """The gcd in lam of the forms on the line (lam, mu0, nu0).

    None when every form vanishes on the whole line.
    """
    common = None
    for p in polys:
        s = _lam_slice(p, mu0, nu0)
        if s:
            common = s if common is None else up_gcd(common, s)
    return common


def singular_points(
    F: TernaryCubic, search_height: int = 50
) -> SingularLocus:
    """All rational projective singular points of a nonzero cubic.

    For the scanned family (node shape with definite tangent cone) the
    answer is closed-form.  Otherwise one loop runs over directions
    (mu0 : nu0), takes the rational lam-roots of the partials' gcd on each
    line and re-checks every point exactly.  The directions are the
    rational roots of the gcd of the eliminants, which certifies
    completeness; when every eliminant vanishes the locus may be
    positive-dimensional and the directions with coordinates up to
    ``search_height`` are searched instead (not a proof).  A whole
    singular line of directions also clears ``complete``.
    """
    if F.is_zero():
        raise ValueError("the zero cubic is singular everywhere")
    partials = F.partials()

    if F.is_node_shape():
        A, B, C = F.lam_coefficient_form()
        disc = B * B - 4 * A * C
        if A != 0 and is_rational_square(disc) is None:
            # the tangent cone has no rational zero directions, and a
            # singular point of lam*q + c must kill q, so [1,0,0] is all
            pts = []
            if _is_singular_at(partials, (1, 0, 0)):
                pts.append((1, 0, 0))
            return SingularLocus(tuple(pts), True, "family-closed-form")

    eliminant = None
    for r in _eliminants(partials):
        eliminant = r if eliminant is None else bf_gcd(eliminant, r)
    if eliminant is not None:
        directions = bf_rational_proj_roots(eliminant)
        complete, method = True, "resultant-elimination"
    else:
        directions = [(1, 0)] + [
            (mu0, nu0)
            for mu0 in range(-search_height, search_height + 1)
            for nu0 in range(1, search_height + 1)
            if gcd(mu0, nu0) == 1
        ]
        complete, method = False, "bounded-search"

    points: list[tuple[int, int, int]] = []
    if _is_singular_at(partials, (1, 0, 0)):
        points.append((1, 0, 0))
    for mu0, nu0 in directions:
        common = _line_gcd(partials, mu0, nu0)
        if common is None:
            # the whole line of directions (mu0:nu0) is singular
            complete = False
            continue
        for lam0 in rational_roots(common):
            pt = _normalize_point([lam0, Fraction(mu0), Fraction(nu0)])
            if _is_singular_at(partials, pt) and pt not in points:
                points.append(pt)
    return SingularLocus(tuple(sorted(points)), complete, method)


# ---------------------------------------------------------------------------
# Tangent cone and the inflection-line cubic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryQuadratic:
    """A binary quadratic form a*mu^2 + b*mu*nu + c*nu^2."""

    a: Fraction
    b: Fraction
    c: Fraction

    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, mu, nu) -> Fraction:
        mu, nu = Fraction(mu), Fraction(nu)
        return self.a * mu * mu + self.b * mu * nu + self.c * nu * nu

    def is_multiple_of_circle(self) -> bool:
        return self.b == 0 and self.a == self.c and self.a != 0


def tangent_cone(F: TernaryCubic) -> BinaryQuadratic:
    """The lam-coefficient form of a node-shaped cubic.

    Requires F = lam*q(mu,nu) + c(mu,nu) and singularity at [1,0,0]
    (both hold exactly when no monomial has lam-exponent >= 2).
    """
    if not F.is_node_shape():
        raise ValueError("cubic does not have the node shape lam*q + c")
    A, B, C = F.lam_coefficient_form()
    return BinaryQuadratic(A, B, C)


@dataclass(frozen=True)
class BinaryCubic:
    """A binary cubic c30*mu^3 + c21*mu^2 nu + c12*mu nu^2 + c03*nu^3.

    The inflection-line cubics are harmonic with respect to mu^2+nu^2,
    i.e. of the shape beta*mu^3 - 3 alpha*mu^2 nu - 3 beta*mu nu^2
    + alpha*nu^3; ``harmonic`` builds that shape and ``alpha``/``beta``
    read it back, enforcing the consistency equations.
    """

    c30: Fraction
    c21: Fraction
    c12: Fraction
    c03: Fraction

    @classmethod
    def harmonic(cls, alpha, beta) -> "BinaryCubic":
        alpha, beta = Fraction(alpha), Fraction(beta)
        return cls(beta, -3 * alpha, -3 * beta, alpha)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.c30, self.c21, self.c12, self.c03)

    def is_harmonic(self) -> bool:
        return self.c12 == -3 * self.c30 and self.c21 == -3 * self.c03

    @property
    def alpha(self) -> Fraction:
        if not self.is_harmonic():
            raise ValueError("cubic is not harmonic; alpha undefined")
        return self.c03

    @property
    def beta(self) -> Fraction:
        if not self.is_harmonic():
            raise ValueError("cubic is not harmonic; beta undefined")
        return self.c30

    def evaluate(self, mu, nu) -> Fraction:
        mu, nu = Fraction(mu), Fraction(nu)
        return (
            self.c30 * mu**3
            + self.c21 * mu**2 * nu
            + self.c12 * mu * nu**2
            + self.c03 * nu**3
        )

    def evaluate_complex(self, mu: complex, nu: complex) -> complex:
        return (
            complex(self.c30) * mu**3
            + complex(self.c21) * mu**2 * nu
            + complex(self.c12) * mu * nu**2
            + complex(self.c03) * nu**3
        )

    def substitute(self, e, f, g, h) -> "BinaryCubic":
        """The cubic after mu -> e*mu + f*nu, nu -> g*mu + h*nu."""
        p = HomPoly(
            2,
            3,
            {
                (3, 0): self.c30,
                (2, 1): self.c21,
                (1, 2): self.c12,
                (0, 3): self.c03,
            },
        )
        q = p.substitute([[e, f], [g, h]])
        return BinaryCubic(
            q.coefficient((3, 0)),
            q.coefficient((2, 1)),
            q.coefficient((1, 2)),
            q.coefficient((0, 3)),
        )

    def rotate(self, c, d) -> "BinaryCubic":
        """The special orthogonal substitution mu -> c mu + d nu, nu -> -d mu + c nu."""
        if c == 0 and d == 0:
            raise ValueError("rotation parameters must not both vanish")
        return self.substitute(c, d, -d, c)

    def swapped(self) -> "BinaryCubic":
        return BinaryCubic(self.c03, self.c12, self.c21, self.c30)


def harmonic_decomposition(
    coeffs: Sequence[Fraction],
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Split (c30,c21,c12,c03) as harmonic(alpha,beta) + (mu^2+nu^2)(p mu + q nu).

    Returns (alpha, beta, p, q); the split is unique.
    """
    c30, c21, c12, c03 = (Fraction(c) for c in coeffs)
    beta = (c30 - c12) / 4
    alpha = (c03 - c21) / 4
    p = c30 - beta
    q = c03 - alpha
    return alpha, beta, p, q


def inflection_lines(F: TernaryCubic) -> BinaryCubic:
    """The binary cubic of lines joining the node to the three inflections.

    Preconditions: node shape with tangent cone proportional to
    mu^2+nu^2.  The cubic is returned with its canonical normalization
    (the universal elimination constant divided out), so for the family
    determinant cubic the result is exactly
    beta*mu^3 - 3 alpha*mu^2 nu - 3 beta*mu nu^2 + alpha*nu^3.
    """
    cone = tangent_cone(F)
    if not cone.is_multiple_of_circle():
        raise ValueError("tangent cone is not a multiple of mu^2+nu^2")
    c30, c21, c12, c03 = F.cubic_part()
    # rescale lam so the cone is exactly -(mu^2+nu^2)
    normalized = TernaryCubic.from_coefficients(
        {
            (1, 2, 0): Fraction(-1),
            (1, 0, 2): Fraction(-1),
            (0, 3, 0): c30,
            (0, 2, 1): c21,
            (0, 1, 2): c12,
            (0, 0, 3): c03,
        }
    )
    hess = normalized.hessian()
    if hess.is_zero():
        raise ValueError("degenerate elimination: the Hessian vanishes")
    res = resultant_in_var(normalized.poly, hess.poly, 0)
    if bf_is_zero(res):
        raise ValueError("degenerate elimination: zero resultant")
    circle = [Fraction(1), Fraction(0), Fraction(1)]
    stripped = res
    while True:
        quotient = bf_divide_exact(stripped, circle)
        if quotient is None:
            break
        stripped = quotient
    if len(stripped) != 4:
        raise ValueError("elimination did not produce a binary cubic")
    alpha_s, beta_s, p, q = harmonic_decomposition(stripped)
    if p != 0 or q != 0:
        raise ValueError("inflection cubic has a nonzero non-harmonic component")
    return BinaryCubic.harmonic(alpha_s / _RESULTANT_SCALE, beta_s / _RESULTANT_SCALE)
