"""Ternary cubics: determinants of quadric nets, nodes, inflection lines.

The cubics live in projective coordinates (lam, mu, nu).  The scanned
family has the node shape

    F = lam * q(mu, nu) + c(mu, nu),      q = tangent cone at [1,0,0],

with q proportional to mu^2 + nu^2.  The binary cubic through the three
inflection points is computed by eliminating lam from {F = 0, Hess F = 0}
with a Sylvester resultant and stripping the tangent-cone factor; for a
node-shaped input what remains is harmonic, and the elimination carries
one universal constant which is divided out so the result is exact, not
just exact-up-to-scale.

One packed int cubic runs through the t1 tail, and this module alone
packs cubics.  A cubic is packed in base 4 (``_CUBIC_PLACES``,
``poly._places``): lam^i mu^j nu^k has the key 16 i + 4 j + k, so the
key of a product of terms is the sum of their keys, key >> 4 is the
exponent of lam and key & 3 that of nu.  The kernels take such dicts:
``_net_det`` (the net's determinant, from its integer rows, never its
Fraction Grams), ``_family_locus`` (the node and cone read off
coefficients, with no partial built), ``_packed_cone``,
``_normalized_cone_terms`` (the cone turned on the int binary forms of F
with ``_binary_substitute``), ``_int_hessian`` and ``_inflection_ints``,
which eliminates lam on ints, strips (mu^2+nu^2) and checks
harmonicity, and leaves the one division to its caller.
``_t1_alpha_beta`` is the whole tail, from a net's determinant divided
by its content gcd to alpha and beta as ints (up to a positive scalar),
with no ``HomPoly``, partial or Fraction built on the way; ``invariants``
takes the cube classes of its result.  The public functions are readers
of the same kernels: ``det_cubic`` and ``TernaryCubic.hessian`` divide
once and decode the ten cubic keys (``_packed_cubic``, through
``_CUBIC_EXPONENTS``), and ``singular_points``, ``tangent_cone`` and
``inflection_lines`` pack their cubic first.

The three determinants (the net's, the Hessian and the Sylvester
determinant of ``_int_resultant``) share one kernel, ``_int_det``, on
int term dicts.  It walks a cofactor plan made once per size
(``_det_plan``): every column set as a bitmask, with the steps that
build its minor from the row above, run bottom-up with each product
added straight into the minor's dict.  Each caller builds its entries
as such dicts, cleared once by an lcm of denominators: linear forms
packed like the cubics for the net and the Hessian, and for the
Sylvester matrix binary forms keyed by the exponent of one variable,
split from the packed cubics (``_split_in_lam``) or from ``HomPoly``
forms (``_split_in_var``, for ``resultant_in_var``, the only place the
resultant becomes Fractions).  Binary forms are substituted into by one
helper, ``_binary_substitute`` (``BinaryCubic.substitute`` and the cone
normalization).

Rational common zeros of a few forms (the singular points of a cubic
here, the squares in a system of conics in ``invariants``) come from
one elimination: ``_eliminants`` removes lam from each pair of forms,
and ``_line_gcd`` takes the forms' gcd in lam on each line (lam, mu0,
nu0) with the one ``univar.up_gcd``.  (mu0, nu0) is a rational point,
or (theta, 1) for a quadratic irrationality theta when ``invariants``
looks for a conjugate pair of common zeros.  ``singular_points`` runs
one loop over directions (mu0 : nu0), fed either by the rational roots
of the eliminants (a certified answer) or by a bounded search when
every eliminant vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

from .arith import CertificateError
from .graded import QuadricSystem, _pairs
from .poly import HomPoly, _coerce, _pack, _places, _ratio, monomials
from .univar import (
    UPoly,
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
_RESULTANT_SCALE = 8

# Cubics, their second partials and Hessians are packed in base 4, above
# every exponent of a cubic (``poly._places``; see the module docstring).
_CUBIC_PLACES = _places(3, 4)


def _cubic_key(*e: int) -> int:
    """The key of the monomial with exponents e in ``_CUBIC_PLACES``."""
    return sum(map(mul, e, _CUBIC_PLACES))


# The exponent tuple of each of the ten cubic monomials, by its key.
_CUBIC_EXPONENTS = {_cubic_key(*e): e for e in monomials(3, 3)}

# The keys of lam*mu^2, lam*mu*nu, lam*nu^2 (the tangent cone at [1,0,0]
# of a node-shaped cubic) and of mu^3, mu^2 nu, mu nu^2, nu^3 (its
# lam-free part).  A key has a lam exponent of at least 2 exactly when it
# is at least _LAM_SQUARED.
_CONE_KEYS = tuple(_cubic_key(1, 2 - k, k) for k in range(3))
_CUBIC_PART_KEYS = tuple(_cubic_key(0, 3 - k, k) for k in range(4))
_LAM_SQUARED = _cubic_key(2, 0, 0)

# A symmetric 3x3 matrix from its entries at _pairs(3): entry (i, j) is
# the one at index _SYMMETRIC[i][j].
_SYMMETRIC = tuple(
    tuple(_pairs(3).index((min(i, j), max(i, j))) for j in range(3)) for i in range(3)
)

# Twice a quadric's Gram matrix has 2x at (i, i) and x at (i, j), i < j,
# with x its coefficient of x_i^2 or of x_i x_j: the factor at each pair.
_DOUBLED = tuple(2 if i == j else 1 for i, j in _pairs(3))

# For the packed key of each cubic monomial, the second partials
# d^2/dx_i dx_j (i <= j) that do not kill it: (the index of (i, j) in
# _pairs(3), the packed key of the derivative's monomial, the factor it
# takes).  Distinct monomials keep distinct keys under one partial.
_SECOND_PARTIALS = {
    key: tuple(
        (k, key - _CUBIC_PLACES[i] - _CUBIC_PLACES[j], factor)
        for k, (i, j) in enumerate(_pairs(3))
        if (factor := e[i] * (e[j] - (i == j)))
    )
    for key, e in _CUBIC_EXPONENTS.items()
}


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

    def coefficient(self, i: int, j: int, k: int) -> int | Fraction:
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

    def _packed(self) -> dict:
        """The terms keyed by ``_CUBIC_PLACES`` (see the module docstring)."""
        return _pack(self.poly.coeffs, _CUBIC_PLACES)

    def partials(self) -> list[HomPoly]:
        return [self.poly.partial(i) for i in range(3)]

    def hessian(self) -> "TernaryCubic":
        """det of the matrix of second partials.

        F is cleared to ints by d, the lcm of its denominators, and packed
        in ``_CUBIC_PLACES``; ``_int_hessian`` takes the determinant, which
        is divided by d^3 once.
        """
        coeffs = self.poly.coeffs
        d = lcm(*(c.denominator for c in coeffs.values()))
        terms = {
            key: c.numerator * (d // c.denominator)
            for key, c in self._packed().items()
        }
        return _packed_cubic(_int_hessian(terms), d**3)

    def evaluate(self, point) -> int | Fraction:
        return self.poly.evaluate(point)

    def is_node_shape(self) -> bool:
        """True when F = lam * q(mu,nu) + c(mu,nu): no lam^2 or lam^3 terms."""
        return _is_node_shape(self._packed())

    def lam_coefficient_form(self) -> tuple[int | Fraction, ...]:
        """(A, B, C) with the lam part equal to lam*(A mu^2 + B mu nu + C nu^2)."""
        return (
            self.coefficient(1, 2, 0),
            self.coefficient(1, 1, 1),
            self.coefficient(1, 0, 2),
        )

    def cubic_part(self) -> tuple[int | Fraction, ...]:
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


@cache
def _det_plan(n: int) -> tuple[tuple[int, tuple], ...]:
    """The cofactor steps of an n x n determinant, bottom-up.

    The minor on the last k rows and a set of k columns is keyed by that
    set as a bitmask.  One level per row from the second-to-last up to the
    top: (row, ((mask, steps), ...)) for every mask of n - row columns,
    each step (odd, column, sub-mask) expanding along that row, with odd
    the parity of the column's position in the set.
    """
    levels = []
    for row in range(n - 2, -1, -1):
        masks = []
        for mask in range(1 << n):
            if mask.bit_count() == n - row:
                cols = [j for j in range(n) if mask >> j & 1]
                steps = tuple((k % 2, j, mask ^ (1 << j)) for k, j in enumerate(cols))
                masks.append((mask, steps))
        levels.append((row, tuple(masks)))
    return tuple(levels)


def _int_det(rows: list[list[dict]]) -> dict | None:
    """The determinant of a square matrix of int term dicts.

    The entries share one packing in which the key of a product of terms
    is the sum of their keys: packed exponents (``poly._places``) in a
    base above every exponent of every permutation product, or the
    exponent of one variable when every minor is homogeneous in two
    (``resultant_in_var``).  The minors are built bottom-up along the plan
    of ``_det_plan``: each from the row above the ones it spans, with
    every product of an entry and a sub-minor added straight into its
    dict; zero entries and minors with no nonzero permutation product are
    skipped, and zero terms are dropped once, at the top.  None when no
    permutation product is nonzero; otherwise the nonzero terms (empty
    when the products cancel).  The caller clears its entries to ints
    before and divides once after.
    """
    n = len(rows)
    # the minors on the last row are its entries; an absent mask has no
    # nonzero permutation product
    minors = {1 << j: entry for j, entry in enumerate(rows[-1]) if entry}
    for i, masks in _det_plan(n):
        row = rows[i]
        for mask, steps in masks:
            terms = None
            for odd, j, sub in steps:
                entry = row[j]
                if not entry:
                    continue
                minor = minors.get(sub)
                if minor is None:
                    continue
                if terms is None:
                    terms = {}
                for e1, c1 in entry.items():
                    if odd:
                        c1 = -c1
                    for e2, c2 in minor.items():
                        e = e1 + e2
                        terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
            if terms is not None:
                minors[mask] = terms
    det = minors.get((1 << n) - 1)
    return None if det is None else {e: c for e, c in det.items() if c}


def _is_node_shape(terms: dict) -> bool:
    """``TernaryCubic.is_node_shape`` of a cubic packed in ``_CUBIC_PLACES``.

    The gradient at [1,0,0] is (3 [lam^3], [lam^2 mu], [lam^2 nu]), the
    coefficients of the only cubic monomials with a lam exponent of at
    least 2, so this is also whether the cubic is singular there.
    """
    return max(terms, default=0) < _LAM_SQUARED


def _packed_cubic(terms: dict | None, scale: int = 1) -> TernaryCubic:
    """terms / scale as a cubic, for nonzero int terms packed in
    ``_CUBIC_PLACES`` (a determinant of ``_int_det`` or a primitive
    cubic); the zero cubic when there are none.  Each term is divided
    once (``poly._ratio``) and wrapped unchecked (``HomPoly._trusted``)."""
    if not terms:
        return TernaryCubic(HomPoly.zero(3, 3))
    return TernaryCubic(HomPoly._trusted(
        3, 3, {_CUBIC_EXPONENTS[key]: _ratio(c, scale) for key, c in terms.items()}
    ))


def _int_hessian(terms: dict[int, int]) -> dict | None:
    """The Hessian determinant of an int cubic packed in ``_CUBIC_PLACES``,
    as ``_int_det`` returns it.

    The six second partials come from one pass over the terms as int
    linear forms in the same packing, each term sent where
    ``_SECOND_PARTIALS`` says.
    """
    second: list[dict[int, int]] = [{} for _ in _pairs(3)]
    for key, n in terms.items():
        for k, sub, factor in _SECOND_PARTIALS[key]:
            second[k][sub] = n * factor
    return _int_det([[second[k] for k in row] for row in _SYMMETRIC])


def _net_det(net: QuadricSystem) -> tuple[dict | None, int]:
    """(det, scale) with det / scale the determinant cubic of the net:
    det as ``_int_det`` returns it, packed in ``_CUBIC_PLACES``."""
    if net.ambient_dim != 3 or net.dim != 3:
        raise ValueError("need a 3-dimensional net of quadrics on a 3-space")
    rows = net._rows
    big = lcm(*(d for _, d in rows))
    forms: list[dict[int, int]] = [{} for _ in _pairs(3)]
    for place, (row, d) in zip(_CUBIC_PLACES, rows):
        m = big // d
        for col, x in row.items():
            forms[col][place] = x * m * _DOUBLED[col]
    det = _int_det([[forms[k] for k in row] for row in _SYMMETRIC])
    return det, (2 * big) ** 3


def det_cubic(net: QuadricSystem) -> TernaryCubic:
    """det(lam*G1 + mu*G2 + nu*G3) for a net of quadrics on a 3-space.

    Read from the net's integer rows (r_k, d_k), the quadric r_k/d_k
    (``QuadricSystem``), with no Gram built (``_net_det``): with L the
    lcm of the d_k, 2L * G_k has the int entry 2r L/d_k at a diagonal
    pair and r L/d_k elsewhere, so entry (i, j) of 2L times the matrix is
    an int linear form keyed by ``_CUBIC_PLACES``.  Its determinant is
    divided by (2L)^3 once.
    """
    return _packed_cubic(*_net_det(net))


# ---------------------------------------------------------------------------
# Resultant elimination
# ---------------------------------------------------------------------------


def _binary_coeff_form(p: HomPoly, t: int) -> list[Fraction]:
    """A binary form as a coefficient list indexed by the exponent of var t."""
    out = [Fraction(0)] * (p.weight + 1)
    for e, c in p.coeffs.items():
        out[e[t]] += c
    return out


def _int_resultant(
    f: dict[int, dict[int, int]], wf: int, g: dict[int, dict[int, int]], wg: int
) -> list[int]:
    """The Sylvester resultant of two int forms of weights wf and wg in
    three variables, split by their exponent of the eliminated one: each
    part an int binary form keyed by the exponent of one remaining
    variable t alone, since the products of a minor share one weight,
    which fixes the other exponent.  The result is the binary form of
    ``resultant_in_var``, indexed by the exponent of t.
    """
    df, dg = max(f, default=0), max(g, default=0)
    if df == 0 and dg == 0:
        return [1]
    size = df + dg
    rows: list[list[dict]] = []
    for d, parts, shifts in ((df, f, dg), (dg, g, df)):
        for shift in range(shifts):
            row = [{}] * size
            for k, entry in parts.items():
                row[shift + d - k] = entry
            rows.append(row)
    det = _int_det(rows)
    if det is None:
        return [0]
    # every permutation product has weight dg * wf + df * wg - df * dg
    out = [0] * (dg * wf + df * wg - df * dg + 1)
    for k, c in det.items():
        out[k] = c
    return out


def _split_in_var(p: HomPoly, var: int, t: int) -> tuple[dict[int, dict[int, int]], int]:
    """(parts, den): p cleared to ints by den, the lcm of its denominators,
    and split for ``_int_resultant`` by its exponent of ``var``, each part
    keyed by the exponent of t."""
    den = lcm(*(c.denominator for c in p.coeffs.values()))
    parts: dict[int, dict[int, int]] = {}
    for e, c in p.coeffs.items():
        parts.setdefault(e[var], {})[e[t]] = c.numerator * (den // c.denominator)
    return parts, den


def _split_in_lam(terms: dict[int, int]) -> dict[int, dict[int, int]]:
    """An int cubic packed in ``_CUBIC_PLACES`` split for ``_int_resultant``
    by its exponent of lam (key >> 4), each part keyed by that of nu
    (key & 3)."""
    parts: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        parts.setdefault(key >> 4, {})[key & 3] = c
    return parts


def resultant_in_var(f: HomPoly, g: HomPoly, var: int) -> list[Fraction]:
    """Res_var(f, g) as a binary form in the two remaining variables.

    The Sylvester determinant at the actual degrees in ``var``: when one
    form does not involve ``var`` the matrix is diagonal and the result
    is c^deg; two forms free of ``var`` give the constant 1 by
    convention.  That constant certifies nothing about common zeros, so
    callers must not eliminate with such a pair; ``_eliminants`` takes
    the gcd of the two binary forms instead.  f and g are cleared to ints
    by the lcm of their denominators, den_f and den_g, and split by
    ``_split_in_var``; ``_int_resultant``'s coefficients are divided by
    den_f^dg * den_g^df, with df and dg the degrees in ``var``.
    """
    t = max(i for i in range(3) if i != var)
    (cf, den_f), (cg, den_g) = _split_in_var(f, var, t), _split_in_var(g, var, t)
    ints = _int_resultant(cf, f.weight, cg, g.weight)
    scale = den_f ** max(cg, default=0) * den_g ** max(cf, default=0)
    return [Fraction(c, scale) for c in ints]


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
    """A nonzero rational point as a primitive integer one, first nonzero entry > 0."""
    den = lcm(*(c.denominator for c in coords))
    ints = [c.numerator * (den // c.denominator) for c in coords]
    g = gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
    return tuple(v // g for v in ints)  # type: ignore[return-value]


def _is_singular_at(partials: list[HomPoly], point) -> bool:
    return all(p.evaluate(point) == 0 for p in partials)


def _family_locus(terms: dict) -> SingularLocus | None:
    """The closed-form singular locus of a cubic packed in
    ``_CUBIC_PLACES`` that has the family's shape, None for any other.

    The shape: no lam^2 or lam^3 terms (the node shape lam*q + c, which
    is singular at [1,0,0]: see ``_is_node_shape``), and a tangent cone q
    whose discriminant is not a rational square, so that q has no
    rational zero direction (a cone with no mu^2 term has (1 : 0)).  A
    singular point of lam*q + c must kill q, so [1,0,0] is the only one.
    """
    if not _is_node_shape(terms):
        return None
    A, B, C = _packed_cone(terms)
    if is_rational_square(B * B - 4 * A * C) is not None:
        return None
    return SingularLocus(((1, 0, 0),), True, "family-closed-form")


def _lam_slice(p: HomPoly, mu0, nu0) -> UPoly:
    """p(lam, mu0, nu0) as a univariate polynomial in lam.

    mu0 and nu0 are ints or elements of a field that mixes with Fractions.
    """
    out: dict[int, Fraction] = {}
    for e, c in p.coeffs.items():
        out[e[0]] = out.get(e[0], Fraction(0)) + c * mu0 ** e[1] * nu0 ** e[2]
    size = max(out) + 1 if out else 0
    return up_trim([out.get(i, Fraction(0)) for i in range(size)])


def _line_gcd(polys: Sequence[HomPoly], mu0, nu0) -> UPoly | None:
    """The monic gcd in lam of the forms on the line (lam, mu0, nu0).

    The gcd runs over the field of mu0 and nu0 (see ``_lam_slice``).
    None when every form vanishes on the whole line.
    """
    common: UPoly = []
    for p in polys:
        common = up_gcd(common, _lam_slice(p, mu0, nu0))
    return common or None


def singular_points(
    F: TernaryCubic, search_height: int = 50
) -> SingularLocus:
    """All rational projective singular points of a nonzero cubic.

    For the scanned family (node shape with definite tangent cone) the
    answer is closed-form (``_family_locus``), read off coefficients
    with no partial built.  Otherwise one loop runs over directions
    (mu0 : nu0), takes the rational lam-roots of the partials' gcd on each
    line and re-checks every point exactly.  The directions are the
    rational roots of the gcd of the eliminants, which certifies
    completeness; when every eliminant vanishes the locus may be
    positive-dimensional and the directions with coordinates up to
    ``search_height`` are searched instead (not a proof).  A whole
    singular line of directions also clears ``complete``.
    """
    terms = F._packed()
    locus = _family_locus(terms)
    return _searched_locus(F, terms, search_height) if locus is None else locus


def _searched_locus(
    F: TernaryCubic, terms: dict, search_height: int = 50
) -> SingularLocus:
    """The general search of ``singular_points`` on F, whose terms packed
    in ``_CUBIC_PLACES`` are given (callers have them already)."""
    if not terms:
        raise ValueError("the zero cubic is singular everywhere")
    partials = F.partials()
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

    points: list[tuple[int, int, int]] = [(1, 0, 0)] if _is_node_shape(terms) else []
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

    a: int | Fraction
    b: int | Fraction
    c: int | Fraction

    def discriminant(self) -> int | Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def evaluate(self, mu, nu) -> Fraction:
        mu, nu = Fraction(mu), Fraction(nu)
        return self.a * mu * mu + self.b * mu * nu + self.c * nu * nu

    def is_multiple_of_circle(self) -> bool:
        return _is_circle_multiple(self.a, self.b, self.c)


def _is_circle_multiple(a, b, c) -> bool:
    """Whether a mu^2 + b mu nu + c nu^2 is a nonzero multiple of mu^2+nu^2."""
    return b == 0 and a == c and a != 0


def tangent_cone(F: TernaryCubic) -> BinaryQuadratic:
    """The lam-coefficient form of a node-shaped cubic.

    Requires F = lam*q(mu,nu) + c(mu,nu) and singularity at [1,0,0]
    (both hold exactly when no monomial has lam-exponent >= 2).
    """
    return BinaryQuadratic(*_packed_cone(F._packed()))


def _packed_cone(terms: dict) -> tuple:
    """The coefficients (a, b, c) of ``tangent_cone`` of a cubic packed in
    ``_CUBIC_PLACES``."""
    if not _is_node_shape(terms):
        raise ValueError("cubic does not have the node shape lam*q + c")
    return tuple(terms.get(key, 0) for key in _CONE_KEYS)


@dataclass(frozen=True)
class BinaryCubic:
    """A binary cubic c30*mu^3 + c21*mu^2 nu + c12*mu nu^2 + c03*nu^3.

    The inflection-line cubics are harmonic with respect to mu^2+nu^2,
    i.e. of the shape beta*mu^3 - 3 alpha*mu^2 nu - 3 beta*mu nu^2
    + alpha*nu^3; ``harmonic`` builds that shape and ``alpha``/``beta``
    read it back, enforcing the consistency equations.
    """

    c30: int | Fraction
    c21: int | Fraction
    c12: int | Fraction
    c03: int | Fraction

    @classmethod
    def harmonic(cls, alpha, beta) -> "BinaryCubic":
        alpha, beta = Fraction(alpha), Fraction(beta)
        return cls(beta, -3 * alpha, -3 * beta, alpha)

    def coefficients(self) -> tuple[int | Fraction, ...]:
        return (self.c30, self.c21, self.c12, self.c03)

    def is_harmonic(self) -> bool:
        return self.c12 == -3 * self.c30 and self.c21 == -3 * self.c03

    @property
    def alpha(self) -> int | Fraction:
        if not self.is_harmonic():
            raise ValueError("cubic is not harmonic; alpha undefined")
        return self.c03

    @property
    def beta(self) -> int | Fraction:
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
        form = list(map(_coerce, self.coefficients()))
        out = _binary_substitute(form, *map(_coerce, (e, f, g, h)))
        return BinaryCubic(*map(_coerce, out))

    def rotate(self, c, d) -> "BinaryCubic":
        """The special orthogonal substitution mu -> c mu + d nu, nu -> -d mu + c nu."""
        if c == 0 and d == 0:
            raise ValueError("rotation parameters must not both vanish")
        return self.substitute(c, d, -d, c)

    def swapped(self) -> "BinaryCubic":
        return BinaryCubic(self.c03, self.c12, self.c21, self.c30)


def _binary_substitute(form: Sequence, e, f, g, h) -> list:
    """The binary form sum_k form[k] * mu^(n-k) * nu^k after mu -> e*mu +
    f*nu, nu -> g*mu + h*nu, as its coefficient list in the same order.

    Horner's rule in the image N of nu: starting from form[n], each step
    multiplies by N and adds form[k] times a power of the image M of mu,
    each power built once.  Exact arithmetic on the numbers given, so an
    int form under an int substitution stays int.
    """
    n = len(form) - 1
    powers = [[1]]
    for _ in range(n):
        powers.append(_times_linear(powers[-1], e, f))
    out = [form[n]]
    for k in range(n - 1, -1, -1):
        out = _times_linear(out, g, h)
        if c := form[k]:
            out = [x + c * y for x, y in zip(out, powers[n - k])]
    return out


def _times_linear(form: list, e, f) -> list:
    """A binary form times e*mu + f*nu."""
    out = [c * e for c in form]
    out.append(0)
    for k, c in enumerate(form, 1):
        out[k] += c * f
    return out


def _strip_circle(form: list[int]) -> list[int]:
    """An int binary form with every factor mu^2+nu^2 divided out.

    Synthetic division: the divisor is monic, so an exact quotient of an
    int form is an int form.  Divides until the remainder is nonzero.
    """
    while len(form) >= 3:
        quotient = form[:]
        for k in range(len(form) - 2):
            quotient[k + 2] -= quotient[k]
        if quotient[-2] or quotient[-1]:
            break
        form = quotient[:-2]
    return form


def inflection_lines(F: TernaryCubic) -> BinaryCubic:
    """The binary cubic of lines joining the node to the three inflections.

    Preconditions: node shape with tangent cone proportional to
    mu^2+nu^2.  The cubic is returned with its canonical normalization
    (the universal elimination constant divided out), so for the family
    determinant cubic the result is exactly
    beta*mu^3 - 3 alpha*mu^2 nu - 3 beta*mu nu^2 + alpha*nu^3.
    The elimination is ``_inflection_ints`` on F packed in
    ``_CUBIC_PLACES``; the four Fractions are the only ones built.
    """
    ints, scale = _inflection_ints(F._packed())
    return BinaryCubic(*(Fraction(c, scale) for c in ints))


def _inflection_ints(terms: dict) -> tuple[list[int], int]:
    """(ints, scale) with ints / scale the coefficients (c30, c21, c12,
    c03) of ``inflection_lines`` of a cubic packed in ``_CUBIC_PLACES``.

    The elimination runs on integers.  For a fixed cone the resultant is
    linear in the lam-free part c: it is -(mu^2+nu^2)(8c + h) with h the
    lam-free part of the Hessian, linear in c.  So c is cleared to
    integers by the lcm d of its denominators, which multiplies the
    resultant by d, and lam is rescaled so that the cone is exactly
    -(mu^2+nu^2).  The Hessian (``_int_hessian``) of that int cubic is
    integral too, and both are split by their exponent of lam for
    ``_int_resultant``.  (mu^2+nu^2) is stripped by integer synthetic
    division, harmonicity is tested on the integer cubic, and the scale
    is 8 * d.
    """
    if not _is_circle_multiple(*_packed_cone(terms)):
        raise ValueError("tangent cone is not a multiple of mu^2+nu^2")
    lam_free = {key: c for key, c in terms.items() if key < _CUBIC_PLACES[0]}
    d = lcm(*(c.denominator for c in lam_free.values()))
    normalized = {key: c.numerator * (d // c.denominator) for key, c in lam_free.items()}
    normalized[_CONE_KEYS[0]] = normalized[_CONE_KEYS[2]] = -1
    hess = _int_hessian(normalized)
    if not hess:
        raise ValueError("degenerate elimination: the Hessian vanishes")
    res = _int_resultant(_split_in_lam(normalized), 3, _split_in_lam(hess), 3)
    if not any(res):
        raise ValueError("degenerate elimination: zero resultant")
    stripped = _strip_circle(res)
    if len(stripped) != 4:
        raise ValueError("elimination did not produce a binary cubic")
    c30, c21, c12, c03 = stripped
    if c12 != -3 * c30 or c21 != -3 * c03:
        raise ValueError("inflection cubic has a nonzero non-harmonic component")
    return stripped, _RESULTANT_SCALE * d


# ---------------------------------------------------------------------------
# The t1 tail: a net's determinant cubic to (alpha, beta)
# ---------------------------------------------------------------------------


def _primitive_terms(terms: dict) -> dict:
    """Nonzero int or Fraction terms as the primitive int terms of a
    positive rational multiple: cleared by the lcm of the denominators,
    divided by the content gcd."""
    den = lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    g = gcd(*ints.values())
    return {e: c // g for e, c in ints.items()}


def _node_to_origin(F: TernaryCubic, node: tuple[int, int, int]) -> TernaryCubic:
    if node == (1, 0, 0):
        return F  # the substitution below would be the identity
    pivot = max(range(3), key=lambda i: (abs(node[i]), -i))
    others = [i for i in range(3) if i != pivot]
    cols = [list(node)] + [
        [1 if i == j else 0 for i in range(3)] for j in others
    ]
    return F.substitute([[cols[j][i] for j in range(3)] for i in range(3)])


def _normalized_cone_terms(terms: dict) -> dict[int, int]:
    """A cubic packed in ``_CUBIC_PLACES`` with its tangent cone turned
    into A*(mu^2 + nu^2), as a primitive packed int cubic.

    F = lam*q(mu, nu) + c(mu, nu).  With the cone q = a mu^2 + b mu nu +
    c nu^2, a != 0, and w = p/q the rational square root of (4ac - b^2) /
    (4a^2), mu -> mu - b/(2aw) nu and nu -> nu/w take the cone to a(mu^2
    + nu^2).  w is found on the cone cleared to ints (the ratio does not
    change): 4ac - b^2 must be a positive integer square s^2, and w =
    s / (2|a|) in lowest terms.  Both images are scaled by 2ap, so the
    substitution is mu -> 2ap mu - bq nu, nu -> 2aq nu, applied to the
    binary forms q and c alone (``_binary_substitute``): lam stays fixed,
    the cone is multiplied by (2ap)^2 and c by (2ap)^3.  That multiplies
    the inflection cubic's alpha + beta*i by a rational scalar, which the
    cube classes quotient out, as they do the positive rational that the
    content gcd divides by.  A cone with a = 0 is c nu^2 + b mu nu, which
    is never definite: it raises at once.
    """
    a, b, c = _packed_cone(terms)
    if a == 0:
        if c == 0:
            raise ValueError("tangent cone is degenerate (no definite part)")
        raise ValueError("tangent cone is not equivalent to a multiple of mu^2+nu^2")
    den = lcm(a.denominator, b.denominator, c.denominator)
    a_int, b_int, c_int = (x.numerator * (den // x.denominator) for x in (a, b, c))
    disc = 4 * a_int * c_int - b_int * b_int
    root = isqrt(disc) if disc > 0 else 0
    if not root or root * root != disc:
        raise ValueError("tangent cone is not equivalent to a multiple of mu^2+nu^2")
    g = gcd(root, 2 * a_int)
    p, q = root // g, abs(2 * a_int) // g
    image = (2 * a * p, -b * q, 0, 2 * a * q)
    cubic = [terms.get(key, 0) for key in _CUBIC_PART_KEYS]
    normalized = {
        key: x
        for keys, form in ((_CONE_KEYS, [a, b, c]), (_CUBIC_PART_KEYS, cubic))
        for key, x in zip(keys, _binary_substitute(form, *image))
        if x
    }
    out = _primitive_terms(normalized)
    if not _is_circle_multiple(*_packed_cone(out)):
        raise CertificateError("cone normalization failed")
    return out


def _t1_alpha_beta(cubic: dict | None) -> tuple[int, int]:
    """(alpha, beta) of the inflection cubic of a nodal cubic packed in
    ``_CUBIC_PLACES`` (int or Fraction terms, None or empty for zero, as
    ``_net_det`` gives a net's determinant), as ints, up to a positive
    rational scalar, which the t1 cube classes quotient out.

    The cubic is divided by its content gcd, and that primitive int cubic
    runs through the tail: the node is read off its coefficients
    (``_family_locus``), the cone is normalized on its binary forms
    (``_normalized_cone_terms``) and the inflection cubic eliminated on
    ints (``_inflection_ints``).  Its int coefficients (c03, c30) are the
    answer: the scale 8 * d that ``inflection_lines`` divides by is
    positive, so no Fraction is built.  A cubic of another shape (a mixed
    net puts the node elsewhere) takes the general search of
    ``singular_points`` (``_searched_locus``) and ``_node_to_origin`` on a
    ``TernaryCubic`` before it rejoins the packed tail.
    """
    terms = _primitive_terms(cubic) if cubic else {}
    locus = _family_locus(terms)
    if locus is None:
        F = _packed_cubic(terms)
        locus = _searched_locus(F, terms)
    if not (locus.complete and len(locus.points) == 1):
        raise ValueError("expected exactly one rational node")
    if locus.points[0] != (1, 0, 0):  # found by the general search alone
        terms = _node_to_origin(F, locus.points[0])._packed()
    ints, _ = _inflection_ints(_normalized_cone_terms(terms))
    # _inflection_ints certified the harmonic shape, so alpha and beta
    # are c03 and c30
    return ints[3], ints[0]
