"""The three family invariants.

* t1: quotients of (S^3)^3 indexed by integers (b1, c1).  The degree-<=4
  ring data gives a net of quadrics, its determinant is a nodal cubic,
  and the inflection-line binary cubic yields alpha + beta*i whose class
  in Q(i)* mod cubes and rational scalars (together with its mirror) is
  the invariant.  Both the closed form alpha + beta*i = 4(a+b*i)^2 and
  the full pipeline through the ring are implemented; they agree.  The
  pipeline's tail, from the net's determinant to alpha and beta, is
  ``nodal._t1_alpha_beta``, which returns them as ints up to a positive
  scalar; this module takes their cube classes on those ints, so the
  pipeline builds no Fraction from the net to the classes.  The closed
  form runs on Fractions.

* t2: circle bundles over the Klein-cubic 6-manifold indexed by nonzero
  rationals (a0, a1).  The cup product induces a quadratic form on a
  4-dimensional space; the class of its determinant in Q*/(Q*)^2 is the
  invariant, equal to the class of -a0*a1.  Both read one int Gram
  matrix (``_klein_gram``): 3 T is 1 on the triples of
  ``biquotient._KLEIN_SUPPORT`` and 0 elsewhere, so clearing z gives
  ints.  ``t2_quadratic_form`` divides it back to Fractions;
  ``t2_det_class`` drops one row and column, and divides the int
  determinant by the square the clearing multiplied in before its class
  is taken.

* t3: circle bundles over the 8-manifold, indexed by nonzero (a, b, c).
  The squares of linear forms inside the degree-4 kernel system are
  x1^2, x2^2 and a conjugate pair cut out by a monic quadratic in t;
  the square class of its discriminant is the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .arith import (
    CertificateError,
    CubeClass,
    Gaussian,
    SquareClass,
    cube_class_mod_q,
    square_class,
)
from .biquotient import (
    _KLEIN_SUPPORT,
    KleinBundleInput,
    _dropped_index,
    klein_ring,
    quotient_ring,
    t1_action_matrix,
)
from .graded import QuadricSystem
from .nodal import _eliminants, _line_gcd, _net_det, _normalize_point, _t1_alpha_beta
from .poly import HomPoly, monomials
from .univar import (
    UPoly,
    bf_rational_proj_roots,
    bf_to_upoly,
    up_factor,
)


class DegenerateFamilyMember(ValueError):
    """A parameter choice the invariant explicitly excludes."""


# ---------------------------------------------------------------------------
# t1: the unordered pair of cube classes
# ---------------------------------------------------------------------------


def rotate_alpha_beta(alpha, beta, c, d) -> tuple[int | Fraction, int | Fraction]:
    """(alpha', beta') with alpha' + beta' i = (alpha + beta i)(c + d i)^3.

    This is how the identity component of the stabilizer of mu^2+nu^2
    acts on harmonic binary cubics.
    """
    if c == 0 and d == 0:
        raise ValueError("rotation parameters must not both vanish")
    out = Gaussian(alpha, beta) * Gaussian(c, d) ** 3
    return out.re, out.im


@dataclass(frozen=True)
class T1Invariant:
    """Unordered pair {class(alpha+beta i), class(beta+alpha i)}.

    The two members are conjugate classes of each other; serialization
    sorts them, so equal invariants have equal strings.
    """

    classes: tuple[CubeClass, CubeClass]

    @classmethod
    def from_alpha_beta(cls, alpha, beta) -> "T1Invariant":
        """The pair for rational alpha and beta, ints or Fractions; an int
        pair stays on ints through the cube classes."""
        z = Gaussian(alpha, beta)
        if not z:
            raise ValueError("alpha and beta must not both vanish")
        first = cube_class_mod_q(z)
        second = cube_class_mod_q(Gaussian(z.im, z.re))
        if second != first.conjugate():
            raise CertificateError("mirror class must be the conjugate")
        pair = sorted((first, second), key=lambda c: c.serialize())
        return cls((pair[0], pair[1]))

    def serialize(self) -> str:
        return "|".join(c.serialize() for c in self.classes)

    def __contains__(self, item: CubeClass) -> bool:
        return item in self.classes

    def __str__(self) -> str:
        return self.serialize()


def parse_t1_invariant(text: str) -> T1Invariant:
    from .arith import parse_cube_class

    left, _, right = text.partition("|")
    pair = (parse_cube_class(left), parse_cube_class(right))
    if [c.serialize() for c in pair] != sorted(c.serialize() for c in pair):
        raise ValueError("pair is not canonically sorted")
    if pair[1] != pair[0].conjugate():
        raise ValueError("the two classes are not conjugate")
    return T1Invariant(pair)


def t1_parameters(b1: int, c1: int) -> tuple[Fraction, Fraction]:
    """(a, b) = (c1/4, (2 b1 - c1)/4), so that b1 = 2(a+b) and c1 = 4a."""
    return Fraction(c1, 4), Fraction(2 * b1 - c1, 4)


def t1_relation_net(a, b) -> QuadricSystem:
    """The net spanned by x1^2, 2 x2(2(a+b) x1 + x2 + x3), x3(4a x1 + 2 x2 + x3)."""
    a, b = Fraction(a), Fraction(b)
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    q1 = x1 * x1
    q2 = (x2 * (x1.scale(2 * (a + b)) + x2 + x3)).scale(2)
    q3 = x3 * (x1.scale(4 * a) + x2.scale(2) + x3)
    return QuadricSystem.from_polys([q1, q2, q3])


def t1_invariant(b1: int, c1: int) -> T1Invariant:
    """Closed form: alpha + beta i = 4(a + b i)^2 with (a, b) = t1_parameters."""
    if b1 == 0 and c1 == 0:
        raise ValueError("(b1, c1) = (0, 0) is excluded")
    a, b = t1_parameters(b1, c1)
    value = Gaussian(a, b) ** 2 * 4
    return T1Invariant.from_alpha_beta(value.re, value.im)


def t1_invariant_from_net(net: QuadricSystem) -> T1Invariant:
    """The invariant of any net presenting a family degree-<=4 ring.

    determinant cubic -> node and tangent-cone normalization ->
    inflection-line cubic -> pair of cube classes.  The normalization
    freedom (choice of net basis, moving the node, the orthogonal
    stabilizer of the cone) acts through rational scalings, cubes, and
    conjugation, all of which the invariant quotients out, so any basis
    of the same net gives the same value.  So the net's integer
    determinant (``nodal._net_det``) runs through ``nodal._t1_alpha_beta``,
    which divides it by its content gcd (a positive rational multiple of
    the determinant cubic, which the cube classes quotient out too) and
    keeps one packed int cubic from the node to an int alpha and beta.
    """
    return T1Invariant.from_alpha_beta(*_t1_alpha_beta(_net_det(net)[0]))


def t1_invariant_pipeline(b1: int, c1: int) -> T1Invariant:
    """The invariant recomputed through the full ring machinery.

    quotient ring -> kernel net of quadrics -> t1_invariant_from_net.
    Every step is exact and the result equals the closed form.
    """
    if b1 == 0 and c1 == 0:
        raise ValueError("(b1, c1) = (0, 0) is excluded")
    ring = quotient_ring(t1_action_matrix(b1, c1))
    net = ring.kernel_of_square_map()
    if net.dim != 3:
        raise CertificateError("kernel net of the family ring must be 3-dimensional")
    return t1_invariant_from_net(net)


def t1_realize_class(w: Gaussian) -> tuple[int, int]:
    """Integers (b1, c1) whose invariant contains the class of w.

    w^2 is scaled by a positive integer to an integral a + b i; then
    b1 = 2(a+b) and c1 = 4a, and 4(a+bi)^2 = 4 D^2 w^4 has the class of
    w (rational scalars and cubes drop out).
    """
    if not w:
        raise ValueError("witness must be nonzero")
    w2 = w * w
    scale = lcm(w2.re.denominator, w2.im.denominator)
    g = w2 * Gaussian(scale, 0)
    a, b = int(g.re), int(g.im)
    return 2 * (a + b), 4 * a


# ---------------------------------------------------------------------------
# t2: determinant class of the cup-product form
# ---------------------------------------------------------------------------


def t2_quadratic_form(a0, a1) -> tuple[tuple[Fraction, ...], ...]:
    """Gram matrix of (u, v) -> T(u, v, z) on the Klein ring's H^2.

    Equals the displayed band matrix with rows built from a0, a1 and
    a2 = a0^2/a1, up to one global constant (1/3 from polarization).
    """
    gram, scale = _klein_gram(klein_ring(a0, a1))
    return tuple(tuple(Fraction(x, scale) for x in row) for row in gram)


def _klein_gram(bundle: KleinBundleInput) -> tuple[list[list[int]], int]:
    """(G, 3 lam): with z cleared by the lcm lam of its denominators, G is
    the int matrix 3 lam (T(e_i, e_j, z)), the sum of z_l lam over the
    triples (i, j, l) of ``_KLEIN_SUPPORT``."""
    z, lam = linalg._integer_row(bundle.z)
    gram = [[0] * 5 for _ in range(5)]
    for i, j, l in _KLEIN_SUPPORT:
        if l in z:
            gram[i][j] += z[l]
    return gram, 3 * lam


def t2_det_class(a0, a1) -> SquareClass:
    """Square class of the determinant of the form induced on V/<y>.

    The complement of y drops y's highest pivot coordinate; the class
    does not depend on that choice, and equals square_class(-a0*a1).
    The induced form is the int Gram G of ``_klein_gram`` without that
    row and column, so its determinant is (3 lam)^4 times the induced
    form's; it is divided by that square before ``square_class``.
    """
    bundle = klein_ring(a0, a1)
    gram, scale = _klein_gram(bundle)
    y = list(bundle.y)
    y_int = linalg._integer_row(y)[0].items()
    if any(sum(row[s] * x for s, x in y_int) for row in gram):
        raise CertificateError("y must lie in the radical")
    drop = _dropped_index(y)
    induced = [
        [x for s, x in enumerate(row) if s != drop]
        for r, row in enumerate(gram)
        if r != drop
    ]
    d = linalg.det(induced)
    if d == 0:
        raise ValueError("induced form is degenerate")
    return square_class(d / scale**4)


# ---------------------------------------------------------------------------
# t3: squares of linear forms in the kernel system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonicQuadratic:
    """t^2 + p1*t + p0 with exact rational coefficients."""

    p1: Fraction
    p0: Fraction

    def discriminant(self) -> Fraction:
        return self.p1 * self.p1 - 4 * self.p0

    def evaluate(self, t) -> Fraction:
        t = Fraction(t)
        return t * t + self.p1 * t + self.p0

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p0, self.p1, Fraction(1))

    def __str__(self) -> str:
        return f"t^2 + ({self.p1})*t + ({self.p0})"


# Parameter-free parts of the t3 reduction, written as data so that the
# import builds nothing through HomPoly arithmetic or QuotientSpace: the
# degree-2 monomials with their index, x1 x2, 2 x3, the coefficient row of
# x3^2 and the span of the fixed quadrics x1^2, x2^2, x3^2 - x1 x2 as its
# echelon (each row under its largest column).  t3_kernel_system builds
# the same system on its own, as the reference the tests hold these
# constants to.
_T3_MONOS = monomials(3, 2)
_T3_INDEX = {m: i for i, m in enumerate(_T3_MONOS)}
_X1X2 = HomPoly._trusted(3, 2, {(1, 1, 0): 1})
_TWO_X3 = HomPoly._trusted(3, 1, {(0, 0, 1): 2})
_X3_SQUARED = {_T3_INDEX[0, 0, 2]: Fraction(1)}
_T3_FIXED_SPAN = linalg.QuotientSpace._trusted(len(_T3_MONOS), {
    _T3_INDEX[2, 0, 0]: {_T3_INDEX[2, 0, 0]: 1},
    _T3_INDEX[0, 2, 0]: {_T3_INDEX[0, 2, 0]: 1},
    _T3_INDEX[0, 0, 2]: {_T3_INDEX[0, 0, 2]: 1, _T3_INDEX[1, 1, 0]: -1},
})


def _t3_vector(p: HomPoly) -> dict[int, int | Fraction]:
    return {_T3_INDEX[e]: coeff for e, coeff in p.coeffs.items()}


def t3_kernel_system(a, b, c) -> QuadricSystem:
    """span(x1^2, x2^2, x3^2 - x1 x2, (a x1 + b x2 + c x3)^2 - x1 x2)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 or b == 0 or c == 0:
        raise ValueError("parameters must be nonzero")
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    ell = x1.scale(a) + x2.scale(b) + x3.scale(c)
    return QuadricSystem.from_polys(
        [x1 * x1, x2 * x2, x3 * x3 - x1 * x2, ell * ell - x1 * x2]
    )


def _t3_parameter_row(a: Fraction, b: Fraction, c: Fraction) -> dict[int, Fraction]:
    """Coefficient row of the one parameter-dependent quadric of
    ``t3_kernel_system(a, b, c)``; ``_T3_FIXED_SPAN`` spans the others."""
    if a == 0 or b == 0 or c == 0:
        raise ValueError("parameters must be nonzero")
    ell = HomPoly.linear([a, b, c])
    return _t3_vector(ell * ell - _X1X2)


def t3_membership_quadratic(a, b, c) -> MonicQuadratic:
    """The monic quadratic whose roots t put (a x1 + b x2 + t x3)^2 in the system.

    Derived by exact reduction of the square against the kernel system;
    the reduction lands on a multiple of the class of x1 x2, giving
    t^2 + (1/c)(-c^2 - 2ab + 1) t + 2ab.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    # quotient basis (lex-first): expect the classes of x1 x2 and x1 x3
    quotient = linalg.QuotientSpace(
        len(_T3_MONOS), [_t3_parameter_row(a, b, c)], base=_T3_FIXED_SPAN
    )
    if [_T3_MONOS[i] for i in quotient.basis_indices] != [(1, 1, 0), (1, 0, 1)]:
        raise CertificateError("unexpected quotient basis for the kernel system")
    base = HomPoly.linear([a, b, 0])
    parts = [
        _t3_vector(base * base),                           # t^0
        _t3_vector(base * _TWO_X3),                        # t^1
        _X3_SQUARED,                                       # t^2
    ]
    coords = [quotient.coords(v) for v in parts]
    if any(co[1] != 0 for co in coords):
        raise CertificateError("reduction must kill the x1*x3 class")
    if coords[2][0] != 1:
        raise CertificateError("x3^2 must reduce to exactly the class of x1*x2")
    return MonicQuadratic(coords[1][0], coords[0][0])


def t3_discriminant_class(a, b, c) -> SquareClass:
    """Square class of the membership quadratic's discriminant.

    Raises DegenerateFamilyMember when the discriminant vanishes (the
    excluded degenerate members with 2ab = (c +- 1)^2).
    """
    quad = t3_membership_quadratic(a, b, c)
    delta = quad.discriminant()
    if delta == 0:
        raise DegenerateFamilyMember(
            f"discriminant vanishes at (a, b, c) = ({a}, {b}, {c})"
        )
    return square_class(delta)


# ---------------------------------------------------------------------------
# rank-one classification of a quadric system on a 3-space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankOneOrbit:
    """A conjugate pair of rank-one members on a rational line.

    The line is parametrized as base + t * direction; min_poly is the
    monic quadratic in t cutting out the pair.  Both points are primitive
    integer points, or, for a hinted line, the hint's rational points
    given exactly (as Fractions).
    """

    min_poly: MonicQuadratic
    base: tuple[Fraction | int, Fraction | int, Fraction | int]
    direction: tuple[Fraction | int, Fraction | int, Fraction | int]


@dataclass(frozen=True)
class RankOneClassification:
    """Squares of linear forms lying in a linear system of quadrics."""

    rational: tuple[tuple[int, int, int], ...]
    orbits: tuple[RankOneOrbit, ...]
    degenerate_lines: tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degenerate_lines)


class _Quad:
    """a + b*theta in Q[theta]/(theta^2 + g1*theta + g0), g = (g1, g0).

    Mixes with ints and Fractions, so the polynomial helpers of ``univar``
    and ``nodal`` run over the extension unchanged.
    """

    __slots__ = ("a", "b", "g")

    def __init__(self, a, b, g):
        self.a, self.b, self.g = a, b, g

    def __add__(self, y):
        if isinstance(y, _Quad):
            return _Quad(self.a + y.a, self.b + y.b, self.g)
        return _Quad(self.a + y, self.b, self.g)

    __radd__ = __add__

    def __neg__(self):
        return _Quad(-self.a, -self.b, self.g)

    def __sub__(self, y):
        return self + -y

    def __rsub__(self, y):
        return -self + y

    def __mul__(self, y):
        if not isinstance(y, _Quad):
            return _Quad(self.a * y, self.b * y, self.g)
        # theta^2 = -g1*theta - g0
        g1, g0 = self.g
        cross = self.b * y.b
        return _Quad(
            self.a * y.a - cross * g0, self.a * y.b + self.b * y.a - cross * g1, self.g
        )

    __rmul__ = __mul__

    def __truediv__(self, y):
        return self * (Fraction(1) / y)

    def __rtruediv__(self, y):
        # 1 / (a + b*theta) = (a - g1*b - b*theta) / (a^2 - g1*a*b + g0*b^2)
        a, b = self.a, self.b
        g1, g0 = self.g
        norm = a * a - g1 * a * b + g0 * b * b
        return _Quad((a - g1 * b) / norm, -b / norm, self.g) * y

    def __pow__(self, n: int):
        out = self if n else _Quad(Fraction(1), Fraction(0), self.g)
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, y):
        if isinstance(y, _Quad):
            return self.a == y.a and self.b == y.b
        return self.b == 0 and self.a == y


def rank_one_elements(
    system: QuadricSystem,
    line_hint: tuple[Sequence, Sequence] | None = None,
) -> RankOneClassification:
    """Classify the squares of linear forms contained in the system.

    Membership of l*l is cut out by the annihilator conics of the span.
    Rational solutions come from exact elimination.  For an irreducible
    quadratic factor of the eliminant with root theta, the conics' gcd on
    the line (lam, theta, 1) is taken over Q(theta) by the same
    ``nodal._line_gcd`` as the rational lines; its root must be a common
    zero (a ``CertificateError`` otherwise).  Each conjugate pair is
    reported by the monic minimal polynomial of the parameter along its
    rational line.
    ``line_hint = (base, direction)`` fixes that parametrization when it
    spans an orbit's line (the family pipeline passes (a, b, 0) and
    (0, 0, 1), reproducing the membership quadratic literally); without
    a hint the line is parametrized from its primitive trace points.
    A line of squares is reported in ``degenerate_lines`` as two integer
    points spanning it, which also join ``rational``: a line through
    [1, 0, 0] on which every conic vanishes, or a line L = 0 dividing
    every conic (then every eliminant vanishes, and the common zero of
    the cofactors conic / L, if any, is rational too).
    """
    if system.ambient_dim != 3:
        raise ValueError("rank-one classification needs quadrics on a 3-space")
    if not 2 <= 6 - system.dim <= 3:
        raise ValueError("system dimension must be 3 or 4")
    flat = [QuadricSystem._flatten(g) for g in system.basis]
    # phi pairs with the Gram entries (g00, g01, g02, g11, g12, g22) and the
    # square l*l has Gram l_i l_j, so phi is the conic on monomials(3, 2)
    conics = [
        HomPoly(3, 2, zip(monomials(3, 2), phi))
        for phi in linalg.kernel_basis(flat, 6)
    ]

    rational: set[tuple[int, int, int]] = set()
    orbits: list[RankOneOrbit] = []
    degenerate: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []

    # the direction (1, 0, 0) escapes the elimination chart
    if all(p.coefficient((2, 0, 0)) == 0 for p in conics):
        rational.add((1, 0, 0))

    eliminant = next(_eliminants(conics), None)
    if eliminant is None:
        # every pair of conics shares a factor: the squares fill a line
        line, members = _common_line(conics)
        return RankOneClassification(_verified(rational | members, system), (), (line,))

    # rational directions (v0 : w0)
    for v0, w0 in bf_rational_proj_roots(eliminant):
        common = _line_gcd(conics, v0, w0)
        if common is None:
            # every conic vanishes on the whole line: positive-dimensional
            base = _normalize_point([Fraction(0), Fraction(v0), Fraction(w0)])
            degenerate.append((base, (1, 0, 0)))
            rational.add(base)
            continue
        for fac, _mult in up_factor(common)[1]:
            if len(fac) == 2:
                rational.add(_normalize_point([-fac[0], Fraction(v0), Fraction(w0)]))
            else:  # a conjugate pair along the vertical line (t, v0, w0)
                orbits.append(_vertical_orbit(fac, v0, w0, line_hint))

    # conjugate directions: irreducible quadratic factors of the eliminant
    _, factors = up_factor(bf_to_upoly(eliminant))
    for fac, _mult in factors:
        if len(fac) > 3:
            raise NotImplementedError(
                "rank-one orbits of degree > 2 are out of scope"
            )
        if len(fac) != 3:
            continue
        orbit = _quadratic_orbit(fac, conics, line_hint)
        if orbit is not None:
            orbits.append(orbit)

    return RankOneClassification(
        _verified(rational, system), tuple(orbits), tuple(degenerate)
    )


def _verified(points, system: QuadricSystem) -> tuple[tuple[int, int, int], ...]:
    """The points whose squares lie in the system, sorted."""
    squares = {pt: [[x * y for y in pt] for x in pt] for pt in points}
    return tuple(sorted(pt for pt, gram in squares.items() if system.contains(gram)))


def _common_line(conics: list[HomPoly]):
    """The line L = 0 dividing every conic, as two primitive integer points
    spanning it, and the rational members: those points and the common
    zero of the cofactors conic / L, when they have one.

    The shape handled is a rational L with L(1, 0, 0) != 0: on each line
    (lam, mu, nu) through [1, 0, 0] the conics' gcd in lam is then the
    linear factor at L's point, except on the one direction through the
    cofactors' common zero, so two of (1 : 0), (0 : 1), (1 : 1) give two
    points of L.  Any other shape raises ValueError.
    """
    points = []
    for mu, nu in ((1, 0), (0, 1), (1, 1)):
        common = _line_gcd(conics, mu, nu)
        if common is not None and len(common) == 2:
            points.append(_normalize_point([-common[0], Fraction(mu), Fraction(nu)]))
    if len(points) < 2:
        raise ValueError("every eliminant vanishes, but no common line avoids [1,0,0]")
    points = points[:2]
    [ell] = linalg.kernel_basis(points, 3)
    # conic = L * M is linear in M: column j holds the coefficients of L * x_j
    products = [HomPoly.linear(ell) * HomPoly.variable(3, j) for j in range(3)]
    monos = monomials(3, 2)
    rows = [[p.coefficient(m) for p in products] for m in monos]
    cofactors = [linalg.solve(rows, [q.coefficient(m) for m in monos]) for q in conics]
    if None in cofactors:
        raise ValueError("every eliminant vanishes, but no line divides every conic")
    zeros = linalg.kernel_basis(cofactors, 3)
    members = {*points, *(_normalize_point(z) for z in zeros if len(zeros) == 1)}
    return (points[0], points[1]), members


def _minpoly_from_mobius(
    g1: Fraction,
    g0: Fraction,
    num: tuple[Fraction, Fraction],
    den: tuple[Fraction, Fraction],
) -> MonicQuadratic:
    """Monic minimal polynomial of t when theta = (A t + B)/(C t + D).

    (g1, g0) are the coefficients of theta's monic minimal polynomial
    theta^2 + g1 theta + g0; num = (A, B), den = (C, D).
    """
    A, B = num
    C, D = den
    # (C t + D)^2 * g((At+B)/(Ct+D)) collected in t
    c2 = A * A + g1 * A * C + g0 * C * C
    c1 = 2 * A * B + g1 * (A * D + B * C) + 2 * g0 * C * D
    c0 = B * B + g1 * B * D + g0 * D * D
    if c2 == 0:
        raise ValueError("parametrization sends one conjugate point to infinity")
    return MonicQuadratic(c1 / c2, c0 / c2)


def _quadratic_orbit(fac: UPoly, conics, line_hint) -> RankOneOrbit | None:
    """Verify and package an orbit over Q[theta]/(theta^2 + g1 theta + g0).

    theta is the v-coordinate in the chart w = 1.  Returns None when the
    eliminant factor does not correspond to actual common solutions of
    all the conics.
    """
    g1, g0 = fac[1], fac[0]
    theta = _Quad(Fraction(0), Fraction(1), (g1, g0))
    common = _line_gcd(conics, theta, 1)
    if common is None or len(common) <= 1:
        return None
    if len(common) > 2:
        raise NotImplementedError("conjugate pairs of whole lines are out of scope")
    u = -common[0] / common[1]
    for p in conics:
        if sum(c * u ** e[0] * theta ** e[1] for e, c in p.coeffs.items()) != 0:
            raise CertificateError("the conjugate point is not a zero of every conic")
    # u = u.a + u.b*theta, so the solutions are B + theta*D below
    B = [u.a, Fraction(0), Fraction(1)]
    D = [u.b, Fraction(1), Fraction(0)]
    # canonical: base = primitive trace on {w = 0} (that is D), direction
    # = primitive rep of B
    return _orbit(g1, g0, B, D, (_normalize_point(D), _normalize_point(B)), line_hint)


def _vertical_orbit(minpoly: UPoly, v0: int, w0: int, line_hint) -> RankOneOrbit:
    """A conjugate pair sharing one rational direction (v0 : w0).

    The solutions are (u, v0, w0) with u running over the roots of the
    monic quadratic ``minpoly``.
    """
    B = [Fraction(0), Fraction(v0), Fraction(w0)]
    D = [Fraction(1), Fraction(0), Fraction(0)]
    g1, g0 = minpoly[1] / minpoly[2], minpoly[0] / minpoly[2]
    return _orbit(g1, g0, B, D, (_normalize_point(B), (1, 0, 0)), line_hint)


def _orbit(g1, g0, B, D, canonical, line_hint) -> RankOneOrbit:
    """The conjugate pair B + theta*D, theta^2 + g1 theta + g0 = 0, as
    base + t*direction.

    (base, direction) is the hint when it spans the line of B and D, and
    the ``canonical`` pair otherwise.  With B = xb*base + yb*direction and
    D = xd*base + yd*direction, the point B + theta*D is base + t*direction
    for theta = (xb*t - yb)/(yd - xd*t).
    """
    base, direction = canonical
    if line_hint is not None:
        hint = [tuple(Fraction(x) for x in point) for point in line_hint]
        if linalg.QuotientSpace(3, [B, D]).same_span(linalg.QuotientSpace(3, hint)):
            base, direction = hint
    rows = [list(row) for row in zip(base, direction)]
    xb, yb = linalg.solve(rows, B)
    xd, yd = linalg.solve(rows, D)
    min_poly = _minpoly_from_mobius(g1, g0, (xb, -yb), (-xd, yd))
    return RankOneOrbit(min_poly, base, direction)
