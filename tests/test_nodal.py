import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from biquo.biquotient import quotient_ring, t1_action_matrix
from biquo.graded import QuadricSystem, _pairs
from biquo.invariants import t1_parameters, t1_relation_net
from biquo import nodal
from biquo.nodal import (
    BinaryCubic,
    BinaryQuadratic,
    SingularLocus,
    TernaryCubic,
    det_cubic,
    inflection_lines,
    resultant_in_var,
    singular_points,
    tangent_cone,
)
from biquo.oracles import inflection_residual
from biquo.poly import HomPoly, _coerce, _pack, _places, _ratio, monomials
from biquo.univar import up_divmod, up_trim


def family_cubic(alpha, beta):
    return TernaryCubic.from_coefficients(
        {(1, 2, 0): -1, (1, 0, 2): -1, (0, 2, 1): alpha, (0, 1, 2): beta}
    )


def pencil_det_at(net, lam, mu, nu):
    # independent oracle: evaluate the pencil and take a bare 3x3 determinant
    m = [
        [
            lam * net.basis[0][i][j] + mu * net.basis[1][i][j] + nu * net.basis[2][i][j]
            for j in range(3)
        ]
        for i in range(3)
    ]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_det_cubic_matches_pencil_on_grid():
    # degree bounds: <= 1 in lam, <= 3 in mu, nu; a 2 x 4 x 4 grid decides equality
    rng = random.Random(0)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        net = t1_relation_net(a, b)
        cubic = det_cubic(net)
        for lam, mu, nu in itertools.product(range(2), range(4), range(4)):
            assert cubic.evaluate([lam, mu, nu]) == pencil_det_at(net, lam, mu, nu)


def test_det_cubic_displayed_formula():
    rng = random.Random(1)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert det_cubic(t1_relation_net(a, b)) == family_cubic(
            4 * (a * a - b * b), 8 * a * b
        )


def test_det_cubic_diagonal_net():
    def diag(*d):
        return tuple(
            tuple(Fraction(d[i]) if i == j else Fraction(0) for j in range(3))
            for i in range(3)
        )

    net = QuadricSystem(3, (diag(1, 0, 0), diag(0, 1, 0), diag(0, 0, 1)))
    assert det_cubic(net) == TernaryCubic.from_coefficients({(1, 1, 1): 1})


def test_det_cubic_coordinate_scaling():
    # replacing coordinates x -> P x multiplies the cubic by det(P)^2
    from biquo import linalg

    rng = random.Random(2)
    for _ in range(50):
        a = Fraction(rng.randint(-5, 5))
        b = Fraction(rng.randint(-5, 5))
        net = t1_relation_net(a, b)
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            dP = linalg.det(P)
            if dP != 0:
                break
        moved = QuadricSystem(
            3,
            tuple(
                tuple(
                    tuple(
                        sum(
                            P[i][k] * g[k][l] * P[j][l]
                            for k in range(3)
                            for l in range(3)
                        )
                        for j in range(3)
                    )
                    for i in range(3)
                )
                for g in net.basis
            ),
        )
        assert det_cubic(moved) == det_cubic(net).scale(dP * dP)


def test_det_cubic_basis_change_scales_by_det():
    # a new net basis M * (old basis) changes the cubic by the linear
    # substitution M^T on (lam, mu, nu); evaluation on a grid checks it
    from biquo import linalg

    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(-5, 5))
        b = Fraction(rng.randint(-5, 5))
        if a == 0 and b == 0:
            continue
        net = t1_relation_net(a, b)
        while True:
            M = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            if linalg.det(M) != 0:
                break
        mixed = QuadricSystem(
            3,
            tuple(
                tuple(
                    tuple(
                        sum(M[r][k] * net.basis[k][i][j] for k in range(3))
                        for j in range(3)
                    )
                    for i in range(3)
                )
                for r in range(3)
            ),
        )
        F1, F2 = det_cubic(net), det_cubic(mixed)
        Mt = [[M[j][i] for j in range(3)] for i in range(3)]
        assert F2 == F1.substitute(Mt)


def test_degenerate_nets_give_the_zero_cubic():
    # both nets have rank <= 2 Gram matrices; only the second has a
    # nonzero permutation product (which cancels)
    from biquo.invariants import t1_invariant_from_net

    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    for a, b in ((x2, x3), (x1 - x2, x3)):
        net = QuadricSystem.from_polys([a * a, b * b, a * b])
        F = det_cubic(net)
        assert F == TernaryCubic(HomPoly.zero(3, 3)) and F.is_zero()
        with pytest.raises(ValueError, match="the zero cubic is singular everywhere"):
            t1_invariant_from_net(net)
    # a Hessian with no nonzero permutation product is the zero cubic too
    assert TernaryCubic.from_coefficients({(3, 0, 0): 1}).hessian().is_zero()


def test_singular_points_family():
    locus = singular_points(family_cubic(4, 0))
    assert locus.points == ((1, 0, 0),)
    assert locus.complete and locus.method == "family-closed-form"


def test_singular_points_smooth_fermat():
    fermat = TernaryCubic.from_coefficients({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    locus = singular_points(fermat)
    assert locus.points == () and locus.complete


def test_singular_points_triangle():
    locus = singular_points(TernaryCubic.from_coefficients({(1, 1, 1): 1}))
    assert set(locus.points) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert locus.complete


def test_singular_points_split_cone_takes_the_elimination():
    # lam (mu^2 - nu^2) has the node shape, but its cone splits over Q, so
    # the closed form does not apply: the lines meet in two more points
    locus = singular_points(TernaryCubic.from_coefficients({(1, 2, 0): 1, (1, 0, 2): -1}))
    assert locus == SingularLocus(
        ((0, 1, -1), (0, 1, 1), (1, 0, 0)), True, "resultant-elimination"
    )


def test_singular_points_bounded_search_on_a_singular_line():
    # lam^2 mu is singular along lam = 0, so every eliminant vanishes and
    # only the directions of height <= 2 are searched
    locus = singular_points(
        TernaryCubic.from_coefficients({(2, 1, 0): 1}), search_height=2
    )
    assert locus.method == "bounded-search" and not locus.complete
    assert locus.points == (
        (0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0),
        (0, 1, 1), (0, 1, 2), (0, 2, -1), (0, 2, 1),
    )


def test_singular_points_lam_free_pair_of_partials():
    # -2 lam^3 + mu^2 nu: the partials 2 mu nu and mu^2 both lack lam, so
    # their resultant in lam is the constant 1; their gcd mu finds the cusp
    locus = singular_points(TernaryCubic.from_coefficients({(3, 0, 0): -2, (0, 2, 1): 1}))
    assert locus.points == ((0, 0, 1),) and locus.complete
    # mu^3 - mu^2 nu is singular along the whole line mu = 0
    locus = singular_points(TernaryCubic.from_coefficients({(0, 3, 0): 1, (0, 2, 1): -1}))
    assert locus.points == ((1, 0, 0),) and not locus.complete


def _random_form(rng, weight, free_of=None):
    # sparse integer coefficients; free_of drops every monomial in that variable
    terms = {
        e: rng.randint(-4, 4)
        for e in monomials(3, weight)
        if (free_of is None or e[free_of] == 0) and rng.random() < 0.6
    }
    return HomPoly(3, weight, terms)


def test_resultant_in_var_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:3")

    def to_expr(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator)
            * xs[0] ** e[0] * xs[1] ** e[1] * xs[2] ** e[2]
            for e, c in p.coeffs.items()
        )

    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        var = rng.randrange(3)
        f = _random_form(rng, rng.randint(1, 3), var if rng.random() < 0.3 else None)
        g = _random_form(rng, rng.randint(1, 3), var if rng.random() < 0.3 else None)
        if f.is_zero() or g.is_zero():
            continue
        s, t = (xs[i] for i in range(3) if i != var)
        form = resultant_in_var(f, g, var)
        got = sum(
            sympy.Rational(c.numerator, c.denominator) * s ** (len(form) - 1 - k) * t**k
            for k, c in enumerate(form)
        )
        # sympy 1.14 returns Res(g, f) when deg f < deg g, so it is only
        # asked with the higher degree first: Res(f, g) = (-1)^(df dg) Res(g, f)
        df, dg = (max(e[var] for e in p.coeffs) for p in (f, g))
        if df >= dg:
            want = sympy.resultant(to_expr(f), to_expr(g), xs[var])
        else:
            want = (-1) ** (df * dg) * sympy.resultant(to_expr(g), to_expr(f), xs[var])
        assert sympy.expand(got - want) == 0, (f, g, var)
        checked += 1
    assert checked > 80


def test_singular_points_rejects_zero():
    with pytest.raises(ValueError):
        singular_points(TernaryCubic.from_coefficients({}))


def test_tangent_cone_examples():
    assert tangent_cone(family_cubic(3, 5)) == BinaryQuadratic(
        Fraction(-1), Fraction(0), Fraction(-1)
    )
    F = TernaryCubic.from_coefficients({(1, 2, 0): 1, (1, 0, 2): -1, (0, 3, 0): 1})
    assert tangent_cone(F) == BinaryQuadratic(Fraction(1), Fraction(0), Fraction(-1))
    assert tangent_cone(TernaryCubic.from_coefficients({(1, 1, 1): 1})) == (
        BinaryQuadratic(Fraction(0), Fraction(1), Fraction(0))
    )


def test_tangent_cone_rejects_bad_shape():
    with pytest.raises(ValueError):
        tangent_cone(TernaryCubic.from_coefficients({(3, 0, 0): 1}))


def test_inflection_lines_displayed_formula():
    rng = random.Random(4)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        alpha, beta = 4 * (a * a - b * b), 8 * a * b
        assert inflection_lines(family_cubic(alpha, beta)) == BinaryCubic.harmonic(
            alpha, beta
        )


def test_inflection_lines_alpha_one_beta_zero():
    cubic = inflection_lines(family_cubic(1, 0))
    assert cubic.coefficients() == (0, -3, 0, 1)  # -3 mu^2 nu + nu^3


def test_inflection_lines_numeric_oracle():
    rng = random.Random(5)
    for _ in range(10):
        alpha = Fraction(rng.randint(-9, 9))
        beta = Fraction(rng.randint(-9, 9))
        if alpha == 0 and beta == 0:
            continue
        F = family_cubic(alpha, beta)
        assert inflection_residual(F, inflection_lines(F)) < 1e-9


def test_inflection_lines_translation_invariance():
    # adding (mu^2+nu^2)*(p mu + q nu) moves the cubic inside its
    # lam-translation orbit and must not change the inflection lines
    from biquo.poly import HomPoly

    rng = random.Random(6)
    for _ in range(10):
        alpha = Fraction(rng.randint(-9, 9))
        beta = Fraction(rng.randint(-9, 9))
        if alpha == 0 and beta == 0:
            continue
        p, q = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        extra = HomPoly(3, 3, {(0, 3, 0): p, (0, 2, 1): q, (0, 1, 2): p, (0, 0, 3): q})
        shifted = TernaryCubic(family_cubic(alpha, beta).poly + extra)
        assert inflection_lines(shifted) == BinaryCubic.harmonic(alpha, beta)


def test_inflection_lines_requires_circle_cone():
    with pytest.raises(ValueError) as info:
        inflection_lines(
            TernaryCubic.from_coefficients({(1, 2, 0): 1, (0, 0, 3): 1})
        )
    assert str(info.value) == "tangent cone is not a multiple of mu^2+nu^2"


def test_harmonic_consistency_enforced():
    cubic = BinaryCubic(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    assert not cubic.is_harmonic()
    with pytest.raises(ValueError):
        _ = cubic.alpha


def test_rotation_law_against_complex_multiplication():
    from biquo.arith import Gaussian

    rng = random.Random(7)
    for _ in range(50):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if (alpha == 0 and beta == 0) or (c == 0 and d == 0):
            continue
        rotated = BinaryCubic.harmonic(alpha, beta).rotate(c, d)
        want = Gaussian(alpha, beta) * Gaussian(c, d) ** 3
        assert (rotated.alpha, rotated.beta) == (want.re, want.im)


def test_rotation_rejects_zero():
    with pytest.raises(ValueError):
        BinaryCubic.harmonic(1, 0).rotate(0, 0)


def test_swap_exchanges_alpha_beta():
    cubic = BinaryCubic.harmonic(Fraction(2), Fraction(-7))
    swapped = cubic.swapped()
    assert (swapped.alpha, swapped.beta) == (Fraction(-7), Fraction(2))


# -- inflection_lines against the Fraction route -------------------------------


def _fraction_inflection_lines(F):
    """The Fraction route: partials and a cofactor determinant for the
    Hessian, the resultant, (mu^2+nu^2) divided out with up_divmod until it
    fails, the harmonic split, and a division of alpha and beta by 8."""
    if not tangent_cone(F).is_multiple_of_circle():
        raise ValueError("tangent cone is not a multiple of mu^2+nu^2")
    terms = {e: Fraction(c) for e, c in F.poly.coeffs.items() if e[0] == 0}
    terms[1, 2, 0] = terms[1, 0, 2] = Fraction(-1)
    normalized = HomPoly(3, 3, terms)
    first = [normalized.partial(i) for i in range(3)]
    hess = _poly_det([[d.partial(j) for j in range(3)] for d in first])
    if hess.is_zero():
        raise ValueError("degenerate elimination: the Hessian vanishes")
    form = [Fraction(c) for c in resultant_in_var(normalized, hess, 0)]
    if not any(form):
        raise ValueError("degenerate elimination: zero resultant")
    circle = [Fraction(1), Fraction(0), Fraction(1)]
    while len(form) >= 3:
        # the division at t = 1, padded in front where top powers of s vanish
        quot, rem = up_divmod(up_trim(form[::-1]), circle)
        if rem:
            break
        form = [Fraction(0)] * (len(form) - 2 - len(quot)) + quot[::-1]
    if len(form) != 4:
        raise ValueError("elimination did not produce a binary cubic")
    c30, c21, c12, c03 = form
    beta, alpha = (c30 - c12) / 4, (c03 - c21) / 4
    if c30 - beta != 0 or c03 - alpha != 0:
        raise ValueError("inflection cubic has a nonzero non-harmonic component")
    return BinaryCubic.harmonic(alpha / 8, beta / 8)


def _outcome(route, F):
    try:
        return route(F)
    except ValueError as exc:
        return str(exc)


def test_inflection_lines_matches_the_fraction_route():
    # cone s*lam*(mu^2+nu^2) with a Fraction scale s, any lam-free cubic
    # part, then a lam-shift lam -> lam + a*mu + b*nu
    rng = random.Random(29)

    def rational():
        return Fraction(rng.choice((0, 1, -1, 2, -3, 5, 7, -12)), rng.choice((1, 1, 2, 3, 4, 9, 16)))

    cases = answered = 0
    while cases < 240:
        scale = rational()
        if scale == 0:
            continue
        terms = {(1, 2, 0): scale, (1, 0, 2): scale}
        for e in ((0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)):
            terms[e] = rational()
        a, b = rational(), rational()
        F = TernaryCubic(HomPoly(3, 3, terms).substitute([[1, a, b], [0, 1, 0], [0, 0, 1]]))
        got, want = _outcome(inflection_lines, F), _outcome(_fraction_inflection_lines, F)
        assert got == want, F
        answered += isinstance(got, BinaryCubic)
        cases += 1
    assert answered >= 200


def test_inflection_lines_error_messages(monkeypatch):
    def raises(message, F=family_cubic(2, 3)):
        with pytest.raises(ValueError) as info:
            inflection_lines(F)
        assert str(info.value) == message

    raises("degenerate elimination: zero resultant", family_cubic(0, 0))
    # a circle cone gives a Hessian with lam-part 8*lam*(mu^2+nu^2) and a
    # harmonic cubic after one strip, so the other failures are reached by
    # replacing the integer resultant core or the Hessian
    resultant = nodal._int_resultant
    forms = {
        # (mu^2+nu^2) * mu^3, a non-harmonic cubic
        "inflection cubic has a nonzero non-harmonic component": [1, 0, 1, 0, 0, 0],
        # mu^2, which (mu^2+nu^2) does not divide
        "elimination did not produce a binary cubic": [1, 0, 0],
    }
    for message, form in forms.items():
        monkeypatch.setattr(nodal, "_int_resultant", lambda *_, form=form: form)
        raises(message)
    monkeypatch.setattr(nodal, "_int_resultant", resultant)
    # a determinant with no nonzero permutation product, and one whose
    # products cancel
    for det in (None, {}):
        monkeypatch.setattr(nodal, "_int_hessian", lambda terms, det=det: det)
        raises("degenerate elimination: the Hessian vanishes")


def test_hessian_matches_sympy():
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("lam mu nu")

    def to_expr(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([x**k for x, k in zip(xs, e)])
                for e, c in p.coeffs.items()
            ),
            sympy.Integer(0),
        )

    rng = random.Random(31)
    pools = (
        (0, 0, 1, -1, 2, -3, 5),
        (0, 0, Fraction(1, 2), Fraction(-2, 3), 1, -4, Fraction(7, 5)),
    )
    line = HomPoly.linear([1, Fraction(1, 2), -2])
    cubic_of_a_line = (line * line * line).coeffs
    cubics = [
        # cubics in one and in two variables have no nonzero permutation
        # product; the cube of a linear form has products that cancel
        {(3, 0, 0): 1},
        {(0, 3, 0): 2, (0, 0, 3): Fraction(-1, 3)},
        cubic_of_a_line,
        {(1, 1, 1): Fraction(3, 4)},
    ]
    for trial in range(24):
        pool = pools[trial % 2]
        cubics.append({e: rng.choice(pool) for e in monomials(3, 3)})
    zero = 0
    for terms in cubics:
        F = TernaryCubic.from_coefficients(terms)
        got = F.hessian()
        want = sympy.Poly(sympy.hessian(to_expr(F.poly), xs).det(), *xs)
        assert sympy.Poly(to_expr(got.poly), *xs) == want, terms
        assert got.is_zero() == want.is_zero
        assert got.poly.weight == 3
        assert all(
            type(c) is int or (type(c) is Fraction and c.denominator > 1)
            for c in got.poly.coeffs.values()
        )
        zero += got.is_zero()
    assert zero >= 3


# -- _int_det against a permutation expansion and sympy ------------------------


def _unpack(terms, places):
    """A packed term dict re-keyed by exponent tuples: each key's digits
    at the places (``_pack`` inverted)."""
    out = {}
    for key, c in terms.items():
        e = []
        for place in places:
            digit, key = divmod(key, place)
            e.append(digit)
        out[tuple(e)] = c
    return out


def test_cubic_exponents_invert_the_cubic_key():
    # the ten cubic monomials, each decoded from its key in _CUBIC_PLACES
    # by the table and by the digits of the key
    cubics = monomials(3, 3)
    assert len(cubics) == len(nodal._CUBIC_EXPONENTS) == 10
    for e in cubics:
        assert nodal._CUBIC_EXPONENTS[nodal._cubic_key(*e)] == e
    packed = {nodal._cubic_key(*e): k for k, e in enumerate(cubics)}
    assert _unpack(packed, nodal._CUBIC_PLACES) == dict(zip(cubics, range(10)))


def _poly_det(mat):
    """The determinant of a square matrix of HomPolys through nodal._int_det.

    Each row is cleared to int term dicts by the lcm of its denominators,
    keyed by packed exponents in base 1 + the sum of the rows' largest
    weights, above every exponent of every product; the determinant is
    divided by the product of the row scales.  A matrix with no nonzero
    permutation product gives zero(nvars, 0); otherwise the result has the
    weight of those products, even when they cancel.
    """
    n, nvars = len(mat), mat[0][0].nvars
    places = _places(nvars, sum(max(p.weight for p in row) for row in mat) + 1)
    rows, scale = [], 1
    for row in mat:
        den = lcm(*(c.denominator for p in row for c in p.coeffs.values()))
        rows.append([
            {k: c.numerator * (den // c.denominator) for k, c in _pack(p.coeffs, places).items()}
            for p in row
        ])
        scale *= den
    det = nodal._int_det(rows)
    if det is None:
        return HomPoly.zero(nvars, 0)
    weight = next(
        sum(mat[i][j].weight for i, j in enumerate(perm))
        for perm in itertools.permutations(range(n))
        if all(mat[i][j].coeffs for i, j in enumerate(perm))
    )
    return HomPoly._trusted(
        nvars, weight, _unpack({k: _ratio(c, scale) for k, c in det.items()}, places)
    )


def _inversions(perm):
    return sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])


def _permutation_det(mat):
    """Sum over all n! permutations; zero(nvars, 0) when every product is zero."""
    n, nvars = len(mat), mat[0][0].nvars
    total = None
    for perm in itertools.permutations(range(n)):
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        if term.is_zero():
            continue
        term = term.scale((-1) ** _inversions(perm))
        total = term if total is None else total + term
    return total if total is not None else HomPoly.zero(nvars, 0)


def _int_permutation_det(rows):
    """The same sum on int term dicts, whose keys add under products as
    exponents do; None when every product is zero, else the nonzero terms."""
    total = None
    for perm in itertools.permutations(range(len(rows))):
        entries = [rows[i][j] for i, j in enumerate(perm)]
        if not all(entries):
            continue
        term = {0: (-1) ** _inversions(perm)}
        for entry in entries:
            product = {}
            for k1, c1 in term.items():
                for k2, c2 in entry.items():
                    product[k1 + k2] = product.get(k1 + k2, 0) + c1 * c2
            term = product
        total = {} if total is None else total
        for k, c in term.items():
            total[k] = total.get(k, 0) + c
    return None if total is None else {k: c for k, c in total.items() if c}


def _sparse_poly_matrix(rng, n, nvars):
    """Entry (i, j) of weight r_i + c_j, about half of them zero."""
    r = [rng.randint(0, 1) for _ in range(n)]
    c = [rng.randint(0, 2) for _ in range(n)]
    mat = []
    for i in range(n):
        row = []
        for j in range(n):
            w = r[i] + c[j]
            if rng.random() < 0.5:
                row.append(HomPoly.zero(nvars, rng.choice((0, w))))
                continue
            monos = monomials(nvars, w)
            chosen = rng.sample(monos, rng.randint(1, min(2, len(monos))))
            row.append(HomPoly(nvars, w, {e: rng.randint(-2, 2) or 1 for e in chosen}))
        mat.append(row)
    if n > 1 and rng.random() < 0.25:  # a repeated row: products cancel
        i, j = rng.sample(range(n), 2)
        mat[i] = list(mat[j])
    return mat


def _fraction_poly_matrix(rng, n, nvars):
    """Like ``_sparse_poly_matrix`` with Fraction coefficients, each row on
    its own denominators; sometimes a zero row, or a row that is a Fraction
    multiple of another (products cancel)."""
    mat = _sparse_poly_matrix(rng, n, nvars)
    dens = [rng.sample((1, 2, 3, 4, 5, 7, 9), 2) for _ in range(n)]
    mat = [
        [
            HomPoly(nvars, p.weight, {
                e: Fraction(c.numerator * rng.randint(1, 3), rng.choice(row_dens))
                for e, c in p.coeffs.items()
            })
            for p in row
        ]
        for row, row_dens in zip(mat, dens)
    ]
    kind = rng.randrange(3) if n > 1 else 2
    if kind == 0:
        mat[rng.randrange(n)] = [HomPoly.zero(nvars, p.weight) for p in mat[0]]
    elif kind == 1:
        i, j = rng.sample(range(n), 2)
        mat[i] = [p.scale(Fraction(rng.choice((-2, 3, 5)), rng.choice((3, 7)))) for p in mat[j]]
    return mat


def _fraction_det_cases():
    rng = random.Random(34)
    return [
        _fraction_poly_matrix(rng, n, rng.randint(2, 4))
        for n in (1, 2, 3, 4, 5)
        for _ in range(10)
    ]


def _sylvester_matrices(monkeypatch):
    """The int matrices _int_det receives from resultant_in_var for seeded
    forms (pairs of lam-cubics among them), and from inflection_lines (its
    Hessian and its resultant)."""
    seen = []
    det = nodal._int_det

    def recording(rows):
        seen.append(rows)
        return det(rows)

    monkeypatch.setattr(nodal, "_int_det", recording)
    rng = random.Random(21)
    for _ in range(40):
        var = rng.randrange(3)
        f = _random_form(rng, rng.randint(1, 3), var if rng.random() < 0.2 else None)
        g = _random_form(rng, rng.randint(1, 3))
        if not (f.is_zero() or g.is_zero()):
            resultant_in_var(f, g, var)
    # two lam-cubics: the banded 6x6 Sylvester matrix, the largest one
    # resultant_in_var builds from cubics
    for _ in range(3):
        f, g = (
            HomPoly(3, 3, {**_random_form(rng, 3).coeffs, (3, 0, 0): rng.choice((1, -2, 3))})
            for _ in range(2)
        )
        resultant_in_var(f, g, 0)
    inflection_lines(family_cubic(2, 3))
    monkeypatch.undo()
    return seen


def _int_matrix(rng, n):
    """An n x n matrix of univariate int term dicts, about a third empty."""
    return [
        [
            {} if rng.random() < 0.3 else {
                rng.randint(0, 2): rng.randint(-3, 3) or 1 for _ in range(rng.randint(1, 2))
            }
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _blank_line_matrices():
    """Int matrices of sizes 2-6 with one all-empty row or column."""
    rng = random.Random(42)
    out = []
    for n in range(2, 7):
        rows = _int_matrix(rng, n)
        rows[rng.randrange(n)] = [{}] * n
        out.append(rows)
        rows = _int_matrix(rng, n)
        j = rng.randrange(n)
        out.append([[{} if k == j else e for k, e in enumerate(row)] for row in rows])
    return out


def _det_cases(monkeypatch):
    """HomPoly matrices for ``_poly_det``, and the int matrices of
    ``_sylvester_matrices`` and ``_blank_line_matrices`` for
    ``nodal._int_det``."""
    rng = random.Random(13)
    cases = [
        _sparse_poly_matrix(rng, n, rng.randint(2, 4))
        for n in (1, 2, 3, 4, 5)
        for _ in range(12)
    ]
    zero = HomPoly.zero(3, 0)
    cases.append([[zero] * 4 for _ in range(4)])
    return cases, _sylvester_matrices(monkeypatch) + _blank_line_matrices()


def test_poly_det_matches_permutation_expansion(monkeypatch):
    cases, packed = _det_cases(monkeypatch)
    assert sum(len(m) == 5 for m in cases + packed) >= 12
    assert sum(len(m) >= 4 for m in cases + packed) >= 30
    assert sum(len(m) == 6 for m in packed) >= 5
    kinds = set()
    for mat in cases:
        got = _poly_det(mat)
        assert got == _permutation_det(mat), mat
        kinds.add((got.is_zero(), got.weight > 0))
    # nonzero dets, all-zero products and nonzero products that cancel
    assert kinds == {(False, True), (False, False), (True, False), (True, True)}
    for rows in packed:
        assert nodal._int_det(rows) == _int_permutation_det(rows), rows
    zero = HomPoly.zero(3, 0)
    assert _poly_det([[zero] * 4 for _ in range(4)]) == HomPoly.zero(3, 0)


def test_int_det_edge_cases():
    # None when no permutation product is nonzero, {} when they cancel
    assert nodal._int_det([[{}]]) is None
    assert nodal._int_det([[{0: 1}, {}], [{5: 2}, {}]]) is None
    assert nodal._int_det([[{1: 1}, {1: 1}], [{1: 2}, {1: 2}]]) == {}
    assert nodal._int_det([[{0: 3}]]) == {0: 3}
    # the cofactor signs: the anti-diagonal of a 3x3 is an odd permutation
    anti = [[{0: 1} if i + j == 2 else {} for j in range(3)] for i in range(3)]
    assert nodal._int_det(anti) == {0: -1}
    rows = [[{1: 1, 0: 2}, {2: -1}], [{0: 3}, {1: 4, 0: -5}]]
    assert nodal._int_det(rows) == {2: 7, 1: 3, 0: -10}
    # an all-empty row or column leaves no nonzero permutation product
    for rows in _blank_line_matrices():
        assert nodal._int_det(rows) is None, rows


def test_int_det_plans_each_size_apart():
    # a plan made for one size must never serve another, whatever the
    # order in which the sizes first arrive
    rng = random.Random(55)
    mats = {}
    for n in range(1, 7):
        rows = _int_matrix(rng, n)
        while not _int_permutation_det(rows):
            rows = _int_matrix(rng, n)
        mats[n] = rows
    for order in (range(1, 7), range(6, 0, -1)):
        for n in order:
            assert nodal._int_det(mats[n]) == _int_permutation_det(mats[n]), n


def _row_dens(row):
    return {c.denominator for p in row for c in p.coeffs.values()}


def test_poly_det_clears_fraction_rows():
    cases = _fraction_det_cases()
    # rows on different denominators, zero rows and cancelling products
    assert sum(len({frozenset(_row_dens(r)) for r in m if _row_dens(r)}) > 1 for m in cases) >= 30
    assert any(all(p.is_zero() for p in row) for m in cases for row in m)
    kinds = set()
    for mat in cases:
        got = _poly_det(mat)
        assert got == _permutation_det(mat), mat
        # an int iff integral, else a Fraction with denominator > 1
        assert all(
            type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1
            for c in got.coeffs.values()
        ), got.coeffs
        kinds.add((got.is_zero(), got.weight > 0))
    assert kinds == {(False, True), (False, False), (True, False), (True, True)}


def test_poly_det_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")
    y = xs[0]

    def to_expr(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([x**k for x, k in zip(xs, e)])
                for e, c in p.coeffs.items()
            ),
            sympy.Integer(0),
        )

    def univariate(terms):
        # a packed key read as one exponent: keys add as exponents do
        return sum((c * y**k for k, c in (terms or {}).items()), sympy.Integer(0))

    cases, packed = _det_cases(monkeypatch)
    for mat in cases + _fraction_det_cases():
        want = sympy.Matrix([[to_expr(p) for p in row] for row in mat]).det(
            method="berkowitz"
        )
        assert sympy.expand(to_expr(_poly_det(mat)) - want) == 0, mat
    for rows in packed:
        want = sympy.Matrix([[univariate(e) for e in row] for row in rows]).det(
            method="berkowitz"
        )
        assert sympy.expand(univariate(nodal._int_det(rows)) - want) == 0, rows


# -- det_cubic, hessian and resultant_in_var against HomPoly references --------


_MIXED = (0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4), Fraction(-5, 6))


def _same_terms(got: dict, want: dict) -> bool:
    """Equal coefficient dicts, entry types included."""
    return got == want and all(type(got[e]) is type(want[e]) for e in want)


def _reference_cubic(mat):
    """A 3x3 determinant of linear HomPolys by the permutation expansion;
    the zero cubic when it vanishes."""
    det = _permutation_det(mat)
    return TernaryCubic(det if det.coeffs else HomPoly.zero(3, 3))


def _mixed_net(rng):
    """A net of symmetric Grams with mixed int/Fraction entries, or None
    when the Grams are dependent."""
    grams = []
    for _ in range(3):
        g = [[0] * 3 for _ in range(3)]
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            g[i][j] = g[j][i] = rng.choice(_MIXED)
        grams.append(tuple(map(tuple, g)))
    try:
        return QuadricSystem(3, tuple(grams))
    except ValueError:
        return None


def test_det_cubic_matches_the_hompoly_reference():
    rng = random.Random(41)
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    nets = [QuadricSystem.from_polys([a * a, b * b, a * b]) for a, b in ((x2, x3), (x1 - x2, x3))]
    nets += [t1_relation_net(rng.choice(_MIXED), rng.choice(_MIXED) or 1) for _ in range(20)]
    while len(nets) < 120:
        net = _mixed_net(rng)
        if net is not None:
            nets.append(net)
    zero = 0
    for net in nets:
        mat = [
            [HomPoly.linear([g[i][j] for g in net.basis]) for j in range(3)]
            for i in range(3)
        ]
        got, want = det_cubic(net), _reference_cubic(mat)
        assert got == want and _same_terms(got.poly.coeffs, want.poly.coeffs), net
        assert got.poly.weight == 3
        zero += got.is_zero()
    assert zero >= 2


def test_hessian_matches_the_hompoly_reference():
    rng = random.Random(43)
    cubics = [{}, {(3, 0, 0): 1}, {(0, 3, 0): Fraction(2, 3), (0, 0, 3): -1}, {(1, 1, 1): Fraction(3, 4)}]
    line = HomPoly.linear([2, Fraction(-1, 3), 1])
    cubics.append((line * line * line).coeffs)
    for _ in range(150):
        cubics.append({e: rng.choice(_MIXED) for e in monomials(3, 3) if rng.random() < 0.5})
    zero = 0
    for terms in cubics:
        F = TernaryCubic.from_coefficients(terms)
        first = [F.poly.partial(i) for i in range(3)]
        want = _reference_cubic([[d.partial(j) for j in range(3)] for d in first])
        got = F.hessian()
        assert got == want and _same_terms(got.poly.coeffs, want.poly.coeffs), terms
        assert got.poly.weight == 3
        zero += got.is_zero()
    assert zero >= 4


def _reference_resultant(f, g, var):
    """The Sylvester determinant of HomPoly entries by the permutation
    expansion, read as a Fraction list indexed by the exponent of the last
    remaining variable."""
    cf, cg = f.coefficients_in_var(var), g.coefficients_in_var(var)
    df, dg = max(cf, default=0), max(cg, default=0)
    if df == 0 and dg == 0:
        return [Fraction(1)]
    zero = HomPoly.zero(3, 0)
    rows = [
        [parts.get(shift + d - col, zero) for col in range(df + dg)]
        for d, parts, shifts in ((df, cf, dg), (dg, cg, df))
        for shift in range(shifts)
    ]
    det = _permutation_det(rows)
    t = max(i for i in range(3) if i != var)
    out = [Fraction(0)] * (det.weight + 1)
    for e, c in det.coeffs.items():
        out[e[t]] += c
    return out


def test_resultant_in_var_matches_the_hompoly_reference():
    rng = random.Random(47)
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))

    def form(weight, free_of=None):
        return HomPoly(3, weight, {
            e: rng.choice(_MIXED)
            for e in monomials(3, weight)
            if (free_of is None or e[free_of] == 0) and rng.random() < 0.6
        })

    cancel = x1 * x2 + x3 * x3
    pairs = [
        (x1 * x2, x1 * x3, 0),  # no nonzero permutation product: [0]
        (cancel, cancel, 0),  # products that cancel: weight + 1 zeros
        (x2 * x2, x3, 0),  # both free of lam: the constant 1
        (HomPoly.zero(3, 2), x1 * x3, 0),
    ]
    while len(pairs) < 400:
        var = rng.randrange(3)
        f = form(rng.randint(0, 3), var if rng.random() < 0.25 else None)
        g = form(rng.randint(0, 3), var if rng.random() < 0.25 else None)
        pick = rng.random()
        if pick < 0.05:
            g = f
        elif pick < 0.1:
            g = f.scale(Fraction(-3, 2))
        pairs.append((f, g, var))
    shapes = set()
    for f, g, var in pairs:
        got, want = resultant_in_var(f, g, var), _reference_resultant(f, g, var)
        assert got == want, (f, g, var)
        assert all(type(c) is Fraction for c in got), got
        shapes.add((len(got) > 1, any(got)))
    assert resultant_in_var(x1 * x2, x1 * x3, 0) == [Fraction(0)]
    assert resultant_in_var(cancel, cancel, 0) == [Fraction(0)] * 4
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


# -- det_cubic from the net's integer rows against the Fraction Grams ----------


def _fraction_gram_det_cubic(net):
    """det_cubic as it read the net's Fraction Grams: the six distinct
    entries cleared by the lcm D of their denominators, and the
    determinant divided by D^3."""
    entries = [[g[i][j] for g in net.basis] for i, j in _pairs(3)]
    den = lcm(*(c.denominator for entry in entries for c in entry))
    forms = [
        {
            place: c.numerator * (den // c.denominator)
            for place, c in zip(nodal._CUBIC_PLACES, entry)
            if c
        }
        for entry in entries
    ]
    det = nodal._int_det([[forms[k] for k in row] for row in nodal._SYMMETRIC])
    return nodal._packed_cubic(det, den**3)


def _assert_same_cubic(got, want):
    assert got == want and _same_terms(got.poly.coeffs, want.poly.coeffs), (got, want)


def test_det_cubic_from_rows_matches_the_gram_reference_on_ring_nets():
    # every t1 r=20 kernel net, as the pipeline builds it from the ring
    for b1 in range(-20, 21):
        for c1 in range(-20, 21):
            if (b1, c1) != (0, 0):
                net = quotient_ring(t1_action_matrix(b1, c1)).kernel_of_square_map()
                _assert_same_cubic(det_cubic(net), _fraction_gram_det_cubic(net))


def test_det_cubic_from_rows_matches_the_gram_reference_on_public_nets():
    # nets through the public constructor, whose rows are cleared from
    # mixed int/Fraction Grams, the rescaled nets of the relation_scaling
    # check, and two degenerate nets through from_polys
    rng = random.Random(53)
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    nets = [QuadricSystem.from_polys([a * a, b * b, a * b]) for a, b in ((x2, x3), (x1 - x2, x3))]
    while len(nets) < 1002:
        net = _mixed_net(rng)
        if net is not None:
            nets.append(net)
    while len(nets) < 1302:
        b1, c1 = rng.randint(-8, 8), rng.randint(-8, 8)
        if (b1, c1) == (0, 0):
            continue
        net = t1_relation_net(*t1_parameters(b1, c1))
        scales = [
            Fraction(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 3))
            for _ in range(3)
        ]
        nets.append(QuadricSystem(3, tuple(
            tuple(tuple(s * x for x in row) for row in gram)
            for s, gram in zip(scales, net.basis)
        )))
    zero = 0
    for net in nets:
        got = det_cubic(net)
        _assert_same_cubic(got, _fraction_gram_det_cubic(net))
        zero += got.is_zero()
    assert zero >= 2


# -- one binary substitution ----------------------------------------------------


def test_binary_substitute_matches_hompoly_substitute():
    rng = random.Random(59)
    entries = (0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    kinds = {"singular": 0, "swap": 0, "fraction": 0}
    for case in range(2000):
        n = case % 4
        form = [rng.choice(entries) for _ in range(n + 1)]
        pick = rng.random()
        if pick < 0.1:
            e, f, g, h = 0, 1, 1, 0  # the mu <-> nu swap
        elif pick < 0.25:
            e, f = rng.choice(entries), rng.choice(entries)  # rank <= 1
            k = rng.choice(entries)
            g, h = k * e, k * f
        else:
            e, f, g, h = (rng.choice(entries) for _ in range(4))
        kinds["swap"] += (e, f, g, h) == (0, 1, 1, 0)
        kinds["singular"] += e * h == f * g
        kinds["fraction"] += any(type(x) is Fraction for x in (*form, e, f, g, h))
        poly = HomPoly(2, n, {(n - k, k): c for k, c in enumerate(form)})
        want = poly.substitute([[e, f], [g, h]])
        got = [_coerce(c) for c in nodal._binary_substitute(form, e, f, g, h)]
        assert len(got) == n + 1
        assert got == [want.coefficient((n - k, k)) for k in range(n + 1)], (form, e, f, g, h)
        assert [type(c) for c in got] == [type(want.coefficient((n - k, k))) for k in range(n + 1)]
        if n == 3:
            moved = BinaryCubic(*form).substitute(e, f, g, h)
            assert moved.coefficients() == tuple(got)
            assert [type(c) for c in moved.coefficients()] == [type(c) for c in got]
    assert min(kinds.values()) >= 100, kinds
    # int forms under int matrices stay int before any coercion
    moved = nodal._binary_substitute([1, 2, 3, 4], 2, -1, 0, 3)
    assert moved == [8, 12, 36, 86] and all(type(c) is int for c in moved)


def test_singular_points_of_family_cubics_build_no_partials(monkeypatch):
    # the closed form reads the node and cone off the coefficients of every
    # t1 r=20 determinant cubic, as the net gives it and cleared to integers
    def no_partials(self):
        raise AssertionError("the family closed form built partials")

    monkeypatch.setattr(TernaryCubic, "partials", no_partials)
    for b1 in range(-20, 21):
        for c1 in range(-20, 21):
            if (b1, c1) == (0, 0):
                continue
            F = det_cubic(t1_relation_net(*t1_parameters(b1, c1)))
            den = lcm(*(c.denominator for c in F.poly.coeffs.values()))
            for cubic in (F, F.scale(den)):
                locus = singular_points(cubic)
                assert locus == SingularLocus(((1, 0, 0),), True, "family-closed-form"), (b1, c1)


def test_singular_points_finds_the_origin_exactly_on_the_node_shape():
    # the gradient at [1,0,0] is (3 [lam^3], [lam^2 mu], [lam^2 nu]): seeded
    # cubics with each of those terms alone, all of them, or none
    rng = random.Random(71)
    entries = (1, -2, 3, Fraction(1, 2), Fraction(-5, 3))
    lam_squared = [(3, 0, 0), (2, 1, 0), (2, 0, 1)]
    shapes = set()
    for case in range(120):
        terms = {e: rng.choice(entries) for e in monomials(3, 3) if e[0] <= 1 and rng.random() < 0.6}
        picked = [lam_squared[case % 3]] if case % 4 else lam_squared if case % 8 else []
        terms.update({e: rng.choice(entries) for e in picked})
        F = TernaryCubic.from_coefficients(terms)
        if F.is_zero():
            continue
        singular = all(p.evaluate((1, 0, 0)) == 0 for p in F.partials())
        assert ((1, 0, 0) in singular_points(F, 2).points) == singular == F.is_node_shape(), F
        shapes.add((singular, tuple(picked)))
    assert len(shapes) == 5, shapes
