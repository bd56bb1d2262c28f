import itertools
import random
from fractions import Fraction

import pytest

from biquo.graded import QuadricSystem
from biquo.invariants import t1_relation_net
from biquo import nodal
from biquo.nodal import (
    BinaryCubic,
    BinaryQuadratic,
    TernaryCubic,
    det_cubic,
    inflection_lines,
    resultant_in_var,
    singular_points,
    tangent_cone,
)
from biquo.oracles import inflection_residual
from biquo.poly import HomPoly, monomials


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
    with pytest.raises(ValueError):
        inflection_lines(
            TernaryCubic.from_coefficients({(1, 2, 0): 1, (0, 0, 3): 1})
        )


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


# -- _poly_det against a permutation expansion and sympy -----------------------


def _permutation_det(mat):
    """Sum over all n! permutations; zero(nvars, 0) when every product is zero."""
    n, nvars = len(mat), mat[0][0].nvars
    total = None
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        if term.is_zero():
            continue
        term = term.scale((-1) ** inversions)
        total = term if total is None else total + term
    return total if total is not None else HomPoly.zero(nvars, 0)


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


def _sylvester_matrices(monkeypatch):
    """The matrices resultant_in_var hands to _poly_det for seeded forms."""
    seen = []
    det = nodal._poly_det

    def recording(mat):
        seen.append(mat)
        return det(mat)

    monkeypatch.setattr(nodal, "_poly_det", recording)
    rng = random.Random(21)
    for _ in range(40):
        var = rng.randrange(3)
        f = _random_form(rng, rng.randint(1, 3), var if rng.random() < 0.2 else None)
        g = _random_form(rng, rng.randint(1, 3))
        if not (f.is_zero() or g.is_zero()):
            resultant_in_var(f, g, var)
    inflection_lines(family_cubic(2, 3))
    monkeypatch.undo()
    return seen


def _det_cases(monkeypatch):
    rng = random.Random(13)
    cases = [
        _sparse_poly_matrix(rng, n, rng.randint(2, 4))
        for n in (1, 2, 3, 4, 5)
        for _ in range(12)
    ]
    cases += _sylvester_matrices(monkeypatch)
    zero = HomPoly.zero(3, 0)
    cases.append([[zero] * 4 for _ in range(4)])
    return cases


def test_poly_det_matches_permutation_expansion(monkeypatch):
    cases = _det_cases(monkeypatch)
    assert sum(len(m) == 5 for m in cases) >= 12
    assert sum(len(m) >= 4 for m in cases) >= 30
    kinds = set()
    for mat in cases:
        got = nodal._poly_det(mat)
        assert got == _permutation_det(mat), mat
        kinds.add((got.is_zero(), got.weight > 0))
    # nonzero dets, all-zero products and nonzero products that cancel
    assert kinds == {(False, True), (False, False), (True, False), (True, True)}
    zero = HomPoly.zero(3, 0)
    assert nodal._poly_det([[zero] * 4 for _ in range(4)]) == HomPoly.zero(3, 0)


def test_poly_det_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")

    def to_expr(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([x**k for x, k in zip(xs, e)])
                for e, c in p.coeffs.items()
            ),
            sympy.Integer(0),
        )

    for mat in _det_cases(monkeypatch):
        want = sympy.Matrix([[to_expr(p) for p in row] for row in mat]).det(
            method="berkowitz"
        )
        assert sympy.expand(to_expr(nodal._poly_det(mat)) - want) == 0, mat
