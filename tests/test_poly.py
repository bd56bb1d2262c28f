import random
from fractions import Fraction

import pytest

from biquo.poly import HomPoly, monomials, parse_poly
from biquo.univar import (
    bf_divide_exact,
    bf_gcd,
    bf_rational_proj_roots,
    rational_roots,
    up,
    up_deg,
    up_divmod,
    up_factor,
    up_gcd,
    up_mul,
)


def V(n, i):
    return HomPoly.variable(n, i)


def bf_mul(a, b):
    """Product of two binary forms (coefficient lists in s^(d-k) t^k)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_monomial_order():
    assert monomials(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        HomPoly(2, 2, {(1, 0): 1})


def test_arithmetic_and_text():
    x1, x2, x3 = (V(3, i) for i in range(3))
    p = x1 * x1 - 2 * (x2 * x3)
    assert p.to_str() == "x1^2 - 2*x2*x3"
    assert parse_poly("x1^2 - 2*x2*x3", 3) == p
    assert parse_poly("x1^2 − 2*x2*x3", 3) == p  # unicode minus
    q = parse_poly("3/2*x1^2*x3 - x2^3 + x1*x2*x3", 3)
    assert q.coefficient((2, 0, 1)) == Fraction(3, 2)
    assert parse_poly(q.to_str(), 3) == q


def test_cohomological_degree():
    p = V(3, 0) * V(3, 1)
    assert p.weight == 2 and p.degree == 4


def test_substitute_change_of_variables():
    x1, x2, x3 = (V(3, i) for i in range(3))
    rel = x3 * (x1 + 2 * x2 + x3)
    sub = rel.substitute([[1, 0, 0], [0, 1, 0], [Fraction(-1, 2), -1, 1]])
    want = x3 * x3 - (x1 * x1).scale(Fraction(1, 4)) - x1 * x2 - x2 * x2
    assert sub == want


def test_partials_and_evaluation():
    f = parse_poly("x1^3 + x2^2*x3", 3)
    assert f.partial(0) == parse_poly("3*x1^2", 3)
    assert f.evaluate([1, 2, 3]) == 13
    assert f.evaluate_complex([1j, 0, 0]) == pytest.approx(-1j)


def test_univariate_roots_and_gcd():
    p = up([6, -5, 1])
    assert rational_roots(p) == [2, 3]
    assert up_gcd(up([-4, 0, 1]), up([-2, 1])) == up([-2, 1])
    q, r = up_divmod(p, up([-2, 1]))
    assert q == up([-3, 1]) and not r


def test_quartic_factorization():
    quartic = up_mul(up([-2, 0, 1]), up([-3, 0, 1]))
    _, facs = up_factor(quartic)
    assert sorted(tuple(f) for f, _ in facs) == [(-3, 0, 1), (-2, 0, 1)]
    _, facs = up_factor(up([1, 0, 0, 0, 1]))  # x^4 + 1 irreducible
    assert len(facs) == 1 and len(facs[0][0]) == 5
    doubled = up_mul(up([-2, 0, 1]), up([-2, 0, 1]))
    _, facs = up_factor(doubled)
    assert facs == [([Fraction(-2), Fraction(0), Fraction(1)], 2)]


def test_rational_roots_many_candidates():
    # 120 x 120 divisor pairs of the constant and leading terms (a t3
    # membership quartic of the verify suite)
    quartic = up([1190640, -116160, -2090880, 116160, 900240])
    assert rational_roots(quartic) == [-1, 1]
    content, facs = up_factor(quartic)
    assert content == 900240
    assert facs == [
        (up([Fraction(-41, 31), Fraction(4, 31), 1]), 1),
        (up([-1, 1]), 1),
        (up([1, 1]), 1),
    ]


def test_rational_roots_exact_on_primitive_integer_form():
    # content 6, Fraction coefficients, a double root and a zero root
    p = up_mul(up([0, Fraction(6, 7)]), up_mul(up([3, -2]), up([3, -2])))
    assert rational_roots(p) == [0, Fraction(3, 2)]
    assert rational_roots(up([Fraction(-1, 3), 0, 3])) == [Fraction(-1, 3), Fraction(1, 3)]
    assert rational_roots(up([1, 0, 1])) == []
    assert rational_roots(up([5])) == []
    with pytest.raises(ValueError):
        rational_roots([Fraction(0)])


def _seeded_poly(rng: random.Random, degree: int):
    """A random rational scalar times linear, x and quadratic factors.

    Roots have both signs and denominators up to 6; factors repeat.
    """
    scalar = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 6))
    p, factors = up([scalar]), []
    while up_deg(p) < degree:
        room = degree - up_deg(p)
        kind = rng.randrange(5)
        if factors and kind == 0:
            f = rng.choice(factors)
        elif kind == 1:
            f = up([0, 1])
        elif kind == 2 and room >= 2:
            f = up([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 4)])
        else:
            f = up([-rng.randint(-12, 12), rng.randint(1, 6)])
        if 0 < up_deg(f) <= room:
            factors.append(f)
            p = up_mul(p, f)
    return p


def _sympy_poly(p):
    import sympy

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def test_rational_roots_match_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(17)
    for trial in range(300):
        p = _seeded_poly(rng, 1 + trial % 6)
        want = sorted(_fraction(r) for r in _sympy_poly(p).ground_roots())
        assert rational_roots(p) == want, p


def test_up_factor_matches_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(23)
    for trial in range(200):
        p = _seeded_poly(rng, 1 + trial % 4)
        _, sym = _sympy_poly(p).factor_list()
        want = sorted(
            (tuple(_fraction(c) for c in reversed(f.monic().all_coeffs())), m)
            for f, m in sym
        )
        content, facs = up_factor(p)
        assert content == p[-1]
        assert sorted((tuple(f), m) for f, m in facs) == want, p


def test_binary_forms():
    circle = [Fraction(1), Fraction(0), Fraction(1)]
    line = [Fraction(1), Fraction(-2)]
    form = bf_mul(bf_mul(circle, circle), line)
    stripped = bf_divide_exact(bf_divide_exact(form, circle), circle)
    assert stripped == line
    assert bf_divide_exact(line, circle) is None
    assert bf_rational_proj_roots(form) == [(2, 1)]
    st = bf_mul([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)])
    assert set(bf_rational_proj_roots(st)) == {(1, 0), (0, 1)}
    g = bf_gcd(bf_mul([Fraction(0), Fraction(1)], circle), bf_mul([Fraction(0), Fraction(2)], line))
    assert g == [Fraction(0), Fraction(1)]
