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


# -- trusted arithmetic: every result is a clean, valid HomPoly ---------------


def _assert_clean(p):
    """p is what the validating constructor makes of its own terms."""
    assert p == HomPoly(p.nvars, p.weight, dict(p.coeffs))
    assert all(type(c) is Fraction and c != 0 for c in p.coeffs.values())
    for e in p.coeffs:
        assert type(e) is tuple and all(type(k) is int for k in e)
    return p


def _random_hompoly(rng, n, w):
    """Sparse, small Fraction coefficients; sometimes zero."""
    if rng.random() < 0.1:
        return HomPoly.zero(n, w)
    monos = monomials(n, w)
    chosen = rng.sample(monos, rng.randint(1, min(len(monos), 4)))
    return HomPoly(
        n, w, {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in chosen}
    )


def _random_point(rng, n):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]


def _random_matrix(rng, n):
    rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0:  # a repeated row
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
    elif kind == 1:  # a zero row
        rows[rng.randrange(n)] = [0] * n
    elif kind == 2:  # all zero
        rows = [[0] * n for _ in range(n)]
    return rows


def _substitute_reference(p, matrix):
    """x_i -> sum_j matrix[i][j] x_j by repeated products of HomPolys."""
    n = p.nvars
    images = [HomPoly.linear(row) for row in matrix]
    out = HomPoly.zero(n, p.weight)
    for e, c in p.coeffs.items():
        term = HomPoly(n, 0, {(0,) * n: c})
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * images[i]
        out = out + term
    return out


def _apply(matrix, point):
    return [sum(Fraction(a) * x for a, x in zip(row, point)) for row in matrix]


def test_trusted_arithmetic_results_are_valid_hompolys():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(2, 4)
        w1, w2 = rng.randint(0, 3), rng.randint(0, 3)
        p, q = _random_hompoly(rng, n, w1), _random_hompoly(rng, n, w1)
        r = _random_hompoly(rng, n, w2)
        pt = _random_point(rng, n)
        # p + (r - p) and (p + r) * (p - r) cancel by construction
        cancel = _random_hompoly(rng, n, w1) - p
        for a, b in ((p, q), (p, cancel), (p, p), (q, -q)):
            s, d = _assert_clean(a + b), _assert_clean(a - b)
            assert s.evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
            assert d.evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)
            assert _assert_clean(-a).evaluate(pt) == -a.evaluate(pt)
        for a, b in ((p, r), (p + q, p - q), (q, q), (p, HomPoly.zero(n, w2))):
            prod = _assert_clean(a * b)
            assert prod.weight == a.weight + b.weight
            assert prod.evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        for c in (0, Fraction(0), 3, Fraction(-2, 7)):
            _assert_clean(p.scale(c))
            assert _assert_clean(c * p) == _assert_clean(p * c) == p.scale(c)
            assert p.scale(c).evaluate(pt) == c * p.evaluate(pt)
        for i in range(n):
            _assert_clean(p.partial(i))
            parts = p.coefficients_in_var(i)
            rebuilt = HomPoly.zero(n, p.weight)
            for k, form in parts.items():
                _assert_clean(form)
                assert form.weight == p.weight - k and all(e[i] == 0 for e in form.coeffs)
                rebuilt = rebuilt + form * HomPoly(n, k, {tuple(k * (j == i) for j in range(n)): 1})
            assert rebuilt == p
        matrix = _random_matrix(rng, n)
        sub = _assert_clean(p.substitute(matrix))
        assert sub == _substitute_reference(p, matrix)
        assert sub.evaluate(pt) == p.evaluate(_apply(matrix, pt))


def test_partial_matches_power_rule():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(2, 4)
        p = _random_hompoly(rng, n, rng.randint(0, 4))
        for i in range(n):
            want = {}
            for e, c in p.coeffs.items():
                if e[i]:
                    want[tuple(k - (j == i) for j, k in enumerate(e))] = c * e[i]
            assert p.partial(i) == HomPoly(n, max(p.weight - 1, 0), want)


def test_substitute_singular_matrix_cancels_to_zero():
    x1, x2 = V(2, 0), V(2, 1)
    p = (x1 - x2) * (x1 + 2 * x2)
    sub = _assert_clean(p.substitute([[1, 1], [1, 1]]))
    assert sub.is_zero() and sub.weight == 2
    assert _assert_clean(p.substitute([[0, 0], [0, 0]])) == HomPoly.zero(2, 2)


def test_substitute_rejects_rows_of_the_wrong_length():
    for matrix in ([[1, 0], [0, 1, 0]], [[1], [0, 1]], [[1, 0]]):
        for p in (V(2, 0), V(2, 0) * V(2, 0), HomPoly.zero(2, 1)):
            with pytest.raises(ValueError, match="wrong shape"):
                p.substitute(matrix)


def test_zero_operand_of_another_weight():
    x1, x2 = V(2, 0), V(2, 1)
    p = x1 * x2 - x2 * x2
    zero = HomPoly.zero(2, 0)
    assert zero + p == p + zero == p
    assert (zero + p).weight == 2
    assert zero - p == -p
    assert p - zero == p
    assert (zero - p).weight == 2
    with pytest.raises(ValueError):
        x1 + p
