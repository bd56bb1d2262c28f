import random
from itertools import permutations
from fractions import Fraction

import pytest

from biquo.poly import HomPoly, monomials, parse_poly
from biquo.univar import (
    bf_gcd,
    bf_rational_proj_roots,
    bf_to_upoly,
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


def bf_divide_exact(a, b):
    """a / b when b divides a exactly as binary forms, else None.

    The quotient at t = 1 is padded with the order of t left over by the
    degree of a / b; it is None when that order would be negative.
    """
    pb = bf_to_upoly(b)
    if not pb:
        raise ZeroDivisionError("binary form division by zero")
    quot, rem = up_divmod(bf_to_upoly(a), pb)
    degree = len(a) - len(b)
    if rem or degree < 0 or len(quot) > degree + 1:
        return None
    return [Fraction(0)] * (degree + 1 - len(quot)) + quot[::-1]


def test_monomial_order():
    assert monomials(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        HomPoly(2, 2, {(1, 0): 1})


@pytest.mark.parametrize("exps", [(2.5, -0.5), (0.5, 0.5)])
def test_non_integer_exponents_rejected(exps):
    with pytest.raises(ValueError):
        HomPoly(2, 2, {exps: 1})


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


def test_evaluate_is_exact_at_int_and_fraction_points():
    g = HomPoly(3, 3, {(2, 1, 0): 3, (0, 3, 0): Fraction(-2, 2)})
    got = g.evaluate([2, 5, 7])
    assert type(got) is int and got == 3 * 4 * 5 - 125
    f = g + HomPoly(3, 3, {(1, 1, 1): Fraction(1, 2)})
    assert f.evaluate([2, 5, 7]) == 3 * 4 * 5 - 125 + 35
    got = f.evaluate([Fraction(1, 2), Fraction(-2, 3), 4])
    want = Fraction(3, 4) * Fraction(-2, 3) + Fraction(8, 27) + Fraction(1, 2) * Fraction(-4, 3)
    assert type(got) is Fraction and got == want
    # a float point is read exactly, never evaluated in floating point
    got = f.evaluate([0.5, 1, 0.1])
    assert type(got) is Fraction and got == f.evaluate([Fraction(0.5), 1, Fraction(0.1)])


def test_univariate_division_of_int_lists_stays_exact():
    # int / int is a float; the divisions run through Fraction
    q, r = up_divmod([1, 0, 1], [2])
    assert q == [Fraction(1, 2), 0, Fraction(1, 2)] and r == []
    assert all(type(c) is Fraction for c in q)
    g = up_gcd([-2, 0, 2], [-2, 2])
    assert g == [-1, 1] and all(type(c) is Fraction for c in g)


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


def test_binary_forms_with_a_zero_form():
    zero = [Fraction(0)] * 4  # the zero cubic
    b = [Fraction(0), Fraction(2), Fraction(4)]  # 2 s t + 4 t^2
    assert bf_gcd(zero, b) == bf_gcd(b, [Fraction(0)]) == [0, 1, 2]
    with pytest.raises(ValueError):
        bf_gcd(zero, [Fraction(0)])
    assert bf_divide_exact(zero, b) == [0, 0]
    assert bf_divide_exact([Fraction(0)], b) is None
    with pytest.raises(ZeroDivisionError):
        bf_divide_exact(b, [Fraction(0), Fraction(0)])


def _seeded_form(rng: random.Random, degree: int) -> list[Fraction]:
    """A random binary form of the given degree: a rational scalar times
    powers of s and t and random linear and quadratic factors."""
    form = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))]
    while len(form) <= degree:
        room = degree + 1 - len(form)
        kind = rng.randrange(4)
        if kind == 0:
            f = [Fraction(1), Fraction(0)]  # s
        elif kind == 1:
            f = [Fraction(0), Fraction(1)]  # t
        elif kind == 2 and room >= 2:
            f = [Fraction(rng.randint(1, 3)), Fraction(rng.randint(-4, 4)), Fraction(rng.randint(1, 5))]
        else:
            f = [Fraction(rng.randint(-4, 4) or 1), Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
        if len(f) - 1 <= room:
            form = bf_mul(form, f)
    return form


def test_bf_gcd_and_division_match_sympy():
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")

    def to_sympy(form):
        d = len(form) - 1
        terms = (sympy.Rational(c.numerator, c.denominator) * s ** (d - k) * t**k for k, c in enumerate(form))
        return sympy.Poly(sum(terms), s, t, domain="QQ")

    rng = random.Random(41)
    for trial in range(100):
        common = _seeded_form(rng, trial % 4)
        a = bf_mul(common, _seeded_form(rng, rng.randint(0, 3)))
        b = bf_mul(common, _seeded_form(rng, rng.randint(0, 3)))
        want = sympy.gcd(to_sympy(a), to_sympy(b))
        degree = want.total_degree()
        coeffs = [want.coeff_monomial(s ** (degree - k) * t**k) for k in range(degree + 1)]
        lead = next(c for c in coeffs if c != 0)
        assert bf_gcd(a, b) == [_fraction(c / lead) for c in coeffs], (a, b)
        assert bf_divide_exact(bf_mul(a, b), b) == a
        quotient = bf_divide_exact(a, b)
        assert (quotient is None) == (degree < len(b) - 1), (a, b)
        assert quotient is None or bf_mul(quotient, b) == a


# -- trusted arithmetic: every result is a clean, valid HomPoly ---------------


def is_canonical(c):
    """The stored form: an int iff the value is integral, otherwise a Fraction
    with denominator > 1; never a float, never 0."""
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


def _assert_clean(p):
    """p is what the validating constructor makes of its own terms."""
    assert p == HomPoly(p.nvars, p.weight, dict(p.coeffs))
    assert all(is_canonical(c) for c in p.coeffs.values()), p.coeffs
    for e in p.coeffs:
        assert type(e) is tuple and all(type(k) is int for k in e)
    return p


def _mixed_number(rng):
    """Zero, an int, an integral Fraction or a non-integral one."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, Fraction(0)))
    if kind == 1:
        return rng.randint(-4, 4)
    if kind == 2:
        return Fraction(3 * rng.randint(-4, 4), 3)
    return Fraction(rng.randint(-4, 4), rng.randint(2, 5))


def _mixed_hompoly(rng, n, w):
    monos = monomials(n, w)
    chosen = rng.sample(monos, rng.randint(0, min(len(monos), 4)))
    return HomPoly(n, w, {e: _mixed_number(rng) for e in chosen})


def test_every_producing_path_stores_canonical_coefficients():
    from biquo import invariants, nodal

    _assert_clean(invariants._X1X2)
    _assert_clean(invariants._TWO_X3)
    rng = random.Random(14)
    integral = 0
    for _ in range(200):
        n, w = rng.randint(1, 4), rng.randint(0, 3)
        p, q = _mixed_hompoly(rng, n, w), _mixed_hompoly(rng, n, w)
        r = _mixed_hompoly(rng, n, rng.randint(0, 2))
        c = _mixed_number(rng)
        matrix = [[_mixed_number(rng) for _ in range(n)] for _ in range(n)]
        cubic = nodal.TernaryCubic(_mixed_hompoly(rng, 3, 3))
        net = invariants.t1_relation_net(_mixed_number(rng), _mixed_number(rng))
        results = [
            p, q, r, HomPoly.zero(n, w),
            HomPoly.linear([_mixed_number(rng) for _ in range(n)]),
            *(HomPoly.variable(n, i) for i in range(n)),
            *(p.partial(i) for i in range(n)),
            *p.coefficients_in_var(rng.randrange(n)).values(),
            p.substitute(matrix),
            p + q, p - q, -p, p * r, p.scale(c), c * p, p * c,
            cubic.hessian().poly, nodal.det_cubic(net).poly,
        ]
        if not p.is_zero():
            results.append(parse_poly(p.to_str(), n))
        for result in results:
            _assert_clean(result)
            integral += sum(type(v) is int for v in result.coeffs.values())
    assert integral > 1000


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


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
        for i in range(n):
            assert _assert_clean(HomPoly.variable(n, i)) == HomPoly(n, 1, {_unit(n, i): 1})
        ints = [rng.randint(-3, 3) for _ in range(n)]
        fracs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        mixed = [rng.choice((0, Fraction(0), 2, Fraction(-5, 3), 0.5)) for _ in range(n)]
        for coeffs in (ints, fracs, mixed, [0] * n):
            lin = _assert_clean(HomPoly.linear(coeffs))
            assert lin == HomPoly(n, 1, {_unit(n, i): c for i, c in enumerate(coeffs)})
        # each row on its own denominator, sometimes a zero row
        dens = rng.sample((1, 2, 3, 5, 7), n)
        rows = [[Fraction(rng.randint(-4, 4), den) for _ in range(n)] for den in dens]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [Fraction(0)] * n
        for matrix in (_random_matrix(rng, n), rows):
            sub = _assert_clean(p.substitute(matrix))
            assert sub.weight == p.weight
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


# -- product kernels against the tuple-key reference --------------------------


def _tuple_mul_terms(a, b):
    """The reference product of two term dicts keyed by exponent tuples,
    written apart from ``poly._mul_terms``; a coefficient that cancels
    stays as 0."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def _canonical(terms):
    """The nonzero terms, each an int when integral, else a Fraction."""
    return {e: Fraction(c).numerator if Fraction(c).denominator == 1 else Fraction(c)
            for e, c in terms.items() if c}


def _assert_same_terms(got, weight, want):
    """Equal key for key, each value in the same int-or-Fraction form."""
    assert got.weight == weight
    assert got.coeffs == want
    for e, c in want.items():
        assert type(got.coeffs[e]) is type(c), (e, got.coeffs[e], c)


def _power(n, i, k, c):
    """c * x_i^k: every exponent digit is k."""
    return HomPoly(n, k, {tuple(k * (j == i) for j in range(n)): c})


def _kernel_polys(rng, n, w):
    """A seeded polynomial of weight w: mixed int and Fraction terms, a
    pure power, or zero."""
    kind = rng.randrange(5)
    if kind == 0:
        return HomPoly.zero(n, w)
    if kind == 1:
        return _power(n, rng.randrange(n), w, rng.choice((1, -3, Fraction(2, 3))))
    return _mixed_hompoly(rng, n, w)


def test_packed_product_matches_the_tuple_kernel():
    rng = random.Random(21)
    checked = 0
    for n in range(1, 5):
        for w1 in range(7):
            for w2 in range(7 - w1):
                for _ in range(4):
                    p, q = _kernel_polys(rng, n, w1), _kernel_polys(rng, n, w2)
                    want = _canonical(_tuple_mul_terms(p.coeffs, q.coeffs))
                    _assert_same_terms(p * q, w1 + w2, want)
                    checked += bool(want)
                # pure powers: the product's one exponent is its weight,
                # the largest digit of the base weight + 1
                i = rng.randrange(n)
                _assert_same_terms(
                    _power(n, i, w1, 2) * _power(n, i, w2, Fraction(1, 2)),
                    w1 + w2,
                    {tuple((w1 + w2) * (j == i) for j in range(n)): 1},
                )
    assert checked > 100


def test_mul_terms_matches_the_tuple_kernel_with_its_coefficient_types():
    # raw term dicts, not cleaned: int, integral and non-integral Fraction
    # values and zeros, so int * int stays int, anything times a Fraction
    # is a Fraction, and a cancelled sum stays as 0
    from biquo.poly import _mul_terms

    rng = random.Random(24)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        a, b = (
            {e: _mixed_number(rng) for e in rng.sample(monos, rng.randint(0, min(len(monos), 5)))}
            for monos in (monomials(n, rng.randint(0, 3)), monomials(n, rng.randint(0, 3)))
        )
        got, want = _mul_terms(a, b), _tuple_mul_terms(a, b)
        assert got == want and list(got) == list(want)
        for e, c in want.items():
            assert type(got[e]) is type(c), (e, got[e], c)
            seen.add((type(c), c == 0))
    assert seen == {(int, False), (int, True), (Fraction, False), (Fraction, True)}


def _tuple_substitute(p, matrix):
    """x_i -> sum_j matrix[i][j] x_j on tuple-keyed Fraction terms."""
    n = p.nvars
    images = [
        {tuple(int(k == j) for k in range(n)): Fraction(c) for j, c in enumerate(row) if c}
        for row in matrix
    ]
    out = {}
    for e, c in p.coeffs.items():
        term = {(0,) * n: Fraction(c)}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _tuple_mul_terms(term, images[i])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return _canonical(out)


def test_packed_substitute_matches_the_tuple_kernel():
    rng = random.Random(22)
    for n in range(1, 5):
        for w in range(7):
            for _ in range(6):
                p = _kernel_polys(rng, n, w)
                matrix = [[_mixed_number(rng) for _ in range(n)] for _ in range(n)]
                _assert_same_terms(p.substitute(matrix), w, _tuple_substitute(p, matrix))
            # a permutation sends a pure power x_i^w to x_j^w: digit w = base - 1
            order = rng.sample(range(n), n)
            perm = [[int(j == order[i]) for j in range(n)] for i in range(n)]
            for i in range(n):
                p = _power(n, i, w, Fraction(-5, 3))
                want = {tuple(w * (j == order[i]) for j in range(n)): Fraction(-5, 3)}
                _assert_same_terms(p.substitute(perm), w, want)
                _assert_same_terms(p.substitute(perm), w, _tuple_substitute(p, perm))


def _tuple_det(mat):
    """(weight, terms) of the Leibniz sum on tuple-keyed Fraction terms;
    weight 0 and no terms when no permutation product is nonzero."""
    n, nvars = len(mat), mat[0][0].nvars
    weight, out = None, {}
    for perm in permutations(range(n)):
        entries = [mat[i][j] for i, j in enumerate(perm)]
        if any(entry.is_zero() for entry in entries):
            continue
        inversions = sum(a > b for k, a in enumerate(perm) for b in perm[k + 1 :])
        term = {(0,) * nvars: Fraction(-1 if inversions % 2 else 1)}
        for entry in entries:
            term = _tuple_mul_terms(term, entry.coeffs)
        weight = sum(entry.weight for entry in entries)
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return (0, {}) if weight is None else (weight, _canonical(out))


def test_packed_poly_det_matches_the_tuple_kernel():
    # nodal._int_det through the HomPoly-matrix wrapper of its tests
    from test_nodal import _poly_det

    rng = random.Random(23)
    for _ in range(400):
        n, size = rng.randint(1, 4), rng.randint(1, 3)
        # entry (i, j) has weight r_i + c_j, so every permutation product
        # has one weight, at most 6
        rows = [rng.randint(0, 1) for _ in range(size)]
        cols = [rng.randint(0, 6 // size - 1) for _ in range(size)]
        mat = [[_kernel_polys(rng, n, r + c) for c in cols] for r in rows]
        weight, want = _tuple_det(mat)
        _assert_same_terms(_poly_det(mat), weight, want)
    for n in range(1, 5):
        for w in range(7):
            # the pure power x_i^w alone, and beside zero entries of weight 0
            i = rng.randrange(n)
            power = _power(n, i, w, 3)
            want = {tuple(w * (j == i) for j in range(n)): 3}
            _assert_same_terms(_poly_det([[power]]), w, want)
            zero = HomPoly.zero(n, 0)
            one = HomPoly(n, 0, {(0,) * n: 1})
            _assert_same_terms(_poly_det([[power, zero], [zero, one]]), w, want)
            _assert_same_terms(
                _poly_det([[zero, zero], [zero, one]]), 0, {}
            )
