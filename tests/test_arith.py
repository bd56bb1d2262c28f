import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from biquo.arith import (
    _MR_BASES,
    _digit_count,
    _power_root,
    _MR_LIMIT,
    _POWER_ROOT_LIMIT,
    _TRIAL_LIMIT,
    _WITNESS_LIMIT,
    CubeClass,
    Gaussian,
    SquareClass,
    cube_class_mod_q,
    factor,
    gaussian_factor,
    is_prime,
    parse_cube_class,
    parse_gaussian,
    parse_square_class,
    split_prime_rep,
    square_class,
)
from biquo.invariants import t1_invariant, t1_parameters
from biquo.report import scan


def trial_division_prime(n: int) -> bool:
    # independent primality oracle for test expectations
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_factor_small():
    assert factor(12) == (1, {2: 2, 3: 1})
    assert factor(-1) == (-1, {})
    assert factor(1) == (1, {})


def test_factor_large_prime():
    assert trial_division_prime(1000003)
    assert factor(1000003) == (1, {1000003: 1})


def test_factor_pollard_branch():
    n = 1000003 * 1000033
    sign, fac = factor(n)
    assert sign == 1 and fac == {1000003: 1, 1000033: 1}


def test_factor_two_primes_above_trial_limit():
    # both primes lie far above the trial limit, so Pollard rho splits them
    assert 1000033 > _TRIAL_LIMIT and 1000037 > _TRIAL_LIMIT
    assert factor(1000033 * 1000037) == (1, {1000033: 1, 1000037: 1})
    assert factor(-3 * 10007**2 * 10009) == (-1, {3: 1, 10007: 2, 10009: 1})


def _strong_probable_prime(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


def test_is_prime_agrees_with_sympy_below_the_limit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    # the least strong pseudoprimes to the prime bases up to 31 and up to
    # 37: base 37 rejects the first and only base 41 the second; the limit
    # is the least one to every base used
    pseudoprimes = [3825123056546413051, 318665857834031151167461]
    for n, last in zip(pseudoprimes, (31, 37)):
        assert _strong_probable_prime(n, [b for b in _MR_BASES if b <= last])
        assert not _strong_probable_prime(n, _MR_BASES)
    assert _strong_probable_prime(_MR_LIMIT, _MR_BASES)
    assert not sympy.isprime(_MR_LIMIT)
    cases = pseudoprimes + [_MR_LIMIT - 1, _MR_LIMIT - 2] + list(range(-2, 3000))
    for digits in range(1, 26):
        for _ in range(12):
            n = rng.randrange(10 ** (digits - 1), min(10**digits, _MR_LIMIT))
            cases += [n, int(sympy.nextprime(n)) if digits < 25 else n | 1]
    for _ in range(30):
        p = int(sympy.nextprime(rng.randrange(10**5, 10**12)))
        q = int(sympy.nextprime(rng.randrange(10**5, 10**12)))
        cases.append(p * q)
    for n in cases:
        if n < _MR_LIMIT:
            assert is_prime(n) == sympy.isprime(n), n


# Mersenne primes above _MR_LIMIT: no answer True is certified for them
_PRIMES_ABOVE_THE_LIMIT = (2**89 - 1, 2**107 - 1, 2**127 - 1)


def test_is_prime_refuses_at_the_limit():
    # the limit is a strong pseudoprime to every base and primes above it
    # are strong probable primes: both raise rather than answer True; at or
    # above _WITNESS_LIMIT no base runs, so a composite raises too
    assert all(_MR_LIMIT < p < _WITNESS_LIMIT for p in _PRIMES_ABOVE_THE_LIMIT)
    semiprime = (2**89 - 1) * (2**107 - 1)
    assert _WITNESS_LIMIT < semiprime < 10**80 + 1
    for n in (_MR_LIMIT, *_PRIMES_ABOVE_THE_LIMIT, semiprime, 10**80 + 1):
        with pytest.raises(ValueError, match="certified range"):
            is_prime(n)
    # a prime cofactor above the limit stops factor, and so does any
    # cofactor above the witness limit, at once
    with pytest.raises(ValueError, match="certified range"):
        factor(2**5 * 3 * (2**89 - 1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="certified range"):
        factor(2**5 * (10**40 + 1) * (10**40 + 3))
    with pytest.raises(ValueError, match="certified range"):
        factor(10**2999 + 7)
    assert time.perf_counter() - start < 0.5
    assert factor(2**100 * 3**60) == (1, {2: 100, 3: 60})


def _chernick_carmichael(rng, low):
    # (6k+1)(12k+1)(18k+1) is a Carmichael number when all three are prime
    k = rng.randrange(low, 2 * low)
    while not all(trial_division_prime(m * k + 1) for m in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def test_is_prime_answers_composites_above_the_limit():
    # a base that witnesses compositeness certifies False at any size
    sympy = pytest.importorskip("sympy")
    rng = random.Random(28)
    cases = [_MR_LIMIT + 1, _MR_LIMIT + 2, 10**40 + 1, 3 * (2**89 - 1), 10**80]
    for _ in range(20):
        p = int(sympy.nextprime(rng.randrange(10**12, 10**14)))
        q = int(sympy.nextprime(rng.randrange(10**12, 10**14)))
        cases.append(p * q)
    carmichael = [_chernick_carmichael(rng, 2 * 10**7) for _ in range(6)]
    for n in carmichael:  # Fermat liars to every coprime base
        assert all(pow(a, n - 1, n) == 1 for a in _MR_BASES)
    cases += carmichael
    for n in cases:
        assert n >= _MR_LIMIT and not sympy.isprime(n)
        assert is_prime(n) is False, n
    # above the witness limit only division by the bases answers
    assert is_prime(3 * _WITNESS_LIMIT) is False


def test_factor_refuses_an_unsplit_semiprime_fast():
    sympy = pytest.importorskip("sympy")
    n = int(sympy.nextprime(10**12)) * int(sympy.nextprime(2 * 10**12))
    assert n < _MR_LIMIT
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Pollard rho steps"):
        factor(n)
    assert time.perf_counter() - start < 0.5
    # a product of two primes near 10^9 still splits within the budget
    p, q = int(sympy.nextprime(10**9)), int(sympy.nextprime(7 * 10**9))
    assert factor(p * q) == (1, {p: 1, q: 1})


def test_digit_count_matches_str_at_powers_of_ten():
    # str refuses integers above 4300 digits; 10^4299 + 1 has exactly 4300
    for k in range(4300):
        for n in (10**k - 1, 10**k, 10**k + 1):
            if n:
                assert _digit_count(n) == len(str(n)), n
    assert _digit_count(10**5000) == 5001


def test_factor_splits_prime_powers_that_pollard_rho_cannot():
    sympy = pytest.importorskip("sympy")
    p = 1000000000039
    assert sympy.isprime(p)
    for n in (p**2, p**3, 7 * p**2, (10**9 + 7) ** 5, (10007 * 10009) ** 2, 10007**12):
        start = time.perf_counter()
        assert factor(n) == (1, dict(sorted(sympy.factorint(n).items()))), n
        assert time.perf_counter() - start < 0.1


def test_factor_splits_prime_powers_that_is_prime_cannot_sort():
    # at or above _WITNESS_LIMIT is_prime refuses every cofactor, but an
    # exact power below _POWER_ROOT_LIMIT is still split through its root
    sympy = pytest.importorskip("sympy")
    p, q = int(sympy.nextprime(10**17)), int(sympy.nextprime(10**20))
    r = int(sympy.nextprime(10**12))
    m = int(sympy.nextprime(10**8)) * int(sympy.nextprime(2 * 10**8))
    cases = (p**3, p**4, 6 * p**3, q**3, r**5, m**6, p**55)
    for n in cases:
        assert n >= _WITNESS_LIMIT and n < _POWER_ROOT_LIMIT
        assert factor(-n) == (-1, dict(sorted(sympy.factorint(n).items()))), n
    # a root that is_prime cannot sort is refused under its own digits
    with pytest.raises(ValueError, match="primality of a 27-digit integer"):
        factor((2**89 - 1) ** 2)
    # so is a power at or above the bound, at once
    big = p**60
    assert big >= _POWER_ROOT_LIMIT
    start = time.perf_counter()
    with pytest.raises(ValueError, match="primality of a 1021-digit integer"):
        factor(big)
    assert time.perf_counter() - start < 0.5


def test_power_root_finds_exact_roots_only():
    rng = random.Random(29)
    for _ in range(300):
        r, k = rng.randrange(2, 10**12), rng.choice((2, 3, 5, 7, 11))
        root = _power_root(r**k)
        assert root is not None and r**k in {root**j for j in range(2, k + 1)}
        # r^k + 1 is an exact power only where r^k and a power are consecutive
        assert _power_root(r**k + 1) is None or (r, k) == (2, 3)
    assert [n for n in range(2, 200) if _power_root(n)] == sorted(
        {r**k for r in range(2, 15) for k in range(2, 8) if r**k < 200}
    )


def _factor_cases(rng, sympy):
    below = [rng.randrange(2, 10**8) for _ in range(300)]
    above = [rng.randrange(10**8, 10**18) for _ in range(150)]
    near = []  # primes around the trial limit, where the trial loop stops
    for start in (_TRIAL_LIMIT - 300, _TRIAL_LIMIT - 20, _TRIAL_LIMIT, _TRIAL_LIMIT + 500):
        p = int(sympy.nextprime(start))
        q = int(sympy.nextprime(rng.randrange(_TRIAL_LIMIT // 2, 3 * _TRIAL_LIMIT)))
        near += [p * p, p * q, p * int(sympy.nextprime(p)), p**3, 2 * 3 * p * p]
    # composites above _MR_LIMIT with a factor that Pollard rho reaches
    big = [
        int(sympy.nextprime(rng.randrange(10**6, 10**8)))
        * int(sympy.nextprime(rng.randrange(10**18, 10**20)))
        for _ in range(6)
    ]
    assert all(n >= _MR_LIMIT for n in big)
    return below + above + near + big


def test_factor_matches_sympy_factorint():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2828)
    for n in _factor_cases(rng, sympy):
        for m in (n, -n):
            want = sympy.factorint(abs(m))
            assert factor(m) == (1 if m > 0 else -1, dict(sorted(want.items()))), m


def test_factor_certifies_a_trial_cofactor_without_miller_rabin(monkeypatch):
    # trial division that stops because p * p exceeds the cofactor has
    # proved it prime: below _TRIAL_LIMIT**2 factor never tests primality
    from biquo import arith

    def no_test(n):
        raise AssertionError(f"is_prime({n}) after trial division")

    monkeypatch.setattr(arith, "is_prime", no_test)
    rng = random.Random(29)
    cases = [rng.randrange(2, _TRIAL_LIMIT**2) for _ in range(2000)]
    cases += [_TRIAL_LIMIT**2 - 1, 99999989, 2 * 99999989, 9973**2, 9973 * 10007]
    for n in cases:
        sign, found = factor(n)
        assert sign == 1 and all(trial_division_prime(p) for p in found), n
        product = 1
        for p, e in found.items():
            product *= p**e
        assert product == n
    # a cofactor the trial bound cut short is still certified
    with pytest.raises(AssertionError, match="after trial division"):
        factor(10007**2)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_reconstructs():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 10**6) * rng.choice([1, -1])
        sign, fac = factor(n)
        prod = sign
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def naive_square_class(q: Fraction) -> int:
    # independent oracle: strip square factors from the integer n*d
    n = abs(q.numerator) * q.denominator
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return n if q > 0 else -n


def test_square_class_examples():
    assert square_class(4) == SquareClass(1, ())
    assert square_class(Fraction(18, 5)) == SquareClass(1, (2, 5))
    assert naive_square_class(Fraction(18, 5)) == 10
    a0, a1 = Fraction(1), Fraction(3)
    assert square_class(-(a0**7) / a1**3) == SquareClass(-1, (3,))


def test_square_class_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(100):
        q = Fraction(rng.randint(1, 500) * rng.choice([1, -1]), rng.randint(1, 500))
        assert square_class(q).representative() == naive_square_class(q)


def test_square_class_mod_squares():
    rng = random.Random(2)
    for _ in range(200):
        q = Fraction(rng.randint(1, 500) * rng.choice([1, -1]), rng.randint(1, 500))
        r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        assert square_class(q * r * r) == square_class(q)


def test_square_class_rejects_zero():
    with pytest.raises(ValueError):
        square_class(0)


def test_split_prime_reps():
    for p, rep in [(5, (2, 1)), (13, (3, 2)), (17, (4, 1)), (29, (5, 2))]:
        g = split_prime_rep(p)
        assert (g.re, g.im) == rep
        assert g.norm() == p


def test_gaussian_factor_canonical_prime():
    f = gaussian_factor(Gaussian(2, 1))
    assert f.unit == Gaussian(1, 0)
    assert f.factors == ((Gaussian(2, 1), 1),)


def test_gaussian_factor_five_splits():
    f = gaussian_factor(Gaussian(5, 0))
    assert f.value() == Gaussian(5, 0)
    norms = sorted(int(p.norm()) for p, _ in f.factors)
    assert norms == [5, 5]


def test_gaussian_factor_12_16i():
    z = Gaussian(12, 16)
    assert int(z.norm()) == 400
    f = gaussian_factor(z)
    assert f.value() == z
    exps = {(int(p.re), int(p.im)): e for p, e in f.factors}
    assert exps == {(1, 1): 4, (2, 1): 2}


def test_gaussian_factor_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        z = Gaussian(rng.randint(-80, 80), rng.randint(-80, 80))
        if not z:
            continue
        assert gaussian_factor(z).value() == z


def order_at(z: Gaussian, prime: Gaussian) -> int:
    # independent oracle: count exact divisions by the prime
    count = 0
    while True:
        q = z / prime
        if not q.is_integral():
            return count
        z, count = q, count + 1


def test_cube_class_examples():
    assert cube_class_mod_q(Gaussian(7, 0)).is_trivial()
    assert cube_class_mod_q(Gaussian(Fraction(-3, 11), 0)).is_trivial()
    assert cube_class_mod_q(Gaussian(2, 1)).as_dict() == {5: 1}
    assert cube_class_mod_q(Gaussian(12, 16)).as_dict() == {5: 2}
    # a content that factor refuses (two 13-digit primes) is divided out
    n = 1000000000039 * 2000000000003
    with pytest.raises(ValueError, match="Pollard rho steps"):
        factor(n)
    z = Gaussian(Fraction(3 * n, 7), Fraction(4 * n, 7))
    assert cube_class_mod_q(z).as_dict() == {5: 2}


def test_cube_class_matches_order_difference_oracle():
    rng = random.Random(6)
    for _ in range(50):
        z = Gaussian(rng.randint(-40, 40), rng.randint(-40, 40))
        if not z:
            continue
        cls = cube_class_mod_q(z)
        for p in (5, 13, 17):
            pi = split_prime_rep(p)
            diff = order_at(z, pi) - order_at(z, pi.conjugate())
            assert cls.as_dict().get(p, 0) == diff % 3, (z, p)


def test_cube_class_split_primes():
    for p in (5, 13, 17, 29):
        pi = split_prime_rep(p)
        assert cube_class_mod_q(pi).as_dict() == {p: 1}
        assert cube_class_mod_q(pi.conjugate()).as_dict() == {p: 2}


def test_cube_class_kills_rationals_and_cubes():
    rng = random.Random(4)
    for _ in range(200):
        z = Gaussian(rng.randint(-25, 25), rng.randint(-25, 25))
        w = Gaussian(rng.randint(-6, 6), rng.randint(-6, 6))
        q = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 9))
        if not z or not w:
            continue
        assert cube_class_mod_q(z * q * w**3) == cube_class_mod_q(z)


def test_cube_class_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        z = Gaussian(rng.randint(-25, 25), rng.randint(-25, 25))
        w = Gaussian(rng.randint(-25, 25), rng.randint(-25, 25))
        if not z or not w:
            continue
        assert cube_class_mod_q(z * w) == cube_class_mod_q(z) * cube_class_mod_q(w)


def test_conjugate_class():
    assert CubeClass(()).conjugate() == CubeClass(())
    assert CubeClass.from_mapping({5: 1}).conjugate().as_dict() == {5: 2}
    z = Gaussian(12, 16)
    mirror = Gaussian(16, 12)  # equals i * conj(z), and i is a cube
    assert cube_class_mod_q(mirror) == cube_class_mod_q(z).conjugate()


def reference_cube_class(z: Gaussian) -> CubeClass:
    # the route before the content gcd: clear z by the product of its
    # denominators and factor that Gaussian integer whole
    if not z:
        raise ValueError("zero has no cube class")
    scale = z.re.denominator * z.im.denominator
    w = Gaussian(z.re * scale, z.im * scale)
    residues: dict[int, int] = {}
    for prime, exp in gaussian_factor(w).factors:
        a, b = prime.re.numerator, prime.im.numerator
        if b and a != b:
            p = a * a + b * b
            residues[p] = residues.get(p, 0) + (exp if b > 0 else -exp)
    return CubeClass.from_mapping(residues)


def test_cube_class_matches_the_reference_on_the_t1_grid():
    # every alpha + beta i = 4(a + bi)^2 of the t1 r=20 scan, and its mirror
    for b1 in range(-20, 21):
        for c1 in range(-20, 21):
            if (b1, c1) == (0, 0):
                continue
            a, b = t1_parameters(b1, c1)
            value = Gaussian(a, b) ** 2 * 4
            for z in (value, Gaussian(value.im, value.re)):
                assert cube_class_mod_q(z) == reference_cube_class(z), (b1, c1)


def test_cube_class_matches_the_reference_on_large_denominators():
    rng = random.Random(29)
    for _ in range(300):
        z = Gaussian(
            Fraction(rng.randint(-10**5, 10**5), rng.randint(10**4, 10**5)),
            Fraction(rng.randint(-10**5, 10**5), rng.randint(10**4, 10**5)),
        )
        if z:
            assert cube_class_mod_q(z) == reference_cube_class(z), z


def test_cube_class_matches_the_reference_under_a_large_content():
    # x + yi times c/d with c a product of small primes and one prime
    # above the trial limit, up to about 10^37, and d smooth: the
    # reference factors a norm carrying (c d)^2, the new route x^2 + y^2
    pytest.importorskip("sympy")
    from sympy import nextprime, primerange

    small = list(primerange(2, _TRIAL_LIMIT))
    rng = random.Random(28)
    for _ in range(200):
        c = int(nextprime(rng.randint(_TRIAL_LIMIT, 10**7)))
        for _ in range(rng.randint(2, 8)):
            c *= rng.choice(small)
        d = 1
        for _ in range(rng.randint(1, 4)):
            d *= rng.choice(small)
        z = Gaussian(rng.randint(-300, 300), rng.randint(-300, 300))
        z = z * Fraction(rng.choice((c, -c)), d)
        if z:
            assert cube_class_mod_q(z) == reference_cube_class(z), z


def test_cube_class_factors_once(monkeypatch):
    # the benchmark's scan gate counts one gaussian_factor call per cube
    # class, and its tracer pins the counts on a t1 scan
    from biquo import arith

    calls = {"gaussian_factor": 0, "factor": 0}

    def counted(name):
        inner = getattr(arith, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(arith, name, counted(name))
    cases = [Gaussian(1, 0), Gaussian(0, -7), Gaussian(Fraction(-3, 11), 0),
             Gaussian(2, 1), Gaussian(12, 16), Gaussian(Fraction(3, 4), -2),
             Gaussian(Fraction(10**30, 7), Fraction(10**31, 3))]
    cases += [Gaussian(*t1_parameters(b1, c1)) ** 2 * 4 for b1, c1 in ((3, 5), (-7, 2), (1, 1))]
    for z in cases:
        calls.update(gaussian_factor=0, factor=0)
        cube_class_mod_q(z)
        assert calls == {"gaussian_factor": 1, "factor": 1}, z


def _twin(z: Gaussian) -> Gaussian:
    # the same value with every part a Fraction
    return Gaussian(Fraction(z.re), Fraction(z.im))


def test_gaussian_int_and_fraction_twins_agree():
    rng = random.Random(30)
    parts = [(0, 0), (1, 0), (0, -1), (-7, 3)]
    for _ in range(200):
        parts.append((rng.randint(-50, 50), rng.randint(-50, 50)))
        parts.append((Fraction(rng.randint(-50, 50), rng.randint(1, 6)), rng.randint(-50, 50)))
    for re, im in parts:
        z, t = Gaussian(re, im), Gaussian(Fraction(re), Fraction(im))
        assert (type(z.re), type(z.im)) == (type(re), type(im))  # kept as given
        assert type(t.re) is type(t.im) is Fraction
        assert z == t and hash(z) == hash(t)
        assert str(z) == str(t) and repr(z) == repr(t)
        assert parse_gaussian(str(z)) == z
        assert z.norm() == t.norm() and bool(z) == bool(t)
        assert z.is_integral() == t.is_integral()
    assert repr(Gaussian(3, -4)) == "Gaussian(3, -4)"
    assert str(Gaussian(Fraction(6, 2), Fraction(-1))) == "3-i"
    # other inputs are read as Fractions, as before
    assert Gaussian("3/4", True) == Gaussian(Fraction(3, 4), 1)
    assert type(Gaussian(True, 0).re) is Fraction


def test_gaussian_operations_never_give_a_float_part():
    rng = random.Random(31)

    def part(kind):
        n = rng.randint(-20, 20)
        return n if kind == "i" else Fraction(n, rng.randint(1, 5))

    for _ in range(300):
        z = Gaussian(part(rng.choice("if")), part(rng.choice("if")))
        w = Gaussian(part(rng.choice("if")), part(rng.choice("if")))
        results = [z + w, z - w, z * w, -z, z.conjugate(), z**3, z * 2, 2 * z]
        results += [z * Fraction(1, 3), z + 1]
        if w:
            results += [z / w, w**-2]
        for r in results:
            assert type(r.re) in (int, Fraction) and type(r.im) in (int, Fraction)
        assert type(z.norm()) in (int, Fraction)
        # int parts stay ints under ring operations
        if type(z.re) is type(z.im) is type(w.re) is type(w.im) is int:
            for r in (z + w, z - w, z * w, -z, z.conjugate(), z**3):
                assert type(r.re) is type(r.im) is int
        assert z * w == _twin(z) * _twin(w) and z + w == _twin(z) + _twin(w)


def test_gaussian_rejects_zero():
    with pytest.raises(ValueError):
        gaussian_factor(Gaussian(0, 0))
    with pytest.raises(ValueError):
        cube_class_mod_q(Gaussian(0, 0))


def test_serialization_roundtrips():
    for text in ["3/4-2i", "5", "16i", "-i", "2+i", "-3/5+7/2i"]:
        g = parse_gaussian(text)
        assert parse_gaussian(str(g)) == g
    assert parse_cube_class("5:1,13:2").as_dict() == {5: 1, 13: 2}
    assert parse_cube_class("") == CubeClass(())
    assert parse_square_class("-10") == SquareClass(-1, (2, 5))
    cls = square_class(Fraction(-75, 2))
    assert parse_square_class(cls.serialize()) == cls


def zzi_valuation(z, prime) -> int:
    # independent oracle: exact divisions in sympy's Gaussian integer domain
    from sympy.polys.domains import ZZ_I

    count = 0
    while True:
        q, r = ZZ_I.div(z, prime)
        if r:
            return count
        z, count = q, count + 1


def test_gaussian_factor_and_cube_class_match_sympy_zzi():
    pytest.importorskip("sympy")
    from sympy import factorint
    from sympy.polys.domains import ZZ_I

    rng = random.Random(11)
    units = [Gaussian(1, 0), Gaussian(0, 1), Gaussian(-1, 0), Gaussian(0, -1)]
    big_p, big_q = 1000033, 1000037  # split primes above the trial limit
    assert big_p % 4 == big_q % 4 == 1 and is_prime(big_p) and is_prime(big_q)
    cases = list(units)
    cases += [u * Gaussian(1, 1) ** k for u in units for k in (1, 2, 5)]
    cases += [u * Gaussian(p, 0) ** k for u in units for p in (3, 7, 11) for k in (1, 2)]
    for p in (5, 13, 17, 29, 37):
        pi = split_prime_rep(p)
        cases += [pi * pi, pi * pi.conjugate(), pi.conjugate() ** 2]
    cases.append(split_prime_rep(big_p) * split_prime_rep(big_q).conjugate())
    for _ in range(60):
        cases.append(Gaussian(rng.randint(-500, 500), rng.randint(-500, 500)))
    # u * w^2 and u * w^2 * n have square norms, factored through the root
    big = split_prime_rep(big_p) * split_prime_rep(big_q).conjugate()
    for _ in range(30):
        w = Gaussian(rng.randint(-300, 300), rng.randint(-300, 300))
        u, n = rng.choice(units), rng.randint(2, 60)
        cases += [u * w * w, u * w * w * n]
    cases += [units[1] * big * big, units[2] * big * big * 7]
    cases = [z for z in cases if z]
    assert any(z.norm() > _TRIAL_LIMIT**2 for z in cases)  # the Pollard path runs
    assert sum(isqrt(int(z.norm())) ** 2 == z.norm() for z in cases) > 60

    for z in cases:
        x, y = int(z.re), int(z.im)
        zz = ZZ_I(x, y)
        f = gaussian_factor(z)
        assert f.value() == z
        assert f.unit in units
        for prime, exp in f.factors:
            a, b = int(prime.re), int(prime.im)
            if (a, b) == (1, 1):
                pass  # the ramified prime
            elif b == 0:
                assert a % 4 == 3 and is_prime(a)
            else:  # a+bi with a > b > 0, or its conjugate
                assert Gaussian(a, abs(b)) == split_prime_rep(a * a + b * b)
            assert exp == zzi_valuation(zz, ZZ_I(a, b)) > 0
        # every Gaussian prime dividing z appears, with the canonical shapes
        expected = set()
        for p in factorint(x * x + y * y):
            if p == 2:
                expected.add((1, 1))
            elif p % 4 == 3:
                expected.add((p, 0))
            else:
                a, b = int(split_prime_rep(p).re), int(split_prime_rep(p).im)
                expected |= {
                    pr for pr in ((a, b), (a, -b)) if zzi_valuation(zz, ZZ_I(*pr))
                }
        assert {(int(p.re), int(p.im)) for p, _ in f.factors} == expected

    # cube classes of non-integral inputs: clear denominators, then split
    # primes' order differences mod 3 from the oracle
    for _ in range(40):
        z = Gaussian(
            Fraction(rng.randint(-300, 300), rng.randint(1, 40)),
            Fraction(rng.randint(-300, 300), rng.randint(1, 40)),
        )
        if not z:
            continue
        w = z * (z.re.denominator * z.im.denominator)
        zz = ZZ_I(int(w.re), int(w.im))
        expected = {}
        for p in factorint(int(w.norm())):
            if p % 4 == 1:
                g = split_prime_rep(p)
                a, b = int(g.re), int(g.im)
                diff = zzi_valuation(zz, ZZ_I(a, b)) - zzi_valuation(zz, ZZ_I(a, -b))
                if diff % 3:
                    expected[p] = diff % 3
        assert cube_class_mod_q(z).as_dict() == expected, z


@pytest.mark.parametrize("k", [5, 6, 8, 12, 14])
def test_t1_at_the_next_prime_after_a_power_of_ten_matches_sympy_zzi(k):
    # t1_invariant(N, 1) raised here until square norms were factored
    # through their root: with e = 2N - 1, alpha + beta i is (1 + ei)^2 / 4,
    # and its primitive multiple (1 - e^2)/2 + ei has the norm
    # ((1 + e^2)/2)^2, about 4 N^4, whose cofactors were out of reach.  At
    # k = 14 a 29-digit composite cofactor was refused before any
    # Miller-Rabin base could witness it; Pollard rho splits it now
    pytest.importorskip("sympy")
    from sympy import factorint, nextprime
    from sympy.polys.domains import ZZ_I

    n = int(nextprime(10**k))
    e = 2 * n - 1
    zz = ZZ_I(1, e) ** 2
    expected = {}
    for p in factorint(1 + e * e):
        if p % 4 == 1:
            g = split_prime_rep(p)
            a, b = int(g.re), int(g.im)
            assert a > b > 0 and a * a + b * b == p
            diff = zzi_valuation(zz, ZZ_I(a, b)) - zzi_valuation(zz, ZZ_I(a, -b))
            expected[p] = diff
    cls = CubeClass.from_mapping(expected)
    assert not cls.is_trivial()
    assert set(t1_invariant(n, 1).classes) == {cls, cls.conjugate()}


def test_certificates_survive_optimized_mode():
    # under -O every assert vanishes; the certificates must still raise
    script = """
import sys
import biquo
from biquo import arith
from biquo.checks import verify
from biquo.report import scan

assert False, "unreachable under -O"
print(scan("t1", 2).to_json(), end="")
if not all(result.ok for result in verify("arith")):
    sys.exit(4)
arith._split_pair = lambda p: (p, 1)  # a wrong representative
try:
    arith.gaussian_factor(arith.Gaussian(5, 0))
except biquo.CertificateError as exc:
    sys.stderr.write(f"certificate: {exc}")
else:
    sys.exit(3)
"""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == scan("t1", 2).to_json()
    assert "certificate:" in proc.stderr
