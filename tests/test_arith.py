import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from biquo.arith import (
    _MR_BASES,
    _MR_LIMIT,
    _TRIAL_LIMIT,
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


def test_is_prime_refuses_at_the_limit():
    for n in (_MR_LIMIT, _MR_LIMIT + 1, 10**80 + 1):
        with pytest.raises(ValueError, match="certified range"):
            is_prime(n)
    # a cofactor above the limit stops factor at once
    with pytest.raises(ValueError, match="certified range"):
        factor(2**5 * (10**40 + 1) * (10**40 + 3))
    assert factor(2**100 * 3**60) == (1, {2: 100, 3: 60})


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
    cases = [z for z in cases if z]
    assert any(z.norm() > _TRIAL_LIMIT**2 for z in cases)  # the Pollard path runs

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
