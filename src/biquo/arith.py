"""Exact arithmetic over Q and Q(i), plus the two class-group canonical forms.

Everything here is exact: rationals are ints or `fractions.Fraction`s,
and Gaussian numbers are pairs of them, an int part kept as an int.  The
two canonical forms are

  * ``SquareClass``   -- the image of a nonzero rational in Q*/(Q*)^2,
    stored as a sign and the squarefree set of primes;
  * ``CubeClass``     -- the image of a nonzero element of Q(i)* in the
    quotient of Q(i)* by cubes and rational scalars, stored as the map
    sending each split prime p = 1 (mod 4) to the order difference at
    the two conjugate Gaussian primes above p, taken mod 3.

``Gaussian`` is the input and output type; Gaussian factoring itself
runs on integer pairs (re, im), dividing by a+bi as (x+yi)(a-bi)/(a^2+b^2)
with an exactness test on both parts.  The exactness certificates raise
``CertificateError``, so they survive ``python -O``.

All values are immutable after construction and all functions are pure,
so everything is safe to use from parallel workers.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

# Trial division stops at this prime bound and Pollard rho takes the cofactor.
# Below _TRIAL_LIMIT**2 = 10^8 the bound never binds: trial division stops
# because p * p exceeds the cofactor, which certifies the cofactor prime with
# no Miller-Rabin.  The golden scans stay below it: the largest integers they
# factor are 1 921 (t1 r=20), 4 194 304 (t2 r=20) and 186 913 (t3 r=12).
_TRIAL_LIMIT = 10**4

# Deterministic Miller-Rabin witnesses: the primes up to 41 leave no strong
# pseudoprime below _MR_LIMIT (Sorenson and Webster 2017); up to 37 they
# are proven only below 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# A Miller-Rabin witness certifies compositeness at any size, but the bases
# and Pollard rho's steps cost more as n grows: on one core of a 2-vCPU x86
# guest, a 776-digit composite took 16 s to reach the _RHO_STEPS refusal.
# So the bases run below this bound only, which holds every product of two
# primes below _MR_LIMIT (at 50 digits Pollard rho refuses within 0.15 s);
# at or above it is_prime refuses.
_WITNESS_LIMIT = _MR_LIMIT**2

# Pollard rho gives up rather than take more than this many steps (about
# 0.15 s).  A prime factor p takes on the order of sqrt(p) steps: products
# of two primes below 10^9 split, while a 25-digit product of two 13-digit
# primes (millions of steps) is refused.  The golden scans never run it
# (see _TRIAL_LIMIT).
_RHO_STEPS = 2**18

# A cofactor that is_prime cannot sort is still split when it is an exact
# power r^k, but only below this bound: _power_root tries every prime k up
# to its bit length, which took 0.05 s at 1000 digits and 13 s at 6000 on
# the guest above, so a larger cofactor is refused at once, as before.
_POWER_ROOT_LIMIT = 10**1000


class CertificateError(AssertionError):
    """An internal exactness certificate failed: the result cannot be trusted.

    Raised explicitly, so the checks also run under ``python -O``.
    """


def _digit_count(n: int) -> int:
    """The decimal digits of n >= 1 without ``str``, which refuses integers
    above 4300 digits: raised from a lower bound, as 1233/4096 < log10(2)."""
    digits = ((n.bit_length() - 1) * 1233 >> 12) + 1
    while n >= 10**digits:
        digits += 1
    return digits


def is_prime(n: int) -> bool:
    """Deterministic primality test below ``_MR_LIMIT``.

    Above it a base that witnesses compositeness still certifies False,
    by division at any size and by Miller-Rabin below ``_WITNESS_LIMIT``.
    Otherwise it raises ``ValueError``: no answer True is certified there.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _WITNESS_LIMIT:
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in _MR_BASES:
            x = pow(a, d, n)
            if x == 1 or x == n - 1:
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < _MR_LIMIT:
            return True
    raise ValueError(
        f"primality of a {_digit_count(n)}-digit integer is beyond the certified range"
    )


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's variant).

    Raises ``ValueError`` rather than run the next round of Brent's
    doubling when that would take it past ``_RHO_STEPS`` iterations of
    y -> y^2 + c in all.
    """
    if n % 2 == 0:
        return 2
    seed, steps = 1, 0
    while True:
        y, c, m = 2 + seed, 1 + seed, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # the r steps of x and at most r more of y below
            if steps > _RHO_STEPS:
                raise ValueError(
                    f"no factor of a {_digit_count(n)}-digit integer found in "
                    f"{_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1  # cycle degenerated; retry with a new polynomial


def _power_root(n: int) -> int | None:
    """The root r of n = r^k for the least prime k <= log2(n) with an exact
    root, else None: Newton's method on ints falls to the floor of the root
    from 2^ceil(bits / k), which is above it, or from ``math.isqrt(n)``."""
    for k in filter(is_prime, range(2, n.bit_length() + 1)):
        r = math.isqrt(n) if k == 2 else 1 << -(-n.bit_length() // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r**k == n:
            return r
    return None


def factor(n: int) -> tuple[int, dict[int, int]]:
    """Factor a nonzero integer as sign * prod(p^e).

    Returns ``(sign, {prime: exponent})`` with the primes sorted.  When
    trial division stops because p * p exceeds the cofactor (always, for
    n below ``_TRIAL_LIMIT**2``), that stop certifies the cofactor prime.
    Otherwise ``is_prime`` sorts each cofactor into a certified prime or a
    composite, split as r * r^(k-1) when it is an exact power r^k (Pollard
    rho cannot split a prime power) and by Pollard rho otherwise.  A
    cofactor that it cannot sort (a strong probable prime at or above
    ``_MR_LIMIT``, or any cofactor at or above ``_WITNESS_LIMIT``) is
    still split when it is an exact power below ``_POWER_ROOT_LIMIT``, and
    raises ``ValueError`` otherwise, as does a composite that Pollard rho
    does not split within ``_RHO_STEPS`` steps.

    >>> factor(12)
    (1, {2: 2, 3: 1})
    >>> factor(-1)
    (-1, {})
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 7
    # trial division with a mod-30 wheel below the trial limit
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n and p < _TRIAL_LIMIT:
        if n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        else:
            p += wheel[i]
            i = (i + 1) % 8
    if p * p > n:  # no prime factor up to sqrt(n): n is 1 or prime
        if n > 1:
            out[n] = out.get(n, 0) + 1
    else:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            try:
                prime = is_prime(m)
            except ValueError:
                d = _power_root(m) if m < _POWER_ROOT_LIMIT else None
                if d is None:
                    raise
            else:
                if prime:
                    out[m] = out.get(m, 0) + 1
                    continue
                d = _power_root(m) or _pollard_rho(m)
            stack += [d, m // d]
    return sign, dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

_PARTS = (int, Fraction)


@dataclass(frozen=True)
class Gaussian:
    """An element of Q(i), held as exact rational real/imaginary parts.

    Each part is an int or a Fraction: an int stays an int, so Gaussian
    integers do int arithmetic, and a Fraction stays a Fraction even when
    it is integral.  Equality, hashing, ``str`` and ``repr`` do not see
    the difference.

    >>> Gaussian(2, 1) * Gaussian(2, -1)
    Gaussian(5, 0)
    >>> print(Gaussian(Fraction(3, 4), -2))
    3/4-2i
    >>> Gaussian(3, 0) == Gaussian(Fraction(3), 0)
    True
    """

    re: int | Fraction
    im: int | Fraction

    def __init__(self, re=0, im=0):
        # ints and Fractions are kept as they are (arithmetic results are
        # one or the other); anything else, a bool or a str, is converted
        object.__setattr__(self, "re", re if type(re) in _PARTS else Fraction(re))
        object.__setattr__(self, "im", im if type(im) in _PARTS else Fraction(im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other: "Gaussian") -> "Gaussian":
        other = _as_gaussian(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Gaussian") -> "Gaussian":
        other = _as_gaussian(other)
        return Gaussian(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other) -> "Gaussian":
        other = _as_gaussian(other)
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Gaussian":
        other = _as_gaussian(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian number")
        return self * other.conjugate() * Gaussian(Fraction(1, 1) / n, 0)

    def __pow__(self, k: int) -> "Gaussian":
        if k < 0:
            return Gaussian(1, 0) / self ** (-k)
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Gaussian(1, 0) if out is None else out

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def norm(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    def is_integral(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __repr__(self) -> str:
        def short(q: int | Fraction):
            return q.numerator if q.denominator == 1 else q

        return f"Gaussian({short(self.re)!r}, {short(self.im)!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im_abs = abs(self.im)
        im_txt = "i" if im_abs == 1 else f"{im_abs}i"
        sign = "+" if self.im > 0 else "-"
        if self.re == 0:
            return f"{im_txt}" if self.im > 0 else f"-{im_txt}"
        return f"{self.re}{sign}{im_txt}"


def _as_gaussian(value) -> Gaussian:
    if isinstance(value, Gaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return Gaussian(value, 0)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian number")


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_integer(text: str) -> int:
    """A literal "n": ASCII digits and an optional sign, whitespace around."""
    text = text.strip()
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"invalid integer literal {text!r}")
    return int(text)


def _parse_rational(text: str) -> Fraction:
    """A literal "p" or "p/q": ASCII digits, an optional sign and q > 0."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def parse_gaussian(text: str) -> Gaussian:
    """Parse "a+bi" with rational parts, e.g. "3/4-2i", "5", "16i", "-i"."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian number")
    if not s.endswith("i"):
        return Gaussian(_parse_rational(s), 0)
    # split off the imaginary term at the last top-level sign
    split = 0
    for k in range(len(s) - 1, 0, -1):
        if s[k] in "+-" and s[k - 1] not in "+-/":
            split = k
            break
    re_txt, im_txt = s[:split], s[split:-1]
    if im_txt in ("", "+"):
        im_part = Fraction(1)
    elif im_txt == "-":
        im_part = Fraction(-1)
    else:
        im_part = _parse_rational(im_txt)
    return Gaussian(_parse_rational(re_txt) if re_txt else Fraction(0), im_part)


@functools.lru_cache(maxsize=4096)
def _split_pair(p: int) -> tuple[int, int]:
    """(a, b) with a > b > 0 and a^2 + b^2 = p, for a prime p = 1 (mod 4).

    Uses a square root of -1 mod p followed by Euclidean descent
    (Cornacchia).
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a split prime (need p = 1 mod 4)")
    # x^2 = -1 (mod p) from a quadratic nonresidue
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    x = pow(n, (p - 1) // 4, p)
    a, b = p, x
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    c = math.isqrt(p - b * b)
    if b * b + c * c != p:
        raise CertificateError(f"Cornacchia descent failed for p = {p}: {b}, {c}")
    return max(b, c), min(b, c)


def split_prime_rep(p: int) -> Gaussian:
    """The canonical Gaussian prime a+bi with a > b > 0 and a^2+b^2 = p.

    Only defined for primes p = 1 (mod 4).

    >>> split_prime_rep(5)
    Gaussian(2, 1)
    >>> split_prime_rep(13)
    Gaussian(3, 2)
    """
    return Gaussian(*_split_pair(p))


def _strip(x: int, y: int, a: int, b: int) -> tuple[int, int, int]:
    """Divide x+yi by a+bi while the quotient stays a Gaussian integer.

    Returns the last quotient and the number of divisions.  The quotient
    is (x+yi)(a-bi)/n with n = a^2+b^2, exact iff n divides both parts.
    """
    n = a * a + b * b
    k = 0
    while True:
        re, im = x * a + y * b, y * a - x * b
        if re % n or im % n:
            return x, y, k
        x, y, k = re // n, im // n, k + 1


@dataclass(frozen=True)
class GaussianFactorization:
    """unit * prod(prime^exponent) over the canonical Gaussian primes.

    Canonical prime representatives: 1+i for the ramified prime, a+bi
    with a > b > 0 (and its conjugate a-bi) above each split p = 1
    (mod 4), and the inert rational primes p = 3 (mod 4) themselves.
    """

    unit: Gaussian
    factors: tuple[tuple[Gaussian, int], ...]

    def value(self) -> Gaussian:
        out = self.unit
        for prime, exp in self.factors:
            out = out * prime**exp
        return out


def gaussian_factor(z: Gaussian) -> GaussianFactorization:
    """Factor a nonzero Gaussian integer into canonical primes.

    The primes come from the factored norm x^2 + y^2.  A norm that is a
    perfect square (every unit times w^2 has one, as do many primitive
    inputs) is factored through its integer root, with the exponents
    doubled: the same dict as ``factor(norm)`` from an integer of half
    the digits.  The divisions run on the integer pair (re, im);
    Gaussians are built only for the result.

    >>> gaussian_factor(Gaussian(2, 1)).factors
    ((Gaussian(2, 1), 1),)
    >>> gaussian_factor(Gaussian(5, 0)).factors
    ((Gaussian(2, 1), 1), (Gaussian(2, -1), 1))
    >>> gaussian_factor(Gaussian(3, 4)).factors  # norm 25 = 5^2
    ((Gaussian(2, 1), 2),)
    """
    if not z:
        raise ValueError("cannot factor zero")
    if not z.is_integral():
        raise ValueError(f"{z} is not a Gaussian integer")
    x, y = z.re.numerator, z.im.numerator
    norm = x * x + y * y
    root = math.isqrt(norm)
    if root * root == norm:
        _, root_factors = factor(root)
        norm_factors = {p: 2 * e for p, e in root_factors.items()}
    else:
        _, norm_factors = factor(norm)
    found: list[tuple[Gaussian, int]] = []
    for p, e in norm_factors.items():
        if p == 2:
            x, y, k = _strip(x, y, 1, 1)
            found.append((Gaussian(1, 1), k))
        elif p % 4 == 3:
            # inert: the norm exponent is twice the prime exponent
            if e % 2:
                raise CertificateError(f"odd norm exponent at inert {p} in {z}")
            x, y, k = _strip(x, y, p, 0)
            found.append((Gaussian(p, 0), k))
        else:
            a, b = _split_pair(p)
            x, y, k = _strip(x, y, a, b)
            if k:
                found.append((Gaussian(a, b), k))
            x, y, kbar = _strip(x, y, a, -b)
            if kbar:
                found.append((Gaussian(a, -b), kbar))
    if x * x + y * y != 1:
        raise CertificateError(f"{z} leaves the non-unit remainder {x}{y:+}i")
    return GaussianFactorization(Gaussian(x, y), tuple(found))


# ---------------------------------------------------------------------------
# Q*/(Q*)^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareClass:
    """A class in Q*/(Q*)^2: a sign and the strictly increasing primes
    of odd exponent.  Serializes as the signed squarefree representative.

    >>> SquareClass(-1, (3,)).serialize()
    '-3'
    >>> SquareClass(1, ()).serialize()
    '1'
    """

    sign: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("primes must be strictly increasing")

    def representative(self) -> int:
        out = self.sign
        for p in self.primes:
            out *= p
        return out

    def serialize(self) -> str:
        return str(self.representative())

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        sym = set(self.primes).symmetric_difference(other.primes)
        return SquareClass(self.sign * other.sign, tuple(sorted(sym)))

    def __str__(self) -> str:
        return self.serialize()


def square_class(q: Fraction | int) -> SquareClass:
    """Canonical class of a nonzero rational in Q*/(Q*)^2.

    >>> square_class(4).serialize()
    '1'
    >>> square_class(Fraction(18, 5)).serialize()
    '10'
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no square class")
    sign_n, num = factor(q.numerator)
    _, den = factor(q.denominator)
    odd = {p for p, e in num.items() if e % 2}
    odd.symmetric_difference_update(p for p, e in den.items() if e % 2)
    return SquareClass(sign_n, tuple(sorted(odd)))


def parse_square_class(text: str) -> SquareClass:
    return square_class(_parse_integer(text))


# ---------------------------------------------------------------------------
# (K*/3)/(Q*/3) for K = Q(i)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeClass:
    """A class in Q(i)* modulo cubes and rational scalars.

    Coordinates: for each split prime p = 1 (mod 4), the difference of
    the orders at the canonical prime a+bi (a > b > 0) and its
    conjugate, reduced mod 3.  Zero residues are omitted, so rationals
    (and units, since every Gaussian unit is a cube) give the empty map.

    >>> CubeClass.from_mapping({5: 1}).serialize()
    '5:1'
    >>> CubeClass.from_mapping({}).serialize()
    ''
    """

    residues: tuple[tuple[int, int], ...]

    @classmethod
    def from_mapping(cls, residues: Mapping[int, int]) -> "CubeClass":
        items = []
        for p, r in sorted(residues.items()):
            r %= 3
            if r:
                items.append((p, r))
        return cls(tuple(items))

    def as_dict(self) -> dict[int, int]:
        return dict(self.residues)

    def conjugate(self) -> "CubeClass":
        return CubeClass.from_mapping({p: -r for p, r in self.residues})

    def __mul__(self, other: "CubeClass") -> "CubeClass":
        combined = dict(self.residues)
        for p, r in other.residues:
            combined[p] = combined.get(p, 0) + r
        return CubeClass.from_mapping(combined)

    def is_trivial(self) -> bool:
        return not self.residues

    def serialize(self) -> str:
        return ",".join(f"{p}:{r}" for p, r in self.residues)

    def __str__(self) -> str:
        return self.serialize()


def parse_cube_class(text: str) -> CubeClass:
    text = text.strip()
    if not text:
        return CubeClass(())
    residues = {}
    for chunk in text.split(","):
        p_txt, r_txt = chunk.split(":")
        p = _parse_integer(p_txt)
        if p in residues or p % 4 != 1 or not is_prime(p):
            raise ValueError(f"{p_txt!r} is not a new split prime p = 1 (mod 4)")
        residues[p] = _parse_integer(r_txt)
    return CubeClass.from_mapping(residues)


def cube_class_mod_q(z: Gaussian) -> CubeClass:
    """Class of a nonzero element of Q(i)* modulo cubes and rationals.

    Rational scalars contribute equal orders at conjugate primes, inert
    and ramified orders are absorbed by rational scalars, and units are
    cubes, so only the split-prime order differences survive.

    So z is first scaled to the primitive Gaussian integer among its
    rational multiples: cleared to the integer pair (x, y) = (re.num *
    im.den, im.num * re.den), which is z times re.den * im.den, and
    divided by the content gcd(x, y).  ``gaussian_factor`` runs once, on
    that primitive x + yi.

    >>> cube_class_mod_q(Gaussian(2, 1)).as_dict()
    {5: 1}
    >>> cube_class_mod_q(Gaussian(12, 16)).as_dict()
    {5: 2}
    >>> cube_class_mod_q(Gaussian(Fraction(3 * 10**30, 7), Fraction(4 * 10**30, 7)))
    CubeClass(residues=((5, 2),))
    """
    if not z:
        raise ValueError("zero has no cube class")
    x, y = z.re.numerator * z.im.denominator, z.im.numerator * z.re.denominator
    g = math.gcd(x, y)  # rational scaling: same class
    residues: dict[int, int] = {}
    for prime, exp in gaussian_factor(Gaussian(x // g, y // g)).factors:
        a, b = prime.re, prime.im
        if b and a != b:  # a split prime: a+bi canonical, a-bi its conjugate
            p = a * a + b * b
            residues[p] = residues.get(p, 0) + (exp if b > 0 else -exp)
    return CubeClass.from_mapping(residues)
