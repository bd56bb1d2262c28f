"""Univariate polynomials over Q and homogeneous binary forms.

Univariate polynomials are ascending coefficient lists of Fractions.
Trimming, division and the monic gcd use only field arithmetic, so they
also run over any field whose elements mix with Fractions (the
quadratic extensions of ``invariants.rank_one_elements``).
Binary forms of degree d in (s, t) are coefficient lists
``[c_0, ..., c_d]`` where ``c_k`` multiplies ``s^(d-k) t^k``; the pair
(list, d) is carried implicitly by the list length.  Their gcd works on
the polynomial in s at t = 1 plus the order of t, which is the number of
coefficients that polynomial drops.

Factorization is complete through degree 4 (rational roots, quadratic
discriminants, and the resolvent cubic for quartics), which covers every
eliminant this project produces.  Rational roots are found on the
primitive integer multiple of a polynomial with integer arithmetic only;
a Fraction is built just for each root found.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import factor

UPoly = list[Fraction]


def up(coeffs) -> UPoly:
    return up_trim([Fraction(c) for c in coeffs])


def up_trim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def up_deg(p: UPoly) -> int:
    return len(p) - 1  # zero polynomial: -1


def up_mul(p: UPoly, q: UPoly) -> UPoly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return up_trim(out)


def up_divmod(p: UPoly, q: UPoly) -> tuple[UPoly, UPoly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = p[:]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    inverse = Fraction(1) / q[-1]  # never int / int, which is a float
    while len(r) >= len(q) and r:
        c = r[-1] * inverse
        k = len(r) - len(q)
        quot[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r = up_trim(r)
    return up_trim(quot), r


def up_monic(p: UPoly) -> UPoly:
    if not p:
        return []
    inverse = Fraction(1) / p[-1]
    return [x * inverse for x in p]


def up_gcd(p: UPoly, q: UPoly) -> UPoly:
    a, b = up_trim(p[:]), up_trim(q[:])
    while b:
        a, b = b, up_divmod(a, b)[1]
    return up_monic(a)


def _divisors(n: int) -> list[int]:
    _, fac = factor(n)
    out = [1]
    for prime, exp in fac.items():
        out = [d * prime**k for d in out for k in range(exp + 1)]
    return sorted(out)


def rational_roots(p: UPoly) -> list[Fraction]:
    """All distinct rational roots, exactly, in increasing order.

    Rational root theorem on integers: p is scaled to integer
    coefficients and divided by their gcd, so a root in lowest terms
    s/d has s dividing the constant term and d the leading one.  Each
    coprime candidate is tested by the homogeneous Horner value
    sum ip[k] s^k d^(n-k), an integer that is zero exactly at a root;
    only the roots become Fractions.
    """
    p = up_trim(p[:])
    if not p:
        raise ValueError("the zero polynomial has every root")
    roots = []
    if p[0] == 0:
        roots.append(Fraction(0))
        while p and p[0] == 0:
            p = p[1:]
    if up_deg(p) < 1:
        return roots
    den = lcm(*[c.denominator for c in p])
    ip = [c.numerator * (den // c.denominator) for c in p]
    content = gcd(*ip)
    ip = [c // content for c in ip]
    n = len(ip) - 1
    for d in _divisors(abs(ip[-1])):
        d_pow = [d**j for j in range(n + 1)]
        for num in _divisors(abs(ip[0])):
            if gcd(num, d) != 1:
                continue
            for s in (num, -num):
                acc = ip[n]
                for k in range(n - 1, -1, -1):
                    acc = acc * s + ip[k] * d_pow[n - k]
                if acc == 0:
                    roots.append(Fraction(s, d))
    return sorted(roots)


def is_rational_square(q: Fraction) -> Fraction | None:
    """The nonnegative square root of q, if q is a perfect rational square."""
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def up_factor(p: UPoly) -> tuple[Fraction, list[tuple[UPoly, int]]]:
    """Factor into content * prod(monic irreducible ^ multiplicity).

    Complete for degree <= 4 after rational roots are removed; higher
    irreducible remainders are not handled (never needed here).
    """
    p = up_trim(p[:])
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    content = p[-1]
    rest = up_monic(p)
    factors: dict[tuple[Fraction, ...], int] = {}

    def record(f: UPoly):
        key = tuple(f)
        factors[key] = factors.get(key, 0) + 1

    for root in rational_roots(rest):
        lin = up([-root, 1])
        while True:
            quot, rem = up_divmod(rest, lin)
            if rem:
                break
            rest = quot
            record(lin)
    d = up_deg(rest)
    if d == 0:
        pass
    elif d in (2, 3):
        # no rational roots remain: quadratics/cubics are irreducible
        record(rest)
    elif d == 4:
        split = _quartic_split(rest)
        if split is None:
            record(rest)
        else:
            record(split[0])
            record(split[1])
    else:
        raise NotImplementedError(f"irreducible remainder of degree {d}")
    return content, [(list(f), m) for f, m in sorted(factors.items())]


def _quartic_split(p: UPoly) -> tuple[UPoly, UPoly] | None:
    """Split a monic rootless quartic into two rational monic quadratics.

    Uses the resolvent cubic: y = v+z for p = (x^2+ux+v)(x^2+wx+z).
    Returns None when p is irreducible over Q.
    """
    e, d, c, b, _ = p
    resolvent = up(
        [-(b * b * e - 4 * c * e + d * d), b * d - 4 * e, -c, 1]
    )
    for y in rational_roots(resolvent):
        root = is_rational_square(b * b - 4 * (c - y))
        if root is None:
            continue
        for sqrt_disc in {root, -root}:
            u = (b + sqrt_disc) / 2
            w = b - u
            if u != w:
                z = (d - w * y) / (u - w)
                v = y - z
            else:
                half = is_rational_square(y * y - 4 * e)
                if half is None:
                    continue
                v, z = (y + half) / 2, (y - half) / 2
            if v * z == e and u * z + v * w == d:
                f1, f2 = up([v, u, 1]), up([z, w, 1])
                if up_mul(f1, f2) == p:
                    return (f1, f2) if tuple(f1) <= tuple(f2) else (f2, f1)
    return None


# ---------------------------------------------------------------------------
# Homogeneous binary forms
# ---------------------------------------------------------------------------


def bf_is_zero(form: list[Fraction]) -> bool:
    return all(c == 0 for c in form)


def bf_to_upoly(form: list[Fraction]) -> UPoly:
    """Dehomogenize at t=1: polynomial in s, ascending coefficients."""
    return up_trim(list(reversed(form)))


def bf_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two binary forms, not both zero.

    The gcd at t = 1 times the smaller order of t of the nonzero forms.
    """
    pa, pb = bf_to_upoly(a), bf_to_upoly(b)
    t_order = min(len(f) - len(p) for f, p in ((a, pa), (b, pb)) if p)
    return [Fraction(0)] * t_order + up_gcd(pa, pb)[::-1]


def bf_rational_proj_roots(form: list[Fraction]) -> list[tuple[int, int]]:
    """Rational projective roots [s0 : t0], as primitive integer pairs.

    The first nonzero coordinate is positive; (1, 0) is the root at
    infinity, present when the leading s-coefficient vanishes.
    """
    if bf_is_zero(form):
        raise ValueError("the zero form has every root")
    out = []
    if form[0] == 0:
        out.append((1, 0))
    for root in rational_roots(bf_to_upoly(form)):
        out.append((root.numerator, root.denominator))
    return out
