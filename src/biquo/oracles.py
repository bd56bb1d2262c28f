"""numpy cross-checks for the exact pipelines; no other module imports numpy.

These deliberately take different routes from the exact code: the
inflection check solves F = Hess F = 0 on a numerical rational
parametrization of the nodal cubic, and the rank-one check runs on a
numpy null-space basis of the membership conditions.  Both report a
residual; the exact results must match to 1e-9.  The stabilizer oracle
tests freeness by brute force over torsion elements.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial

from .biquotient import _as_matrix
from .graded import QuadricSystem
from .invariants import MonicQuadratic
from .nodal import BinaryCubic, TernaryCubic

_MEMBERSHIP_TOL = 1e-7  # largest relative residual of a kept root


def stabilizer_oracle(A, m: int) -> bool:
    """Brute-force cross-check: no nontrivial m-torsion element fixes any
    of the 2^k special points.

    An element t of (Z/m)^S fixes the special point of the coordinate
    subset S when the principal block A[S, S] kills it mod m; it then
    fixes the point of its own support too, whose rows are among those
    of S.  So one pass over all of (Z/m)^k asks, for each t != 0, whether
    the rows of A in its support kill it.  Completely independent of the
    determinant criterion in ``is_free``.
    """
    if not 2 <= m <= 12:
        raise ValueError("oracle torsion order must be between 2 and 12")
    A = _as_matrix(A)
    if m**A.size > 12**5:  # k x m^k int64 entries: at most 10 MB at k = 5
        raise ValueError(f"oracle search over (Z/{m})^{A.size} is too large")
    arr = np.array([[x % m for x in row] for row in A.entries], dtype=np.int64)
    tuples = np.indices((m,) * A.size).reshape(A.size, -1)
    fixed = np.all(((arr @ tuples) % m == 0) | (tuples == 0), axis=0)
    return not fixed[1:].any()  # column 0 is t = 0


def numeric_inflection_roots(F: TernaryCubic) -> list[complex]:
    """Directions [s : 1] of the solutions of F = Hess(F) = 0 off the node.

    Works on node-shaped cubics with tangent cone a multiple of
    mu^2 + nu^2.  The smooth points are parametrized by the ray
    direction s, the Hessian determinant is evaluated along the
    parametrization with numpy polynomial arithmetic, and its roots are
    filtered against the two node preimages s = +-i.
    """
    cone = F.lam_coefficient_form()
    if cone[1] != 0 or cone[0] != cone[2] or cone[0] == 0:
        raise ValueError("numeric oracle needs tangent cone ~ mu^2 + nu^2")
    e = float(cone[0])
    c30, c21, c12, c03 = (float(c) for c in F.cubic_part())

    q = Polynomial([e, 0.0, e])  # e*(s^2 + 1)
    c = Polynomial([c03, c12, c21, c30])
    # point on the curve for direction (mu, nu) = (s, 1)
    comps = [-c, Polynomial([0.0, 1.0]) * q, q]

    second = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            form = F.poly.partial(i).partial(j)
            lin = [float(form.coefficient(tuple(int(k == v) for k in range(3))))
                   for v in range(3)]
            second[i][j] = (
                lin[0] * comps[0] + lin[1] * comps[1] + lin[2] * comps[2]
            )

    h = (
        second[0][0] * (second[1][1] * second[2][2] - second[1][2] * second[2][1])
        - second[0][1] * (second[1][0] * second[2][2] - second[1][2] * second[2][0])
        + second[0][2] * (second[1][0] * second[2][1] - second[1][1] * second[2][0])
    )
    coeffs = h.coef
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ValueError("Hessian vanishes along the parametrization")
    roots = np.roots(coeffs[::-1] / scale)
    return [complex(r) for r in roots if min(abs(r - 1j), abs(r + 1j)) > 1e-4]


def inflection_residual(F: TernaryCubic, cubic: BinaryCubic) -> float:
    """Worst normalized |cubic| over the numeric flex directions of F."""
    roots = numeric_inflection_roots(F)
    coeff_scale = max(abs(float(c)) for c in cubic.coefficients())
    worst = 0.0
    for s in roots:
        denom = coeff_scale * max(1.0, abs(s)) ** 3
        worst = max(worst, abs(cubic.evaluate_complex(s, 1.0)) / denom)
    # the cubic has a root at infinity exactly when its mu^3 term dies;
    # the finite numeric roots must account for all the others
    expected_finite = 3 if cubic.c30 != 0 else 2
    if len(roots) != expected_finite:
        return float("inf")
    return worst


def numeric_rank_one_roots(system: QuadricSystem, a, b) -> list[complex]:
    """Parameters t with (a x1 + b x2 + t x3)^2 in the system, numerically.

    The two membership conditions come from a numpy null-space basis of
    the system's span; their common roots in t are selected by residual.
    """
    flats = np.array(
        [[float(x) for x in QuadricSystem._flatten(g)] for g in system.basis]
    )
    _, _, vh = np.linalg.svd(flats)
    null = vh[len(system.basis):]  # (6-dim) annihilator, orthonormal rows

    af, bf = float(a), float(b)

    def membership_poly(phi: np.ndarray) -> np.ndarray:
        # flat(l l^T) for l = (a, b, t): entries (a^2, ab, at, b^2, bt, t^2)
        const = phi[0] * af * af + phi[1] * af * bf + phi[3] * bf * bf
        lin = phi[2] * af + phi[4] * bf
        quad = phi[5]
        return np.array([const, lin, quad])

    polys = [membership_poly(phi) for phi in null]
    candidates: list[complex] = []
    for k, p in enumerate(polys):
        scale = np.max(np.abs(p))
        if scale < 1e-12:
            continue
        for r in np.roots(p[::-1] / scale):
            others_ok = True
            for j, pq in enumerate(polys):
                if j == k:
                    continue
                val = pq[0] + pq[1] * r + pq[2] * r * r
                norm = np.max(np.abs(pq)) * max(1.0, abs(r)) ** 2
                if norm > 1e-12 and abs(val) / norm > _MEMBERSHIP_TOL:
                    others_ok = False
                    break
            if others_ok and not any(abs(r - c) < 1e-6 for c in candidates):
                candidates.append(complex(r))
    return candidates


def rank_one_residual(system: QuadricSystem, a, b, quad: MonicQuadratic) -> float:
    """Worst distance between the numeric parameters and the exact roots."""
    numeric = numeric_rank_one_roots(system, a, b)
    p1, p0 = float(quad.p1), float(quad.p0)
    exact = np.roots([1.0, p1, p0])
    if len(numeric) != 2:
        return float("inf")
    worst = 0.0
    for r in exact:
        dist = min(abs(r - c) for c in numeric)
        worst = max(worst, dist / max(1.0, abs(r)))
    return worst
