"""Acceptance criteria, one test per criterion.

Each test asserts the stated exactness/tolerance and time budget, and
prints one PASS line (visible under ``pytest -s`` or in captured output)
so the suite doubles as a checklist.
"""

import json
import random
import time
from fractions import Fraction
from importlib import resources
from math import comb

from biquo import linalg
from biquo.arith import Gaussian, cube_class_mod_q, gaussian_factor, square_class
from biquo.biquotient import is_free, klein_ring, quotient_ring, t1_action_matrix
from biquo.checks import verify
from biquo.invariants import (
    rank_one_elements,
    rotate_alpha_beta,
    t1_invariant,
    t1_realize_class,
    t1_relation_net,
    t2_det_class,
    t2_quadratic_form,
    t3_discriminant_class,
    t3_kernel_system,
    t3_membership_quadratic,
)
from biquo.nodal import BinaryCubic, TernaryCubic, det_cubic, inflection_lines
from biquo.oracles import inflection_residual, stabilizer_oracle
from biquo.report import scan
from biquo.univar import is_rational_square


def family_cubic(alpha, beta):
    return TernaryCubic.from_coefficients(
        {(1, 2, 0): -1, (1, 0, 2): -1, (0, 2, 1): alpha, (0, 1, 2): beta}
    )


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_determinant_cubic():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        got = det_cubic(t1_relation_net(a, b))
        assert got == family_cubic(4 * (a * a - b * b), 8 * a * b), (a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"determinant cubic coefficientwise exact, 20 samples ({elapsed:.2f}s < 1s)")


def test_criterion_2_inflection_cubic():
    rng = random.Random(102)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 20:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if a == 0 and b == 0:
            continue
        alpha, beta = 4 * (a * a - b * b), 8 * a * b
        F = family_cubic(alpha, beta)
        cubic = inflection_lines(F)
        assert cubic == BinaryCubic.harmonic(alpha, beta), (a, b)
        worst = max(worst, inflection_residual(F, cubic))
        done += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    report(2, f"inflection cubic exact, numeric residual {worst:.1e} < 1e-9 ({elapsed:.2f}s < 10s)")


def test_criterion_3_rotation_law():
    rng = random.Random(103)
    done = 0
    while done < 50:
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if (alpha == 0 and beta == 0) or (c == 0 and d == 0):
            continue
        rotated = BinaryCubic.harmonic(alpha, beta).rotate(c, d)
        assert (rotated.alpha, rotated.beta) == rotate_alpha_beta(alpha, beta, c, d)
        done += 1
    report(3, "O(2) rotation law exact on 50 samples")


def test_criterion_4_freeness_oracle():
    rng = random.Random(104)
    start = time.perf_counter()
    for trial in range(200):
        k = 3 if trial % 2 == 0 else 4
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert is_free(m) == all(stabilizer_oracle(m, t) for t in range(2, 13)), m
    for b1 in range(-6, 7, 2):
        for c1 in range(-6, 7, 2):
            assert is_free(t1_action_matrix(b1, c1))
    for _ in range(25):
        k = rng.choice([3, 4])
        m = [
            [rng.randint(-4, 4) if j < i else (1 if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
        assert is_free(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"freeness criterion vs torsion oracle, 200 matrices ({elapsed:.2f}s < 30s)")


def test_criterion_5_t1_separation():
    golden = json.loads(
        resources.files("biquo").joinpath("data/expected_counts.json").read_text()
    )["t1"]
    counts = {r: scan("t1", r).distinct_count for r in (5, 10, 20)}
    assert counts[5] < counts[10] < counts[20]
    assert counts[20] >= 25
    assert counts == {int(k): v for k, v in ((5, golden["5"]), (10, golden["10"]), (20, golden["20"]))}
    witnesses = {5: Gaussian(2, 1), 13: Gaussian(3, 2), 17: Gaussian(4, 1)}
    for p, w in witnesses.items():
        b1, c1 = t1_realize_class(w)
        inv = t1_invariant(b1, c1)
        # confirm through Gaussian factorization of the closed-form value
        a, b = Fraction(c1, 4), Fraction(2 * b1 - c1, 4)
        value = Gaussian(a, b) ** 2 * 4
        scaled = value * Gaussian(value.re.denominator * value.im.denominator, 0)
        orders = {}
        for prime, exp in gaussian_factor(scaled).factors:
            if prime.im > 0 and prime.re > prime.im:
                orders[int(prime.norm())] = orders.get(int(prime.norm()), 0) + exp
            elif prime.im < 0:
                orders[int(prime.norm())] = orders.get(int(prime.norm()), 0) - exp
        assert orders.get(p, 0) % 3 != 0
        assert cube_class_mod_q(value) in inv
        assert any(cls.as_dict().get(p, 0) for cls in inv.classes)
    report(
        5,
        f"distinct invariants grow {counts[5]} -> {counts[10]} -> {counts[20]} (>= 25); "
        "classes at p = 5, 13, 17 realized constructively",
    )


def test_criterion_6_t2_pipeline():
    rng = random.Random(106)
    start = time.perf_counter()
    display_scale = Fraction(1, 3)
    for _ in range(20):
        a0 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]))
        a1 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]))
        bundle = klein_ring(a0, a1)
        m = bundle.ring.mult_by_class(bundle.y)
        assert m.kernel_dim == 1
        kernel, z = m.kernel[0], bundle.z
        j = next(i for i, c in enumerate(z) if c != 0)
        scale = kernel[j] / z[j]
        assert scale != 0 and all(kernel[i] == scale * z[i] for i in range(5))
        a2 = a0 * a0 / a1
        G = t2_quadratic_form(a0, a1)
        display = [
            [a1, a0, 0, 0, 0],
            [a0, a2, a1, 0, 0],
            [0, a1, 0, a2, 0],
            [0, 0, a2, 0, 0],
            [0, 0, 0, 0, a0],
        ]
        assert all(
            G[i][j2] == display_scale * display[i][j2]
            for i in range(5)
            for j2 in range(5)
        )
        assert t2_det_class(a0, a1) == square_class(-a0 * a1)
        assert bundle.ring.kernel_of_square_map().dim == 10  # surjectivity
    # invariance under complements and basis changes of W
    a0, a1 = Fraction(3), Fraction(-2)
    target = t2_det_class(a0, a1)
    y = list(klein_ring(a0, a1).y)
    gram = [list(r) for r in t2_quadratic_form(a0, a1)]
    done = 0
    while done < 20:
        comp = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)]
        if linalg.det([y] + comp) == 0:
            continue
        assert t2_det_class(a0, a1, complement=comp) == target
        done += 1
    base = [[Fraction(int(i == j)) for j in range(5)] for i in range(5) if i != 0]
    done = 0
    while done < 20:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if linalg.det(P) == 0:
            continue
        lam = Fraction(rng.randint(1, 7) * rng.choice([1, -1]))
        vectors = [
            [sum(P[i][k] * base[k][j] for k in range(4)) for j in range(5)]
            for i in range(4)
        ]
        induced = [
            [
                lam
                * sum(
                    va * gram[r][s] * vb
                    for r, va in enumerate(vec_a)
                    for s, vb in enumerate(vec_b)
                )
                for vec_b in vectors
            ]
            for vec_a in vectors
        ]
        d = linalg.det(induced)
        assert d != 0 and square_class(d) == target
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, f"t2 pipeline: kernel, Gram display, det class, invariances ({elapsed:.2f}s < 10s)")


def test_criterion_7_t3_pipeline():
    rng = random.Random(107)
    done = 0
    while done < 20:
        a, b, c = (
            Fraction(rng.randint(1, 7) * rng.choice([1, -1]), rng.randint(1, 2))
            for _ in range(3)
        )
        quad = t3_membership_quadratic(a, b, c)
        assert quad.p1 == (-c * c - 2 * a * b + 1) / c and quad.p0 == 2 * a * b
        delta = quad.discriminant()
        if delta == 0:
            continue
        assert t3_discriminant_class(a, b, c) == square_class(
            4 * (((2 * a * b - c * c - 1) / (2 * c)) ** 2 - 1)
        )
        if not is_rational_square(delta):
            cls = rank_one_elements(
                t3_kernel_system(a, b, c), line_hint=((a, b, 0), (0, 0, 1))
            )
            assert cls.rational == ((0, 1, 0), (1, 0, 0))
            assert len(cls.orbits) == 1 and cls.orbits[0].min_poly == quad
        done += 1
    golden = json.loads(
        resources.files("biquo").joinpath("data/expected_counts.json").read_text()
    )["t3"]
    rep = scan("t3", 12)
    assert rep.distinct_count >= 10
    assert rep.distinct_count == golden["12"]
    small = scan("t3", 4)
    assert small.distinct_count == golden["4"]
    assert small.distinct_count < rep.distinct_count
    classes = {inv for _, inv in rep.rows}
    for p in (3, 5, 7):
        assert square_class(Fraction(p * (p + 2))).serialize() in classes
    report(
        7,
        f"t3 pipeline exact; scan counts grow {small.distinct_count} -> "
        f"{rep.distinct_count} (>= 10) including p(p+2) for p = 3, 5, 7",
    )


def test_criterion_8_ring_structure():
    rng = random.Random(108)
    for _ in range(20):
        b1, c1 = rng.randint(-9, 9), rng.randint(-9, 9)
        ring = quotient_ring(t1_action_matrix(b1, c1))
        assert ring.is_complete_intersection()
        assert [ring.graded_dim(d) for d in (0, 2, 4, 6)] == [
            comb(3, k) for k in range(4)
        ]
    for _ in range(20):
        m = [
            [rng.randint(-4, 4) if j < i else (1 if i == j else 0) for j in range(4)]
            for i in range(4)
        ]
        ring = quotient_ring(m)
        assert ring.is_complete_intersection()
        assert [ring.graded_dim(d) for d in (0, 2, 4, 6, 8)] == [
            comb(4, k) for k in range(5)
        ]
    report(8, "quotient rings are complete intersections with binomial graded dims, 20 + 20 parameters")


def test_criterion_9_full_verification_suite():
    start = time.perf_counter()
    results = verify("all")
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.ok]
    assert not failures, [r.line() for r in failures]
    assert elapsed < 300.0
    report(9, f"verify --suite all: {len(results)} checks, zero failures ({elapsed:.1f}s < 300s)")
