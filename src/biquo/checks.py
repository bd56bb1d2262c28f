"""Property suites and oracle cross-checks behind ``biquo verify``.

Each suite runs a fixed list of named checks with a seeded generator, so
two runs see the same random samples.  A failing check carries a dump of
the exact inputs that broke it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .arith import (
    Gaussian,
    SquareClass,
    cube_class_mod_q,
    factor,
    gaussian_factor,
    split_prime_rep,
    square_class,
)
from .biquotient import (
    TorusActionMatrix,
    circle_bundle_degree4,
    is_free,
    klein_ring,
    quotient_ring,
    t1_action_matrix,
    t3_rational_ring,
)
from .cli import SUITE_NAMES
from .graded import GradedQuotient, QuadricSystem, hilbert_coefficients, poly_to_gram
from .invariants import (
    DegenerateFamilyMember,
    rank_one_elements,
    rotate_alpha_beta,
    t1_invariant,
    t1_invariant_pipeline,
    t1_realize_class,
    t1_relation_net,
    t2_det_class,
    t2_quadratic_form,
    t3_discriminant_class,
    t3_kernel_system,
    t3_membership_quadratic,
)
from .nodal import BinaryCubic, TernaryCubic, det_cubic, inflection_lines
from .poly import HomPoly
from .univar import is_rational_square

DEFAULT_SEED = 20250717


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{status}  {self.suite}.{self.name}{tail}"


@dataclass
class _Recorder:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.results.append(CheckResult(self.suite, name, bool(ok), detail))

    def run(self, name: str, fn):
        """Run a boolean check, catching exceptions as failures."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failing check, not a crash
            ok, detail = False, f"exception: {exc!r}"
        self.check(name, ok, detail)


def _random_fraction(rng: random.Random, lo=1, hi=9, den=4) -> Fraction:
    return Fraction(
        rng.randint(lo, hi) * rng.choice([1, -1]), rng.randint(1, den)
    )


def _family_cubic(alpha: Fraction, beta: Fraction) -> TernaryCubic:
    return TernaryCubic.from_coefficients(
        {(1, 2, 0): -1, (1, 0, 2): -1, (0, 2, 1): alpha, (0, 1, 2): beta}
    )


# ---------------------------------------------------------------------------


def _suite_arith(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("arith")

    def square_invariance():
        for _ in range(200):
            q = Fraction(
                rng.randint(1, 300) * rng.choice([1, -1]), rng.randint(1, 300)
            )
            r = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            if square_class(q * r * r) != square_class(q):
                return False, f"q={q} r={r}"
        return True, ""

    rec.run("square_class_mod_squares_200", square_invariance)

    def cube_invariance():
        for _ in range(200):
            z = Gaussian(rng.randint(-20, 20), rng.randint(-20, 20))
            w = Gaussian(rng.randint(-6, 6), rng.randint(-6, 6))
            q = Fraction(
                rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 9)
            )
            if not z or not w:
                continue
            if cube_class_mod_q(z * q * w**3) != cube_class_mod_q(z):
                return False, f"z={z} q={q} w={w}"
        return True, ""

    rec.run("cube_class_mod_rationals_and_cubes_200", cube_invariance)

    def roundtrip():
        for _ in range(200):
            z = Gaussian(rng.randint(-60, 60), rng.randint(-60, 60))
            if not z:
                continue
            if gaussian_factor(z).value() != z:
                return False, f"z={z}"
        return True, ""

    rec.run("gaussian_factor_roundtrip_200", roundtrip)

    def split_primes():
        for p in (5, 13, 17, 29):
            pi = split_prime_rep(p)
            if cube_class_mod_q(pi).as_dict() != {p: 1}:
                return False, f"p={p} pi={pi}"
            if cube_class_mod_q(pi.conjugate()).as_dict() != {p: 2}:
                return False, f"p={p} conj"
        return True, ""

    rec.run("split_prime_classes", split_primes)

    def homomorphism():
        for _ in range(100):
            z = Gaussian(rng.randint(-20, 20), rng.randint(-20, 20))
            w = Gaussian(rng.randint(-20, 20), rng.randint(-20, 20))
            if not z or not w:
                continue
            if cube_class_mod_q(z * w) != cube_class_mod_q(z) * cube_class_mod_q(w):
                return False, f"z={z} w={w}"
        return True, ""

    rec.run("cube_class_homomorphism_100", homomorphism)

    def conjugation():
        for _ in range(50):
            z = Gaussian(rng.randint(-20, 20), rng.randint(-20, 20))
            if not z:
                continue
            if cube_class_mod_q(z.conjugate()) != cube_class_mod_q(z).conjugate():
                return False, f"z={z}"
        return True, ""

    rec.run("conjugation_law_50", conjugation)

    def factor_examples():
        ok = factor(12) == (1, {2: 2, 3: 1}) and factor(-1) == (-1, {})
        ok = ok and factor(1000003) == (1, {1000003: 1})
        return ok, ""

    rec.run("factor_examples", factor_examples)
    return rec.results


def _suite_ring(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("ring")

    def family_dims():
        expected = hilbert_coefficients([2] * 3, [4] * 3, 6)
        for _ in range(20):
            b1, c1 = rng.randint(-8, 8), rng.randint(-8, 8)
            ring = quotient_ring(t1_action_matrix(b1, c1))
            dims = [ring.graded_dim(d) for d in range(0, 7, 2)]
            if dims != [expected[d] for d in range(0, 7, 2)]:
                return False, f"(b1,c1)=({b1},{c1}) dims={dims}"
            if not ring.is_complete_intersection():
                return False, f"(b1,c1)=({b1},{c1}) not CI"
        return True, ""

    rec.run("family_ring_hilbert_20", family_dims)

    def non_ci():
        x = [HomPoly.variable(3, i) for i in range(3)]
        bad = GradedQuotient(3, [x[0] * x[0], x[0] * x[1], x[0] * x[2]])
        return (not bad.is_complete_intersection()), ""

    rec.run("dependent_relations_fail", non_ci)

    def change_of_variables_dims():
        ring = quotient_ring(t1_action_matrix(3, -2))
        for _ in range(50):
            while True:
                P = [
                    [Fraction(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)
                ]
                if linalg.det(P) != 0:
                    break
            moved = ring.change_of_variables(P)
            if any(
                moved.graded_dim(d) != ring.graded_dim(d) for d in (0, 2, 4, 6)
            ):
                return False, f"P={P}"
        return True, ""

    rec.run("graded_dim_change_of_variables_50", change_of_variables_dims)

    def kernel_rank_identity():
        for _ in range(10):
            b1, c1 = rng.randint(-6, 6), rng.randint(-6, 6)
            ring = quotient_ring(t1_action_matrix(b1, c1))
            ker = ring.kernel_of_square_map()
            if ker.dim + ring.h4_dim() != 6:
                return False, f"(b1,c1)=({b1},{c1})"
            for rel in ring.relations:
                if not ker.contains(poly_to_gram(rel)):
                    return False, f"relation missing (b1,c1)=({b1},{c1})"
        return True, ""

    rec.run("square_map_kernel_rank_identity", kernel_rank_identity)

    def klein_mult_dims():
        bundle = klein_ring(2, 3)
        for _ in range(20):
            y = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
            if all(v == 0 for v in y):
                continue
            m = bundle.ring.mult_by_class(y)
            if m.kernel_dim != m.cokernel_dim:
                return False, f"y={y}"
        return True, ""

    rec.run("mult_map_kernel_equals_cokernel", klein_mult_dims)
    return rec.results


def _suite_freeness(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("freeness")

    def beyond_oracle(M) -> bool:
        """The oracle's torsion orders 2..12 see a non-unit principal minor
        only through a prime up to 11: M is not free, but each of its
        principal minors (by ``linalg.det``, not ``is_free``'s Schur
        recursion) is nonzero and prime to 2*3*5*7*11, and one is not +-1."""
        k = len(M)
        minors = [
            linalg.det([[M[i][j] for j in S] for i in S])
            for r in range(1, k + 1)
            for S in combinations(range(k), r)
        ]
        return all(gcd(int(d), 2310) == 1 for d in minors) and any(
            abs(d) != 1 for d in minors
        )

    def agreement():
        from .oracles import stabilizer_oracle  # numpy stays off the CLI import path

        for trial in range(200):
            k = 3 if trial % 2 == 0 else 4
            if trial < 100:
                M = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            else:
                # a random matrix is almost never free; a unit lower
                # triangular one is, until a few entries are perturbed
                M = [
                    [rng.choice((1, -1)) if i == j else rng.randint(-3, 3) if j < i else 0
                     for j in range(k)]
                    for i in range(k)
                ]
                for _ in range(trial % 3):
                    M[rng.randrange(k)][rng.randrange(k)] += rng.choice((1, -1, 2))
            free = is_free(M)
            # a fixed element of order m has a fixed multiple of prime
            # order, so the primes up to 11 see all that orders 2..12 see
            A = TorusActionMatrix.from_rows(M)
            oracle = all(stabilizer_oracle(A, p) for p in (2, 3, 5, 7, 11))
            if free != oracle and not (oracle and beyond_oracle(M)):
                return False, f"matrix={M} is_free={free} oracle={oracle}"
        return True, ""

    rec.run("criterion_vs_oracle_200", agreement)

    def family_free():
        for b1 in range(-12, 13, 3):
            for c1 in range(-12, 13, 3):
                if not is_free(t1_action_matrix(b1, c1)):
                    return False, f"(b1,c1)=({b1},{c1})"
        return True, ""

    rec.run("family_always_free", family_free)

    def lower_triangular():
        for _ in range(50):
            k = rng.choice([3, 4])
            M = [
                [
                    rng.randint(-4, 4) if j < i else (1 if i == j else 0)
                    for j in range(k)
                ]
                for i in range(k)
            ]
            if not is_free(M):
                return False, f"matrix={M}"
        return True, ""

    rec.run("unit_lower_triangular_free", lower_triangular)

    def diagonal_two():
        return (not is_free([[2, 0, 0], [0, 1, 0], [0, 0, 1]])), ""

    rec.run("diagonal_two_not_free", diagonal_two)
    return rec.results


def _suite_t1(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("t1")

    def det_formula():
        for _ in range(20):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            F = det_cubic(t1_relation_net(a, b))
            want = _family_cubic(4 * (a * a - b * b), 8 * a * b)
            if F != want:
                return False, f"a={a} b={b}"
        return True, ""

    rec.run("determinant_cubic_formula_20", det_formula)

    def inflection_formula():
        from .oracles import inflection_residual  # numpy stays off the CLI import path

        for _ in range(20):
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if a == 0 and b == 0:
                continue
            alpha, beta = 4 * (a * a - b * b), 8 * a * b
            F = _family_cubic(alpha, beta)
            cubic = inflection_lines(F)
            if cubic != BinaryCubic.harmonic(alpha, beta):
                return False, f"a={a} b={b}"
            if inflection_residual(F, cubic) >= 1e-9:
                return False, f"numeric residual a={a} b={b}"
        return True, ""

    rec.run("inflection_cubic_exact_and_numeric_20", inflection_formula)

    def rotation_law():
        for _ in range(50):
            alpha = _random_fraction(rng)
            beta = _random_fraction(rng)
            c = _random_fraction(rng, hi=5, den=3)
            d = _random_fraction(rng, hi=5, den=3)
            rotated = BinaryCubic.harmonic(alpha, beta).rotate(c, d)
            want_re, want_im = rotate_alpha_beta(alpha, beta, c, d)
            if (rotated.alpha, rotated.beta) != (want_re, want_im):
                return False, f"alpha={alpha} beta={beta} c={c} d={d}"
        return True, ""

    rec.run("orthogonal_rotation_law_50", rotation_law)

    def pipeline_agreement():
        for _ in range(30):
            b1, c1 = rng.randint(-10, 10), rng.randint(-10, 10)
            if (b1, c1) == (0, 0):
                continue
            if t1_invariant_pipeline(b1, c1) != t1_invariant(b1, c1):
                return False, f"(b1,c1)=({b1},{c1})"
        return True, ""

    rec.run("pipeline_vs_closed_form_30", pipeline_agreement)

    def relation_scaling():
        from .invariants import t1_invariant_from_net, t1_parameters

        done = 0
        while done < 50:
            b1, c1 = rng.randint(-8, 8), rng.randint(-8, 8)
            if (b1, c1) == (0, 0):
                continue
            a, b = t1_parameters(b1, c1)
            net = t1_relation_net(a, b)
            scales = [
                Fraction(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 3))
                for _ in range(3)
            ]
            scaled = QuadricSystem(
                3,
                tuple(
                    tuple(tuple(s * x for x in row) for row in gram)
                    for s, gram in zip(scales, net.basis)
                ),
            )
            if t1_invariant_from_net(scaled) != t1_invariant(b1, c1):
                return False, f"(b1,c1)=({b1},{c1}) scales={scales}"
            done += 1
        return True, ""

    rec.run("relation_scaling_invariance_50", relation_scaling)

    def conjugate_pair():
        for _ in range(30):
            b1, c1 = rng.randint(-12, 12), rng.randint(-12, 12)
            if (b1, c1) == (0, 0):
                continue
            inv = t1_invariant(b1, c1)
            if inv.classes[1] != inv.classes[0].conjugate() and inv.classes[
                0
            ] != inv.classes[1].conjugate():
                return False, f"(b1,c1)=({b1},{c1})"
        return True, ""

    rec.run("pair_members_conjugate", conjugate_pair)

    def swap_exchanges():
        for _ in range(20):
            alpha = _random_fraction(rng)
            beta = _random_fraction(rng)
            swapped = BinaryCubic.harmonic(alpha, beta).swapped()
            if not swapped.is_harmonic():
                return False, f"alpha={alpha} beta={beta}"
            if (swapped.alpha, swapped.beta) != (beta, alpha):
                return False, f"alpha={alpha} beta={beta}"
        return True, ""

    rec.run("mu_nu_swap_exchanges_pair", swap_exchanges)

    def realize():
        for p, w in ((5, Gaussian(2, 1)), (13, Gaussian(3, 2)), (17, Gaussian(4, 1))):
            b1, c1 = t1_realize_class(w)
            inv = t1_invariant(b1, c1)
            residues = [cls.as_dict().get(p, 0) for cls in inv.classes]
            if not any(residues):
                return False, f"p={p} (b1,c1)=({b1},{c1})"
            # confirm through the factorization of the closed-form value
            value = Gaussian(Fraction(c1, 4), Fraction(2 * b1 - c1, 4)) ** 2 * 4
            if cube_class_mod_q(value) not in inv:
                return False, f"p={p} class mismatch"
        return True, ""

    rec.run("realize_classes_5_13_17", realize)
    return rec.results


def _suite_t2(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("t2")

    def kernel_is_z():
        for _ in range(20):
            a0 = _random_fraction(rng)
            a1 = _random_fraction(rng)
            bundle = klein_ring(a0, a1)
            m = bundle.ring.mult_by_class(bundle.y)
            if m.kernel_dim != 1:
                return False, f"a0={a0} a1={a1} dim={m.kernel_dim}"
            ker, z = m.kernel[0], bundle.z
            j = next(i for i, c in enumerate(z) if c != 0)
            scale = ker[j] / z[j]
            if scale == 0 or any(ker[i] != scale * z[i] for i in range(5)):
                return False, f"a0={a0} a1={a1} kernel={ker}"
        return True, ""

    rec.run("mult_by_y_kernel_is_z_20", kernel_is_z)

    def gram_display():
        for _ in range(20):
            a0 = _random_fraction(rng)
            a1 = _random_fraction(rng)
            a2 = a0 * a0 / a1
            G = t2_quadratic_form(a0, a1)
            display = [
                [a1, a0, 0, 0, 0],
                [a0, a2, a1, 0, 0],
                [0, a1, 0, a2, 0],
                [0, 0, a2, 0, 0],
                [0, 0, 0, 0, a0],
            ]
            scale = Fraction(1, 3)
            if any(
                G[i][j] != scale * display[i][j]
                for i in range(5)
                for j in range(5)
            ):
                return False, f"a0={a0} a1={a1}"
        return True, ""

    rec.run("gram_matches_display_up_to_scalar_20", gram_display)

    def det_class_formula():
        for _ in range(20):
            a0 = _random_fraction(rng)
            a1 = _random_fraction(rng)
            if t2_det_class(a0, a1) != square_class(-a0 * a1):
                return False, f"a0={a0} a1={a1}"
        return True, ""

    rec.run("det_class_equals_minus_a0_a1_20", det_class_formula)

    def complement_independence():
        a0, a1 = Fraction(3), Fraction(-2)
        target = t2_det_class(a0, a1)
        y = list(klein_ring(a0, a1).y)
        done = 0
        while done < 20:
            comp = [
                [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)
            ]
            if linalg.det([y] + comp) == 0:
                continue
            if t2_det_class(a0, a1, complement=comp) != target:
                return False, f"complement={comp}"
            done += 1
        return True, ""

    rec.run("complement_independence_20", complement_independence)

    def basis_change_invariance():
        a0, a1 = Fraction(2), Fraction(5)
        target = t2_det_class(a0, a1)
        gram = [list(r) for r in t2_quadratic_form(a0, a1)]
        y = list(klein_ring(a0, a1).y)
        base = [
            [Fraction(int(i == j)) for j in range(5)]
            for i in range(5)
            if i != 1
        ]
        done = 0
        while done < 20:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            if linalg.det(P) == 0:
                continue
            scale = Fraction(rng.randint(1, 7) * rng.choice([1, -1]))
            vectors = [
                [
                    sum(P[i][k] * base[k][j] for k in range(4))
                    for j in range(5)
                ]
                for i in range(4)
            ]
            induced = [
                [
                    scale
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
            if d == 0 or square_class(d) != target:
                return False, f"P={P} scale={scale}"
            done += 1
        return True, ""

    rec.run("basis_change_and_scaling_invariance_20", basis_change_invariance)

    def surjective():
        for _ in range(10):
            a0 = _random_fraction(rng)
            a1 = _random_fraction(rng)
            bundle = klein_ring(a0, a1)
            if bundle.ring.kernel_of_square_map().dim != 15 - 5:
                return False, f"a0={a0} a1={a1}"
        return True, ""

    rec.run("square_map_surjective", surjective)

    def special_bundle_cokernel():
        bundle = klein_ring(Fraction(4, 3), Fraction(-5, 2))
        data = circle_bundle_degree4(bundle.ring, bundle.y)
        return (data.target_dim == 1 and data.image_dim == 1), (
            f"target={data.target_dim} image={data.image_dim}"
        )

    rec.run("special_bundle_one_dimensional_image", special_bundle_cokernel)
    return rec.results


def _suite_t3(rng: random.Random) -> list[CheckResult]:
    rec = _Recorder("t3")

    def quadratic_formula():
        for _ in range(20):
            a = _random_fraction(rng, hi=7, den=3)
            b = _random_fraction(rng, hi=7, den=3)
            c = _random_fraction(rng, hi=7, den=3)
            q = t3_membership_quadratic(a, b, c)
            if q.p1 != (-c * c - 2 * a * b + 1) / c or q.p0 != 2 * a * b:
                return False, f"(a,b,c)=({a},{b},{c})"
            want = 4 * (((2 * a * b - c * c - 1) / (2 * c)) ** 2 - 1)
            if q.discriminant() != want:
                return False, f"discriminant (a,b,c)=({a},{b},{c})"
        return True, ""

    rec.run("membership_quadratic_formula_20", quadratic_formula)

    def rank_one_exact():
        from .oracles import rank_one_residual  # numpy stays off the CLI import path

        done = 0
        while done < 20:
            a = _random_fraction(rng, hi=6, den=2)
            b = _random_fraction(rng, hi=6, den=2)
            c = _random_fraction(rng, hi=6, den=2)
            q = t3_membership_quadratic(a, b, c)
            if q.discriminant() == 0 or is_rational_square(q.discriminant()):
                continue
            cls = rank_one_elements(
                t3_kernel_system(a, b, c), line_hint=((a, b, 0), (0, 0, 1))
            )
            if cls.rational != ((0, 1, 0), (1, 0, 0)):
                return False, f"(a,b,c)=({a},{b},{c}) rational={cls.rational}"
            if len(cls.orbits) != 1 or cls.orbits[0].min_poly != q:
                return False, f"(a,b,c)=({a},{b},{c}) orbits={cls.orbits}"
            if rank_one_residual(t3_kernel_system(a, b, c), a, b, q) >= 1e-9:
                return False, f"numeric (a,b,c)=({a},{b},{c})"
            done += 1
        return True, ""

    rec.run("rank_one_classification_20", rank_one_exact)

    def bundle_kernel_dimension():
        for _ in range(10):
            a = _random_fraction(rng, hi=5, den=2)
            b = _random_fraction(rng, hi=5, den=2)
            c = _random_fraction(rng, hi=5, den=2)
            base = t3_rational_ring(max_degree=8)
            x = [HomPoly.variable(4, i) for i in range(4)]
            y = x[3] - (x[0].scale(a) + x[1].scale(b) + x[2].scale(c))
            data = circle_bundle_degree4(base, y)
            if data.kernel.dim != 4:
                return False, f"(a,b,c)=({a},{b},{c}) dim={data.kernel.dim}"
        return True, ""

    rec.run("bundle_kernel_dim_four", bundle_kernel_dimension)

    def discriminant_class_examples():
        if t3_discriminant_class(1, 1, 1) != SquareClass(-1, ()):
            return False, "(1,1,1)"
        for p in (3, 5, 7):
            got = t3_discriminant_class(1, p + 2, 1)
            if got != square_class(Fraction(p * (p + 2))):
                return False, f"p={p} got={got}"
        return True, ""

    rec.run("discriminant_class_examples", discriminant_class_examples)

    def substitution_invariance():
        done = 0
        while done < 20:
            a = Fraction(rng.randint(1, 5) * rng.choice([1, -1]))
            b = Fraction(rng.randint(1, 5) * rng.choice([1, -1]))
            c = Fraction(rng.randint(1, 5) * rng.choice([1, -1]))
            try:
                target = t3_discriminant_class(a, b, c)
            except DegenerateFamilyMember:
                continue
            if is_rational_square(
                t3_membership_quadratic(a, b, c).discriminant()
            ):
                continue
            while True:
                P = [
                    [Fraction(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)
                ]
                if linalg.det(P) != 0:
                    break
            moved = QuadricSystem.from_polys(
                [p.substitute(P) for p in t3_kernel_system(a, b, c).polys()]
            )
            cls = rank_one_elements(moved)
            if len(cls.orbits) != 1 or len(cls.rational) != 2:
                return False, f"(a,b,c)=({a},{b},{c}) P={P}"
            got = square_class(cls.orbits[0].min_poly.discriminant())
            if got != target:
                return False, f"(a,b,c)=({a},{b},{c}) P={P} got={got}"
            done += 1
        return True, ""

    rec.run("splitting_class_substitution_invariance_20", substitution_invariance)

    def degenerate_flagging():
        try:
            t3_discriminant_class(1, 2, 1)
            return False, "(1,2,1) not flagged"
        except DegenerateFamilyMember:
            return True, ""

    rec.run("degenerate_members_flagged", degenerate_flagging)
    return rec.results


_SUITES = {
    "arith": _suite_arith,
    "ring": _suite_ring,
    "freeness": _suite_freeness,
    "t1": _suite_t1,
    "t2": _suite_t2,
    "t3": _suite_t3,
}


def verify(suite: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run one named suite (or "all"); returns one result per check."""
    if suite == "all":
        results = []
        for name in SUITE_NAMES:
            results.extend(_SUITES[name](random.Random(seed)))
        return results
    if suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    return _SUITES[suite](random.Random(seed))
