import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from biquo import linalg
from biquo.arith import CertificateError, Gaussian, SquareClass, cube_class_mod_q, square_class
from biquo.biquotient import quotient_ring, t1_action_matrix
from biquo.graded import QuadricSystem
from biquo.invariants import (
    DegenerateFamilyMember,
    MonicQuadratic,
    T1Invariant,
    parse_t1_invariant,
    rank_one_elements,
    rotate_alpha_beta,
    t1_invariant,
    t1_invariant_pipeline,
    t1_parameters,
    t1_realize_class,
    t2_det_class,
    t2_quadratic_form,
    t3_discriminant_class,
    t3_kernel_system,
    t3_membership_quadratic,
)
from biquo.nodal import (
    BinaryQuadratic,
    TernaryCubic,
    _normalized_cone_terms,
    _packed_cubic,
    _primitive_terms,
    tangent_cone,
)
from biquo.oracles import rank_one_residual
from biquo.poly import HomPoly, monomials
from biquo.univar import is_rational_square


# ---------------------------------------------------------------------------
# t1
# ---------------------------------------------------------------------------


def test_rotate_alpha_beta_examples():
    assert rotate_alpha_beta(4, 7, 1, 0) == (4, 7)
    assert rotate_alpha_beta(4, 0, 0, 1) == (0, -4)  # 4 * i^3 = -4i
    with pytest.raises(ValueError):
        rotate_alpha_beta(1, 1, 0, 0)


def test_rotation_preserves_cube_class():
    rng = random.Random(0)
    for _ in range(50):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if (alpha == 0 and beta == 0) or (c == 0 and d == 0):
            continue
        a2, b2 = rotate_alpha_beta(alpha, beta, c, d)
        assert cube_class_mod_q(Gaussian(a2, b2)) == cube_class_mod_q(
            Gaussian(alpha, beta)
        )


def test_t1_parameters():
    a, b = t1_parameters(6, 8)
    assert (a, b) == (Fraction(2), Fraction(1))
    assert 2 * (a + b) == 6 and 4 * a == 8


def test_t1_invariant_trivial():
    inv = t1_invariant(2, 0)  # a=0, b=1: 4(i)^2 = -4 is rational
    assert all(c.is_trivial() for c in inv.classes)


def test_t1_invariant_6_8():
    inv = t1_invariant(6, 8)  # 12 + 16i = 4(2+i)^2
    assert {c.serialize() for c in inv.classes} == {"5:1", "5:2"}
    assert inv.serialize() == "5:1|5:2"
    assert parse_t1_invariant(inv.serialize()) == inv


def test_t1_invariant_rejects_origin():
    with pytest.raises(ValueError):
        t1_invariant(0, 0)


def test_t1_members_are_conjugate():
    rng = random.Random(1)
    for _ in range(30):
        b1, c1 = rng.randint(-15, 15), rng.randint(-15, 15)
        if (b1, c1) == (0, 0):
            continue
        inv = t1_invariant(b1, c1)
        assert inv.classes[1] in (
            inv.classes[0].conjugate(),
            inv.classes[0],
        )


def test_t1_pipeline_matches_closed_form():
    # every pair of the golden t1 grid, r = 20
    for b1 in range(-20, 21):
        for c1 in range(-20, 21):
            if (b1, c1) != (0, 0):
                assert t1_invariant_pipeline(b1, c1) == t1_invariant(b1, c1), (b1, c1)


def test_t1_pipeline_tail_runs_no_substitution_division_or_gram(monkeypatch):
    # the node of a family net is [1, 0, 0] and the cone is turned on binary
    # forms, so nothing substitutes into a HomPoly; (mu^2+nu^2) is stripped
    # on integers, so nothing calls up_divmod; and the determinant is read
    # from the net's integer rows, so no Fraction Gram is built.  From the
    # net on, one packed int cubic runs through the tail: no partial is
    # built and no packed cubic is unpacked into a HomPoly
    from biquo import graded, nodal, univar
    from biquo.invariants import t1_invariant_from_net, t1_relation_net

    calls = {"substitute": 0, "up_divmod": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def forbidden(what):
        def fail(*args):
            raise AssertionError(f"the t1 tail {what}")
        return fail

    monkeypatch.setattr(HomPoly, "substitute", counted("substitute", HomPoly.substitute))
    monkeypatch.setattr(univar, "up_divmod", counted("up_divmod", univar.up_divmod))
    monkeypatch.setattr(graded, "_grams", forbidden("built Fraction Grams"))
    pairs = ((7, -3), (1, 0), (0, 8), (-13, 5), (20, 19))
    nets = []
    for b1, c1 in pairs:
        assert t1_invariant_pipeline(b1, c1) == t1_invariant(b1, c1)
        nets.append((quotient_ring(t1_action_matrix(b1, c1)).kernel_of_square_map(), (b1, c1)))
        nets.append((t1_relation_net(*t1_parameters(b1, c1)), (b1, c1)))
    # the ring itself multiplies HomPolys, so these two are forbidden on
    # the tail alone
    monkeypatch.setattr(TernaryCubic, "partials", forbidden("built partials"))
    monkeypatch.setattr(nodal, "_packed_cubic", forbidden("unpacked a cubic"))
    for net, (b1, c1) in nets:
        assert t1_invariant_from_net(net) == t1_invariant(b1, c1)
    assert calls == {"substitute": 0, "up_divmod": 0}


@pytest.mark.parametrize(
    "params",
    [(4, 4), (0, 8), (5, 0), (2, 0), (-4, -4), (-1, 2), (40, -37), (-33, 21)],
)
def test_t1_pipeline_special_lines_and_large_params(params):
    # a*b = 0 and a = +-b give rational or unit values (trivial classes);
    # the larger parameters exercise multi-prime and 4-digit-prime classes
    b1, c1 = params
    assert t1_invariant_pipeline(b1, c1) == t1_invariant(b1, c1)


def test_t1_invariant_under_relation_scaling_and_mixing():
    from biquo.invariants import t1_invariant_from_net, t1_relation_net

    rng = random.Random(12)
    done = 0
    while done < 50:
        b1, c1 = rng.randint(-8, 8), rng.randint(-8, 8)
        if (b1, c1) == (0, 0):
            continue
        a, b = t1_parameters(b1, c1)
        net = t1_relation_net(a, b)
        target = t1_invariant(b1, c1)
        scales = [
            Fraction(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 3))
            for _ in range(3)
        ]
        scaled = QuadricSystem(
            3,
            tuple(
                tuple(tuple(s * entry for entry in row) for row in gram)
                for s, gram in zip(scales, net.basis)
            ),
        )
        assert t1_invariant_from_net(scaled) == target
        done += 1


def test_t1_invariant_under_full_net_mixing():
    # any invertible recombination of the net basis presents the same
    # degree-<=4 data, so the invariant must not move
    from biquo.invariants import t1_invariant_from_net, t1_relation_net

    rng = random.Random(14)
    done = 0
    while done < 20:
        b1, c1 = rng.randint(-8, 8), rng.randint(-8, 8)
        if (b1, c1) == (0, 0):
            continue
        a, b = t1_parameters(b1, c1)
        net = t1_relation_net(a, b)
        while True:
            M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(M) != 0:
                break
        mixed = QuadricSystem(
            3,
            tuple(
                tuple(
                    tuple(
                        sum(M[r][k] * net.basis[k][i][j] for k in range(3))
                        for j in range(3)
                    )
                    for i in range(3)
                )
                for r in range(3)
            ),
        )
        assert t1_invariant_from_net(mixed) == t1_invariant(b1, c1), (b1, c1, M)
        done += 1


def test_t1_invariant_of_the_ring_net_is_free_of_scale_and_basis():
    # the determinant cubic is cleared to a primitive integer cubic; the
    # invariant must not depend on which representative of the net came in
    from biquo.invariants import t1_invariant_from_net

    rng = random.Random(21)

    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))

    for b1 in range(-5, 6):
        for c1 in range(-5, 6):
            if (b1, c1) == (0, 0):
                continue
            net = quotient_ring(t1_action_matrix(b1, c1)).kernel_of_square_map()
            scaled = [
                [[s * x for x in row] for row in gram]
                for s, gram in zip([rational() for _ in range(3)], net.basis)
            ]
            while True:
                M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                     for _ in range(3)]
                if linalg.det(M) != 0:
                    break
            mixed = QuadricSystem(3, tuple(
                tuple(
                    tuple(sum(M[r][k] * scaled[k][i][j] for k in range(3)) for j in range(3))
                    for i in range(3)
                )
                for r in range(3)
            ))
            assert t1_invariant_from_net(mixed) == t1_invariant(b1, c1), (b1, c1, M)


def test_t1_pair_symmetric_in_alpha_beta():
    rng = random.Random(13)
    for _ in range(20):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        if alpha == 0 and beta == 0:
            continue
        assert T1Invariant.from_alpha_beta(alpha, beta) == T1Invariant.from_alpha_beta(
            beta, alpha
        )


def test_t1_realize_examples():
    assert t1_realize_class(Gaussian(1, 0)) == (2, 4)
    assert all(c.is_trivial() for c in t1_invariant(2, 4).classes)
    assert t1_realize_class(Gaussian(2, 1)) == (14, 12)  # (2+i)^2 = 3+4i
    assert t1_realize_class(Gaussian(3, 2)) == (34, 20)  # (3+2i)^2 = 5+12i
    target = cube_class_mod_q(Gaussian(3, 2))
    b1, c1 = t1_realize_class(Gaussian(3, 2), target=target)
    assert target in t1_invariant(b1, c1)


def test_t1_realize_rejects_zero():
    with pytest.raises(ValueError):
        t1_realize_class(Gaussian(0, 0))


# ---------------------------------------------------------------------------
# t2
# ---------------------------------------------------------------------------


def klein_polarization_oracle(a0, a1, u, v, z):
    # independent polarization of K(x) = sum x_i^2 x_{i+1} by finite sums
    def K(x):
        return sum(x[i] ** 2 * x[(i + 1) % 5] for i in range(5))

    def add(*vs):
        return [sum(col) for col in zip(*vs)]

    return Fraction(
        K(add(u, v, z)) - K(add(u, v)) - K(add(u, z)) - K(add(v, z))
        + K(u) + K(v) + K(z),
        6,
    )


def test_t2_quadratic_form_display():
    G = t2_quadratic_form(1, 1)
    display = [
        [1, 1, 0, 0, 0],
        [1, 1, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    scale = Fraction(1, 3)
    assert all(G[i][j] == scale * display[i][j] for i in range(5) for j in range(5))


def test_klein_gram_contracts_the_table_with_z():
    from biquo.biquotient import KleinBundleInput, KleinRing
    from biquo.invariants import _klein_gram

    ring = KleinRing()
    basis = [[Fraction(int(k == i)) for k in range(5)] for i in range(5)]
    rng = random.Random(31)
    for _ in range(40):
        z = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * rng.randint(0, 1)
            for _ in range(5)
        )
        gram = _klein_gram(KleinBundleInput(ring, tuple(Fraction(0) for _ in z), z))
        want = tuple(
            tuple(ring.trilinear(basis[i], basis[j], list(z)) for j in range(5))
            for i in range(5)
        )
        assert gram == want
        assert all(type(c) is Fraction for row in gram for c in row)


def test_t2_quadratic_form_2_1_via_polarization():
    a0, a1 = Fraction(2), Fraction(1)
    G = t2_quadratic_form(a0, a1)
    a2 = a0 * a0 / a1
    assert a2 == 4
    z = [a0, a1, a2, Fraction(0), Fraction(0)]
    basis = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    for i in range(5):
        for j in range(5):
            assert G[i][j] == klein_polarization_oracle(a0, a1, basis[i], basis[j], z)


def test_t2_y_in_radical():
    from biquo.biquotient import klein_ring

    for a0, a1 in [(1, 1), (2, 3), (Fraction(1, 2), Fraction(-5, 3))]:
        gram = [list(row) for row in t2_quadratic_form(a0, a1)]
        y = list(klein_ring(a0, a1).y)
        assert all(v == 0 for v in linalg.mat_vec(gram, y))


def test_t2_det_class_examples():
    assert t2_det_class(1, 1) == SquareClass(-1, ())
    assert t2_det_class(1, -1) == SquareClass(1, ())
    for p in (2, 3, 5):
        assert t2_det_class(p, 1) == SquareClass(-1, (p,))


def test_t2_det_class_formula_random():
    rng = random.Random(3)
    for _ in range(20):
        a0 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 4))
        a1 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 4))
        assert t2_det_class(a0, a1) == square_class(-a0 * a1)


def test_t2_det_class_complement_independent():
    from biquo.biquotient import klein_ring

    rng = random.Random(4)
    a0, a1 = 2, 3
    y = list(klein_ring(a0, a1).y)
    done = 0
    while done < 20:
        comp = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)]
        if linalg.det([y] + comp) == 0:
            continue
        assert t2_det_class(a0, a1, complement=comp) == square_class(-6)
        done += 1


def test_t2_det_class_rejects_bad_complement():
    with pytest.raises(ValueError):
        t2_det_class(1, 1, complement=[[1, 0, 0, 0, 0]] * 4)


def test_t2_det_class_names_the_length_of_a_bad_complement_vector():
    good = [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    assert t2_det_class(2, 3, complement=good) == square_class(-6)
    too_long = [[1, 0, 0, 0, 0, 9]] + good[1:]
    with pytest.raises(ValueError, match="5 entries, got one with 6"):
        t2_det_class(2, 3, complement=too_long)
    too_short = [[0, 1, 0], [0, 0, 1], [1, 0, 0], [1, 1, 0]]
    with pytest.raises(ValueError, match="5 entries, got one with 3"):
        t2_det_class(2, 3, complement=too_short)
    with pytest.raises(ValueError, match="four vectors, got 3"):
        t2_det_class(2, 3, complement=good[:3])


def test_t2_rejects_zero_parameters():
    with pytest.raises(ValueError):
        t2_quadratic_form(0, 1)


# ---------------------------------------------------------------------------
# t3
# ---------------------------------------------------------------------------


def test_t3_membership_quadratic_1_1_1():
    q = t3_membership_quadratic(1, 1, 1)
    assert (q.p1, q.p0) == (Fraction(-2), Fraction(2))


def test_t3_membership_quadratic_formula():
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (
            Fraction(rng.randint(1, 7) * rng.choice([1, -1]), rng.randint(1, 3))
            for _ in range(3)
        )
        q = t3_membership_quadratic(a, b, c)
        assert q.p1 == (-c * c - 2 * a * b + 1) / c
        assert q.p0 == 2 * a * b


def test_t3_root_product_is_2ab():
    # Vieta on the returned quadratic, checked numerically via its roots
    import numpy as np

    rng = random.Random(6)
    for _ in range(10):
        a, b, c = (Fraction(rng.randint(1, 5) * rng.choice([1, -1])) for _ in range(3))
        q = t3_membership_quadratic(a, b, c)
        roots = np.roots([1.0, float(q.p1), float(q.p0)])
        assert abs(roots[0] * roots[1] - float(2 * a * b)) < 1e-9


def test_t3_discriminant_formula_and_class():
    rng = random.Random(7)
    for _ in range(20):
        a, b, c = (
            Fraction(rng.randint(1, 7) * rng.choice([1, -1]), rng.randint(1, 3))
            for _ in range(3)
        )
        q = t3_membership_quadratic(a, b, c)
        delta = q.discriminant()
        assert delta == 4 * (((2 * a * b - c * c - 1) / (2 * c)) ** 2 - 1)
        if delta != 0:
            assert t3_discriminant_class(a, b, c) == square_class(delta)


def test_t3_discriminant_examples():
    assert t3_discriminant_class(1, 1, 1) == SquareClass(-1, ())
    for p in (3, 5, 7):
        # x = p + 1 makes x^2 - 1 = p(p+2)
        assert t3_discriminant_class(1, p + 2, 1) == square_class(
            Fraction(p * (p + 2))
        )


def test_t3_degenerate_rejected():
    with pytest.raises(DegenerateFamilyMember):
        t3_discriminant_class(1, 2, 1)  # 2ab = 4 = (c + 1)^2


def _kernel_in_base(bundle) -> QuadricSystem:
    """The full preimage of the bundle's kernel in S^2 of the base's H^2.

    Chart-independent: the span of the kernel quadrics (written in the
    chosen representatives) together with y * H^2, which is the kernel of
    S^2 V -> H^4(base)/(y V).  Two bundles with the same Euler class give
    the same system even when they drop different coordinates.
    """
    n = len(bundle.y)
    flats = []
    for g in bundle.kernel.basis:
        lifted = [[Fraction(0)] * n for _ in range(n)]
        for a, i in enumerate(bundle.w_indices):
            for b, j in enumerate(bundle.w_indices):
                lifted[i][j] = g[a][b]
        flats.append([lifted[i][j] for i in range(n) for j in range(i, n)])
    for i in range(n):
        prod = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            half = bundle.y[j] / 2
            prod[i][j] += half
            prod[j][i] += half
        flats.append([prod[r][s] for r in range(n) for s in range(r, n)])
    basis_rows, _ = linalg.rref(flats)
    grams = []
    for row in basis_rows:
        g = [[Fraction(0)] * n for _ in range(n)]
        idx = 0
        for r in range(n):
            for s in range(r, n):
                g[r][s] = g[s][r] = row[idx]
                idx += 1
        grams.append(tuple(tuple(x) for x in g))
    return QuadricSystem(n, tuple(grams))


def test_t3_kernel_system_matches_bundle():
    # the direct system is written in the chart dropping x4, so compare
    # the chart-independent preimages inside S^2 of the base's H^2
    from biquo.biquotient import circle_bundle_degree4, t3_rational_ring

    rng = random.Random(8)
    base = t3_rational_ring(max_degree=8)
    x = [HomPoly.variable(4, i) for i in range(4)]
    for _ in range(5):
        a, b, c = (
            Fraction(rng.randint(1, 5) * rng.choice([1, -1]), rng.randint(1, 2))
            for _ in range(3)
        )
        bundle = circle_bundle_degree4(
            base, x[3] - (x[0].scale(a) + x[1].scale(b) + x[2].scale(c))
        )
        assert bundle.kernel.dim == 4
        big = _kernel_in_base(bundle)
        assert big.dim == 8
        # the displayed quadrics, injected along the chart's section
        for gram in t3_kernel_system(a, b, c).basis:
            lifted = tuple(
                tuple(
                    gram[i][j] if i < 3 and j < 3 else Fraction(0)
                    for j in range(4)
                )
                for i in range(4)
            )
            assert big.contains(lifted)


def test_t3_row_relations_span_the_kernel_system():
    # the hoisted span of the fixed quadrics plus the per-row quadric must
    # span exactly the public kernel system
    from biquo.invariants import _T3_FIXED_SPAN, _t3_parameter_row
    from biquo.poly import monomials

    monos = monomials(3, 2)
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (
            Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 6))
            for _ in range(3)
        )
        system_rows = [
            [p.coefficient(m) for m in monos] for p in t3_kernel_system(a, b, c).polys()
        ]
        row = _t3_parameter_row(a, b, c)
        assert [row.get(i, 0) for i in range(6)] == system_rows[3]
        extended = linalg.QuotientSpace(6, [row], base=_T3_FIXED_SPAN)
        assert extended.same_span(linalg.QuotientSpace(6, system_rows))
    # the span written as data is the echelon reduction stores
    built = linalg.QuotientSpace(6, system_rows[:3])
    assert built._echelon == _T3_FIXED_SPAN._echelon
    assert built.basis_indices == _T3_FIXED_SPAN.basis_indices


# ---------------------------------------------------------------------------
# rank-one classification
# ---------------------------------------------------------------------------


def test_rank_one_1_1_1():
    cls = rank_one_elements(t3_kernel_system(1, 1, 1))
    assert cls.rational == ((0, 1, 0), (1, 0, 0))
    assert len(cls.orbits) == 1 and not cls.is_degenerate
    assert cls.orbits[0].min_poly == MonicQuadratic(Fraction(-2), Fraction(2))


def test_rank_one_matches_membership_quadratic():
    rng = random.Random(9)
    done = 0
    while done < 20:
        a, b, c = (
            Fraction(rng.randint(1, 6) * rng.choice([1, -1]), rng.randint(1, 2))
            for _ in range(3)
        )
        q = t3_membership_quadratic(a, b, c)
        if q.discriminant() == 0 or is_rational_square(q.discriminant()):
            continue
        system = t3_kernel_system(a, b, c)
        cls = rank_one_elements(system, line_hint=((a, b, 0), (0, 0, 1)))
        assert cls.rational == ((0, 1, 0), (1, 0, 0))
        assert len(cls.orbits) == 1
        assert cls.orbits[0].min_poly == q
        assert rank_one_residual(system, a, b, q) < 1e-9
        done += 1


def test_rank_one_hinted_base_is_the_hint_exactly():
    # a non-integer hint used to be reported truncated, as (2, 3, 0)
    a, b, c = Fraction(5, 2), Fraction(3), Fraction(1)
    cls = rank_one_elements(t3_kernel_system(a, b, c), line_hint=((a, b, 0), (0, 0, 1)))
    [orbit] = cls.orbits
    assert orbit.base == (Fraction(5, 2), 3, 0) and orbit.direction == (0, 0, 1)
    assert orbit.min_poly == t3_membership_quadratic(a, b, c)
    # a hint off the orbit's line leaves the canonical parametrization
    plain = rank_one_elements(t3_kernel_system(a, b, c))
    assert rank_one_elements(t3_kernel_system(a, b, c), line_hint=((1, 0, 0), (0, 1, 0))) == plain


def _pinned_division_system() -> QuadricSystem:
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    return QuadricSystem.from_polys(
        [-3 * x1 * x2 + 2 * x3 * x3, x1 * x2 - 3 * x2 * x3 - 3 * x3 * x3, x1 * x2 - 3 * x2 * x2]
    )


def test_rank_one_gcd_divides_a_rational_by_a_quadratic_coefficient():
    # the gcd over Q(theta) divides a rational leading coefficient by a
    # Q(theta) one here, which needs the reflected division
    cls = rank_one_elements(_pinned_division_system())
    assert cls.rational == () and not cls.is_degenerate
    [orbit] = cls.orbits
    assert orbit.min_poly == MonicQuadratic(Fraction(-14, 9), Fraction(2, 9))
    assert orbit.base == (0, 1, 0) and orbit.direction == (0, 0, 1)


def test_rank_one_certificate_survives_optimized_mode():
    # under -O every assert vanishes; a wrong conjugate point must still
    # raise, here from a gcd forced to a linear factor that is no common one
    script = """
import biquo
from biquo import invariants
from biquo.graded import QuadricSystem
from biquo.poly import HomPoly

assert False, "unreachable under -O"
x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
system = QuadricSystem.from_polys(
    [-3 * x1 * x2 + 2 * x3 * x3, x1 * x2 - 3 * x2 * x3 - 3 * x3 * x3, x1 * x2 - 3 * x2 * x2]
)
print(repr(invariants.rank_one_elements(system)))
line_gcd = invariants._line_gcd
invariants._line_gcd = lambda polys, mu0, nu0: (
    line_gcd(polys, mu0, nu0) if isinstance(mu0, int) else [mu0 + 1, 1]
)
try:
    invariants.rank_one_elements(system)
except biquo.CertificateError as exc:
    print(f"certificate: {exc}")
"""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    plain, certificate = proc.stdout.splitlines()
    assert plain == repr(rank_one_elements(_pinned_division_system()))
    assert certificate.startswith("certificate: ")


def test_rank_one_orbits_against_sympy_algebraic_field():
    # independent of the gcd over Q(theta): at both roots t of min_poly,
    # computed in sympy's QQ(sqrt(disc)), the square of base + t*direction
    # must leave the rank of the system's span unchanged
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    monos = monomials(3, 2)
    rng = random.Random(12)
    pool = (0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2))
    orbits = 0
    for _ in range(240):
        polys = [
            HomPoly(3, 2, zip(monos, [rng.choice(pool) for _ in monos]))
            for _ in range(rng.choice((3, 4)))  # 3 or 2 annihilator conics
        ]
        try:
            cls = rank_one_elements(QuadricSystem.from_polys(polys))
        except (ValueError, NotImplementedError):
            continue  # a dependent basis, or an orbit of degree > 2
        for orbit in cls.orbits:
            orbits += 1
            disc = orbit.min_poly.discriminant()
            assert is_rational_square(disc) is None
            sqrt_disc = sympy.sqrt(sympy.Rational(disc.numerator, disc.denominator))
            field = sympy.QQ.algebraic_field(sqrt_disc)

            def lift(x):
                x = Fraction(x)
                return field.convert(sympy.QQ(x.numerator, x.denominator))

            root = field.from_sympy(sqrt_disc)
            assert root * root == lift(disc)
            span = [[lift(p.coefficient(m)) for m in monos] for p in polys]
            rank = DomainMatrix(span, (len(span), 6), field).rank()
            for sign in (1, -1):
                t = (sign * root - lift(orbit.min_poly.p1)) * lift(Fraction(1, 2))
                v = [lift(b) + t * lift(d) for b, d in zip(orbit.base, orbit.direction)]
                square = []  # coefficients of (v . x)^2 on monos
                for e in monos:
                    i, j = [k for k, n in enumerate(e) for _ in range(n)]
                    square.append(lift(1 if i == j else 2) * v[i] * v[j])
                grown = DomainMatrix(span + [square], (len(span) + 1, 6), field)
                assert grown.rank() == rank, (polys, orbit)
    assert orbits >= 30


def _square_in(system, pt) -> bool:
    return system.contains([[Fraction(u * v) for v in pt] for u in pt])


def _assert_lines_are_squares(system, cls):
    for p, q in cls.degenerate_lines:
        for s, t in ((1, 0), (0, 1), (1, 1), (2, -3)):
            assert _square_in(system, [s * u + t * v for u, v in zip(p, q)])
    assert all(_square_in(system, pt) for pt in cls.rational)


def test_rank_one_common_line_of_two_conics():
    # the annihilator conics x1 x2 and x1 x3 share the factor x1, so every
    # eliminant vanishes: the squares fill x1 = 0, plus x1^2 itself
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    system = QuadricSystem.from_polys([4 * x2 * x2, 4 * x1 * x1, x3 * x3, 2 * x2 * x3])
    cls = rank_one_elements(system)
    assert cls.degenerate_lines == (((0, 1, 0), (0, 0, 1)),)
    assert cls.rational == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert not cls.orbits
    _assert_lines_are_squares(system, cls)
    assert not _square_in(system, (1, 1, 0))


def test_rank_one_common_line_of_three_conics():
    # the squares of the span of u = x1 + x2 and v = x2 + x3: the line
    # l1 - l2 + l3 = 0, and no member off it
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    u, v = x1 + x2, x2 + x3
    system = QuadricSystem.from_polys([u * u, u * v, v * v])
    cls = rank_one_elements(system)
    assert cls.degenerate_lines == (((1, 1, 0), (1, 0, -1)),)
    assert cls.rational == ((1, 0, -1), (1, 1, 0)) and not cls.orbits
    _assert_lines_are_squares(system, cls)
    assert not _square_in(system, (1, 0, 0))


def test_rank_one_common_line_with_one_conic_vanishing_on_a_direction():
    # the annihilator conics L*x2 and L*x3, L = 2 x1 + x2 + x3: on the
    # directions (1 : 0) and (0 : 1) one of them vanishes, and the other's
    # lam-slice 2 lam + 1 must be made monic before its root is read off
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    system = QuadricSystem.from_polys(
        [x1 * x1, x2 * x2 - x1 * x2, x3 * x3 - x1 * x3, 2 * x2 * x3 - x1 * x2 - x1 * x3]
    )
    cls = rank_one_elements(system)
    assert cls.degenerate_lines == (((1, -2, 0), (1, 0, -2)),)
    assert cls.rational == ((1, -2, 0), (1, 0, -2), (1, 0, 0)) and not cls.orbits
    _assert_lines_are_squares(system, cls)


def test_rank_one_three_dim_span():
    x = [HomPoly.variable(3, i) for i in range(3)]
    system = QuadricSystem.from_polys([x[0] * x[0], x[1] * x[1], x[2] * x[2] - x[0] * x[1]])
    cls = rank_one_elements(system)
    assert cls.rational == ((0, 1, 0), (1, 0, 0))
    assert not cls.orbits and not cls.is_degenerate


def test_rank_one_degenerate_reported():
    x = [HomPoly.variable(3, i) for i in range(3)]
    system = QuadricSystem.from_polys(
        [x[0] * x[0], x[1] * x[1], x[2] * x[2], x[0] * x[1]]
    )
    cls = rank_one_elements(system)
    assert cls.is_degenerate
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= set(cls.rational)


def test_rank_one_tangent_double_point():
    # a vanishing discriminant merges the conjugate pair into one
    # rational square met tangentially: no orbit, three rational members
    quad = t3_membership_quadratic(1, 2, 1)
    assert quad.discriminant() == 0
    cls = rank_one_elements(t3_kernel_system(1, 2, 1))
    assert cls.rational == ((0, 1, 0), (1, 0, 0), (1, 2, 2))
    assert not cls.orbits and not cls.is_degenerate


def test_rank_one_rational_splitting():
    # (1, 5, 2) has square discriminant: four rational squares, no orbit
    quad = t3_membership_quadratic(1, 5, 2)
    assert is_rational_square(quad.discriminant())
    cls = rank_one_elements(t3_kernel_system(1, 5, 2))
    assert len(cls.rational) == 4 and not cls.orbits
    assert (1, 5, 4) in cls.rational and (2, 10, 5) in cls.rational


def test_rank_one_whole_conic_degenerate():
    x1, x2, _ = (HomPoly.variable(3, i) for i in range(3))
    cls = rank_one_elements(QuadricSystem.from_polys([x1 * x1, x2 * x2, x1 * x2]))
    assert cls.is_degenerate
    assert cls.degenerate_lines == (((0, 1, 0), (1, 0, 0)),)
    assert {(1, 0, 0), (0, 1, 0)} <= set(cls.rational)


def test_rank_one_lam_free_conics():
    x1, x2, x3 = (HomPoly.variable(3, i) for i in range(3))
    # the first two annihilator conics lack x1; (t, 0, 1)^2 lies in the span
    # exactly when t^2 + 2t = 1
    system = QuadricSystem.from_polys(
        [-x1 * x2, -x1 * x1 + x1 * x2 - x3 * x3, 2 * (x1 * x3 + x3 * x3)]
    )
    cls = rank_one_elements(system)
    assert len(cls.orbits) == 1
    orbit = cls.orbits[0]
    assert orbit.min_poly == MonicQuadratic(Fraction(2), Fraction(-1))
    assert (orbit.base, orbit.direction) == ((0, 0, 1), (1, 0, 0))
    # both annihilator conics lack x1, and x2^2 is in the span with x1^2
    cls = rank_one_elements(QuadricSystem.from_polys([x1 * x1, x1 * x2, x1 * x3, x2 * x2]))
    assert cls.rational == ((0, 1, 0), (1, 0, 0))
    assert cls.degenerate_lines == (((0, 1, 0), (1, 0, 0)),)


def test_rank_one_splitting_class_invariance():
    rng = random.Random(10)
    done = 0
    while done < 20:
        a, b, c = (Fraction(rng.randint(1, 5) * rng.choice([1, -1])) for _ in range(3))
        try:
            target = t3_discriminant_class(a, b, c)
        except DegenerateFamilyMember:
            continue
        if is_rational_square(t3_membership_quadratic(a, b, c).discriminant()):
            continue
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(P) != 0:
                break
        moved = QuadricSystem.from_polys(
            [p.substitute(P) for p in t3_kernel_system(a, b, c).polys()]
        )
        cls = rank_one_elements(moved)
        assert len(cls.rational) == 2 and len(cls.orbits) == 1
        assert square_class(cls.orbits[0].min_poly.discriminant()) == target
        done += 1


def _normalize_cone(F):
    """F with its tangent cone turned into A*(mu^2 + nu^2), as a primitive
    integer cubic: ``nodal._normalized_cone_terms`` on F's packed terms."""
    return _packed_cubic(_normalized_cone_terms(F._packed()))


def test_normalize_cone_returns_the_primitive_integer_cubic():
    # lam*(2 mu^2 + 2 mu nu + nu^2) + mu^3 + nu^3: the cone (a, b, c) =
    # (2, 2, 1) has w = 1/2, so the substitution is [[1,0,0],[0,4,-4],[0,0,8]]
    F = TernaryCubic.from_coefficients(
        {(1, 2, 0): 2, (1, 1, 1): 2, (1, 0, 2): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    out = _normalize_cone(F)
    assert out == _primitive_cubic(F.substitute([[1, 0, 0], [0, 4, -4], [0, 0, 8]]))
    assert out == TernaryCubic.from_coefficients(
        {(1, 2, 0): 1, (1, 0, 2): 1, (0, 3, 0): 2, (0, 2, 1): -6, (0, 1, 2): 6, (0, 0, 3): 14}
    )
    assert all(type(c) is int for c in out.poly.coeffs.values())
    assert tangent_cone(out) == BinaryQuadratic(1, 0, 1)


def _primitive_cubic(F):
    """The reference primitive integer cubic: the positive rational
    multiple of F that ``_primitive_terms`` gives (zero stays zero)."""
    if not F.poly.coeffs:
        return F
    return TernaryCubic(HomPoly._trusted(3, 3, _primitive_terms(F.poly.coeffs)))


def _substitution_normalize_cone(F):
    """The reference normalization by ``HomPoly.substitute``: the mu <-> nu
    swap when a = 0, then the integer matrix [[1,0,0],[0,2ap,-bq],[0,0,2aq]]
    on the whole cubic, cleared to a primitive integer cubic."""
    cone = tangent_cone(F)
    a, b, c = cone.a, cone.b, cone.c
    if a == 0:
        if c == 0:
            raise ValueError("tangent cone is degenerate (no definite part)")
        F = F.substitute([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        a, b, c = c, b, a
    w = is_rational_square(Fraction(4 * a * c - b * b, 4 * a * a))
    if w is None or w == 0:
        raise ValueError("tangent cone is not equivalent to a multiple of mu^2+nu^2")
    p, q = w.numerator, w.denominator
    return _primitive_cubic(F.substitute([[1, 0, 0], [0, 2 * a * p, -b * q], [0, 0, 2 * a * q]]))


def _normalized_or_error(normalize, F):
    try:
        return normalize(F)
    except ValueError as exc:
        return str(exc)


def test_normalize_cone_on_binary_forms_matches_the_substitution_reference(monkeypatch):
    # seeded lam*q + c: cones that are images of a multiple of the circle,
    # random cones (mostly not), cones with a = 0 or degenerate, int and
    # Fraction coefficients, and a few cubics without the node shape
    from biquo import nodal

    rng = random.Random(67)
    entries = (0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-4, 3))
    outcomes = {}
    for case in range(1500):
        pick = rng.random()
        if pick < 0.6:
            k = rng.choice((1, -2, 3, Fraction(1, 3)))
            p, r, s, t = (rng.randint(-3, 3) for _ in range(4))
            cone = (k * (p * p + s * s), k * 2 * (p * r + s * t), k * (r * r + t * t))
        elif pick < 0.75:
            cone = (0, rng.choice(entries), rng.choice(entries))
        else:
            cone = tuple(rng.choice(entries) for _ in range(3))
        terms = {(1, 2 - j, j): x for j, x in enumerate(cone)}
        terms.update({(0, 3 - j, j): rng.choice(entries) for j in range(4)})
        if case % 100 == 0:
            terms[2, 1, 0] = 1
        F = TernaryCubic.from_coefficients(terms)
        got = _normalized_or_error(_normalize_cone, F)
        want = _normalized_or_error(_substitution_normalize_cone, F)
        assert got == want, F
        if isinstance(got, TernaryCubic):
            assert all(type(c) is int for c in got.poly.coeffs.values())
            assert tangent_cone(got).is_multiple_of_circle()
            outcomes["normalized"] = outcomes.get("normalized", 0) + 1
        else:
            outcomes[got] = outcomes.get(got, 0) + 1
    assert set(outcomes) == {
        "normalized",
        "cubic does not have the node shape lam*q + c",
        "tangent cone is degenerate (no definite part)",
        "tangent cone is not equivalent to a multiple of mu^2+nu^2",
    }, outcomes
    assert outcomes["normalized"] >= 500
    # the certificate on the output cone: a substitution that leaves the
    # forms alone fails it
    monkeypatch.setattr(nodal, "_binary_substitute", lambda form, *image: list(form))
    F = TernaryCubic.from_coefficients({(1, 2, 0): 2, (1, 1, 1): 2, (1, 0, 2): 1, (0, 3, 0): 1})
    with pytest.raises(CertificateError, match="^cone normalization failed$"):
        _normalize_cone(F)


def _fraction_normalize_cone(F):
    """The reference normalization: the Fraction substitution mu -> mu -
    b/(2aw) nu, nu -> nu/w, which leaves the lam-free cubic unscaled."""
    cone = tangent_cone(F)
    a, b, c = cone.a, cone.b, cone.c
    if a == 0:
        F = F.substitute([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        a, b, c = c, b, a
    w = is_rational_square(Fraction(4 * a * c - b * b, 4 * a * a))
    return F.substitute([[1, 0, 0], [0, 1, Fraction(-b, 2 * a) / w], [0, 0, 1 / w]])


def test_normalize_cone_matches_the_fraction_reference_on_the_t1_grid():
    # on every t1 r=20 net the integer normalization moves alpha + beta*i
    # by a rational factor only, so both give the same invariant
    from biquo.invariants import t1_relation_net
    from biquo.nodal import _node_to_origin, det_cubic, inflection_lines, singular_points

    for b1 in range(-20, 21):
        for c1 in range(-20, 21):
            if (b1, c1) == (0, 0):
                continue
            F = _primitive_cubic(det_cubic(t1_relation_net(*t1_parameters(b1, c1))))
            F0 = _node_to_origin(F, singular_points(F).points[0])
            ref = inflection_lines(_fraction_normalize_cone(F0))
            got = inflection_lines(_normalize_cone(F0))
            assert ref.alpha * got.beta == got.alpha * ref.beta, (b1, c1)
            assert T1Invariant.from_alpha_beta(ref.alpha, ref.beta) == T1Invariant.from_alpha_beta(
                got.alpha, got.beta
            ), (b1, c1)


def test_normalize_cone_without_a_mu_squared_term_raises_at_once(monkeypatch):
    # a cone b mu nu + c nu^2 is never definite: with c = 0 it is
    # degenerate, otherwise it is not equivalent to a multiple of the
    # circle; both raise before any substitution
    from biquo import nodal

    def no_substitution(*args):
        raise AssertionError("substituted into a cone with a = 0")

    monkeypatch.setattr(nodal, "_binary_substitute", no_substitution)
    messages = {
        "tangent cone is degenerate (no definite part)": [(0, 0, 0), (0, 3, 0), (0, Fraction(1, 2), 0)],
        "tangent cone is not equivalent to a multiple of mu^2+nu^2": [
            (0, 0, 1), (0, 2, 1), (0, -3, Fraction(5, 2)), (0, 0, -7),
        ],
    }
    for message, cones in messages.items():
        for cone in cones:
            terms = {(1, 2 - j, j): x for j, x in enumerate(cone)}
            terms.update({(0, 3, 0): 1, (0, 1, 2): -2, (0, 0, 3): 5})
            with pytest.raises(ValueError) as info:
                _normalize_cone(TernaryCubic.from_coefficients(terms))
            assert str(info.value) == message, cone


def test_t1_tail_runs_on_the_primitive_determinant_cubic(monkeypatch):
    # the net's integer determinant divided by its content gcd is the
    # primitive integer multiple of det_cubic, on ring nets, their rescaled
    # and mixed presentations, and relation nets.  The tail reads it once:
    # a mixed net goes on to the general search without a second
    # _family_locus
    from biquo import nodal
    from biquo.invariants import t1_invariant_from_net, t1_relation_net
    from biquo.nodal import _CUBIC_PLACES, det_cubic
    from biquo.poly import _pack

    seen = []
    family_locus = nodal._family_locus
    monkeypatch.setattr(
        nodal, "_family_locus", lambda terms: seen.append(terms) or family_locus(terms)
    )
    rng = random.Random(73)
    for b1 in range(-6, 7):
        for c1 in range(-6, 7):
            if (b1, c1) == (0, 0):
                continue
            ring_net = quotient_ring(t1_action_matrix(b1, c1)).kernel_of_square_map()
            while True:
                M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                     for _ in range(3)]
                if linalg.det(M) != 0:
                    break
            mixed = QuadricSystem(3, tuple(
                tuple(
                    tuple(sum(M[r][k] * ring_net.basis[k][i][j] for k in range(3)) for j in range(3))
                    for i in range(3)
                )
                for r in range(3)
            ))
            for net in (ring_net, mixed, t1_relation_net(*t1_parameters(b1, c1))):
                seen.clear()
                assert t1_invariant_from_net(net) == t1_invariant(b1, c1)
                want = _pack(_primitive_cubic(det_cubic(net)).poly.coeffs, _CUBIC_PLACES)
                assert seen == [want], (b1, c1)


def test_t1_tail_gives_ints_and_builds_no_fraction(monkeypatch):
    # _t1_alpha_beta returns the int pair (c03, c30), a positive multiple of
    # the inflection cubic's (alpha, beta); the cube classes take it on
    # ints, so no Fraction is built from the net's determinant to the pair
    from biquo.nodal import _net_det, _t1_alpha_beta, inflection_lines

    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(28)
    for _ in range(40):
        b1, c1 = rng.randint(-20, 20), rng.randint(-20, 20)
        if (b1, c1) == (0, 0):
            continue
        ring_net = quotient_ring(t1_action_matrix(b1, c1)).kernel_of_square_map()
        M = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        nets = [ring_net]
        if linalg.det(M) != 0:
            nets.append(QuadricSystem(3, tuple(
                tuple(
                    tuple(sum(M[r][k] * ring_net.basis[k][i][j] for k in range(3)) for j in range(3))
                    for i in range(3)
                )
                for r in range(3)
            )))
        for net in nets:
            cubic = _net_det(net)[0]
            built.clear()
            monkeypatch.setattr(Fraction, "__new__", counting_new)
            alpha, beta = _t1_alpha_beta(cubic)
            invariant = T1Invariant.from_alpha_beta(alpha, beta)
            monkeypatch.undo()
            assert type(alpha) is type(beta) is int
            assert invariant == t1_invariant(b1, c1)
            if net is ring_net:
                assert built == [], (b1, c1)
                F = _packed_cubic(_normalized_cone_terms(_primitive_terms(cubic)))
                ref = inflection_lines(F)
                assert alpha * ref.beta == beta * ref.alpha
                assert alpha * ref.alpha + beta * ref.beta > 0
