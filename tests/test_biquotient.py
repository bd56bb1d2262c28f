import itertools
import random
from fractions import Fraction

import pytest

from biquo.biquotient import (
    _KLEIN_PAIRS,
    KleinRing,
    TorusActionMatrix,
    circle_bundle_degree4,
    is_free,
    klein_ring,
    quotient_ring,
    t1_action_matrix,
    t3_action_matrix,
    t3_rational_ring,
)
from biquo.graded import poly_to_gram
from biquo.oracles import stabilizer_oracle
from biquo.poly import HomPoly


def test_matrix_parsing():
    m = TorusActionMatrix.parse("1,0,0;2,1,1;4,2,1")
    assert m.entries == ((1, 0, 0), (2, 1, 1), (4, 2, 1))
    assert TorusActionMatrix.parse("[[1,0],[3,1]]").entries == ((1, 0), (3, 1))
    assert TorusActionMatrix.parse(str(m)) == m
    with pytest.raises(ValueError):
        TorusActionMatrix.parse("1,0;2")


def test_family_always_free():
    for b1 in range(-10, 11):
        for c1 in range(-10, 11):
            assert is_free(t1_action_matrix(b1, c1))


def test_lower_triangular_unit_diagonal_free():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.choice([3, 4])
        m = [
            [rng.randint(-5, 5) if j < i else (1 if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
        assert is_free(m)


def test_scaled_diagonal_not_free():
    assert not is_free([[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_stabilizer_oracle_examples():
    assert not stabilizer_oracle([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert stabilizer_oracle([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5)
    assert stabilizer_oracle(t1_action_matrix(4, -3), 7)
    with pytest.raises(ValueError):
        stabilizer_oracle([[1]], 13)


def _subset_stabilizer_oracle(A, m):
    """The reference search: every coordinate subset S and every nonzero t
    in (Z/m)^S, checked against the principal block A[S, S] alone."""
    k = len(A)
    for r in range(1, k + 1):
        for S in itertools.combinations(range(k), r):
            for t in itertools.product(range(m), repeat=r):
                if any(t) and all(sum(A[i][j] * x for j, x in zip(S, t)) % m == 0 for i in S):
                    return False
    return True


def test_stabilizer_oracle_matches_the_subset_search():
    # seeded random and perturbed unit lower triangular matrices (free or
    # not), every order 2..12 up to rank 3 and orders up to 7 at rank 4
    rng = random.Random(26)
    outcomes = set()
    for trial in range(240):
        k = 1 + trial % 4
        if trial % 2:
            A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        else:
            A = [[rng.choice((1, -1)) if i == j else rng.randint(-3, 3) if j < i else 0
                  for j in range(k)] for i in range(k)]
            A[rng.randrange(k)][rng.randrange(k)] += rng.choice((0, 1, -1, 2))
        for m in range(2, 13 if k < 4 else 8):
            want = _subset_stabilizer_oracle(A, m)
            assert stabilizer_oracle(A, m) == want, (A, m)
            outcomes.add(want)
    assert outcomes == {True, False}
    # entries are reduced mod m first, so a huge weight cannot overflow
    assert stabilizer_oracle([[1 + 12 * 10**30, 0], [5 * 10**40, -1]], 12)
    assert not stabilizer_oracle([[12 * 10**30]], 12)


def test_stabilizer_oracle_bounds_its_search():
    # one pass holds all of (Z/m)^k, so m^k is at most 12^5; the bound is
    # checked before anything is built
    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    assert stabilizer_oracle(eye(5), 12)
    assert not stabilizer_oracle([[2] + [0] * 7] + eye(8)[1:], 2)
    for k, m in ((6, 12), (8, 5), (8, 12)):
        with pytest.raises(ValueError, match=f"^oracle search over \\(Z/{m}\\)\\^{k} is too large$"):
            stabilizer_oracle(eye(k), m)


def test_criterion_matches_oracle():
    rng = random.Random(20250717)
    for trial in range(200):
        k = 3 if trial % 2 == 0 else 4
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert is_free(m) == all(stabilizer_oracle(m, t) for t in range(2, 13))


def test_oracle_blind_spot_documented():
    # all proper principal minors are units but the determinant is -17,
    # whose torsion the bounded oracle (m <= 12) cannot see; the
    # determinant criterion still rejects it
    m = [[1, -3, 0], [0, 1, -2], [-3, 0, 1]]
    from biquo.linalg import det

    assert det(m) == -17
    assert not is_free(m)
    assert all(stabilizer_oracle(m, t) for t in range(2, 13))


def test_quotient_ring_hopf():
    ring = quotient_ring([[1]])
    assert ring.relations[0].to_str() == "x1^2"
    assert [ring.graded_dim(d) for d in (0, 2)] == [1, 1]


def test_quotient_ring_family_relations():
    ring = quotient_ring(t1_action_matrix(6, 8))
    assert [r.to_str() for r in ring.relations] == [
        "x1^2",
        "6*x1*x2 + x2^2 + x2*x3",
        "8*x1*x3 + 2*x2*x3 + x3^2",
    ]


def test_quotient_ring_t3_specialization():
    ring = quotient_ring(t3_action_matrix())
    assert [r.to_str() for r in ring.relations] == [
        "x1^2",
        "x2^2",
        "x1*x3 + 2*x2*x3 + x3^2",
        "x1*x4 + 2*x2*x4 + x4^2",
    ]
    assert ring.is_complete_intersection()


def test_quotient_ring_rejects_non_free():
    with pytest.raises(ValueError):
        quotient_ring([[2]])


def test_klein_trilinear_symmetric_and_cubic():
    ring = KleinRing()
    rng = random.Random(2)
    import itertools

    for _ in range(10):
        u, v, w = (
            [Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)
        )
        vals = {ring.trilinear(*perm) for perm in itertools.permutations((u, v, w))}
        assert len(vals) == 1
        assert ring.trilinear(u, u, u) == sum(u[i] ** 2 * u[(i + 1) % 5] for i in range(5))


def test_klein_trilinear_matches_permutation_expansion():
    # the table against an independent copy of sum a_i^2 a_{i+1}: each
    # index triple (i, i, i+1) at 1/3, expanded over its permutations
    ring = KleinRing()
    rng = random.Random(8)
    entries = {(i, i, (i + 1) % 5): Fraction(1, 3) for i in range(5)}

    def expanded(u, v, w):
        total = Fraction(0)
        for key, val in entries.items():
            for a, b, c in set(itertools.permutations(key)):
                total += val * u[a] * v[b] * w[c]
        return total

    for _ in range(30):
        u, v, w = (
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 7)) * rng.randint(0, 1)
                for _ in range(5)
            ]
            for _ in range(3)
        )
        for args in itertools.permutations((u, v, w)):
            assert ring.trilinear(*args) == expanded(*args)


def test_klein_pair_table_is_the_trilinear_form():
    ring = KleinRing()
    assert ring.product_table() is _KLEIN_PAIRS
    basis = [[Fraction(int(k == i)) for k in range(5)] for i in range(5)]
    for i, j, l in itertools.product(range(5), repeat=3):
        entry = _KLEIN_PAIRS[i][j][l]
        assert type(entry) is Fraction
        assert entry == ring.trilinear(basis[i], basis[j], basis[l])
    for i, j in itertools.product(range(5), repeat=2):
        row = ring.product_table()[i][j]
        assert list(row) == [ring.trilinear(basis[i], basis[j], e) for e in basis]


def test_klein_ring_kernel_is_z():
    rng = random.Random(3)
    for _ in range(50):
        a0 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 5))
        a1 = Fraction(rng.randint(1, 9) * rng.choice([1, -1]), rng.randint(1, 5))
        bundle = klein_ring(a0, a1)
        m = bundle.ring.mult_by_class(bundle.y)
        assert m.kernel_dim == 1
        kernel, z = m.kernel[0], bundle.z
        j = next(i for i, c in enumerate(z) if c != 0)
        scale = kernel[j] / z[j]
        assert scale != 0 and all(kernel[i] == scale * z[i] for i in range(5))


def test_klein_ring_square_map_surjective():
    bundle = klein_ring(Fraction(2, 3), -5)
    # kernel dim 10 in S^2 of a 5-space means the image fills H^4
    assert bundle.ring.kernel_of_square_map().dim == 10


def test_klein_ring_rejects_zero_parameters():
    with pytest.raises(ValueError):
        klein_ring(0, 1)


def test_circle_bundle_t3_displayed_kernel():
    base = t3_rational_ring(max_degree=8)
    x = [HomPoly.variable(4, i) for i in range(4)]
    data = circle_bundle_degree4(base, x[3] - (x[0] + x[1] + x[2]))
    assert data.dropped_index == 3 and data.w_indices == (0, 1, 2)
    assert data.kernel.dim == 4 and data.target_dim == 2
    w = [HomPoly.variable(3, i) for i in range(3)]
    ell = w[0] + w[1] + w[2]
    displayed = [
        w[0] * w[0],
        w[1] * w[1],
        w[2] * w[2] - w[0] * w[1],
        ell * ell - w[0] * w[1],
    ]
    for quadric in displayed:
        assert data.kernel.contains(poly_to_gram(quadric))


def test_circle_bundle_t3_kernel_dim_generic():
    rng = random.Random(4)
    base = t3_rational_ring(max_degree=8)
    x = [HomPoly.variable(4, i) for i in range(4)]
    for _ in range(10):
        a, b, c = (
            Fraction(rng.randint(1, 6) * rng.choice([1, -1]), rng.randint(1, 3))
            for _ in range(3)
        )
        y = x[3] - (x[0].scale(a) + x[1].scale(b) + x[2].scale(c))
        assert circle_bundle_degree4(base, y).kernel.dim == 4


def test_circle_bundle_klein_special_vs_generic():
    from biquo import linalg

    bundle = klein_ring(2, 3)
    special = circle_bundle_degree4(bundle.ring, bundle.y)
    assert special.target_dim == 1 and special.image_dim == 1
    rng = random.Random(5)
    generic_seen = 0
    while generic_seen < 5:
        y = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        if all(c == 0 for c in y):
            continue
        m = bundle.ring.mult_by_class(y)
        if m.kernel_dim == 0:
            # determinant oracle: the multiplication matrix is invertible
            assert linalg.det([list(row) for row in m.matrix]) != 0
            assert circle_bundle_degree4(bundle.ring, y).target_dim == 0
            generic_seen += 1


def test_multiplication_map_keeps_its_cokernel():
    from biquo.linalg import QuotientSpace

    bundle = klein_ring(2, 3)
    base = bundle.ring
    rng = random.Random(6)
    for y in [bundle.y] + [[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)]:
        m = base.mult_by_class(y)
        rebuilt = QuotientSpace(base.h4_dim(), zip(*m.matrix))
        assert m.cokernel.same_span(rebuilt)
        assert tuple(m.cokernel.basis_indices) == m.cokernel_basis
        # the space is kept out of equality
        assert m == base.mult_by_class(y) and "cokernel=" not in repr(m)


def test_circle_bundle_rejects_zero_class():
    with pytest.raises(ValueError):
        circle_bundle_degree4(klein_ring(1, 1).ring, [0, 0, 0, 0, 0])
