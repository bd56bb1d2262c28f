"""linalg against dense references and sympy.

* The dense Fraction Gauss-Jordan ``rref`` and pivoting ``det`` that
  ``linalg`` ran before its one fraction-free echelon, and the
  ``kernel_basis`` and ``solve`` that read the dense RREF rows, kept here
  as references: ``rref``, ``kernel_basis``, ``solve`` and ``det`` must
  give identical results (all Fractions) on seeded matrices, and so must
  sympy's ``Matrix.rref``, ``Matrix.nullspace`` and ``Matrix.det``;
  ``kernel_basis`` and ``solve`` must not go through ``rref`` at all;
  ``is_free`` must agree with every principal minor by the integer
  cofactor determinant, and with the brute-force ``stabilizer_oracle``.
* The dense quotient ``QuotientSpace`` replaced (``DenseQuotientSpace``:
  one dense ``rref`` of the span with its columns reversed): basis
  indices, dimension and coordinates must be identical, on seeded spans
  and on every graded piece and pair product of seeded rank 3-6 rings,
  integral and after a non-integral change of variables, and of
  ``t3_rational_ring``; there ``kernel_of_square_map`` must equal
  ``square_map_kernel`` of the product table.
* The loop that sent every relation multiple through ``linalg._reduce``,
  kept as a reference: every graded piece's stored echelon (rows, pivots
  and their order) must be identical, on the rings above, on dependent
  relations and on permuted (non-triangular) free actions, whether the
  piece is built in ascending order or cold.
* ``_unit_principal_minors`` against every principal minor by ``det``;
  the ``verify`` freeness check accepts a non-free matrix only when its
  minors are beyond the oracle's torsion orders, never a wrong ``is_free``.
* ``square_map_kernel`` of the Klein table and of circle-bundle W tables
  against Gram matrices built from ``dense_kernel_basis``; each element of
  ``QuotientSpace._reduced`` lies in the span, 1 at its pivot and 0 at the
  other pivots.
* An independent rank oracle (sympy): the lex-first basis takes e_i
  whenever it is independent of the span and of the e_j already taken;
  the coordinates of v must leave v - sum_j coords_j * e_{basis_j}
  inside the span.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add

import pytest

from biquo import linalg
from biquo import checks
from biquo.biquotient import (
    _KLEIN_PAIRS,
    _unit_principal_minors,
    circle_bundle_degree4,
    is_free,
    quotient_ring,
    t1_action_matrix,
    t3_rational_ring,
)
from biquo.graded import (
    GradedQuotient,
    QuadricSystem,
    multiplication_map,
    square_map_kernel,
)
from biquo.invariants import rank_one_elements, t1_invariant_pipeline, t3_kernel_system
from biquo.linalg import QuotientSpace, det, kernel_basis, rref, solve
from biquo.oracles import stabilizer_oracle
from biquo.poly import HomPoly, monomials


def dense_rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1, 1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def dense_kernel_basis(rows, ncols):
    basis, pivots = dense_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[c]
        out.append(v)
    return out


def dense_solve(rows, rhs):
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = dense_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return x


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def dense_det(rows):
    n = len(rows)
    m = [row[:] for row in rows]
    out = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            out = -out
        out *= m[c][c]
        inv = Fraction(1, 1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return out


def cofactor_det(rows):
    """Determinant of a small integer matrix (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            out += sign * rows[0][j] * cofactor_det(minor)
        sign = -sign
    return out


class DenseQuotientSpace:
    """The dense reversed-column rref quotient, kept as the reference."""

    def __init__(self, ambient_dim, span_rows):
        rows, pivots = dense_rref([[Fraction(x) for x in row[::-1]] for row in span_rows])
        self.span_rows = [row[::-1] for row in reversed(rows)]
        self.span_pivots = [ambient_dim - 1 - c for c in reversed(pivots)]
        taken = set(self.span_pivots)
        self.basis_indices = [i for i in range(ambient_dim) if i not in taken]
        self.dim = len(self.basis_indices)

    def coords(self, vec):
        v = [Fraction(x) for x in vec]
        for row, c in zip(self.span_rows, self.span_pivots):
            if v[c] != 0:
                factor = v[c]
                v = [a - factor * b for a, b in zip(v, row)]
        return [v[i] for i in self.basis_indices]


def _seeded_matrix(rng, nrows, ncols, fractions):
    """Sparse-ish entries; Fractions or ints, with repeated and zero rows."""
    def entry():
        if rng.random() < 0.4:
            return 0
        x = rng.randint(-6, 6)
        return Fraction(x, rng.choice((1, 1, 2, 3, 7))) if fractions else x

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.15:
            rows[i] = list(rows[rng.randrange(i)])
        elif rng.random() < 0.15:
            k = rng.randint(-2, 2)
            rows[i] = [k * x + y for x, y in zip(rows[rng.randrange(i)], rows[i - 1])]
        elif rng.random() < 0.05:
            rows[i] = [0] * ncols
    return rows


def _seeded_matrices(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        if i % 3 == 0:
            ncols = nrows  # square
        yield _seeded_matrix(rng, nrows, ncols, fractions=i % 2 == 0)


def _same_kernel_and_solve(rows, rhs):
    ncols = len(rows[0])
    kernel, x = kernel_basis(rows, ncols), solve(rows, rhs)
    assert kernel == dense_kernel_basis(rows, ncols)
    assert x == dense_solve(rows, rhs)
    assert all(type(c) is Fraction for v in kernel for c in v)
    assert x is None or all(type(c) is Fraction for c in x)


def test_edge_matrices_match_dense_references():
    assert rref([]) == dense_rref([]) == ([], [])
    assert rref([[]]) == dense_rref([[]])
    assert det([]) == dense_det([]) == 1
    assert kernel_basis([], 2) == dense_kernel_basis([], 2) == [[1, 0], [0, 1]]
    cases = [
        [[0, 0, 0]],
        [[0, 0], [0, 0]],
        [[1, 2], [1, 2]],
        [[2, 4, 6], [1, 2, 3], [0, 0, 0]],
        [[Fraction(1, 2), 3], [1, 6]],
        [[0, 0, 5, 1, 0, 0, 2]],
        [[1], [2], [Fraction(-3, 4)], [0]],
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    ]
    for rows in cases:
        assert rref(rows) == dense_rref(rows)
        assert kernel_basis(rows, len(rows[0])) == kernel_basis(dense_rref(rows)[0], len(rows[0]))
        for rhs in ([0] * len(rows), [1] * len(rows), list(range(len(rows)))):
            _same_kernel_and_solve(rows, rhs)
        if len(rows) == len(rows[0]):
            assert det(rows) == dense_det(rows)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[1, -3, 0], [0, 1, -2], [-3, 0, 1]]) == -17


def test_seeded_matrices_match_dense_references():
    rng = random.Random(7)
    for rows in _seeded_matrices(8, 600):
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == dense_rref(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)
        ncols = len(rows[0])
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = mat_vec(rows, x)
        _same_kernel_and_solve(rows, rhs)
        if len(rows) == ncols:
            d = det(rows)
            assert type(d) is Fraction and d == dense_det(rows)


def test_seeded_matrices_match_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(str(Fraction(x))) for x in row] for row in rows])

    for rows in _seeded_matrices(9, 500):
        matrix = to_sympy(rows)
        want, want_pivots = matrix.rref()
        reduced, pivots = rref(rows)
        assert pivots == list(want_pivots)
        assert to_sympy(reduced) == want[: len(pivots), :] if pivots else not reduced
        ncols = len(rows[0])
        kernel = kernel_basis(rows, ncols)
        assert [to_sympy([v]).T for v in kernel] == matrix.nullspace()
        rhs = [1] * len(rows)
        x = solve(rows, rhs)
        consistent = matrix.rank() == matrix.row_join(sympy.ones(len(rows), 1)).rank()
        assert (x is not None) == consistent
        if x is not None:
            assert matrix * to_sympy([x]).T == sympy.ones(len(rows), 1)
            assert all(x[c] == 0 for c in range(ncols) if c not in pivots)
        if len(rows) == ncols:
            assert to_sympy([[det(rows)]])[0, 0] == matrix.det()


def test_kernel_and_solve_read_the_echelon_without_rref(monkeypatch):
    # kernel_basis and solve, and the kernel and t1/t3 pipelines on them,
    # give the same answers with rref unavailable
    rows = [[1, 2, Fraction(1, 2), 0], [2, 4, 0, 3], [3, 6, Fraction(1, 2), 3]]
    table = quotient_ring(t1_action_matrix(3, -2)).product_table()

    def answers():
        return (
            kernel_basis(rows, 4),
            solve(rows, [1, 2, 3]),
            solve(rows, [1, 0, 0]),
            square_map_kernel(table),
            rank_one_elements(t3_kernel_system(1, 5, 2)),
            t1_invariant_pipeline(3, -2),
        )

    want = answers()
    assert want[2] is None and len(want[0]) == 2

    def refuse(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", refuse)
    assert answers() == want


def _old_is_free(m):
    k = len(m)
    return all(
        cofactor_det([[m[i][j] for j in S] for i in S]) in (1, -1)
        for r in range(1, k + 1)
        for S in combinations(range(k), r)
    )


def test_is_free_matches_cofactor_rule():
    rng = random.Random(10)
    for k in range(1, 7):
        for trial in range(40 if k < 6 else 15):
            m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            if trial % 2:  # unit diagonal, so freeness is decided by larger minors
                for i in range(k):
                    m[i][i] = rng.choice((-1, 1))
                    for j in range(i + 1, k):
                        m[i][j] = rng.choice((0, 0, 0, 1, -1))
            assert is_free(m) == _old_is_free(m)
            assert det(m) == cofactor_det(m)


def test_is_free_matches_minors_and_oracle_to_rank_8():
    # is_free recurses on a corner and its Schur complement; mostly unit
    # lower-triangular inputs (free) with a few perturbed entries (often
    # not) reach every depth up to the CLI's rank limit 8.  The oracle
    # finds an order-t stabilizer exactly when t shares a factor with
    # some principal minor.
    rng = random.Random(31)
    seen_free = seen_not_free = 0
    for k in range(1, 9):
        for trial in range(24 if k < 7 else 8):
            m = [
                [rng.choice((1, -1)) if i == j else rng.randint(-3, 3) if j < i else 0
                 for j in range(k)]
                for i in range(k)
            ]
            for _ in range(trial % 3):
                m[rng.randrange(k)][rng.randrange(k)] += rng.choice((1, -1, 2))
            minors = [
                cofactor_det([[m[i][j] for j in S] for i in S])
                for r in range(1, k + 1)
                for S in combinations(range(k), r)
            ]
            free = is_free(m)
            assert free == all(d in (1, -1) for d in minors)
            for t in (2, 3) if k > 5 else (2, 3, 4, 5):
                assert stabilizer_oracle(m, t) == all(gcd(d, t) == 1 for d in minors)
            seen_free += free
            seen_not_free += not free
    assert seen_free > 40 and seen_not_free > 40


def _flip_first_free(monkeypatch):
    real, flipped = is_free, []

    def wrong(m):
        free = real(m)
        if free and not flipped:
            flipped.append(m)
            return False
        return free

    monkeypatch.setattr(checks, "is_free", wrong)
    return flipped


def test_freeness_check_accepts_minors_beyond_the_oracle(monkeypatch):
    # seed 155 draws [[1,1,3],[2,1,0],[0,-3,-1]] (det -17) and 827693100
    # the perturbed unit lower triangular [[1,0,2],[3,-1,0],[1,3,1]] (det
    # 19): not free, but the oracle's orders 2..12 cannot see them
    for seed in (155, 827693100):
        assert all(r.ok for r in checks.verify("freeness", seed))
    # a wrong is_free on a free matrix (every minor +-1) still fails; half
    # the matrices are drawn unit lower triangular, so the default seed
    # draws free ones
    flipped = _flip_first_free(monkeypatch)
    result = checks.verify("freeness")[0]
    assert result.name == "criterion_vs_oracle_200" and not result.ok
    assert flipped and f"matrix={flipped[0]} is_free=False oracle=True" == result.detail


def _dense_grams(table):
    """The square-map kernel as Gram matrices, by the dense reference:
    coefficients at the pairs i <= j, off-diagonal ones halved."""
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rows = [list(r) for r in zip(*(table[i][j] for i, j in pairs))]
    grams = []
    for v in dense_kernel_basis(rows, len(pairs)):
        gram = [[None] * n for _ in range(n)]
        for (i, j), c in zip(pairs, v):
            gram[i][j] = gram[j][i] = c if i == j else c / 2
        grams.append(tuple(map(tuple, gram)))
    return QuadricSystem(n, tuple(grams))


def test_square_map_kernel_matches_dense_grams():
    assert square_map_kernel(_KLEIN_PAIRS) == _dense_grams(_KLEIN_PAIRS)
    rng = random.Random(7)
    base = t3_rational_ring(max_degree=8)
    table = base.product_table()
    ys = [[-1, -1, -1, 1]] + [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(4)] for _ in range(6)]
    for y in ys:
        if not any(y):
            continue
        data = circle_bundle_degree4(base, y)
        target = multiplication_map(table, [Fraction(c) for c in y]).cokernel
        w = data.w_indices
        w_table = [[target.coords(table[i][j]) for j in w] for i in w]
        assert data.kernel == square_map_kernel(w_table) == _dense_grams(w_table)


def test_reduced_basis_is_one_at_its_pivot_and_zero_at_the_others():
    rng = random.Random(12)
    entries = (0, 0, 1, -1, 2, -3, 5, Fraction(1, 2))
    for _ in range(60):
        ncols = rng.randint(1, 7)
        rows = [[rng.choice(entries) for _ in range(ncols)]
                for _ in range(rng.randint(0, ncols + 1))]
        space = QuotientSpace(ncols, rows)
        reduced = space._reduced()
        assert list(reduced) == sorted(set(range(ncols)) - set(space.basis_indices))
        for p, (residue, scale) in reduced.items():
            element = [Fraction(-residue.get(j, 0), scale) for j in range(ncols)]
            element[p] += 1
            assert space.contains(element)
            assert [element[q] for q in reduced] == [int(q == p) for q in reduced]


def test_unit_principal_minors_match_every_minor():
    # triangular inputs take the one-recursion path (a zero first row or
    # column); permuted, perturbed and dense ones take the Schur complement
    rng = random.Random(43)
    seen_free = seen_not_free = 0
    for k in range(1, 7):
        for trial in range(40):
            m = _seeded_free_matrix(rng, k, 0.6)
            if trial % 5 == 1:
                m = [list(col) for col in zip(*m)]
            elif trial % 5 == 2:
                m = _permuted_free_matrix(rng, k, 0.6)
            elif trial % 5 == 3:
                m[rng.randrange(k)][rng.randrange(k)] += rng.choice((1, -1, 2))
            elif trial % 5 == 4:
                m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            free = all(
                det([[m[i][j] for j in S] for i in S]) in (1, -1)
                for r in range(1, k + 1)
                for S in combinations(range(k), r)
            )
            assert _unit_principal_minors(m) == free
            seen_free += free
            seen_not_free += not free
    assert seen_free > 60 and seen_not_free > 60


def _random_vector(rng, ncols, nonzero):
    v = [Fraction(0)] * ncols
    for _ in range(nonzero):
        v[rng.randrange(ncols)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return v


def _same_as_dense(ncols, rows, vectors):
    space = QuotientSpace(ncols, rows)
    dense = DenseQuotientSpace(ncols, rows)
    assert space.basis_indices == dense.basis_indices
    assert space.dim == dense.dim
    for v in vectors:
        assert space.coords(v) == dense.coords(v)
    return space


def test_matches_dense_reference_on_seeded_spans():
    rng = random.Random(5)
    for ncols in range(1, 5):
        _same_as_dense(ncols, [], [_random_vector(rng, ncols, ncols)])
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [
            [
                Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
                if rng.random() < 0.5 else Fraction(0)
                for _ in range(ncols)
            ]
            for _ in range(rng.randint(0, ncols + 2))
        ]
        if rows and rng.random() < 0.3:
            rows.append([-x for x in rows[rng.randrange(len(rows))]])
        if rows and rng.random() < 0.3:
            rows.append(list(rows[rng.randrange(len(rows))]))
        vectors = [_random_vector(rng, ncols, rng.randint(1, ncols)) for _ in range(3)]
        _same_as_dense(ncols, rows, vectors)


def test_base_echelon_extends_like_one_span():
    rng = random.Random(6)
    for _ in range(100):
        ncols = rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(rng.randint(0, ncols + 1))
        ]
        cut = rng.randint(0, len(rows))
        base = QuotientSpace(ncols, rows[:cut])
        extended = QuotientSpace(ncols, rows[cut:], base=base)
        whole = _same_as_dense(ncols, rows, [])
        assert extended.basis_indices == whole.basis_indices
        v = _random_vector(rng, ncols, ncols)
        assert extended.coords(v) == whole.coords(v)
        assert extended.same_span(whole)
        # the base is left as it was
        assert base.basis_indices == DenseQuotientSpace(ncols, rows[:cut]).basis_indices
    with pytest.raises(ValueError):
        QuotientSpace(3, [], base=QuotientSpace(2, []))


def test_contains_and_same_span():
    space = QuotientSpace(3, [[1, 1, 0], [0, 2, Fraction(1, 2)]])
    assert space.contains([2, -2, -1]) and space.contains({0: 1, 1: 1})
    assert not space.contains([0, 0, 1])
    twin = QuotientSpace(3, [[1, -1, Fraction(-1, 2)], [3, 3, 0], [0, 0, 0]])
    assert space.same_span(twin) and twin.same_span(space)
    assert not space.same_span(QuotientSpace(3, [[1, 1, 0], [0, 0, 1]]))
    assert not space.same_span(QuotientSpace(3, [[1, 1, 0]]))


def _dense_piece(ring, degree):
    """The piece's relation multiples as dense Fraction rows, as they were built."""
    monos = monomials(ring.generators, degree // 2)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    if degree >= 4:
        for rel in ring.relations:
            for mono in monomials(ring.generators, degree // 2 - 2):
                row = [Fraction(0)] * len(monos)
                for e, c in rel.coeffs.items():
                    row[index[tuple(a + b for a, b in zip(e, mono))]] = c
                rows.append(row)
    return DenseQuotientSpace(len(monos), rows), index


def _seeded_free_matrix(rng, k, density):
    return [
        [1 if i == j else rng.choice((-2, -1, 1, 2)) if j < i and rng.random() < density else 0
         for j in range(k)]
        for i in range(k)
    ]


def _seeded_rational_change(rng, k, density):
    """An invertible k x k matrix with non-integral Fraction entries, each
    off-diagonal entry nonzero with probability ``density``."""
    def entry(i, j):
        if i != j and rng.random() >= density:
            return Fraction(0)
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4)))

    while True:
        P = [[entry(i, j) for j in range(k)] for i in range(k)]
        if any(x.denominator > 1 for row in P for x in row) and det(P) != 0:
            return P


def _permuted_free_matrix(rng, k, density):
    """A free matrix with entries above the diagonal: a seeded unit
    lower-triangular one with its rows and columns permuted alike, which
    permutes its principal minors."""
    lower = _seeded_free_matrix(rng, k, density)
    order = rng.sample(range(k), k)
    return [[lower[i][j] for j in order] for i in order]


def _ring_case(k, density, seed, kind):
    rng = random.Random(seed)
    if kind == "t3":
        return t3_rational_ring(), rng
    if kind == "dependent":
        x = [HomPoly.variable(3, i) for i in range(3)]
        return GradedQuotient(3, [x[0] * x[0], x[0] * x[1], x[0] * x[2]]), rng
    if kind == "squares":
        x = [HomPoly.variable(3, i) for i in range(3)]
        squares = [x[i] * x[j] for i in range(3) for j in range(i, 3)]
        return GradedQuotient(3, squares, max_degree=12), rng
    if kind == "permuted":
        return quotient_ring(_permuted_free_matrix(rng, k, density)), rng
    ring = quotient_ring(_seeded_free_matrix(rng, k, density))
    if kind == "rational":
        ring = ring.change_of_variables(_seeded_rational_change(rng, k, density))
        assert any(type(c) is Fraction for rel in ring.relations for c in rel.coeffs.values())
    return ring, rng


_INTEGER_RING_CASES = [
    (3, 1.0, 1), (3, 0.6, 2), (4, 1.0, 3), (4, 0.5, 4), (5, 1.0, 5), (5, 0.3, 6), (6, 0.1, 1)
]


_DENSE_RING_CASES = [
    pytest.param(*case, "integer", id="-".join(map(str, case))) for case in _INTEGER_RING_CASES
] + [
    pytest.param(3, 1.0, 7, "rational", id="3-1.0-7-rational"),
    pytest.param(4, 0.5, 8, "rational", id="4-0.5-8-rational"),
    pytest.param(5, 0.2, 9, "rational", id="5-0.2-9-rational"),
    pytest.param(4, None, 10, "t3", id="t3_rational_ring"),
]


@pytest.mark.parametrize("k, density, seed, kind", _DENSE_RING_CASES)
def test_matches_dense_reference_on_ring_pieces(k, density, seed, kind):
    ring, rng = _ring_case(k, density, seed, kind)
    for degree in range(0, 2 * k + 1, 2):
        dense, index = _dense_piece(ring, degree)
        piece = ring.piece(degree)
        assert piece.basis_indices == dense.basis_indices
        assert piece.dim == dense.dim
        for v in [_random_vector(rng, piece.ambient_dim, 3) for _ in range(2)]:
            assert piece.coords(v) == dense.coords(v)
        if degree == 4:
            table = ring.product_table()
            assert ring.product_table() is table
            for i in range(k):
                for j in range(k):
                    xij = HomPoly.variable(k, i) * HomPoly.variable(k, j)
                    vec = [Fraction(0)] * piece.ambient_dim
                    for e, c in xij.coeffs.items():
                        vec[index[e]] = c
                    assert list(table[i][j]) == dense.coords(vec)
                    assert table[i][j] == table[j][i]
            assert ring.kernel_of_square_map() == square_map_kernel(table)


def _reference_echelon(ring, degree):
    """The piece's echelon as it was built before rows were skipped or
    stored directly: every relation multiple, relation by relation and
    multiplier by multiplier in column order, cleared by the lcm of its
    denominators and reduced by ``linalg._reduce``."""
    n, weight = ring.generators, degree // 2
    index = {m: i for i, m in enumerate(monomials(n, weight))}
    echelon = {}
    if weight >= 2:
        for rel in ring.relations:
            cleared = linalg._integer_row(rel.coeffs)[0]
            for mono in monomials(n, weight - 2):
                shifted = {tuple(map(add, e, mono)): c for e, c in cleared.items()}
                linalg._reduce(echelon, {index[e]: c for e, c in shifted.items()})
    return echelon


@pytest.mark.parametrize(
    "k, density, seed, kind",
    _DENSE_RING_CASES
    + [
        pytest.param(3, None, 11, "dependent", id="x1^2,x1x2,x1x3"),
        pytest.param(3, None, 12, "squares", id="six_squares"),
        pytest.param(6, 0.6, 13, "permuted", id="6-0.6-13-permuted"),
        pytest.param(7, 0.4, 14, "permuted", id="7-0.4-14-permuted"),
    ],
)
def test_pieces_store_the_reference_echelon(k, density, seed, kind):
    # the stored rows, their pivots and their order, not only the basis;
    # a piece built cold (no lower piece built) is the same piece
    ring = _ring_case(k, density, seed, kind)[0]
    for degree in range(0, ring.max_degree + 1, 2):
        stored = list(ring.piece(degree)._echelon.items())
        assert stored == list(_reference_echelon(ring, degree).items())
        cold = _ring_case(k, density, seed, kind)[0].piece(degree)
        assert list(cold._echelon.items()) == stored



def _rank(rows, ncols):
    sympy = pytest.importorskip("sympy")
    flat = [Fraction(x) for row in rows for x in row]
    entries = [sympy.Rational(x.numerator, x.denominator) for x in flat]
    return sympy.Matrix(len(rows), ncols, entries).rank()


def _greedy_basis(rows, ncols):
    taken, basis = [], []
    for i in range(ncols):
        unit = [int(k == i) for k in range(ncols)]
        if _rank(rows + taken + [unit], ncols) > _rank(rows + taken, ncols):
            taken.append(unit)
            basis.append(i)
    return basis


def _check(ncols, rows, rng):
    space = QuotientSpace(ncols, [[Fraction(x) for x in row] for row in rows])
    assert space.basis_indices == _greedy_basis(rows, ncols)
    assert space.dim == ncols - _rank(rows, ncols)
    span_rank = _rank(rows, ncols)
    for _ in range(4):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
        coords = space.coords(v)
        assert len(coords) == space.dim
        rest = v[:]
        for c, i in zip(coords, space.basis_indices):
            rest[i] -= c
        assert _rank(rows + [rest], ncols) == span_rank


def test_integer_row_keeps_an_int_row_and_clears_a_fraction_row():
    rng = random.Random(28)
    for _ in range(200):
        ints = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(6)]
        row, den = linalg._integer_row(ints)
        assert den == 1 and row == {j: x for j, x in enumerate(ints) if x}
        assert all(type(x) is int for x in row.values())
        assert linalg._integer_row({j: x for j, x in enumerate(ints)}) == (row, 1)
        assert linalg._integer_row([Fraction(x) for x in ints]) == (row, 1)
        dens = [rng.randint(1, 6) for _ in ints]
        fracs = [Fraction(x, d) for x, d in zip(ints, dens)]
        row, den = linalg._integer_row(fracs)
        assert all(type(x) is int for x in row.values())
        assert {j: Fraction(x, den) for j, x in row.items()} == {
            j: x for j, x in enumerate(fracs) if x
        }


def test_empty_span_keeps_every_coordinate():
    rng = random.Random(1)
    for ncols in range(1, 6):
        _check(ncols, [], rng)
    assert QuotientSpace(4, []).coords([1, 2, 3, 4]) == [1, 2, 3, 4]


def test_full_rank_span_leaves_nothing():
    rng = random.Random(2)
    for ncols in range(1, 6):
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(ncols)]
            if _rank(rows, ncols) == ncols:
                break
        _check(ncols, rows, rng)
        assert QuotientSpace(ncols, [[Fraction(x) for x in r] for r in rows]).dim == 0


def test_zero_and_duplicate_rows():
    rng = random.Random(3)
    _check(3, [[0, 0, 0], [0, 0, 0]], rng)
    _check(4, [[1, 2, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0]], rng)
    _check(4, [[0, 1, 1, 0], [0, 2, 2, 0], [1, 0, 0, 0]], rng)
    # the last nonzero index of (1, 1, 0) is 1, so e_0 and e_2 stay
    assert QuotientSpace(3, [[Fraction(1), Fraction(1), Fraction(0)]]).basis_indices == [0, 2]


def test_random_integer_spans():
    rng = random.Random(4)
    entries = (0, 0, 0, 1, -1, 2, -3, 5)
    for _ in range(80):
        ncols = rng.randint(1, 7)
        rows = [
            [rng.choice(entries) for _ in range(ncols)]
            for _ in range(rng.randint(0, ncols + 1))
        ]
        if rows and rng.random() < 0.3:
            rows.append(list(rows[rng.randrange(len(rows))]))
        if rng.random() < 0.2:
            rows.append([0] * ncols)
        _check(ncols, rows, rng)
