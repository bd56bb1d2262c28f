"""QuotientSpace against two references.

* The dense quotient it replaced (``DenseQuotientSpace``: one Fraction
  ``rref`` of the span with its columns reversed): basis indices,
  dimension and coordinates must be identical, on seeded spans and on
  every graded piece and pair product of seeded rank 3-6 rings.
* An independent rank oracle (sympy): the lex-first basis takes e_i
  whenever it is independent of the span and of the e_j already taken;
  the coordinates of v must leave v - sum_j coords_j * e_{basis_j}
  inside the span.
"""

import random
from fractions import Fraction

import pytest

from biquo.biquotient import quotient_ring
from biquo.linalg import QuotientSpace, rref
from biquo.poly import HomPoly, monomials


class DenseQuotientSpace:
    """The dense reversed-column rref quotient, kept as the reference."""

    def __init__(self, ambient_dim, span_rows):
        rows, pivots = rref([[Fraction(x) for x in row[::-1]] for row in span_rows])
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


@pytest.mark.parametrize(
    "k, density, seed",
    [(3, 1.0, 1), (3, 0.6, 2), (4, 1.0, 3), (4, 0.5, 4), (5, 1.0, 5), (5, 0.3, 6), (6, 0.1, 1)],
)
def test_matches_dense_reference_on_ring_pieces(k, density, seed):
    rng = random.Random(seed)
    ring = quotient_ring(_seeded_free_matrix(rng, k, density))
    for degree in range(0, 2 * k + 1, 2):
        dense, index = _dense_piece(ring, degree)
        piece = ring.piece(degree)
        assert piece.basis_indices == dense.basis_indices
        assert piece.dim == dense.dim
        for v in [_random_vector(rng, piece.ambient_dim, 3) for _ in range(2)]:
            assert piece.coords(v) == dense.coords(v)
        if degree == 4:
            for i in range(k):
                for j in range(i, k):
                    xij = HomPoly.variable(k, i) * HomPoly.variable(k, j)
                    vec = [Fraction(0)] * piece.ambient_dim
                    for e, c in xij.coeffs.items():
                        vec[index[e]] = c
                    assert ring.pair_product_coords(i, j) == dense.coords(vec)



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
