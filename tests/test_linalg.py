"""QuotientSpace against an independent rank oracle (sympy).

The lex-first basis takes e_i whenever it is independent of the span
and of the e_j already taken; the coordinates of v must leave
v - sum_j coords_j * e_{basis_j} inside the span.
"""

import random
from fractions import Fraction

import pytest

from biquo.linalg import QuotientSpace

sympy = pytest.importorskip("sympy")


def _rank(rows, ncols):
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
