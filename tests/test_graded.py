import ast
import pickle
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from biquo import linalg
from biquo.arith import CertificateError
from biquo.graded import (
    GradedQuotient,
    QuadricSystem,
    _pairs,
    gram_to_poly,
    multiplication_map,
    poly_to_gram,
    square_map_kernel,
)
from biquo.biquotient import (
    _KLEIN_PAIRS,
    circle_bundle_degree4,
    quotient_ring,
    t1_action_matrix,
    t3_rational_ring,
)
from biquo.poly import HomPoly, monomials


def V(n, i):
    return HomPoly.variable(n, i)


def family_ring(b1, c1):
    return quotient_ring(t1_action_matrix(b1, c1))


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(rows):
    n = len(rows)
    reduced, pivots = linalg.rref([row + unit for row, unit in zip(rows, identity(n))])
    assert pivots[:n] == list(range(n)), "matrix is singular"
    return [row[n:] for row in reduced]


def binomial_series(n, degree):
    # independent expected dims for a complete intersection: (1 + t^2)^n
    return comb(n, degree // 2) if degree % 2 == 0 and degree <= 2 * n else 0


@pytest.mark.parametrize("params", [(0, 0), (2, 0), (6, 8), (-3, 5)])
def test_family_ring_dims(params):
    ring = family_ring(*params)
    for d in (0, 2, 4, 6):
        assert ring.graded_dim(d) == binomial_series(3, d)
    assert ring.is_complete_intersection()


def test_free_ring_degree_four():
    free = GradedQuotient(3, [], max_degree=8)
    assert free.graded_dim(4) == 6  # all monomials of weight two


def test_t3_ring_degree_four():
    x = [V(4, i) for i in range(4)]
    ring = GradedQuotient(
        4,
        [x[0] * x[0], x[1] * x[1], x[2] * x[2] - x[0] * x[1], x[3] * x[3] - x[0] * x[1]],
    )
    assert ring.graded_dim(4) == binomial_series(4, 4) == 6
    assert ring.is_complete_intersection()


def test_dependent_relations_fail_by_degree_six():
    x = [V(3, i) for i in range(3)]
    bad = GradedQuotient(3, [x[0] * x[0], x[0] * x[1], x[0] * x[2]])
    assert bad.graded_dim(4) == 3  # agrees through degree 4
    assert bad.graded_dim(6) == 4  # diverges from (1+t^2)^3 here
    assert not bad.is_complete_intersection()


def test_degree_bounds():
    ring = family_ring(1, 1)
    with pytest.raises(ValueError):
        ring.graded_dim(3)
    with pytest.raises(ValueError):
        ring.graded_dim(8)


def test_product_in_quotient():
    ring = family_ring(3, 7)
    x = [V(3, i) for i in range(3)]
    assert ring.poly_coords(x[0] * x[0]) == [0, 0, 0]
    free = GradedQuotient(3, [], max_degree=8)
    coords = free.poly_coords(x[0] * x[1])
    basis = [monomials(3, 2)[i] for i in free.piece(4).basis_indices]
    assert basis[coords.index(1)] == (1, 1, 0)
    assert sum(1 for c in coords if c) == 1
    # x1^2 in two variables is no polynomial of this ring; packed, its
    # exponents (2, 0) would read as those of x2^2
    with pytest.raises(ValueError, match="wrong number of variables"):
        ring.poly_coords(HomPoly(2, 2, {(2, 0): 1}))


def test_t3_product_identity():
    x = [V(4, i) for i in range(4)]
    ring = GradedQuotient(
        4,
        [x[0] * x[0], x[1] * x[1], x[2] * x[2] - x[0] * x[1], x[3] * x[3] - x[0] * x[1]],
    )
    assert ring.poly_coords(x[2] * x[2]) == ring.poly_coords(x[0] * x[1])


def test_kernel_of_square_map_family():
    ring = family_ring(4, -1)
    kernel = ring.kernel_of_square_map()
    assert kernel.dim == 3
    for rel in ring.relations:
        assert kernel.contains(poly_to_gram(rel))


def test_kernel_of_square_map_free_ring():
    free = GradedQuotient(3, [], max_degree=8)
    assert free.kernel_of_square_map().dim == 0


def test_kernel_plus_rank():
    for params in [(0, 0), (5, 2), (-7, 3)]:
        ring = family_ring(*params)
        assert ring.kernel_of_square_map().dim + ring.h4_dim() == 6


def test_change_of_variables_identity_and_inverse():
    ring = family_ring(2, 3)
    assert ring.change_of_variables(identity(3)).same_ideal_through(ring, 6)
    rng = random.Random(7)
    for _ in range(10):
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(P) != 0:
                break
        back = ring.change_of_variables(P).change_of_variables(inverse(P))
        assert back.same_ideal_through(ring, 6)


def test_same_ideal_through_detects_a_perturbed_relation():
    ring = family_ring(2, 3)
    x = [V(3, i) for i in range(3)]
    rng = random.Random(13)
    for _ in range(12):
        rels = list(ring.relations)
        i, a, b = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))  # > 0: x1^2 stays nonzero
        rels[i] = rels[i] + (x[a] * x[b]).scale(c)
        moved = GradedQuotient(3, rels)
        # x1^2 is itself a relation, so only that perturbation keeps the ideal
        same = (a, b) == (0, 0)
        assert ring.same_ideal_through(moved, 6) is same
        assert moved.same_ideal_through(ring, 6) is same


def test_rank_seven_ring_builds_in_under_a_second():
    rng = random.Random(7)
    A = [[1 if i == j else rng.randint(-3, 3) if j < i else 0 for j in range(7)]
         for i in range(7)]
    start = time.process_time()
    ring = quotient_ring(A)
    dims = [ring.graded_dim(d) for d in range(0, 15, 2)]
    assert ring.is_complete_intersection()
    assert time.process_time() - start < 1.0
    assert dims == [comb(7, w) for w in range(8)]


def test_pieces_reduce_their_integer_rows_without_clearing(monkeypatch):
    # the relations are cleared once, as the ring is made; no row of a
    # graded piece is cleared again
    A = [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [-1, 3, 1, 0, 0], [0, -2, 1, 1, 0], [3, 0, -1, 2, 1]]
    ring = quotient_ring(A)

    def no_clearing(row):
        raise AssertionError("a graded piece row was cleared again")

    monkeypatch.setattr(linalg, "_integer_row", no_clearing)
    assert [ring.graded_dim(d) for d in range(0, 11, 2)] == [comb(5, w) for w in range(6)]
    assert ring.is_complete_intersection()


def test_column_index_is_monomial_order_and_shared_by_rings():
    # the column of a packed monomial is its place in monomials(n, w); the
    # index depends only on the places, so rings with the same places read
    # one dict, built once per process
    from biquo.graded import _column_index
    from biquo.poly import _pack, _places

    for n, base, weight in ((3, 4, 3), (4, 5, 2), (5, 6, 4), (2, 3, 0)):
        places = _places(n, base)
        index = _column_index(places, weight)
        keys = _pack({e: 1 for e in monomials(n, weight)}, places)
        assert list(index.items()) == [(key, i) for i, key in enumerate(keys)]
    first, second = quotient_ring(t1_action_matrix(1, 2)), quotient_ring(t1_action_matrix(3, -1))
    assert first._places == second._places
    assert [first.graded_dim(d) for d in range(0, 7, 2)] == [1, 3, 3, 1]
    assert _column_index(first._places, 2) is _column_index(second._places, 2)
    assert not hasattr(first, "_indexes")


def test_no_relation_multiple_of_a_complete_intersection_reduces_to_zero(monkeypatch):
    # the rows of a complete intersection that vanish are the Koszul
    # syzygies; the F5 criterion skips each before it is built, and a row
    # at a free lead column is stored without reduction.  Permuted
    # triangular matrices (free, entries above the diagonal) still reduce.
    results = []
    reduce = linalg._reduce

    def recorded(echelon, row):
        out = reduce(echelon, row)
        results.append(out[0])
        return out

    monkeypatch.setattr(linalg, "_reduce", recorded)
    rng = random.Random(19)
    for k in (4, 5, 6):
        for trial in range(4):
            A = [[rng.choice((1, -1)) if i == j else rng.randint(-3, 3) if j < i else 0
                  for j in range(k)] for i in range(k)]
            if trial % 2:
                order = rng.sample(range(k), k)
                A = [[A[i][j] for j in order] for i in order]
            assert quotient_ring(A).is_complete_intersection()
    assert results and all(results)


def test_pieces_above_a_zero_piece_are_zero():
    x = [V(3, i) for i in range(3)]
    squares = [x[i] * x[j] for i in range(3) for j in range(i, 3)]
    ring = GradedQuotient(3, squares, max_degree=40)
    assert [ring.graded_dim(d) for d in (0, 2, 4)] == [1, 3, 0]
    assert [ring.graded_dim(d) for d in range(6, 41, 2)] == [0] * 18
    # the same piece built by elimination, with no zero piece known below it
    built = GradedQuotient(3, squares, max_degree=40).piece(8)
    answered = ring.piece(8)
    assert (answered.ambient_dim, answered.dim) == (built.ambient_dim, 0)
    assert answered.same_span(built)
    assert ring.poly_coords(x[0] * x[1] * x[2] * x[2]) == []
    with pytest.raises(ValueError):
        ring.graded_dim(41)
    with pytest.raises(ValueError):
        ring.graded_dim(42)


def test_change_of_variables_rejects_singular():
    ring = family_ring(1, 0)
    with pytest.raises(ValueError):
        ring.change_of_variables([[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_t3_change_of_variables_displayed_relations():
    x = [V(4, i) for i in range(4)]
    integral = GradedQuotient(
        4,
        [
            x[0] * x[0],
            x[1] * x[1],
            x[2] * (x[0] + x[1].scale(2) + x[2]),
            x[3] * (x[0] + x[1].scale(2) + x[3]),
        ],
        max_degree=8,
    )
    P = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [Fraction(-1, 2), -1, 1, 0],
        [Fraction(-1, 2), -1, 0, 1],
    ]
    displayed = GradedQuotient(
        4,
        [x[0] * x[0], x[1] * x[1], x[2] * x[2] - x[0] * x[1], x[3] * x[3] - x[0] * x[1]],
        max_degree=8,
    )
    assert integral.change_of_variables(P).same_ideal_through(displayed, 8)


def test_graded_dim_invariant_under_change_of_variables():
    rng = random.Random(11)
    ring = family_ring(-2, 9)
    for _ in range(50):
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            if linalg.det(P) != 0:
                break
        moved = ring.change_of_variables(P)
        assert [moved.graded_dim(d) for d in (0, 2, 4, 6)] == [1, 3, 3, 1]


def test_quadric_system_validation():
    with pytest.raises(ValueError):
        QuadricSystem(2, (((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),))
    x = [V(3, i) for i in range(3)]
    with pytest.raises(ValueError):
        QuadricSystem.from_polys([x[0] * x[0], (x[0] * x[0]).scale(2)])


def test_mult_by_class():
    ring = family_ring(1, 1)
    x = [V(3, i) for i in range(3)]
    m = ring.mult_by_class(x[0] + x[1])
    assert m.kernel_dim + m.rank == 3
    zero_map = ring.mult_by_class(HomPoly.zero(3, 1))
    assert zero_map.kernel_dim == 3  # multiplying by zero kills everything


def test_mult_by_class_refuses_a_class_in_another_number_of_variables():
    ring = family_ring(1, 1)
    assert ring.mult_by_class(V(3, 0)).kernel_dim == 1
    for n in (2, 4):
        with pytest.raises(ValueError, match="wrong number of variables"):
            ring.mult_by_class(V(n, 0))
    # circle_bundle_degree4 reads a HomPoly class in its own variables
    assert circle_bundle_degree4(ring, V(3, 0) + V(3, 1)).y == (1, 1, 0)


def test_poly_to_gram_halves_int_coefficients_as_fractions():
    x1, x2 = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    gram = poly_to_gram(x1 * x2 + (x2 * x2).scale(3))
    assert gram == ((0, Fraction(1, 2)), (Fraction(1, 2), 3))
    assert all(type(c) is Fraction for row in gram for c in row)


def _random_coefficient(rng):
    if rng.random() < 0.5:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def test_gram_round_trip_for_int_and_fraction_coefficients():
    rng = random.Random(20)
    for n in range(1, 6):
        monos = monomials(n, 2)
        for _ in range(30):
            p = HomPoly(n, 2, {e: _random_coefficient(rng) for e in monos})
            gram = poly_to_gram(p)
            assert all(type(c) is Fraction for row in gram for c in row)
            assert gram_to_poly(gram) == p
        # a triangular list: quadric k has a unit at monomial k, zeros before
        ps = [
            HomPoly(n, 2, {e: 1 if i == k else _random_coefficient(rng)
                           for i, e in enumerate(monos) if i >= k})
            for k in range(0, len(monos), 2)
        ]
        assert QuadricSystem.from_polys(ps).polys() == ps


def _reference_grams(polys):
    """The Fraction Grams of quadrics as built before systems kept integer
    rows: x_i^2's coefficient at (i, i) and half of x_i x_j's at (i, j)
    and (j, i), every entry a Fraction."""
    grams = []
    for p in polys:
        n = p.nvars
        gram = [[Fraction(0)] * n for _ in range(n)]
        for e, c in p.coeffs.items():
            i, j = [k for k in range(n) for _ in range(e[k])]
            gram[i][j] = gram[j][i] = Fraction(c) if i == j else Fraction(c) / 2
        grams.append(tuple(map(tuple, gram)))
    return tuple(grams)


def _entry_types(grams):
    return [type(c) for g in grams for row in g for c in row]


def test_systems_from_rows_read_back_the_fraction_grams():
    # from_polys and _from_rows keep integer rows and build .basis on first
    # read; the public constructor keeps the Grams it was given.  All
    # three give the same Grams, equality, hash, repr and errors.
    rng = random.Random(61)
    built = 0
    for n in range(1, 5):
        monos = monomials(n, 2)
        for _ in range(60):
            polys = [
                HomPoly(n, 2, {e: _random_coefficient(rng) for e in monos if rng.random() < 0.6})
                for _ in range(rng.randint(1, len(monos)))
            ]
            want = _reference_grams(polys)
            rows = [linalg._integer_row([p.coeffs.get(e, 0) for e in monos]) for p in polys]
            try:
                via_polys = QuadricSystem.from_polys(polys)
            except ValueError as exc:
                assert str(exc) == "quadric basis is linearly dependent"
                with pytest.raises(ValueError, match="^quadric basis is linearly dependent$"):
                    QuadricSystem(n, want)
                with pytest.raises(CertificateError, match="^quadric basis is linearly dependent$"):
                    QuadricSystem._from_rows(n, rows, CertificateError)
                continue
            public = QuadricSystem(n, want)
            via_rows = QuadricSystem._from_rows(n, rows, CertificateError)
            assert public.basis is want
            for system in (via_polys, via_rows):
                assert "basis" not in vars(system)
                assert system.dim == public.dim == len(polys)
                assert system._span._echelon == public._span._echelon
                assert system.basis == want and _entry_types(system.basis) == _entry_types(want)
                assert system == public and public == system and hash(system) == hash(public)
                assert repr(system) == repr(public) == f"QuadricSystem(ambient_dim={n!r}, basis={want!r})"
                assert all(system.contains(g) for g in want)
                assert system.polys() == polys
                assert pickle.loads(pickle.dumps(system)) == system
            built += 1
    assert built >= 100
    system = QuadricSystem.from_polys([V(2, 0) * V(2, 0)])
    with pytest.raises(AttributeError):
        system.missing
    with pytest.raises(AttributeError):
        system.ambient_dim = 3


def _upper_triangle_loops(tree):
    """Lines of ``range(start, ...)`` loops whose start reads the target of
    an enclosing ``range``/``enumerate`` loop, in statements and comprehensions."""
    found = []

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def counted(it):
        return (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("range", "enumerate"))

    def loop(it, target, bound):
        if counted(it) and it.func.id == "range" and len(it.args) > 1:
            if names(it.args[0]) & bound:
                found.append(it.lineno)
        visit(it, bound)
        return bound | names(target) if counted(it) else bound

    def visit(node, bound):
        if isinstance(node, ast.FunctionDef) and node.name == "_pairs":
            return
        if isinstance(node, ast.For):
            inner = loop(node.iter, node.target, bound)
            for child in node.body + node.orelse:
                visit(child, inner)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                bound = loop(gen.iter, gen.target, bound)
                for cond in gen.ifs:
                    visit(cond, bound)
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.comprehension):
                    visit(child, bound)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, bound)

    visit(tree, frozenset())
    return found


def test_only_pairs_spells_the_upper_triangle():
    # the pair order i <= j is graded._pairs; no other loop in src spells it
    src = Path(__file__).resolve().parents[1] / "src" / "biquo"
    assert _upper_triangle_loops(ast.parse(
        "for i in range(3):\n    for j in range(i + 1, 3):\n        pass\n"
        "x = [(a, b) for a, _ in enumerate(y) for b in range(a, 3)]\n"
    )) == [2, 4]
    found = {
        path.name: lines
        for path in sorted(src.rglob("*.py"))
        if (lines := _upper_triangle_loops(ast.parse(path.read_text())))
    }
    assert found == {}


# -- one integer net builder against the Fraction route ------------------------


def _fraction_net(table):
    """The square-map kernel the way it was built before the integer
    builder: Fraction kernel vectors, Fraction Grams with x_i x_j halved
    over (i, j) and (j, i), and a system that validates them."""
    n = len(table)
    pairs = _pairs(n)
    rows = list(zip(*(table[i][j] for i, j in pairs)))
    grams = []
    for vec in linalg.kernel_basis(rows, len(pairs)):
        gram = [[None] * n for _ in range(n)]
        for (i, j), c in zip(pairs, vec):
            gram[i][j] = gram[j][i] = c if i == j else c / 2
        grams.append(tuple(map(tuple, gram)))
    return QuadricSystem(n, tuple(grams))


def _assert_same_net(got, want):
    assert got == want
    assert all(type(c) is Fraction for g in got.basis for row in g for c in row)
    assert got._span.same_span(want._span)
    assert got._span._echelon == want._span._echelon


def _seeded_free_ring(rng, k):
    """A seeded free ring of rank k: a unit lower-triangular action,
    sometimes permuted, sometimes with relations over Q by a rational
    change of variables."""
    matrix = [
        [1 if i == j else rng.choice((-2, -1, 0, 1, 2)) if j < i else 0 for j in range(k)]
        for i in range(k)
    ]
    if rng.random() < 0.3:
        order = rng.sample(range(k), k)
        matrix = [[matrix[i][j] for j in order] for i in order]
    ring = quotient_ring(matrix)
    if rng.random() < 0.3:
        while True:
            P = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
                 for _ in range(k)]
            if linalg.det(P):
                break
        ring = ring.change_of_variables(P)
    return ring


def _net_rings():
    rng = random.Random(30)
    yield from (_seeded_free_ring(rng, 3 + s % 3) for s in range(15))
    for b1 in range(-5, 6):
        for c1 in range(-5, 6):
            if (b1, c1) != (0, 0):
                yield family_ring(b1, c1)


def test_ring_nets_match_the_fraction_route():
    for ring in _net_rings():
        table = ring.product_table()
        want = _fraction_net(table)
        _assert_same_net(ring.kernel_of_square_map(), want)
        _assert_same_net(square_map_kernel(table), want)


def test_klein_and_circle_bundle_nets_match_the_fraction_route():
    _assert_same_net(square_map_kernel(_KLEIN_PAIRS), _fraction_net(_KLEIN_PAIRS))
    rng = random.Random(31)
    base = t3_rational_ring(max_degree=8)
    table = base.product_table()
    ys = [[-1, -1, -1, 1]] + [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(8)
    ]
    for y in filter(any, ys):
        data = circle_bundle_degree4(base, y)
        target = multiplication_map(table, [Fraction(c) for c in y]).cokernel
        w = data.w_indices
        w_table = [[target.coords(table[i][j]) for j in w] for i in w]
        _assert_same_net(data.kernel, _fraction_net(w_table))


def test_net_builders_skip_quadric_system_validation(monkeypatch):
    # only the public constructor certifies Grams; every builder of integer
    # rows goes through _from_rows
    def refuse(self):
        raise AssertionError("QuadricSystem validated a net it built itself")

    ring = family_ring(3, 5)
    table = ring.product_table()
    monkeypatch.setattr(QuadricSystem, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        QuadricSystem(2, (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),))
    assert QuadricSystem.from_polys([V(2, 0) * V(2, 0)]).dim == 1
    assert ring.kernel_of_square_map().dim == 3
    assert square_map_kernel(table).dim == 3
    assert square_map_kernel(_KLEIN_PAIRS).dim > 0


def test_net_builder_rejects_dependent_rows():
    rows = [({0: 1, 1: 3}, 1), ({0: 2, 1: 6}, 5)]
    with pytest.raises(CertificateError, match="dependent"):
        QuadricSystem._from_rows(2, rows, CertificateError)
    with pytest.raises(ValueError, match="dependent") as info:
        QuadricSystem._from_rows(2, rows)
    assert not isinstance(info.value, CertificateError)
