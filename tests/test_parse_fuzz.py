"""Fuzzing of the text parsers.

``TorusActionMatrix.parse``: both input syntaxes are generated from a
matrix of values (integers, floats, bools, strings, ragged rows); the
parse must return exactly that matrix when it is a square matrix of
integers and raise ValueError, never another exception, otherwise.  In
the semicolon syntax an entry is an ASCII ``[+-]?[0-9]+`` with optional
whitespace around it (``arith._parse_integer``), so "1_0" and non-ASCII
digits, which ``int()`` would take, must raise ValueError.

``parse_poly``, ``parse_gaussian``, ``parse_square_class``,
``parse_cube_class`` and ``parse_t1_invariant``: any text either raises
ValueError, never another exception, or gives a value whose canonical
text parses back to it; a canonical text parses to a value that
serializes to that very text.
"""

import json
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from biquo.arith import (
    CubeClass,
    Gaussian,
    SquareClass,
    is_prime,
    parse_cube_class,
    parse_gaussian,
    parse_square_class,
    square_class,
)
from biquo.biquotient import TorusActionMatrix
from biquo.invariants import T1Invariant, parse_t1_invariant
from biquo.poly import HomPoly, monomials, parse_poly

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

INTS = st.integers(-(10**30), 10**30)
INTEGER_TOKEN = re.compile("[+-]?[0-9]+")
NON_INTS = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3))


def _square_matrices(entries, min_size=0):
    return st.integers(min_size, 4).flatmap(
        lambda k: st.lists(st.lists(entries, min_size=k, max_size=k), min_size=k, max_size=k)
    )


def _square_int_matrices():
    return _square_matrices(INTS)


def _expected(rows):
    """The entries parse must return, or None when it must raise ValueError."""
    square = all(isinstance(row, list) and len(row) == len(rows) for row in rows)
    if square and all(type(x) is int for row in rows for x in row):
        return tuple(tuple(row) for row in rows)
    return None


def _expected_tokens(rows):
    """The entries parse must return for the "1,0;2,1" text of rows, or None:
    every token, stripped of whitespace, must be ``[+-]?[0-9]+``."""
    tokens = [[str(x).strip() for x in row] for row in rows]
    if all(INTEGER_TOKEN.fullmatch(t) for row in tokens for t in row):
        return _expected([[int(t) for t in row] for row in tokens])
    return None


def _check(text, want):
    if want is None:
        with pytest.raises(ValueError):
            TorusActionMatrix.parse(text)
    else:
        got = TorusActionMatrix.parse(text)
        assert got.entries == want
        assert all(type(x) is int for row in got.entries for x in row)


@FUZZ
@given(
    st.one_of(
        _square_int_matrices(),
        st.lists(
            st.one_of(
                st.lists(st.one_of(INTS, NON_INTS, st.lists(INTS, max_size=2)), max_size=4),
                INTS,
                st.text(max_size=3),
            ),
            max_size=4,
        ),
    )
)
def test_parse_json_is_integer_matrix_or_value_error(rows):
    _check(json.dumps(rows), _expected(rows))


# tokens of the "1,0;2,1" syntax: no separators, and no "[" that would
# switch the parser to JSON
TOKENS = st.one_of(
    INTS,
    st.floats(),
    st.booleans(),
    st.text(st.characters(exclude_characters=",;["), max_size=3),
    st.sampled_from(["1_0", "+1", "\u0663", " 7 ", "0x1", "1e3", "--1", "- 1"]),
)


@FUZZ
@given(
    st.one_of(
        _square_int_matrices().filter(bool),
        # square, so only the tokens decide between a matrix and ValueError
        _square_matrices(TOKENS, min_size=1),
        st.lists(st.lists(TOKENS, max_size=4), min_size=1, max_size=4),
    )
)
def test_parse_semicolon_rows_is_integer_matrix_or_value_error(rows):
    _check(";".join(",".join(str(x) for x in row) for row in rows), _expected_tokens(rows))


@pytest.mark.parametrize("token", ["1_0", "٣", "１", "1٣", "0_1"])
def test_semicolon_syntax_rejects_what_only_int_accepts(token):
    int(token)  # a token int() takes, outside [+-]?[0-9]+
    with pytest.raises(ValueError):
        TorusActionMatrix.parse(f"1,0;{token},1")
    assert TorusActionMatrix.parse(" 1 ,0; -0 , 1\n").entries == ((1, 0), (0, 1))


def test_semicolon_syntax_reads_a_leading_plus():
    # one integer grammar with arith._parse_integer and the class parsers
    assert TorusActionMatrix.parse("+1,0; +2 ,-1").entries == ((1, 0), (2, -1))
    assert parse_square_class("+5") == parse_square_class("5")


# ---------------------------------------------------------------------------
# value parsers: a value whose canonical text parses back, or ValueError
# ---------------------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 12))
SPLIT_PRIMES = [5, 13, 17, 29, 37, 41, 53]


def _text_over(alphabet):
    """Short texts over a parser's syntax characters, plus some that only
    ``int()`` or ``Fraction()`` would take."""
    extra = [" ", "-", "+", "/", "0", "1", "5", "\u2212", "\u0663", "_", ".", "e"]
    return st.text(st.sampled_from(list(alphabet) + extra), max_size=12)


def _parse_poly3(text):
    return parse_poly(text, 3)


def _homs():
    return st.integers(0, 3).flatmap(
        lambda w: st.dictionaries(st.sampled_from(monomials(3, w)), FRACTIONS, max_size=4)
        .map(lambda terms: HomPoly(3, w, terms))
        .filter(lambda p: not p.is_zero())
    )


def _cube_classes():
    return st.dictionaries(st.sampled_from(SPLIT_PRIMES), st.integers(0, 2)).map(
        CubeClass.from_mapping
    )


def _t1_invariants():
    pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any)
    return pairs.map(lambda ab: T1Invariant.from_alpha_beta(*ab))


# rational literals with zero, signed and non-ASCII denominators, and terms
# of linear forms that may cancel
_RATIONAL_TEXTS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "2/-1", "1/\u0663"])
_GAUSSIAN_TEXTS = st.tuples(_RATIONAL_TEXTS, st.sampled_from("+-"), _RATIONAL_TEXTS).map(
    "{0[0]}{0[1]}{0[2]}i".format
)
_POLY_TEXTS = st.lists(
    st.tuples(st.sampled_from("+-"), _RATIONAL_TEXTS, st.sampled_from(["x1", "x2", "x1^2"])).map(
        "{0[0]}{0[1]}*{0[2]}".format
    ),
    min_size=1,
    max_size=3,
).map("".join)

# "p:r" chunks with any small p, so non-split, composite and repeated primes
_CUBE_TEXTS = st.lists(
    st.tuples(st.integers(-5, 60), st.integers(-3, 3)).map("{0[0]}:{0[1]}".format), max_size=3
).map(",".join)


def _valid_cube_class(c: CubeClass) -> bool:
    return all(p % 4 == 1 and is_prime(p) and r in (1, 2) for p, r in c.residues)


# name: (parse, serialize, valid values, syntax texts, validity of a parsed value)
PARSERS = {
    "poly": (
        _parse_poly3,
        HomPoly.to_str,
        _homs(),
        st.one_of(_POLY_TEXTS, _text_over("x123^*")),
        lambda p: not p.is_zero(),
    ),
    "gaussian": (
        parse_gaussian,
        str,
        st.builds(Gaussian, FRACTIONS, FRACTIONS),
        st.one_of(_RATIONAL_TEXTS, _GAUSSIAN_TEXTS, _text_over("i")),
        lambda g: True,
    ),
    "square_class": (
        parse_square_class,
        SquareClass.serialize,
        st.integers(-(10**6), 10**6).filter(bool).map(square_class),
        _text_over("23"),
        lambda c: True,
    ),
    "cube_class": (
        parse_cube_class,
        CubeClass.serialize,
        _cube_classes(),
        st.one_of(_CUBE_TEXTS, _text_over(":,")),
        _valid_cube_class,
    ),
    "t1_invariant": (
        parse_t1_invariant,
        T1Invariant.serialize,
        _t1_invariants(),
        st.one_of(st.tuples(_CUBE_TEXTS, _CUBE_TEXTS).map("|".join), _text_over("|:,")),
        lambda t: all(map(_valid_cube_class, t.classes))
        and t.classes[1] == t.classes[0].conjugate(),
    ),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(data=st.data())
def test_value_parsers_round_trip_or_raise_value_error(name, data):
    parse, serialize, values, texts, valid = PARSERS[name]
    value = data.draw(values)
    canonical = serialize(value)
    assert parse(canonical) == value and serialize(parse(canonical)) == canonical
    try:
        parsed = parse(data.draw(st.one_of(texts, st.text(max_size=8))))
    except ValueError:
        return
    assert valid(parsed)
    canonical = serialize(parsed)
    assert parse(canonical) == parsed and serialize(parse(canonical)) == canonical


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_gaussian, "1/0"),
        (parse_gaussian, "1/0i"),
        (parse_gaussian, "1.5"),
        (parse_gaussian, "1_5"),
        (_parse_poly3, "1/0*x1"),
        (_parse_poly3, "x1 - x1"),
        (_parse_poly3, "x1^1_0"),
        (_parse_poly3, "x1^\u0663"),
        (parse_cube_class, "7:1"),
        (parse_cube_class, "0:1"),
        (parse_cube_class, "-5:1"),
        (parse_cube_class, "25:1"),
        (parse_cube_class, "5:1,5:2"),
        (parse_cube_class, "13:1_0"),
        (parse_cube_class, "1_3:1"),
        (parse_square_class, "1_5"),
        (parse_square_class, "\u0663"),
        (parse_t1_invariant, "5:1|5:1"),
    ],
)
def test_value_parsers_reject_what_they_cannot_represent(parse, text):
    with pytest.raises(ValueError):
        parse(text)
