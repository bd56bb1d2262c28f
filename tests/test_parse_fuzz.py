"""Fuzzing of ``TorusActionMatrix.parse``: an integer matrix or ValueError.

Both input syntaxes are generated from a matrix of values (integers,
floats, bools, strings, ragged rows); the parse must return exactly that
matrix when it is a square matrix of integers and raise ValueError, never
another exception, otherwise.  In the semicolon syntax an entry is an
ASCII ``-?[0-9]+`` with optional whitespace around it, so "1_0", "+1" and
non-ASCII digits, which ``int()`` would take, must raise ValueError.
"""

import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from biquo.biquotient import TorusActionMatrix

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

INTS = st.integers(-(10**30), 10**30)
INTEGER_TOKEN = re.compile("-?[0-9]+")
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
    every token, stripped of whitespace, must be ``-?[0-9]+``."""
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


@pytest.mark.parametrize("token", ["1_0", "+1", "٣", "１", "1٣", "0_1"])
def test_semicolon_syntax_rejects_what_only_int_accepts(token):
    int(token)  # a token int() takes, outside -?[0-9]+
    with pytest.raises(ValueError):
        TorusActionMatrix.parse(f"1,0;{token},1")
    assert TorusActionMatrix.parse(" 1 ,0; -0 , 1\n").entries == ((1, 0), (0, 1))
