"""Fuzzing of ``TorusActionMatrix.parse``: an integer matrix or ValueError.

Both input syntaxes are generated from a matrix of values (integers,
floats, bools, strings, ragged rows); the parse must return exactly that
matrix when it is a square matrix of integers and raise ValueError, never
another exception, otherwise.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from biquo.biquotient import TorusActionMatrix

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

INTS = st.integers(-(10**30), 10**30)
NON_INTS = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3))


def _square_int_matrices():
    return st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(INTS, min_size=k, max_size=k), min_size=k, max_size=k)
    )


def _expected(rows):
    """The entries parse must return, or None when it must raise ValueError."""
    square = all(isinstance(row, list) and len(row) == len(rows) for row in rows)
    if square and all(type(x) is int for row in rows for x in row):
        return tuple(tuple(row) for row in rows)
    return None


def _check(text, rows):
    want = _expected(rows)
    if want is None:
        with pytest.raises(ValueError):
            TorusActionMatrix.parse(text)
    else:
        got = TorusActionMatrix.parse(text)
        assert got.entries == want
        assert all(type(x) is int for row in got.entries for x in row)


def _is_int_literal(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


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
    _check(json.dumps(rows), rows)


# tokens of the "1,0;2,1" syntax: no separators, and no "[" that would
# switch the parser to JSON
TOKENS = st.one_of(
    INTS,
    st.floats(),
    st.booleans(),
    st.text(st.characters(exclude_characters=",;["), max_size=3).filter(
        lambda t: not _is_int_literal(t)
    ),
)


@FUZZ
@given(
    st.one_of(
        _square_int_matrices().filter(bool),
        st.lists(st.lists(TOKENS, max_size=4), min_size=1, max_size=4),
    )
)
def test_parse_semicolon_rows_is_integer_matrix_or_value_error(rows):
    _check(";".join(",".join(str(x) for x in row) for row in rows), rows)
