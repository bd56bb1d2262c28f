"""Property tests of the cube class on Gaussians with mixed int and
Fraction parts.

``cube_class_mod_q`` quotients Q(i)* by cubes and rational scalars, so
class(z * w^3 * q) = class(z) for every nonzero Gaussian rational z and w
and nonzero rational q, whatever mix of int and Fraction parts they carry.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from biquo.arith import Gaussian, cube_class_mod_q

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

ints = st.integers(-60, 60)
fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
parts = st.one_of(ints, fractions)
gaussians = st.builds(Gaussian, parts, parts).filter(bool)
rationals = st.one_of(ints, fractions).filter(bool)


@PROPERTY
@given(z=gaussians, w=gaussians, q=rationals)
def test_cube_class_drops_cubes_and_rational_scalars(z, w, q):
    assert cube_class_mod_q(z * w**3 * q) == cube_class_mod_q(z)


@PROPERTY
@given(z=gaussians)
def test_cube_class_ignores_the_part_types(z):
    twin = Gaussian(Fraction(z.re), Fraction(z.im))
    assert cube_class_mod_q(z) == cube_class_mod_q(twin)
    assert cube_class_mod_q(z.conjugate()) == cube_class_mod_q(z).conjugate()
