import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowwell.potential import Potential


def test_builtin_shapes_at_origin():
    assert Potential("square_well", 1.0).shape(0.0) == 1.0
    assert Potential("poschl_teller", 1.0).shape(0.0) == 1.0
    assert Potential("gaussian", 1.0).shape(0.0) == 1.0


def test_square_well_halfwidth_cutoff():
    p = Potential("square_well", 1.0, a=1.5)
    assert p.shape(1.5) == 1.0
    assert p.shape(1.5000001) == 0.0
    assert p.shape(-1.2) == 1.0


def test_poschl_teller_shape_value():
    p = Potential("poschl_teller", 1.0)
    assert p.shape(1.0) == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-15)


def test_evaluate_scalar_in_scalar_out():
    p = Potential("gaussian", 2.0)
    v = p.evaluate(0.5)
    assert isinstance(v, float)
    assert v == pytest.approx(-2.0 * math.exp(-0.25), rel=1e-15)
    arr = p.evaluate(np.array([0.0, 0.5]))
    assert arr.shape == (2,)


def test_tabulated_interpolates_and_vanishes_outside():
    p = Potential.tabulated([-1.0, 0.0, 1.0], [-0.0, -2.0, -0.0], s=1.0)
    assert p.shape(0.0) == 2.0
    assert p.shape(0.5) == 1.0  # linear interpolation
    assert p.shape(3.0) == 0.0
    assert p.shape(-3.0) == 0.0
    assert p.support_radius() == 1.0


def test_tabulated_samples_are_read_only_copies():
    xs = np.linspace(-2.0, 2.0, 41)
    vs = -1.0 / np.cosh(xs) ** 2
    p = Potential.tabulated(xs, vs, s=1.0)
    x = np.linspace(-2.5, 2.5, 101)
    before = p.shape(x)
    xs *= 2.0
    vs[:] = -7.0
    assert np.array_equal(p.shape(x), before)
    with pytest.raises(ValueError):
        p.sample_x[0] = 0.0
    assert np.array_equal(replace(p, s=2.0).shape(x), before)


def test_tabulated_rejects_positive_values():
    with pytest.raises(ValueError):
        Potential.tabulated([-1.0, 1.0], [0.5, -1.0])


def test_tabulated_rejects_unsorted_abscissas():
    with pytest.raises(ValueError):
        Potential.tabulated([1.0, -1.0], [-1.0, -1.0])


def test_validation_errors():
    with pytest.raises(ValueError):
        Potential("lorentzian", 1.0)
    with pytest.raises(ValueError):
        Potential("gaussian", -0.5)
    with pytest.raises(ValueError):
        Potential("square_well", 1.0, a=0.0)
    with pytest.raises(ValueError):
        Potential("square_well", 1.0, a=math.inf)


def test_support_radius_ladder():
    assert Potential("gaussian", 1.0).support_radius() == 10.0
    assert Potential("square_well", 1.0, a=1.0).support_radius() == 5.0


def test_support_radius_square_well_wide_raises():
    # the radius doubles from 5 until it passes the edge, however wide the well
    assert Potential("square_well", 1.0, a=100.0).support_radius() == 160.0
    assert Potential("square_well", 1.0, a=40.0).support_radius() == 80.0


def test_is_even():
    assert Potential("gaussian", 1.0).is_even()
    assert not Potential.tabulated([-1.0, 1.0], [-1.0, -2.0]).is_even()


@settings(max_examples=30, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=-50.0, max_value=50.0),
    kind=st.sampled_from(["square_well", "poschl_teller", "gaussian"]),
)
def test_shape_nonnegative_and_attractive(s, x, kind):
    p = Potential(kind, s)
    assert p.shape(x) >= 0.0
    assert p.evaluate(x) <= 0.0


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=50.0), kind=st.sampled_from(["square_well", "poschl_teller", "gaussian"]))
def test_builtin_shapes_even(x, kind):
    p = Potential(kind, 1.0)
    assert p.shape(x) == p.shape(-x)
