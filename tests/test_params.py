import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampforge import DELTA_MAX, ParameterError, make_spec, spec_from_mu
from conftest import NOT_POSITIVE

angles = st.floats(min_value=1e-3, max_value=DELTA_MAX - 1e-3)
positives = st.floats(min_value=1e-3, max_value=1e3)


def test_make_spec_derived_fields():
    spec = make_spec(0.3, g=9.81, v=2.0, m=1.5)
    assert spec.mu == pytest.approx(math.tan(0.3), rel=1e-15)
    assert spec.a == pytest.approx(9.81 / (4.0 * math.sin(0.3)), rel=1e-15)
    assert spec.delta == 0.3
    assert (spec.g, spec.v, spec.m) == (9.81, 2.0, 1.5)


def test_spec_from_mu_keeps_mu_verbatim():
    spec = spec_from_mu(0.5, v=5.0)
    assert spec.mu == 0.5
    assert spec.delta == math.atan(0.5)
    # same physics as the angle route, up to rounding
    other = make_spec(math.atan(0.5), v=5.0)
    assert spec.a == pytest.approx(other.a, rel=1e-14)


@pytest.mark.parametrize("delta", [0.0, -0.1, DELTA_MAX, math.pi / 2,
                                   math.nan, math.inf])
def test_angle_range_rejected(delta):
    with pytest.raises(ParameterError) as err:
        make_spec(delta)
    assert err.value.code == "angle_range"


@pytest.mark.parametrize("mu", [0.0, -0.5, 1.0, 1.5, math.nan])
def test_mu_range_rejected(mu):
    with pytest.raises(ParameterError) as err:
        spec_from_mu(mu)
    assert err.value.code == "angle_range"


@pytest.mark.parametrize("kwargs", [{"g": 0.0}, {"g": -9.81}, {"v": 0.0},
                                    {"m": -1.0}, {"v": math.nan},
                                    {"m": math.inf}]
                         + [{name: value} for name in "gvm" for value in NOT_POSITIVE])
def test_magnitudes_rejected(kwargs):
    with pytest.raises(ParameterError, match="must be positive and finite") as err:
        make_spec(0.3, **kwargs)
    assert err.value.code == "magnitude"


@pytest.mark.parametrize("build", [make_spec, spec_from_mu])
@pytest.mark.parametrize("kwargs", [{"v": 1e160}, {"g": 5e-324, "v": 1e3},
                                    {"v": 1e-160}, {"v": 1e-170}, {"g": 1e308, "v": 1e-5}])
def test_scale_without_finite_inverse_rejected(build, kwargs):
    # a = g / (v**2 sin(delta)) overflows to inf, underflows to 0, or
    # divides by a v**2 that underflows; each is an invalid spec, not a
    # ZeroDivisionError or a zero-length span downstream
    with pytest.raises(ParameterError, match="length scale a") as err:
        build(0.5, **kwargs)
    assert err.value.code == "magnitude"


def test_spec_is_frozen(fig_spec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        fig_spec.v = 10.0


@given(delta=angles, g=positives, v=positives, m=positives)
def test_derived_fields_consistent(delta, g, v, m):
    spec = make_spec(delta, g=g, v=v, m=m)
    assert 0.0 < spec.mu < 1.0
    assert spec.a > 0.0
    assert spec.a * v * v * math.sin(delta) == pytest.approx(g, rel=1e-12)
