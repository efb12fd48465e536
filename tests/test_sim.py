import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rampforge import (ParameterError, builtin_field,
                       integrate_ramp3d, lower_ramp, simulate, spec_from_mu,
                       upper_ramp, verify_2d)
from rampforge.verify import TOL_RESIDUAL_2D
from conftest import NOT_POSITIVE


def test_frame_grid_2d(fig_spec):
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 1.0), fps=30.0)
    assert trace.dimension == 2
    assert not trace.truncated
    assert len(trace.frames) == 31
    times = trace.frames["t"]
    assert np.allclose(np.diff(times), 1.0 / 30.0)
    assert times[0] == 0.0


@pytest.mark.parametrize("gap, frames", [(1e-12, 4), (1e-6, 3)])
def test_frame_count_tolerance_at_its_edge(fig_spec, gap, frames):
    # span * fps lands gap below k = 3: a gap at rounding level still counts
    # frame k, a real one does not; _COUNT_EPS lies between the two
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 3.0 - gap), fps=1.0)
    assert not trace.truncated
    assert len(trace.frames) == frames


def test_frames_carry_consistent_forces_2d(fig_spec):
    trace = simulate(fig_spec, upper_ramp(fig_spec), (0.0, 2.0), fps=12.0)
    frames = trace.frames
    v = frames["velocity"]
    n = frames["normal_force"]
    f = frames["friction_force"]
    assert np.linalg.norm(v, axis=-1) == pytest.approx(fig_spec.v, rel=1e-12)
    assert np.all(frames["gravity_force"] == (0.0, -fig_spec.m * fig_spec.g))
    # contact force orthogonal to the motion, friction antiparallel to it
    assert np.all(np.abs(np.einsum("ij,ij->i", n, v)) < 1e-10)
    assert np.all(np.einsum("ij,ij->i", f, v) <= 1e-12)
    assert np.linalg.norm(f, axis=-1) == pytest.approx(
        fig_spec.mu * np.linalg.norm(n, axis=-1), abs=1e-12)
    assert np.all(np.linalg.norm(frames["residual"], axis=-1) < 1e-10)


def _flip_param(spec):
    """Arc length past the apex at which the lower branch's tangent turns
    vertical: ``gamma(s*) = alpha_rot(-asinh(mu) / a)``."""
    return (math.asinh(1.0 / spec.mu) + math.asinh(spec.mu)) / spec.a


def test_frames_2d_normal_flips_on_lower_branch(fig_spec):
    # near the apex the lower branch holds the block from above; from s*
    # on the block rides on top (the first frame, at lambda = 0, is skipped)
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.01, 2.0), fps=30.0)
    ny = trace.frames["normal_force"][:, 1]
    t_flip = _flip_param(fig_spec) / fig_spec.v  # 0.4387 s
    assert np.array_equal(ny > 0.0, trace.frames["t"] > t_flip)
    assert np.all(ny != 0.0)


@settings(max_examples=50, deadline=None)
@given(mu=st.floats(0.01, 0.99), v=st.floats(0.5, 50.0))
@example(mu=0.5, v=5.0)
@example(mu=0.2, v=1.0)
@example(mu=0.9, v=30.0)
def test_normal_flips_where_the_lower_branch_turns_vertical(mu, v):
    spec = spec_from_mu(mu, g=9.81, v=v, m=1.0)
    s_flip = _flip_param(spec)
    before = s_flip * np.array([0.0, 0.25, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9])
    after = s_flip * np.array([1.0 + 1e-9, 1.0 + 1e-6, 1.1, 2.0, 5.0, 100.0])
    lower = lower_ramp(spec)
    assert np.all(lower.normal(before)[:, 1] < 0.0)
    assert np.all(lower.normal(after)[:, 1] > 0.0)
    assert abs(lower.normal(s_flip)[1]) < 1e-14
    # the upper branch's normal tilts from straight up towards the incline's
    # (the gap to cos(delta) reaches rounding level near s = 30 / a, and the
    # closed-form tangent is unit only to rounding)
    ny = upper_ramp(spec).normal(np.linspace(0.0, 20.0 / spec.a, 401))[:, 1]
    assert np.all((ny > math.cos(spec.delta)) & (ny <= 1.0 + 1e-15))


def test_frame_grid_3d_and_truncation(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 1.0, step=1e-3)
    # the curve covers s in [0, 1]; at v = 5 that is 0.2 s of motion
    trace = simulate(fig_spec, curve, (0.0, 1.0), fps=30.0)
    assert trace.dimension == 3
    assert trace.truncated
    assert "truncated" in trace.warning
    assert len(trace.frames) == 7  # frames at t = k/30 with 5 t <= 1
    assert fig_spec.v * trace.frames["t"][-1] <= 1.0 + 1e-9


def test_frames_carry_consistent_forces_3d(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"),
                             [0.8, 0.0, -0.6], 2.0)
    trace = simulate(fig_spec, curve, (0.0, 2.0 / fig_spec.v), fps=25.0)
    assert not trace.truncated
    frames = trace.frames
    v = frames["velocity"]
    n = frames["normal_force"]
    f = frames["friction_force"]
    assert np.linalg.norm(v, axis=-1) == pytest.approx(fig_spec.v, rel=1e-9)
    assert np.all(np.abs(np.einsum("ij,ij->i", n, v)) < 1e-8)
    assert np.linalg.norm(f, axis=-1) == pytest.approx(
        fig_spec.mu * np.linalg.norm(n, axis=-1), rel=1e-9, abs=1e-12)
    assert np.all(np.linalg.norm(frames["residual"], axis=-1) < 1e-6)


def test_frames_3d_inertia_is_the_slope_of_the_tangent_cubic(fig_spec):
    # on a coarse grid the residual is the interpolation error of the
    # inertia term; the slope of the gamma cubic keeps it below 2e-4 N
    curve = integrate_ramp3d(fig_spec, builtin_field("horizontal"), [0.8, 0.0, -0.6],
                             5.0 / fig_spec.a, step=0.01 / fig_spec.a)
    trace = simulate(fig_spec, curve, (0.0, curve.s_end / fig_spec.v), fps=47.0)
    assert np.linalg.norm(trace.frames["residual"], axis=-1).max() < 2e-4


def test_all_frames_truncated_yields_empty_trace(fig_spec):
    curve = integrate_ramp3d(fig_spec, builtin_field("upslope"),
                             [1.0, 0.0, 0.0], 0.5, step=1e-3)
    trace = simulate(fig_spec, curve, (1.0, 2.0), fps=30.0)
    assert trace.truncated
    assert len(trace.frames) == 0


def test_simulate_validation(fig_spec):
    ramp = lower_ramp(fig_spec)
    with pytest.raises(ParameterError):
        simulate(fig_spec, ramp, (0.0, 1.0), fps=0.0)
    with pytest.raises(ParameterError):
        simulate(fig_spec, ramp, (-1.0, 1.0))
    with pytest.raises(ParameterError):
        simulate(fig_spec, "not a geometry", (0.0, 1.0))


@pytest.mark.parametrize("fps", NOT_POSITIVE)
def test_fps_must_be_positive_and_finite(fig_spec, fps):
    with pytest.raises(ParameterError, match="fps must be positive and finite"):
        simulate(fig_spec, lower_ramp(fig_spec), (0.0, 1.0), fps=fps)


def test_positions_follow_geometry(fig_spec):
    ramp = lower_ramp(fig_spec)
    trace = simulate(fig_spec, ramp, (0.0, 1.0), fps=10.0)
    expect = ramp.position(fig_spec.v * trace.frames["t"])
    assert np.allclose(trace.frames["position"], expect, atol=1e-12)


def test_frames_match_verify_2d_at_same_times(fig_spec):
    # fps = 32 puts frames at k / 32, which linspace reproduces bit for bit
    ramp = lower_ramp(fig_spec)
    trace = simulate(fig_spec, ramp, (0.0, 1.0), fps=32.0)
    report = verify_2d(fig_spec, ramp, t_span=(0.0, 1.0), n_samples=33)
    assert np.array_equal(trace.frames["t"], report.t)
    assert np.array_equal(np.linalg.norm(trace.frames["residual"], axis=-1),
                          report.residual_norm)
    assert np.array_equal(trace.frames["normal_force"],
                          report.lambda_profile[:, None] * ramp.normal(fig_spec.v * report.t))


def test_frames_expose_wrong_friction(fig_spec):
    ramp = lower_ramp(fig_spec)
    good = simulate(fig_spec, ramp, (0.0, 2.0), fps=30.0)
    bad = simulate(spec_from_mu(0.55, g=fig_spec.g, v=fig_spec.v, m=fig_spec.m),
                   ramp, (0.0, 2.0), fps=30.0)
    assert np.linalg.norm(good.frames["residual"], axis=-1).max() < TOL_RESIDUAL_2D
    assert np.linalg.norm(bad.frames["residual"], axis=-1).max() > 1e7 * TOL_RESIDUAL_2D
