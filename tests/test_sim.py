import numpy as np
import pytest

from rampforge import (ParameterError, builtin_field,
                       integrate_ramp3d, lower_ramp, simulate, spec_from_mu,
                       upper_ramp, verify_2d)
from rampforge.verify import TOL_RESIDUAL_2D


def test_frame_grid_2d(fig_spec):
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 1.0), fps=30.0)
    assert trace.dimension == 2
    assert not trace.truncated
    assert len(trace.frames) == 31
    times = trace.frames["t"]
    assert np.allclose(np.diff(times), 1.0 / 30.0)
    assert times[0] == 0.0


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


def test_frames_2d_normal_flips_on_lower_branch(fig_spec):
    # near the apex the lower branch holds the block from above
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.01, 2.0), fps=30.0)
    ny = trace.frames["normal_force"][:, 1]
    assert ny[0] < 0.0
    assert ny[-1] > 0.0


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


def test_positions_follow_geometry(fig_spec):
    ramp = lower_ramp(fig_spec)
    trace = simulate(fig_spec, ramp, (0.0, 1.0), fps=10.0)
    expect = ramp.curve.position(fig_spec.v * trace.frames["t"])
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
