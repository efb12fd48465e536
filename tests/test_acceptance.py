"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Tolerances and runtime budgets are asserted inside the tests, so
a failure here means the criterion itself is not met.
"""

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from rampforge import (Branch, Verdict, alpha,
                       alpha_rotated_second_derivative, alpha_rotated_tangent,
                       alpha_tangent, builtin_field, integrate_ramp3d,
                       integrate_theta, lower_ramp, make_ramp, make_spec,
                       normal_force_2d, normal_sign_diagnostic,
                       Ramp2D, scale_ramp, spec_from_mu,
                       tangent_angle_orbit_position, theta_closed_form,
                       theta_closed_form_derivative, theta_ode_rhs, upper_ramp,
                       verify_2d, verify_3d, verify_scaling, Feasibility)
from rampforge.cli import main as cli_main
from conftest import FIG_G, FIG_M, FIG_MU, FIG_V, GAP_REF

DELTA_MAX = math.pi / 4


def _random_specs(count: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        delta = rng.uniform(0.02, DELTA_MAX - 0.02)
        v = rng.uniform(0.3, 20.0)
        g = rng.uniform(1.0, 25.0)
        m = rng.uniform(0.1, 10.0)
        yield make_spec(delta, g=g, v=v, m=m)


def _fig_spec():
    return spec_from_mu(FIG_MU, g=FIG_G, v=FIG_V, m=FIG_M)


def test_c01_arc_length_parametrization():
    """|alpha'(s)| = 1 within 1e-12 on 1000 points for 20 random specs, <1s."""
    start = time.perf_counter()
    worst = 0.0
    for spec in _random_specs(20):
        s = np.linspace(-10.0 / spec.a, 10.0 / spec.a, 1000)
        norms = np.linalg.norm(alpha_tangent(spec, s), axis=-1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"unit-speed violation {worst:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_c02_asymptote_gap():
    """y(1e3/a) - y(-1e3/a) equals pi/a within 1e-9."""
    spec = _fig_spec()
    far = 1e3 / spec.a
    gap = float(alpha(spec, far)[1] - alpha(spec, -far)[1])
    assert abs(gap - math.pi / spec.a) <= 1e-9
    assert gap == pytest.approx(GAP_REF, abs=1e-9)


def test_c03_tangent_angle_ode():
    """Closed form solves the angle equation to 1e-10; RK4 agrees to 1e-8;
    step halving shows order 4.0 +/- 0.2."""
    spec = _fig_spec()
    s = np.linspace(-10.0 / spec.a, 10.0 / spec.a, 1001)
    residual = np.abs(theta_closed_form_derivative(spec, s)
                      - theta_ode_rhs(spec, theta_closed_form(spec, s)))
    assert float(residual.max()) < 1e-10

    theta0 = float(theta_closed_form(spec, 0.0))
    span = (0.0, 10.0 / spec.a)
    trace = integrate_theta(spec, theta0, span)
    drift = np.abs(trace.theta - theta_closed_form(spec, trace.s))
    assert float(drift.max()) < 1e-8

    errors = []
    for step in (0.2 / spec.a, 0.1 / spec.a):  # coarse so roundoff stays negligible
        coarse = integrate_theta(spec, theta0, span, step=step)
        errors.append(abs(float(coarse.theta[-1])
                          - float(theta_closed_form(spec, span[1]))))
    order = math.log2(errors[0] / errors[1])
    assert 3.8 <= order <= 4.2, f"observed order {order:.3f}"


def test_c04_normal_projection_identity():
    """alpha''_rot . (y'_rot, -x'_rot) = a sech(a s) within 1e-10 on a grid."""
    spec = _fig_spec()
    s = np.linspace(-12.0 / spec.a, 12.0 / spec.a, 2001)
    d = alpha_rotated_tangent(spec, s)
    dd = alpha_rotated_second_derivative(spec, s)
    projected = dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]
    expected = spec.a / np.cosh(spec.a * s)
    assert float(np.max(np.abs(projected - expected))) < 1e-10


def test_c05_planar_force_balance():
    """Both branches verify Valid at the figure parameters: residual < 1e-8 N,
    lambda(0) = 0 within 1e-10 N, lambda(t) > 0 for t > 0, in < 1s."""
    spec = _fig_spec()
    start = time.perf_counter()
    for branch in Branch:
        report = verify_2d(spec, make_ramp(spec, branch))
        assert report.verdict is Verdict.VALID, f"{branch}: {report.verdict}"
        assert report.max_residual < 1e-8
        lam0 = float(normal_force_2d(spec, branch, 0.0))
        assert abs(lam0) <= 1e-10
        t = np.linspace(1e-6, 10.0, 2000)
        assert np.all(normal_force_2d(spec, branch, t) > 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_c06_parabola_requires_pulling():
    """Sliding along (t, t^2) with the downward normal needs lambda < 0."""
    spec = _fig_spec()

    def position(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(t, t * t), axis=-1)

    def tangent(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(np.ones_like(t), 2.0 * t), axis=-1)

    def second(t):
        t = np.asarray(t, dtype=float)
        return np.stack(np.broadcast_arrays(np.zeros_like(t),
                                            np.full_like(t, 2.0)), axis=-1)

    def normal(t):
        t = np.asarray(t, dtype=float)
        scale = np.sqrt(4.0 * t * t + 1.0)
        return np.stack(np.broadcast_arrays(2.0 * t / scale, -1.0 / scale),
                        axis=-1)

    parabola = Ramp2D(position=position, tangent=tangent, second_derivative=second,
                      normal=normal, domain=(-math.inf, math.inf), branch=Branch.LOWER)
    report = normal_sign_diagnostic(parabola, np.array([0.0, -spec.m * spec.g]),
                                    spec.m, 1.0, t_span=(0.0, 6.0), start=-3.0)
    assert report.verdict is Feasibility.INFEASIBLE
    assert np.all(report.lambda_required < 0.0)


def test_c07_hemisphere_flows_from_random_starts():
    """UpSlope and Horizontal from 10 random interior starts: direction stays
    on the south hemisphere (1e-9), norm drift < 1e-9, residual < 1e-6 N,
    all within 10 s."""
    spec = _fig_spec()
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    for _ in range(10):
        height = rng.uniform(-0.9, -0.05)
        azimuth = rng.uniform(0.0, 2.0 * math.pi)
        rho = math.sqrt(1.0 - height * height)
        y0 = np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), height])
        for kind in ("upslope", "horizontal"):
            curve = integrate_ramp3d(spec, builtin_field(kind), y0, 2.0 / spec.a)
            assert not curve.stopped_early
            assert float(curve.gamma[:, 2].max()) <= 1e-9
            assert float(curve.alpha[:, 2].max()) <= 1e-9
            assert curve.norm_drift_total < 1e-9
            report = verify_3d(spec, curve)
            assert report.verdict is Verdict.VALID, f"{kind}: {report.verdict}"
            assert report.max_residual < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s budget"


def test_c08_upslope_reduces_to_planar_closed_form():
    """The UpSlope space curve from a horizontal start equals the planar
    closed form embedded in its vertical plane, within 1e-6 m over [0, 5/a]."""
    spec = _fig_spec()
    curve = integrate_ramp3d(spec, builtin_field("upslope"), [1.0, 0.0, 0.0],
                             5.0 / spec.a)
    # embed the closed-form solution with matching start angle in the x-z plane
    reference = tangent_angle_orbit_position(spec, 0.0, curve.s)
    embedded = np.stack([reference[:, 0], np.zeros_like(curve.s),
                         reference[:, 1]], axis=-1)
    deviation = float(np.linalg.norm(curve.alpha - embedded, axis=-1).max())
    assert deviation < 1e-6, f"deviation {deviation:.3e} m"
    # the same positions, written via the branch construction
    branch = upper_ramp(spec)
    branch_embedded = branch.position(curve.s)
    branch_embedded = np.stack(
        [branch_embedded[:, 0] - branch_embedded[0, 0], np.zeros_like(curve.s),
         branch_embedded[:, 1] - branch_embedded[0, 1]], axis=-1)
    assert float(np.linalg.norm(curve.alpha - branch_embedded,
                                axis=-1).max()) < 1e-6


def test_c09_scaling_law():
    """kappa-dilated geometries verify Valid under (sqrt(kappa) v, g) and
    under (v, g/kappa), for kappa in {0.25, 4, 6}; kappa=6 is the Moon case."""
    spec = _fig_spec()
    for kappa in (0.25, 4.0, 6.0):
        for branch in Branch:
            result = verify_scaling(spec, make_ramp(spec, branch), kappa)
            assert result.both_valid, (kappa, branch)
            assert result.speed_report.max_residual < 1e-6
            assert result.gravity_report.max_residual < 1e-6

    curve = integrate_ramp3d(spec, builtin_field("upslope"), [1.0, 0.0, 0.0],
                             2.0 / spec.a)
    for kappa in (0.25, 4.0, 6.0):
        result = verify_scaling(spec, curve, kappa)
        assert result.both_valid, kappa
    moon = verify_scaling(spec, curve, 6.0)
    assert moon.gravity_spec.g == pytest.approx(spec.g / 6.0)
    assert moon.gravity_report.verdict is Verdict.VALID


def test_c10_negative_controls():
    """Perturbed mu and uncompensated dilation must be caught as
    ResidualExceeded: the verifiers cannot be vacuous."""
    spec = _fig_spec()
    ramp = lower_ramp(spec)
    wrong_mu = spec_from_mu(spec.mu * 1.1, g=spec.g, v=spec.v, m=spec.m)
    report = verify_2d(wrong_mu, ramp)
    assert report.verdict is Verdict.RESIDUAL_EXCEEDED
    assert report.max_residual > 1e-8

    curve = integrate_ramp3d(spec, builtin_field("upslope"), [1.0, 0.0, 0.0],
                             2.0 / spec.a)
    stretched = scale_ramp(curve, 1.01)
    report = verify_3d(spec, stretched)  # original spec: no compensation
    assert report.verdict is Verdict.RESIDUAL_EXCEEDED
    assert report.max_residual > 1e-6


def test_c11_cli_determinism(tmp_path, capsys):
    """Two runs of every command with identical inputs produce byte-identical
    stdout and files."""
    base = tmp_path / "out"
    base.mkdir()
    commands = {
        "generate2d": ["generate2d", "--mu", "0.5", "--v", "5",
                       "--branch", "lower", "--samples", "64",
                       "--out", str(base / "curve.csv")],
        "generate2d-svg": ["generate2d", "--mu", "0.5", "--v", "5",
                           "--branch", "upper", "--samples", "64",
                           "--format", "svg", "--out", str(base / "curve.svg")],
        "generate3d": ["generate3d", "--mu", "0.5", "--v", "5",
                       "--field", "upslope", "--y0", "1", "0", "0",
                       "--smax", "0.4", "--step", "0.004", "--mesh", "24x6",
                       "--out", str(base / "demo")],
        "verify": ["verify", "--mu", "0.5", "--v", "5", "--branch", "upper",
                   "--samples", "64", "--out", str(base / "report.json")],
        "simulate": ["simulate", "--mu", "0.5", "--v", "5", "--branch",
                     "lower", "--t-span", "0", "0.5", "--fps", "16",
                     "--out", str(base / "frames.jsonl")],
        "scale": ["scale", "--mu", "0.5", "--v", "5", "--branch", "upper",
                  "--kappa", "6", "--samples", "64",
                  "--out", str(base / "scale.json")],
    }
    for name, argv in commands.items():
        captures = []
        for _ in range(2):
            code = cli_main(list(argv))
            stdout = capsys.readouterr().out
            assert code == 0, f"{name} exited {code}"
            files = {p.name: p.read_bytes()
                     for p in sorted(base.iterdir()) if p.is_file()}
            captures.append((stdout, files))
            json.loads(stdout)  # stdout stays machine-readable
        assert captures[0][0] == captures[1][0], f"{name}: stdout differs"
        assert captures[0][1] == captures[1][1], f"{name}: files differ"


def test_readme_python_examples_print_valid():
    # the README's Python blocks, run in order in one namespace as a reader
    # pastes them: the 3D block reuses the quick start's spec
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile("".join(blocks), "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["Valid", "Valid"]
