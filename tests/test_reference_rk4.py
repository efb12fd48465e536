"""The float-state integrators against a textbook RK4 on numpy arrays.

``integrate_fixed`` runs its stages in Python floats and the built-in
fields take their norms as ``sqrt(w1*w1 + w2*w2 + w3*w3)``.  Both must give
the bits of the plain array formulation below, step for step; its norm is
the same sum of squares in elementwise IEEE operations, with no BLAS call.
"""

import math

import numpy as np
import pytest

from rampforge import (TangentField, builtin_field, e3_tangential,
                       integrate_fixed, integrate_ramp3d, integrate_theta,
                       spec_from_mu, theta_closed_form, theta_ode_rhs)


def _array_rk4(f, y0, h, n, renormalize=False):
    """RK4 on numpy arrays: samples, slopes and the norm drift per step."""
    y = np.asarray(y0, dtype=float)
    k1 = f(y)
    ys, dys = [y], [k1]
    drift_total = drift_max = 0.0
    for _ in range(n):
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if renormalize:
            norm = _norm(y)
            drift = abs(norm - 1.0)
            drift_total += drift
            drift_max = max(drift_max, drift)
            y = y / norm
        k1 = f(y)
        ys.append(y)
        dys.append(k1)
    return np.array(ys), np.array(dys), drift_total, drift_max


def _norm(w):
    return np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])


def _unit(w):
    return w / _norm(w)


def _upslope(y):
    return _unit(e3_tangential(y))


def _horizontal(y):
    return _unit(np.array([y[1], -y[0], 0.0]))  # y x e3


REFERENCE_FIELDS = {
    ("upslope",): _upslope,
    ("horizontal",): _horizontal,
    ("blend", 0.37): lambda y: _unit(0.37 * _upslope(y) + (1.0 - 0.37) * _horizontal(y)),
}

SPECS = [spec_from_mu(0.5, g=9.81, v=5.0, m=1.0),
         spec_from_mu(0.3, g=3.7, v=2.0, m=2.5)]


@pytest.mark.parametrize("kind", list(REFERENCE_FIELDS))
@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("y0", [[0.8, 0.0, -0.6], [-0.48, 0.64, -0.6]])
def test_ramp3d_matches_array_rk4(kind, spec, y0):
    n, h = 40, 0.05  # s_max = 2.0 gives exactly 40 steps of 0.05
    reference = REFERENCE_FIELDS[kind]

    def flow(y):
        return -(spec.g / (spec.v * spec.v)) * (
            e3_tangential(y) + (y[2] / spec.mu) * reference(y))

    gamma, dgamma, drift_total, drift_max = _array_rk4(flow, y0, h, n, renormalize=True)
    curve = integrate_ramp3d(spec, builtin_field(*kind), y0, n * h, step=h)
    assert curve.gamma.shape == (n + 1, 3)
    assert np.array_equal(curve.gamma, gamma)
    assert np.array_equal(curve.dgamma, dgamma)
    assert curve.norm_drift_total == drift_total
    assert curve.norm_drift_max == drift_max
    assert drift_max > 0.0  # the renormalization was exercised


@pytest.mark.parametrize("form", [lambda n: n, lambda n: n.tolist(),
                                  lambda n: (float(n[0]), float(n[1]), 0)],
                         ids=["array", "list", "int"])
def test_eval_call_path_matches_array_rk4(form):
    # a custom eval is called in each stage and its values read as floats:
    # a (3,) array, a list, or the int 0 for the horizontal field's third
    # component (0.0 exactly) keep the bits of the array formulation
    spec, n, h, y0 = SPECS[0], 40, 0.05, [0.8, 0.0, -0.6]
    reference = REFERENCE_FIELDS[("horizontal",)]

    def flow(y):
        return -(spec.g / (spec.v * spec.v)) * (
            e3_tangential(y) + (y[2] / spec.mu) * reference(y))

    gamma, dgamma, _, _ = _array_rk4(flow, y0, h, n, renormalize=True)
    custom = TangentField("horizontal", eval=lambda y: form(reference(y)))
    curve = integrate_ramp3d(spec, custom, y0, n * h, step=h)
    assert np.array_equal(curve.gamma, gamma)
    assert np.array_equal(curve.dgamma, dgamma)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("start", [0.0, 0.9])
def test_theta_matches_array_rk4(spec, start):
    theta0 = float(theta_closed_form(spec, start / spec.a))
    n = 40
    h = (6.0 / spec.a) / n
    theta, _, _, _ = _array_rk4(lambda th: theta_ode_rhs(spec, th), theta0, h, n)
    trace = integrate_theta(spec, theta0, (0.0, 6.0 / spec.a), step=h)
    assert trace.theta.shape == (n + 1,)
    assert np.array_equal(trace.theta, theta)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("start", [0.0, 0.9])
@pytest.mark.parametrize("step", [None, 0.15])  # the default step; a coarse one, times 1/a
def test_theta_matches_the_rhs_call_path(spec, start, step):
    # the inline run against integrate_fixed calling the equation as a
    # Python-float rhs
    a, delta = spec.a, spec.delta
    theta0 = float(theta_closed_form(spec, start / a))
    h = None if step is None else step / a
    trace = integrate_theta(spec, theta0, (0.0, 6.0 / a), step=h)
    s, theta, _, stop = integrate_fixed(lambda _s, th: (-a * math.sin(th[0] + delta),),
                                        (theta0,), 0.0, 6.0 / a, 1e-3 / a if h is None else h)
    assert stop is None and trace.s.shape == (s.shape[0],)
    assert np.array_equal(trace.s, s)
    assert np.array_equal(trace.theta, theta[:, 0])


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_fixed_matches_array_rk4_in_any_dimension(dim):
    # y' = A y; integrate_fixed takes any d, and the package itself calls it for none
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim)) - np.eye(dim)
    y0 = rng.normal(size=dim)
    n, h = 40, 0.05
    y, dy, _, _ = _array_rk4(lambda u: a @ u, y0, h, n)
    t, ys, dys, stop = integrate_fixed(lambda _t, u: (a @ np.array(u)).tolist(),
                                       y0.tolist(), 0.0, n * h, h)
    assert stop is None and t.shape == (n + 1,)
    assert np.array_equal(ys, y)
    assert np.array_equal(dys, dy)
