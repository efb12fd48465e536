"""Tangent-angle equation of the constant-speed condition and its integrators.

Writing the sliding direction as ``(cos(theta), sin(theta))``, constant speed
forces

    theta'(s) = -a * sin(theta(s) + delta)

whose decaying solution is ``theta(s) = -delta + 2*arctan(exp(-a s))``.  All
other solutions of that family are horizontal shifts of it, and
``theta = -delta`` (the inclined plane at the friction angle) is the
equilibrium.  The fixed-step RK4 path below is deliberately independent of
the closed form so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError, ParameterError
from .params import FrictionSpec

DEFAULT_STEP_FACTOR = 1e-3   # default fixed step is 1e-3 / a
_MIN_STEP_FRACTION = 1e-14   # adaptive step underflow threshold, relative to span


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control for the explicit integrators.

    ``method`` is ``"rk4"`` (fixed step ``step``) or ``"rkf45"`` (adaptive,
    absolute per-step error ``tolerance``, ``step`` taken as the initial
    trial step).
    """

    step: float
    method: str = "rk4"
    tolerance: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ParameterError(f"step must be positive, got {self.step!r}")
        if self.method not in ("rk4", "rkf45"):
            raise ParameterError(f"unknown integrator method {self.method!r}",
                                 code="config")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ParameterError(f"tolerance must be positive, got {self.tolerance!r}")


def default_config(spec: FrictionSpec) -> IntegratorConfig:
    return IntegratorConfig(step=DEFAULT_STEP_FACTOR / spec.a)


def theta_closed_form(spec: FrictionSpec, s) -> np.ndarray:
    """Decaying solution of the tangent-angle equation, in ``(-delta, pi - delta)``.

    Evaluated through ``arctan(exp(-|a s|))`` and a reflection so ``exp``
    never sees a large positive argument.
    """
    t = spec.a * np.asarray(s, dtype=float)
    u = 2.0 * np.arctan(np.exp(-np.abs(t)))
    return -spec.delta + np.where(t < 0.0, np.pi - u, u)


def theta_closed_form_derivative(spec: FrictionSpec, s) -> np.ndarray:
    """Analytic derivative ``-a * sech(a s)`` of the closed form."""
    t = spec.a * np.asarray(s, dtype=float)
    e = np.exp(-np.abs(t))
    return -spec.a * 2.0 * e / (1.0 + e * e)


def theta_ode_rhs(spec: FrictionSpec, theta) -> np.ndarray:
    """Right-hand side ``-a sin(theta + delta)``."""
    return -spec.a * np.sin(np.asarray(theta, dtype=float) + spec.delta)


def lambda_from_theta(spec: FrictionSpec, theta) -> np.ndarray:
    """Normal force magnitude ``-m g cot(delta) sin(theta)`` along a solution.

    This is signed with respect to the quarter-turn normal convention of the
    unsplit curve; it is negative uphill of the apex, where the physical ramp
    branch flips the normal.  Callers pick the side (see the verify module).
    """
    return -(spec.m * spec.g / spec.mu) * np.sin(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class ThetaTrace:
    """Dense integrator output: ``theta[i]`` at parameter ``s[i]``."""

    s: np.ndarray
    theta: np.ndarray
    method: str


def rk4_step(rhs: Callable, t: float, y, h: float):
    """One classical Runge-Kutta step; ``y`` may be a float or an ndarray."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def cubic_hermite(u, h: float, p0, m0, p1, m1):
    """Cubic Hermite interpolant on a node interval of width ``h``.

    ``u`` is the position inside the interval as a fraction of ``h``;
    ``p0``/``p1`` are the node values and ``m0``/``m1`` their derivatives.
    """
    u2 = u * u
    u3 = u2 * u
    return ((2.0 * u3 - 3.0 * u2 + 1.0) * p0 + (u3 - 2.0 * u2 + u) * h * m0
            + (-2.0 * u3 + 3.0 * u2) * p1 + (u3 - u2) * h * m1)


# Fehlberg 4(5) tableau
_RKF_C = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)


def _rkf45_step(rhs, t, y, h):
    ks = []
    for i in range(6):
        yi = y
        for aij, kj in zip(_RKF_A[i], ks):
            yi = yi + h * aij * kj
        ks.append(rhs(t + _RKF_C[i] * h, yi))
    y5 = y
    y4 = y
    for b5, b4, k in zip(_RKF_B5, _RKF_B4, ks):
        y5 = y5 + h * b5 * k
        y4 = y4 + h * b4 * k
    return y5, float(np.max(np.abs(np.asarray(y5 - y4))))


def integrate_fixed(rhs: Callable, y0, t0: float, t1: float, step: float,
                    post_step: Callable | None = None):
    """Fixed-step RK4 over ``[t0, t1]``; returns ``(t, y)`` sample arrays.

    ``post_step(y) -> y`` runs after every step (used for constraint
    projection).  The final step is shortened to land on ``t1`` exactly.
    """
    span = t1 - t0
    if span <= 0.0:
        raise ParameterError("integration span must have t1 > t0")
    n = max(1, math.ceil(span / step - 1e-12))
    h = span / n
    y = np.asarray(y0, dtype=float) + 0.0
    ts = t0 + h * np.arange(n + 1)
    ts[-1] = t1
    ys = np.empty((n + 1,) + y.shape)
    ys[0] = y
    for i in range(n):
        y = rk4_step(rhs, ts[i], y, h)
        if post_step is not None:
            y = post_step(y)
        ys[i + 1] = y
    return ts, ys


def integrate_adaptive(rhs: Callable, y0, t0: float, t1: float,
                       tolerance: float, first_step: float,
                       post_step: Callable | None = None):
    """Adaptive RKF45; returns accepted sample points ``(t, y)``.

    Raises
    ------
    IntegrationError
        if the controller drives the step below ``1e-14 * span``.
    """
    span = t1 - t0
    if span <= 0.0:
        raise ParameterError("integration span must have t1 > t0")
    h_min = _MIN_STEP_FRACTION * span
    t = t0
    y = np.asarray(y0, dtype=float) + 0.0
    ts = [t]
    ys = [y]
    h = min(first_step, span)
    while t < t1:
        h = min(h, t1 - t)
        if h < h_min:
            raise IntegrationError(
                f"adaptive step underflow at t={t!r} (h={h!r})")
        y_new, err = _rkf45_step(rhs, t, y, h)
        if err <= tolerance:
            t = t + h
            y = post_step(y_new) if post_step is not None else y_new
            ts.append(t)
            ys.append(y)
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * (tolerance / err) ** 0.2)
            h = h * factor
        else:
            h = h * max(0.1, 0.9 * (tolerance / err) ** 0.2)
    return np.asarray(ts), np.asarray(ys)


def integrate_theta(spec: FrictionSpec, theta0: float, s_span: tuple[float, float],
                    config: IntegratorConfig | None = None) -> ThetaTrace:
    """Integrate the tangent-angle equation numerically.

    Independent oracle for :func:`theta_closed_form`: starting from
    ``theta0 = theta_closed_form(spec, c)`` it reproduces the closed form
    shifted by ``c``.
    """
    if config is None:
        config = default_config(spec)

    def rhs(_s, th):
        return theta_ode_rhs(spec, th)

    s0, s1 = float(s_span[0]), float(s_span[1])
    if config.method == "rk4":
        ss, ths = integrate_fixed(rhs, float(theta0), s0, s1, config.step)
    else:
        ss, ths = integrate_adaptive(rhs, float(theta0), s0, s1,
                                     config.tolerance, config.step)
    return ThetaTrace(s=ss, theta=np.asarray(ths, dtype=float), method=config.method)
