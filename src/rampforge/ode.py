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

from .errors import ParameterError, SingularFieldError
from .params import FrictionSpec

DEFAULT_STEP_FACTOR = 1e-3   # default fixed step is 1e-3 / a


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


def _log_cosh(x):
    # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log 2, without overflow
    x = np.abs(x)
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


def horizontal_closed_form(spec: FrictionSpec, y0, s) -> tuple[np.ndarray, np.ndarray]:
    """Direction curve and height of the ``horizontal``-field flow from ``y0``.

    That field, ``N = (y2, -y1, 0) / rho`` with ``rho = sqrt(y1**2 + y2**2)``,
    is level, so the flow's third component decouples to
    ``y3' = -k (1 - y3**2)`` with ``k = g / v**2``.  With ``u = k (s + s0)``
    and ``tanh(k s0) = -y3(0)``:

        gamma(s) = (sech u cos phi, sech u sin phi, -tanh u),
        phi(s)   = phi0 - (cosh u - cosh(k s0)) / mu,
        height   = alpha3(s) = -(1/k) ln(cosh u / cosh(k s0)).

    Returns ``(gamma, height)``, ``gamma`` of shape ``s.shape + (3,)``.  It
    goes through neither the field nor RK4, so it is an oracle for
    ``integrate_ramp3d`` with the ``horizontal`` field.  ``y0`` is a unit
    direction off the south pole, ``-1 < y3 <= 0``; ``cosh u`` overflows
    once ``k (s + s0)`` exceeds about 710.
    """
    y1, y2, y3 = (float(c) for c in y0)
    if not (abs(math.hypot(y1, y2, y3) - 1.0) <= 1e-10 and -1.0 < y3 <= 0.0):
        raise ParameterError(f"y0 must be a unit direction with -1 < y3 <= 0, "
                             f"got {[y1, y2, y3]}", code="hemisphere")
    k = spec.g / (spec.v * spec.v)
    ks0 = math.atanh(-y3)
    u = k * np.asarray(s, dtype=float) + ks0
    cosh = np.cosh(u)
    phi = math.atan2(y2, y1) - (cosh - math.cosh(ks0)) / spec.mu
    gamma = np.stack([np.cos(phi) / cosh, np.sin(phi) / cosh, -np.tanh(u)], axis=-1)
    return gamma, -(_log_cosh(u) - _log_cosh(ks0)) / k


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


def hermite(grid: np.ndarray, y: np.ndarray, dy: np.ndarray, t):
    """Cubic Hermite dense output of samples on a uniform grid.

    ``y[i]`` is the value and ``dy[i]`` the slope at ``grid[i]``, as
    :func:`integrate_fixed` returns them; a row may be a scalar or a vector.
    Returns ``(value, slope)`` at ``t``: the piecewise cubic that matches
    both at every node, and its derivative in ``t`` (Hairer, Norsett and
    Wanner, Solving ODEs I, section II.6).  Raises :class:`ParameterError`
    for fewer than 2 samples or for a ``t`` outside the grid, NaN included.
    """
    n = grid.shape[0]
    if n < 2:
        raise ParameterError("curve holds fewer than 2 samples")
    t = np.asarray(t, dtype=float)
    lo, hi = float(grid[0]), float(grid[-1])
    if not np.all((t >= lo - 1e-12) & (t <= hi + 1e-12)):
        raise ParameterError(f"parameter outside the integrated span [{lo!r}, {hi!r}]",
                             code="magnitude")
    h = float(grid[1] - grid[0])
    i = np.clip((t - lo) // h, 0, n - 2).astype(int)
    u = (t - grid[i]) / h
    if y.ndim > 1:
        u = u[..., None]
    p0, m0, p1, m1 = y[i], dy[i], y[i + 1], dy[i + 1]
    u2 = u * u
    u3 = u2 * u
    value = ((2.0 * u3 - 3.0 * u2 + 1.0) * p0 + (u3 - 2.0 * u2 + u) * h * m0
             + (-2.0 * u3 + 3.0 * u2) * p1 + (u3 - u2) * h * m1)
    slope = (6.0 * (u2 - u) * (p0 - p1) / h + (3.0 * u2 - 4.0 * u + 1.0) * m0
             + (3.0 * u2 - 2.0 * u) * m1)
    return value, slope


def integrate_fixed(rhs: Callable, y0, t0: float, t1: float, step: float,
                    post_step: Callable | None = None):
    """Classical RK4 on a uniform grid over ``[t0, t1]``.

    The state is a sequence of ``d`` floats; a scalar equation passes a
    1-tuple.  ``rhs(t, y)`` gets the state as a list of floats and must
    return ``d`` floats (a tuple, a list or a ``(d,)`` array), and
    ``post_step(y) -> y`` runs on the list after every step (used for
    constraint projection).  The stages and the weighted sum are computed
    in Python floats, with the IEEE operations, and their order, of the
    array expressions ``y + 0.5*h*k1`` ... ``y + (h/6)*(k1 + 2k2 + 2k3 + k4)``.

    The grid has the fewest steps of equal width no larger than ``step``;
    ``t[-1]`` is pinned to ``t1``.  Returns ``(t, y, dy, stop)``: ``t`` of
    shape ``(n+1,)``, ``y`` and ``dy`` C-contiguous float64 tables of shape
    ``(n+1, d)``, where ``dy[i] = rhs(t[i], y[i])`` is the slope at each
    sample, which is also the first stage of the step from it.  Both tables
    are allocated once; each sample is written into them one element at a
    time through flat memoryviews, so an ``rhs`` that returns another
    number of values than ``d`` raises instead of leaving a misaligned
    table.  If ``rhs`` raises :class:`SingularFieldError`, the samples whose
    slope is known are returned with the error message as ``stop``;
    otherwise ``stop`` is ``None``.  A singular start raises.
    """
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError(f"integration span must be finite, got ({t0!r}, {t1!r})")
    span = t1 - t0
    if span <= 0.0:
        raise ParameterError("integration span must have t1 > t0")
    if not (math.isfinite(step) and step > 0.0):
        raise ParameterError(f"step must be positive, got {step!r}")
    n = max(1, math.ceil(span / step - 1e-12))
    h = span / n
    hh = 0.5 * h
    h6 = h / 6.0
    y = [float(c) for c in y0]
    dim = len(y)
    ts = t0 + h * np.arange(n + 1)
    ts[-1] = t1
    ys = np.empty((n + 1, dim))
    dys = np.empty_like(ys)
    ys[0] = y
    times = ts.tolist()  # Python floats: cheaper per-step arithmetic than numpy scalars
    k1 = rhs(times[0], y)  # a singular start raises
    dys[0] = k1
    # element stores into flat views are cheaper than numpy row assignment
    yv = memoryview(ys).cast("B").cast("d")
    dv = memoryview(dys).cast("B").cast("d")
    j = jd = dim  # next element of ys and of dys
    rows, stop = n + 1, None
    wrong_size = f"rhs must return {dim} values, as many as y0 has"
    for i in range(n):
        t = times[i]
        try:
            k2 = rhs(t + hh, [a + hh * b for a, b in zip(y, k1)])
            k3 = rhs(t + hh, [a + hh * b for a, b in zip(y, k2)])
            k4 = rhs(t + h, [a + h * b for a, b in zip(y, k3)])
            y = [a + h6 * (b + 2.0 * c + 2.0 * d + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
            if post_step is not None:
                y = post_step(y)
            k1 = rhs(times[i + 1], y)
        except SingularFieldError as exc:
            rows, stop = i + 1, str(exc)
            break
        try:
            for c in y:
                yv[j] = c
                j += 1
            for c in k1:
                dv[jd] = c
                jd += 1
        except IndexError:  # longer rows ran past the end of a table
            raise ParameterError(wrong_size) from None
    if not j == jd == rows * dim:
        raise ParameterError(wrong_size)
    return ts[:rows], ys[:rows], dys[:rows], stop


def integrate_theta(spec: FrictionSpec, theta0: float, s_span: tuple[float, float],
                    step: float | None = None) -> ThetaTrace:
    """Integrate the tangent-angle equation with RK4 (default step ``1e-3 / a``).

    Independent oracle for :func:`theta_closed_form`: starting from
    ``theta0 = theta_closed_form(spec, c)`` it reproduces the closed form
    shifted by ``c``.
    """
    if step is None:
        step = DEFAULT_STEP_FACTOR / spec.a

    a, delta = spec.a, spec.delta

    def rhs(_s, th):  # theta_ode_rhs in Python floats
        return (-a * math.sin(th[0] + delta),)

    ss, ths, _, _ = integrate_fixed(rhs, (float(theta0),), s_span[0], s_span[1], step)
    return ThetaTrace(s=ss, theta=ths[:, 0])
