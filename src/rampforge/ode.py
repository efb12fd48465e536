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

import functools
import math
import textwrap
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, SingularFieldError
from .params import FrictionSpec, _bounded, _require_positive

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


@dataclass(eq=False, repr=False)
class ThetaTrace:
    """Dense integrator output: ``theta[i]`` at parameter ``s[i]``."""

    s: np.ndarray
    theta: np.ndarray


def hermite(grid: np.ndarray, y: np.ndarray, dy: np.ndarray, t):
    """Cubic Hermite dense output of samples on a uniform grid.

    ``y[i]`` is the value and ``dy[i]`` the slope at ``grid[i]``, such as a
    space curve's ``gamma`` and ``dgamma``; a row may be a scalar or a vector.
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


_RK4_TEMPLATE = """\
def rk4({params}):
    def run(times, y, ys, dys):
        yv = memoryview(ys).cast("B").cast("d")
        dv = memoryview(dys).cast("B").cast("d")
        grid = iter(times)
        t = next(grid)
        {x}, = y
{start}
        j = 0
{store}
        stop = None
        try:
            for t1 in grid:
{b}
{c}
{d}
                {x}, = {out},
{project}
{slope}
                j += {dim}
{store_next}
                t = t1
        except SingularFieldError as exc:
            stop = str(exc)
        return j // {dim} + 1, stop
    return run
"""


def _rk4_source(dim: int, params: str, stage: str, project: str) -> str:
    """Source of ``rk4(params)``, which returns ``run(times, y, ys, dys)``:
    a whole RK4 integration, each step straight-line code.

    ``run`` integrates from the state ``y`` at ``times[0]`` over the grid
    ``times`` (Python floats), writes each sample and its slope into the
    next row of the float64 tables ``ys`` and ``dys`` through flat
    memoryviews, and returns ``(rows, stop)``: the rows written and the
    message of the :class:`SingularFieldError` that ended the loop, or
    ``None``.  Only the loop is in the ``try``, so a singular start raises.
    The state lives in the locals ``x0, x1, ...``, its slope in ``a0, a1,
    ...``; ``stage`` is a format string of the source that sets the names
    ``{out}`` to the slope at the components ``{point}`` and time ``{t}``
    (each a comma-separated list); ``{floats}`` reads each name of ``{out}``
    as ``float(name * 1.0)``, which raises :class:`TypeError` for anything
    but a real number.  ``project`` runs on each new state before its slope
    is taken.  ``params`` are the names every source reads besides builtins
    and the globals :func:`_compile` sets.

    Every run is compiled from it by :func:`_rk4_run`: :func:`integrate_fixed`
    calls its ``rhs`` in each stage (:data:`_CALL_RHS`),
    :func:`integrate_theta` writes the tangent-angle equation in
    (:data:`_THETA`), and :func:`ramp3d.integrate_ramp3d` writes in the
    hemisphere flow of its field with the renormalisation as ``project``.
    """
    def row(term, sep=", "):  # term for each component
        return sep.join(term.format(i=i) for i in range(dim))

    def block(t, point, out, depth):
        text = stage.format(t=t, point=row(point), out=row(out),
                            floats=row(f"float({out} * 1.0)"))
        return textwrap.indent(text.rstrip("\n"), " " * depth)

    store = row("yv[j + {i}] = x{i}\ndv[j + {i}] = a{i}", "\n").replace("[j + 0]", "[j]")
    return _RK4_TEMPLATE.format(
        params=params, dim=dim, x=row("x{i}"),
        start=block("t", "x{i}", "a{i}", 8),
        store=textwrap.indent(store, " " * 8),
        b=block("t + hh", "x{i} + hh * a{i}", "b{i}", 16),
        c=block("t + hh", "x{i} + hh * b{i}", "c{i}", 16),
        d=block("t + h", "x{i} + h * c{i}", "d{i}", 16),
        out=row("x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})"),
        project=textwrap.indent(project.rstrip("\n"), " " * 16),
        slope=block("t1", "x{i}", "a{i}", 16),
        store_next=textwrap.indent(store, " " * 16))


# a call of integrate_fixed's rhs; `y` is the run's start state, as long
# as every slope must be
_CALL_RHS = "rhs, h, hh, h6", """\
slope = rhs({t}, [{point}])
try:
    {out}, = slope
    {out}, = {floats},
except (TypeError, ValueError):  # TypeError: slope is not iterable, or not numbers
    raise ParameterError(f"rhs must return {{len(y)}} values, as many as y0 has, "
                         f"each a real number, got {{slope!r}}") from None
"""
# the tangent-angle equation: theta_ode_rhs's operations, in its order, in
# Python floats with math.sin
_THETA = "a, delta, h, hh, h6", "{out} = -a * sin({point} + delta)"


def _compile(source: str, **names) -> dict:
    """Run generated ``source`` and return its namespace: the package's one
    ``exec``.  Its globals are :class:`SingularFieldError`,
    :class:`ParameterError`, :func:`math.sin`, :func:`math.sqrt` and
    ``names``."""
    namespace = {"SingularFieldError": SingularFieldError, "ParameterError": ParameterError,
                 "sin": math.sin, "sqrt": math.sqrt, **names}
    exec(compile(source, "<rampforge generated>", "exec"), namespace)
    return namespace


@functools.cache
def _rk4_run(dim: int, params: str, stage: str, project: str = "", **names) -> Callable:
    """``rk4(params)`` of :func:`_rk4_source`, compiled with the globals
    ``names`` once per argument list, on first use, the way
    :mod:`dataclasses` builds ``__init__``.

    :data:`_CALL_RHS` is the run of :func:`integrate_fixed`: each stage is
    a call ``rhs(t, point)`` whose result is unpacked into ``dim`` floats,
    and a result of another size, or with a value that is not a real
    number, raises :class:`ParameterError`.
    :data:`_THETA` is the run of :func:`integrate_theta`, the equation
    written inline.  Written out component by component, unpacked into
    locals, because a comprehension per stage costs several times the
    arithmetic on Pythons that do not inline them.
    """
    return _compile(_rk4_source(dim, params, stage, project), **names)["rk4"]


def _grid(t0: float, t1: float, step: float) -> tuple[np.ndarray, float]:
    """The uniform grid over ``[t0, t1]`` with the fewest steps no wider
    than ``step``, and its width; ``t[-1]`` is pinned to ``t1``.  A step
    count whose grid numpy cannot index raises :class:`ParameterError`."""
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError(f"integration span must be finite, got ({t0!r}, {t1!r})")
    span = t1 - t0
    if span <= 0.0:
        raise ParameterError("integration span must have t1 > t0")
    step = _require_positive("step", step)
    steps = _bounded(span / step - 1e-12,
                     f"step {step!r} leaves too many steps over a span of {span!r}")
    n = max(1, math.ceil(steps))
    h = span / n
    ts = t0 + h * np.arange(n + 1)
    ts[-1] = t1
    return ts, h


def _start(y0) -> list:
    # the initial state as a list of finite Python floats
    y = [float(c) for c in y0]
    if not y:
        raise ParameterError("y0 must hold at least one value")
    if not all(map(math.isfinite, y)):
        raise ParameterError(f"initial state must be finite, got {y!r}")
    return y


def _run(run: Callable, y: list, ts: np.ndarray):
    """Integrate from ``y`` at ``ts[0]`` with one call of a compiled ``run``
    (:func:`_rk4_source`).  Returns what :func:`integrate_fixed` returns."""
    ys = np.empty((ts.shape[0], len(y)))
    dys = np.empty_like(ys)
    # Python floats: cheaper per-step arithmetic than numpy scalars
    rows, stop = run(ts.tolist(), y, ys, dys)
    return ts[:rows], ys[:rows], dys[:rows], stop


def integrate_fixed(rhs: Callable, y0, t0: float, t1: float, step: float):
    """Classical RK4 on a uniform grid over ``[t0, t1]``.

    The state is a sequence of ``d`` finite floats; a scalar equation
    passes a 1-tuple.  ``rhs(t, y)`` gets the state as a list of floats and
    must return ``d`` floats (a tuple, a list or a ``(d,)`` array).  The
    whole integration is one call of code generated for ``d`` components
    (:func:`_rk4_run`), which unpacks the state and each slope into floats
    and computes, component by component, the IEEE operations, in their
    order, of the array expressions ``y + 0.5*h*k1`` ... ``y + (h/6)*(k1 +
    2k2 + 2k3 + k4)``; it calls ``rhs`` at the start, once per stage and at
    each new sample, and only the reading of what ``rhs`` returns as
    floats is guarded.  The same template (:func:`_rk4_source`), through
    the same :func:`_rk4_run`, runs with the stage written in instead of
    called: the tangent-angle equation in :func:`integrate_theta` and the
    hemisphere flow in :func:`ramp3d.integrate_ramp3d`.

    The grid has the fewest steps of equal width no larger than ``step``;
    ``t[-1]`` is pinned to ``t1``.  Returns ``(t, y, dy, stop)``: ``t`` of
    shape ``(n+1,)``, ``y`` and ``dy`` C-contiguous float64 tables of shape
    ``(n+1, d)``, allocated once, where ``dy[i] = rhs(t[i], y[i])`` is the
    slope at each sample and the first stage of the step from it.  An
    empty or non-finite ``y0`` and an ``rhs`` that returns another number
    of values than ``d``, or a value that is not a real number, raise
    :class:`ParameterError`, as does a step count whose grid numpy cannot
    index; any other error of ``rhs``, a ``ValueError`` included,
    propagates unchanged.  If ``rhs`` raises
    :class:`SingularFieldError`, the samples whose slope is known are
    returned with its message as ``stop``; otherwise ``stop`` is ``None``.
    A singular start raises.
    """
    ts, h = _grid(t0, t1, step)
    y = _start(y0)
    return _run(_rk4_run(len(y), *_CALL_RHS)(rhs, h, 0.5 * h, h / 6.0), y, ts)


def integrate_theta(spec: FrictionSpec, theta0: float, s_span: tuple[float, float],
                    step: float | None = None) -> ThetaTrace:
    """Integrate the tangent-angle equation with RK4 (default step ``1e-3 / a``).

    Independent oracle for :func:`theta_closed_form`: starting from
    ``theta0 = theta_closed_form(spec, c)`` it reproduces the closed form
    shifted by ``c``.  One call of the RK4 run of :func:`integrate_fixed`
    with the equation written inline as ``-a * sin(theta + delta)``: the
    operations of :func:`theta_ode_rhs`, in its order, in Python floats
    with :func:`math.sin`, so the samples equal that run with such an
    ``rhs`` bit for bit.  A non-finite ``theta0`` raises
    :class:`ParameterError`.
    """
    if step is None:
        step = DEFAULT_STEP_FACTOR / spec.a
    ss, h = _grid(s_span[0], s_span[1], step)
    run = _rk4_run(1, *_THETA)(spec.a, spec.delta, h, 0.5 * h, h / 6.0)
    ss, ths, _, _ = _run(run, _start((theta0,)), ss)
    return ThetaTrace(s=ss, theta=ths[:, 0])
