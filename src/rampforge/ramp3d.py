"""Constant-speed ramps in space via tangent flows on the unit sphere.

A unit-speed motion direction lives on the south hemisphere ``y3 <= 0``.
Prescribing the contact normal as a tangent field ``N`` on that hemisphere,
the constant-speed condition forces the direction to evolve along

    X(y) = -(g / v**2) * (e3T(y) + (y3 / mu) * N(y)),   e3T(y) = e3 - (e3.y) y

with normal force per unit mass ``lambda(y) = -(g / mu) * y3``.  Integrating
the flow once gives the direction curve ``gamma``; integrating ``gamma``
again gives the space curve ``alpha`` the block travels.  Sweeping the
ruling ``alpha' x N`` along it gives a sheet that contains the trajectory
and touches the block with normal ``N``; it is not developable for every
field (not for ``horizontal`` or ``blend``), and that is not checked.
"""

from __future__ import annotations

import functools
import logging
import math
import textwrap
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ContractViolationError, ParameterError, SingularFieldError
from .ode import DEFAULT_STEP_FACTOR, _compile, _grid, _rk4_run, _run, hermite
from .params import FrictionSpec, _bounded, _require_positive
from .planar import Ramp2D, _scale_ramp2d

log = logging.getLogger(__name__)

E3 = np.array([0.0, 0.0, 1.0])

SINGULAR_TOL = 1e-8       # distance to a field's singular set that stops evaluation
HEMISPHERE_NORM_TOL = 1e-10
HEMISPHERE_HEIGHT_TOL = 1e-12
FIELD_CHECK_TOL = 1e-8    # unit-norm/tangency slack allowed of a field at the start


def hemisphere_point(y) -> np.ndarray:
    """Validate and return a direction on the closed south hemisphere."""
    y = np.asarray(y, dtype=float)
    if y.shape != (3,) or not np.all(np.isfinite(y)):
        raise ParameterError(f"hemisphere point must be 3 finite components, got {y!r}",
                             code="hemisphere")
    if abs(float(np.linalg.norm(y)) - 1.0) > HEMISPHERE_NORM_TOL:
        raise ParameterError(f"direction {y.tolist()} is not unit length",
                             code="hemisphere")
    if y[2] > HEMISPHERE_HEIGHT_TOL:
        raise ParameterError(
            f"direction {y.tolist()} points upward (y3 > 0); the block cannot "
            "gain height at constant speed", code="hemisphere")
    return y


def e3_tangential(y: np.ndarray) -> np.ndarray:
    """Component of gravity direction tangent to the sphere at ``y``."""
    y = np.asarray(y, dtype=float)
    return E3 - y[..., 2, None] * y


@dataclass(eq=False, repr=False)
class TangentField:
    """Unit tangent field on the hemisphere: ``eval(y)`` with ``N.y = 0``.

    ``eval`` takes a unit direction as a list of three floats and returns
    three real numbers (a tuple of floats; a list, a ``(3,)`` array or ints
    also work), or :class:`ContractViolationError` names the field wherever
    the package reads it.  It must raise :class:`SingularFieldError` within
    ``SINGULAR_TOL`` of the field's singular set.  ``singular_set`` is a
    human-readable description used in diagnostics.

    Every reader of a field runs code compiled from its field block
    (:func:`_block`): the RK4 run, of which :func:`field_x` is a one-sample
    call, or the row reader (the start check, ``verify_3d``, ``simulate``,
    ``build_surface``, ``planar_reduction_check``).  A :func:`builtin_field`'s
    block is its component source, and its ``eval`` the reader on one row.
    Any other ``eval``, such as a built-in one behind a wrapper, is called:
    ``4n + 2`` times by :func:`integrate_ramp3d` for ``n`` steps.
    """

    name: str
    eval: Callable[[list], tuple]
    singular_set: str = "none"

    def __call__(self, y) -> tuple:
        return self.eval(y)


# Component source: each built-in field once, as w / |w| for its defining
# vector w in the components y1, y2, y3 of a unit direction.  A source sets
# n1, n2, n3 and reads `name` (a blend also `w` and `c = 1 - w`); the code
# it is compiled into fills in the `{point}` it raises at.  A source that
# reads e3T (upslope, blend) starts with `_E3T`, which sets e1, e2, e3; the
# flow reads those names, and puts `_E3T` before a source that lacks it.
# Python float arithmetic is IEEE, in the order the language fixes, with no
# fused multiply-add and no run-time kernel choice, so the bits are the same
# on every host.
_E3T = "e1, e2, e3 = 0.0 - y3 * y1, 0.0 - y3 * y2, 1.0 - y3 * y3\n"  # e3_tangential(y)
_NORM = "sqrt({0} * {0} + {1} * {1} + {2} * {2})"  # every norm of the flow


def _unit(w: str, out: str) -> str:
    # set {out}1..3 to {w}1..3 / |w|, or raise within SINGULAR_TOL of |w| = 0
    return (f"r = {_NORM.format(w + '1', w + '2', w + '3')}\n"
            f"if r < {SINGULAR_TOL!r}:\n"
            f"    raise singular(name, {{point}})\n"
            f"{out}1, {out}2, {out}3 = {w}1 / r, {w}2 / r, {w}3 / r\n")


_HORIZONTAL_W = "w1, w2, w3 = y2, -y1, 0.0\n"  # y x e3
_SOURCES = {
    "upslope": _E3T + _unit("e", "n"),
    "horizontal": _HORIZONTAL_W + _unit("w", "n"),
    # w * upslope + (1 - w) * horizontal, renormalised; a singular part
    # raises with the blend's name
    "blend": (_E3T + _unit("e", "u") + _HORIZONTAL_W + _unit("w", "h")
              + "w1, w2, w3 = w * u1 + c * h1, w * u2 + c * h2, w * u3 + c * h3\n"
              + _unit("w", "n")),
}
# the field block of any other field: a call of its eval, an array read as
# its list (numpy 1 takes the float of a 1-element array), each value as the
# float of the same value (`* 1.0` refuses a string, float() a complex)
_CALL_EVAL = """\
n = normal({point})
try:
    n1, n2, n3 = n.tolist() if hasattr(n, "tolist") else n
    n1, n2, n3 = float(n1 * 1.0), float(n2 * 1.0), float(n3 * 1.0)
except (TypeError, ValueError):  # TypeError: n is not iterable, or not numbers
    raise malformed(name, n) from None
"""
# the flow of a stage: -(g / v**2) * (e3T(y) + (y3 / mu) * N(y)), into `out`
_FLOW = "q = y3 / mu\n{out} = k * (e1 + q * n1), k * (e2 + q * n2), k * (e3 + q * n3)\n"


def _stage(block: str) -> str:
    # the RK4 stage (ode._rk4_source) of a field block: the flow at `point`
    if not block.startswith(_E3T):
        block = _E3T + block  # e3T once
    return f"y1, y2, y3 = {{point}}\n{block.format(point='[y1, y2, y3]')}{_FLOW}"


_FLOW_PARAMS = "k, mu, name, w, c, normal, drift, h, hh, h6"  # of each field's rk4

# the state after an RK4 step back onto the sphere, its drift recorded
_RENORMALIZE = f"""\
r = {_NORM.format('x0', 'x1', 'x2')}
err = abs(r - 1.0)
drift[0] += err
if err > drift[1]:  # a NaN drift is skipped, as max() skips it
    drift[1] = err
x0, x1, x2 = x0 / r, x1 / r, x2 / r
"""

# the row reader of a field block: its n1, n2, n3 at each row, as a stage reads them
_READER = """\
def bind(name, w, c, normal):
    def normals(rows):
        table = []
        for y in rows:
            y1, y2, y3 = y
{block}            table.append((n1, n2, n3))
        return table
    return normals
"""
# each built-in eval -> (its component source, the name it raises with, its weight)
_builtin_evals: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _singular(name: str, y) -> SingularFieldError:
    return SingularFieldError(f"field {name!r} is singular at {[float(c) for c in y]}",
                              point=y)


def _malformed(name: str, n) -> ContractViolationError:
    return ContractViolationError(
        f"field {name!r} must return 3 values, each a real number, got {n!r}")


def _reader_source(block: str) -> str:
    # the text of bind (_READER) for a field block, read at the row `y`
    return _READER.format(block=textwrap.indent(block.format(point="y"), " " * 12))


@functools.cache
def _reader(block: str) -> Callable:
    """``bind(name, w, c, normal)``, which returns the row reader
    ``normals(rows)`` of a field block, compiled from :func:`_reader_source`
    once per block, on first use, like :func:`ode._rk4_run`."""
    return _compile(_reader_source(block), singular=_singular, malformed=_malformed)["bind"]


def _block(tangent_field: TangentField) -> tuple:
    """The field block of a field, the name it raises with and its blend
    weight: the component source of a built-in ``eval``, raising with that
    ``eval``'s own name, else :data:`_CALL_EVAL`, a call of the ``eval``."""
    try:
        return _builtin_evals[tangent_field.eval]
    except (KeyError, TypeError):  # TypeError: an eval with no hash or weak reference
        return _CALL_EVAL, tangent_field.name, 0.0


def _normals(tangent_field: TangentField, rows) -> np.ndarray:
    """The ``(n, 3)`` float table of the field at ``rows``, read by the row
    reader of its field block; :class:`SingularFieldError` passes through."""
    block, name, w = _block(tangent_field)
    return np.array(_reader(block)(name, w, 1.0 - w, tangent_field.eval)(rows))


def builtin_field(kind: str, weight: float | None = None) -> TangentField:
    """Named fields: ``"upslope"``, ``"horizontal"``, ``"blend"`` (with weight).

    Upslope points against the tangential gravity pull (steepest ascent on
    the contact plane), horizontal is level and makes the ramp spiral, blend
    is the normalized mix ``w*upslope + (1-w)*horizontal``.  All three are
    singular exactly at the south pole.  ``kind`` may be any name this gives,
    in any case: ``builtin_field("blend:0.5")`` is ``builtin_field("blend", 0.5)``.
    """
    kind, colon, text = kind.lower().partition(":")
    if colon:  # a blend's name holds its weight: "blend:W"
        if weight is not None:
            raise ParameterError(f"{kind}:{text} holds a weight already", code="config")
        try:
            weight = float(text)
        except ValueError:
            raise ParameterError(f"bad weight in {kind}:{text}", code="config") from None
    if kind not in _SOURCES:
        raise ParameterError(f"unknown field kind {kind!r}", code="config")
    if kind != "blend":
        if weight is not None:
            raise ParameterError(f"{kind} takes no weight", code="config")
        name, w = kind, 0.0
    else:
        if weight is None or not (math.isfinite(weight) and 0.0 <= weight <= 1.0):
            raise ParameterError(f"blend weight must lie in [0, 1], got {weight!r}",
                                 code="config")
        w = float(weight)
        name = f"blend:{w!r}"
    normals = _reader(_SOURCES[kind])(name, w, 1.0 - w, None)

    def field_eval(y):  # the reader on one row
        return normals((y,))[0]

    _builtin_evals[field_eval] = _SOURCES[kind], name, w
    return TangentField(name=name, eval=field_eval, singular_set="south pole (0, 0, -1)")


def _bind(spec: FrictionSpec, tangent_field: TangentField, drift: list,
          h: float) -> Callable:
    """The compiled RK4 ``run`` (:func:`ode._rk4_source`) of a field's
    block (:func:`_block`), bound to ``spec``, the field, the drift record
    ``drift`` and the step ``h``."""
    block, name, w = _block(tangent_field)
    rk4 = _rk4_run(3, _FLOW_PARAMS, _stage(block), _RENORMALIZE, singular=_singular,
                   malformed=_malformed)
    return rk4(-(spec.g / (spec.v * spec.v)), spec.mu, name, w, 1.0 - w,
               tangent_field.eval, drift, h, 0.5 * h, h / 6.0)


def field_x(spec: FrictionSpec, tangent_field: TangentField, y) -> tuple:
    """Flow direction of the motion-direction curve at ``y`` (three floats).

    The slope of a one-sample run of the field's compiled RK4 run, the
    one :func:`integrate_ramp3d` takes: its start stage is the flow, with
    the field inline for a built-in ``eval`` and any other ``eval`` called
    once.  It computes, component by component in Python floats, the IEEE
    operations, in their order, of the array expression
    ``-(g / v**2) * (e3_tangential(y) + (y3 / mu) * N(y))``:
    ``k * (e3T_i + q * n_i)`` with ``k = -(g / v**2)``, ``q = y3 / mu`` and
    ``e3T = (0 - y3*y1, 0 - y3*y2, 1 - y3*y3)``, so it matches that
    expression bit for bit, with no BLAS call.  A singular ``y`` raises
    :class:`SingularFieldError`, and an ``eval`` that returns other than
    three real numbers :class:`ContractViolationError`.
    """
    ys, dys = np.empty((1, 3)), np.empty((1, 3))
    _bind(spec, tangent_field, [0.0, 0.0], 0.0)([0.0], [float(c) for c in y], ys, dys)
    return tuple(dys[0].tolist())


def lambda_3d(spec: FrictionSpec, y) -> np.ndarray:
    """Contact force magnitude ``-m g y3 / mu`` for direction(s) ``y``, N."""
    y = np.asarray(y, dtype=float)
    return -(spec.m * spec.g / spec.mu) * y[..., 2]


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Cumulative integral of uniformly spaced samples, fourth-order accurate.

    Even-index nodes accumulate the composite Simpson pair rule (exact
    through cubics); odd-index nodes ride the same rule shifted by one,
    seeded with the three-point Newton-Cotes value for the first interval
    (local error ``O(step**4)``).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    out = np.zeros_like(values)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * step * (values[0] + values[1])
        return out
    out[1] = step * (5.0 * values[0] + 8.0 * values[1] - values[2]) / 12.0
    # pair-rule increments from k-2 to k, accumulated separately per parity
    inc = step * (values[:-2] + 4.0 * values[1:-1] + values[2:]) / 3.0
    out[2::2] = np.cumsum(inc[0::2], axis=0)
    out[3::2] = out[1] + np.cumsum(inc[1::2], axis=0)
    return out


@dataclass(eq=False, repr=False)
class SpaceCurve3D:
    """Sampled output of the hemisphere flow on a uniform grid.

    ``gamma[i]`` is the unit motion direction at arc length ``s[i]``,
    ``dgamma[i]`` the flow right-hand side recorded at that sample, and
    ``alpha[i]`` the integrated position.  All three are read between the
    nodes through the one dense output :func:`ode.hermite`.
    ``norm_drift_total`` accumulates the per-step departure of ``|gamma|``
    from 1 before renormalization.
    """

    s: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    alpha: np.ndarray
    field: TangentField
    norm_drift_total: float
    norm_drift_max: float
    stop_reason: str | None = None

    @property
    def s_end(self) -> float:
        return float(self.s[-1])

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason is not None

    @property
    def step(self) -> float:
        return float(self.s[1] - self.s[0]) if self.s.shape[0] > 1 else 0.0

    def position(self, s) -> np.ndarray:
        """Cubic Hermite interpolation of ``alpha`` (slope ``gamma``)."""
        return hermite(self.s, self.alpha, self.gamma, s)[0]

    def tangent(self, s) -> np.ndarray:
        """Cubic Hermite interpolation of ``gamma`` (slope ``dgamma``)."""
        return hermite(self.s, self.gamma, self.dgamma, s)[0]


def integrate_ramp3d(spec: FrictionSpec, tangent_field: TangentField, y0,
                     s_max: float, step: float | None = None) -> SpaceCurve3D:
    """Integrate the hemisphere flow from ``y0`` over ``[0, s_max]``.

    Fixed-step RK4 with renormalization onto the sphere after every step;
    the accumulated drift is recorded.  The whole integration is one call
    of the run :func:`ode._rk4_run` compiles once per field kind from
    :func:`ode._rk4_source`, with the field's flow as its stage: its loop
    writes out each step's four flow evaluations, the renormalization and
    the slope at the new sample, and stores the samples (a field whose
    ``eval`` is not a built-in one is called through it).  A field whose
    ``eval`` returns other than three real numbers raises
    :class:`ContractViolationError`, and a step count whose grid numpy
    cannot index :class:`ParameterError`.  If the trajectory enters a
    field's singular set the run stops early with the partial curve and a
    reason instead of raising, except when the start itself is singular.

    Parameters
    ----------
    y0 : array-like
        Unit direction with ``y0[2] <= 0`` (validated).
    s_max : float
        Arc length to integrate; the grid is uniform with approximately
        ``step`` (default ``1e-3 / a``).
    """
    y0 = hemisphere_point(y0).tolist()
    s_max = _require_positive("s_max", s_max)
    if step is None:
        step = DEFAULT_STEP_FACTOR / spec.a

    n0 = _normals(tangent_field, [y0])[0]  # singular start raises here
    if not (abs(float(np.linalg.norm(n0)) - 1.0) <= FIELD_CHECK_TOL
            and abs(float(np.dot(n0, y0))) <= FIELD_CHECK_TOL):
        raise ContractViolationError(
            f"field {tangent_field.name!r} does not return a unit tangent at {y0}")

    ts, h = _grid(0.0, s_max, step)
    drift = [0.0, 0.0]  # total and max of |norm - 1| before each renormalisation
    _, gamma, dgamma, stop_reason = _run(_bind(spec, tangent_field, drift, h), y0, ts)
    drift_total, drift_max = drift
    # ts[-1] is pinned to s_max, which can differ from h * n in the last bit
    s = h * np.arange(gamma.shape[0])
    if stop_reason is not None:
        log.warning("flow stopped early at s=%s: %s", float(s[-1]), stop_reason)
    alpha = cumulative_simpson(gamma, h)
    log.debug("integrated %d steps, norm drift total=%.3e max=%.3e",
              gamma.shape[0] - 1, drift_total, drift_max)
    return SpaceCurve3D(s=s, gamma=gamma, dgamma=dgamma, alpha=alpha,
                        field=tangent_field, norm_drift_total=drift_total,
                        norm_drift_max=drift_max, stop_reason=stop_reason)


@dataclass(eq=False, repr=False)
class RampSurface3D:
    """Ruled sheet swept along a space curve.

    Vertices are laid out row-major in ``(s, r)``: ``vertices[i, j]`` sits at
    parameter ``(s_grid[i], r_grid[j])``.  ``vertex_normals[i]`` is the
    contact normal ``N(gamma(s_i))``, constant along each ruling.
    """

    base: SpaceCurve3D
    s_grid: np.ndarray
    r_grid: np.ndarray
    vertices: np.ndarray
    vertex_normals: np.ndarray
    ruling: np.ndarray

    @property
    def resolution(self) -> tuple[int, int]:
        return self.s_grid.shape[0] - 1, self.r_grid.shape[0] - 1


def _ruling_grid(r_extent: tuple[float, float], n_r: int) -> np.ndarray:
    # grid across the strip that contains r = 0 exactly, with a cell on
    # each side of 0 that the strip reaches
    r_min, r_max = float(r_extent[0]), float(r_extent[1])
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise ParameterError(f"r_extent must be finite, got {r_extent!r}")
    if not (r_min <= 0.0 <= r_max) or r_min == r_max:
        raise ParameterError(
            f"r_extent must straddle 0 with r_min < r_max, got {r_extent!r}")
    low, high = int(r_min < 0.0), n_r - int(r_max > 0.0)  # bounds of the cells below 0
    if low > high:
        raise ParameterError(f"r_extent {r_extent!r} reaches both sides of 0, which "
                             f"needs at least 2 cells across, got {n_r}")
    n_neg = min(max(int(round(n_r * (-r_min) / (r_max - r_min))), low), high)
    return np.concatenate([np.linspace(r_min, 0.0, n_neg + 1)[:-1],
                           np.linspace(0.0, r_max, n_r - n_neg + 1)])


def build_surface(curve: SpaceCurve3D, r_extent: tuple[float, float] = (-0.5, 0.5),
                  resolution: tuple[int, int] = (200, 16)) -> RampSurface3D:
    """Sweep the ruling ``gamma x N(gamma)`` along the curve, ``N`` its own field.

    The ruling is orthogonal to both the motion direction and the contact
    normal, so the sheet contains the trajectory (its ``r = 0`` row) and
    touches the block along it with normal ``N``.  Developability is not checked.
    A field value other than three real numbers raises :class:`ContractViolationError`,
    and a strip on both sides of 0 less than 2 cells across :class:`ParameterError`,
    as does a resolution whose vertex table numpy cannot index.
    """
    n_s, n_r = int(resolution[0]), int(resolution[1])
    if n_s < 1 or n_r < 1:
        raise ParameterError(f"resolution must be at least (1, 1), got {resolution!r}")
    _bounded(3 * (n_s + 1) * (n_r + 1), f"resolution {resolution!r} leaves too many vertices")
    s_grid = np.linspace(0.0, curve.s_end, n_s + 1)
    r_grid = _ruling_grid(r_extent, n_r)

    positions = curve.position(s_grid)
    tangents = curve.tangent(s_grid)
    tangents = tangents / np.linalg.norm(tangents, axis=-1, keepdims=True)
    normals = _normals(curve.field, tangents.tolist())
    ruling = np.cross(tangents, normals)
    ruling = ruling / np.linalg.norm(ruling, axis=-1, keepdims=True)

    vertices = positions[:, None, :] + r_grid[None, :, None] * ruling[:, None, :]
    return RampSurface3D(base=curve, s_grid=s_grid, r_grid=r_grid,
                         vertices=vertices, vertex_normals=normals, ruling=ruling)


def scale_ramp(geometry, kappa: float):
    """Dilate a ramp geometry by ``kappa`` about the origin.

    The dilated geometry is again a constant-speed ramp for speed
    ``sqrt(kappa) * v`` at unchanged gravity, or equivalently for unchanged
    speed at gravity ``g / kappa``; :func:`verify.verify_scaling` builds
    both specs and checks the dilated geometry against each.  Accepts
    :class:`Ramp2D`, :class:`SpaceCurve3D` and :class:`RampSurface3D`.
    """
    if isinstance(geometry, Ramp2D):
        return _scale_ramp2d(geometry, kappa)
    kappa = _require_positive("kappa", kappa)
    if isinstance(geometry, SpaceCurve3D):
        return replace(geometry, s=kappa * geometry.s, alpha=kappa * geometry.alpha,
                       dgamma=geometry.dgamma / kappa)
    if isinstance(geometry, RampSurface3D):
        return replace(geometry, base=scale_ramp(geometry.base, kappa),
                       s_grid=kappa * geometry.s_grid, r_grid=kappa * geometry.r_grid,
                       vertices=kappa * geometry.vertices)
    raise ParameterError(f"cannot scale object of type {type(geometry).__name__}",
                         code="config")
