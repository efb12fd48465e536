"""Constant-speed ramps in space via tangent flows on the unit sphere.

A unit-speed motion direction lives on the south hemisphere ``y3 <= 0``.
Prescribing the contact normal as a tangent field ``N`` on that hemisphere,
the constant-speed condition forces the direction to evolve along

    X(y) = -(g / v**2) * (e3T(y) + (y3 / mu) * N(y)),   e3T(y) = e3 - (e3.y) y

with normal force per unit mass ``lambda(y) = -(g / mu) * y3``.  Integrating
the flow once gives the direction curve ``gamma``; integrating ``gamma``
again gives the space curve ``alpha`` the block travels, and sweeping the
ruling ``alpha' x N`` along it gives a developable strip to build the ramp
from.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ContractViolationError, ParameterError, SingularFieldError
from .ode import DEFAULT_STEP_FACTOR, hermite, integrate_fixed
from .params import FrictionSpec
from .planar import PlanarCurve, Ramp2D

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


@dataclass(frozen=True)
class TangentField:
    """Unit tangent field on the hemisphere: ``eval(y)`` with ``N.y = 0``.

    ``eval`` takes a unit direction as a list of three floats and returns
    three floats (a tuple; a list or a ``(3,)`` array also works);
    :func:`integrate_ramp3d` reads it once, when it starts, and calls it
    once per RK4 stage.  It must raise
    :class:`SingularFieldError` within ``SINGULAR_TOL`` of the field's
    singular set.  ``singular_set`` is a human-readable description used in
    diagnostics.
    """

    name: str
    eval: Callable[[list], tuple]
    singular_set: str = "none"

    def __call__(self, y) -> tuple:
        return self.eval(y)


def _norm3(w1: float, w2: float, w3: float) -> float:
    """``sqrt(w1*w1 + w2*w2 + w3*w3)`` in Python floats.

    The one definition of every norm on the hemisphere flow: IEEE
    operations in the order Python fixes, with no fused multiply-add and
    no run-time kernel choice, so the bits are the same on every host.
    """
    return math.sqrt(w1 * w1 + w2 * w2 + w3 * w3)


def _singular(name: str, y) -> SingularFieldError:
    return SingularFieldError(f"field {name!r} is singular at {[float(c) for c in y]}",
                              point=y)


def _normalized_or_singular(w1: float, w2: float, w3: float, y, name: str) -> tuple:
    n = _norm3(w1, w2, w3)
    if n < SINGULAR_TOL:
        raise _singular(name, y)
    return w1 / n, w2 / n, w3 / n


def _upslope_eval(y) -> tuple:
    y1, y2, y3 = y  # e3_tangential(y), one operation at a time
    return _normalized_or_singular(0.0 - y3 * y1, 0.0 - y3 * y2, 1.0 - y3 * y3,
                                   y, "upslope")


def _horizontal_eval(y) -> tuple:
    y1, y2, _ = y
    return _normalized_or_singular(y2, -y1, 0.0, y, "horizontal")  # y x e3


def builtin_field(kind: str, weight: float | None = None) -> TangentField:
    """Named fields: ``"upslope"``, ``"horizontal"``, ``"blend"`` (with weight).

    Upslope points against the tangential gravity pull (steepest ascent on
    the contact plane), horizontal is level and makes the ramp spiral, blend
    is the normalized mix ``w*upslope + (1-w)*horizontal``.  All three are
    singular exactly at the south pole.
    """
    kind = kind.lower()
    plain = {"upslope": _upslope_eval, "horizontal": _horizontal_eval}
    if kind in plain:
        if weight is not None:
            raise ParameterError(f"{kind} takes no weight", code="config")
        return TangentField(name=kind, eval=plain[kind],
                            singular_set="south pole (0, 0, -1)")
    if kind == "blend":
        if weight is None or not (math.isfinite(weight) and 0.0 <= weight <= 1.0):
            raise ParameterError(f"blend weight must lie in [0, 1], got {weight!r}",
                                 code="config")
        w = float(weight)
        c = 1.0 - w
        name = f"blend:{w!r}"

        def _blend_eval(y) -> tuple:
            # w * upslope + (1 - w) * horizontal, one operation at a time
            try:
                u1, u2, u3 = _upslope_eval(y)
                h1, h2, h3 = _horizontal_eval(y)
            except SingularFieldError:  # name the blend, not the part
                raise _singular(name, y) from None
            return _normalized_or_singular(w * u1 + c * h1, w * u2 + c * h2,
                                           w * u3 + c * h3, y, name)

        return TangentField(name=name, eval=_blend_eval,
                            singular_set="south pole (0, 0, -1)")
    raise ParameterError(f"unknown field kind {kind!r}", code="config")


def flow(spec: FrictionSpec, tangent_field: TangentField) -> Callable:
    """The flow as an RK4 stage ``rhs(s, y)``, returning three floats.

    ``k = -(g / v**2)``, ``mu`` and ``tangent_field.eval`` are bound once,
    when the flow is made.  Each call computes, component by component in
    Python floats, the IEEE operations, in their order, of the array
    expression ``-(g / v**2) * (e3_tangential(y) + (y3 / mu) * N(y))``:
    ``k * (e3T_i + c * n_i)`` with ``c = y3 / mu`` and ``e3T = (0 - y3*y1,
    0 - y3*y2, 1 - y3*y3)``, so it matches that expression bit for bit.
    The built-in fields normalise with :func:`_norm3`, so with them a stage
    involves no BLAS call and gives the same bits on every host.
    """
    k = -(spec.g / (spec.v * spec.v))
    mu = spec.mu
    normal = tangent_field.eval

    def rhs(_s, y) -> tuple:
        y1, y2, y3 = y
        n1, n2, n3 = normal(y)
        c = y3 / mu
        return (k * (0.0 - y3 * y1 + c * n1), k * (0.0 - y3 * y2 + c * n2),
                k * (1.0 - y3 * y3 + c * n3))

    return rhs


def field_x(spec: FrictionSpec, tangent_field: TangentField, y) -> tuple:
    """Flow direction of the motion-direction curve at ``y`` (three floats).

    One evaluation of :func:`flow`, so the formula exists once.
    """
    return flow(spec, tangent_field)(0.0, y)


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


@dataclass(frozen=True)
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
    metadata: dict = field(default_factory=dict)

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

    def derivative(self, s) -> np.ndarray:
        """Slope of the :meth:`tangent` cubic; ``dgamma`` on the nodes."""
        return hermite(self.s, self.gamma, self.dgamma, s)[1]


def integrate_ramp3d(spec: FrictionSpec, tangent_field: TangentField, y0,
                     s_max: float, step: float | None = None) -> SpaceCurve3D:
    """Integrate the hemisphere flow from ``y0`` over ``[0, s_max]``.

    Fixed-step RK4 with renormalization onto the sphere after every step;
    the accumulated drift is recorded.  If the trajectory enters a field's
    singular set the run stops early with the partial curve and a reason
    instead of raising, except when the start itself is singular.

    Parameters
    ----------
    y0 : array-like
        Unit direction with ``y0[2] <= 0`` (validated).
    s_max : float
        Arc length to integrate; the grid is uniform with approximately
        ``step`` (default ``1e-3 / a``).
    """
    y0 = hemisphere_point(y0).tolist()
    if not (math.isfinite(s_max) and s_max > 0.0):
        raise ParameterError(f"s_max must be positive, got {s_max!r}")
    if step is None:
        step = DEFAULT_STEP_FACTOR / spec.a

    n0 = tangent_field.eval(y0)  # singular start raises here
    if not (abs(float(np.linalg.norm(n0)) - 1.0) <= FIELD_CHECK_TOL
            and abs(float(np.dot(n0, y0))) <= FIELD_CHECK_TOL):
        raise ContractViolationError(
            f"field {tangent_field.name!r} does not return a unit tangent at {y0}")

    drift_total = drift_max = 0.0

    def renormalize(y):
        nonlocal drift_total, drift_max
        y1, y2, y3 = y
        norm = _norm3(y1, y2, y3)
        drift = abs(norm - 1.0)
        drift_total += drift
        if drift > drift_max:  # a NaN drift is skipped, as max() skips it
            drift_max = drift
        return [y1 / norm, y2 / norm, y3 / norm]

    t, gamma, dgamma, stop_reason = integrate_fixed(
        flow(spec, tangent_field), y0, 0.0, s_max, step, post_step=renormalize)
    # t[-1] is pinned to s_max, which can differ from h * n in the last bit
    h = float(t[1]) if t.shape[0] > 1 else 0.0
    s = h * np.arange(t.shape[0])
    if stop_reason is not None:
        log.warning("flow stopped early at s=%s: %s", float(s[-1]), stop_reason)
    alpha = cumulative_simpson(gamma, h)
    log.debug("integrated %d steps, norm drift total=%.3e max=%.3e",
              gamma.shape[0] - 1, drift_total, drift_max)
    return SpaceCurve3D(s=s, gamma=gamma, dgamma=dgamma, alpha=alpha,
                        field=tangent_field, norm_drift_total=drift_total,
                        norm_drift_max=drift_max, stop_reason=stop_reason)


@dataclass(frozen=True)
class RampSurface3D:
    """Ruled strip swept along a space curve.

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
    metadata: dict = field(default_factory=dict)

    @property
    def resolution(self) -> tuple[int, int]:
        return self.s_grid.shape[0] - 1, self.r_grid.shape[0] - 1


def _ruling_grid(r_extent: tuple[float, float], n_r: int) -> np.ndarray:
    # grid across the strip that contains r = 0 exactly
    r_min, r_max = float(r_extent[0]), float(r_extent[1])
    if not (r_min <= 0.0 <= r_max) or r_min == r_max:
        raise ParameterError(
            f"r_extent must straddle 0 with r_min < r_max, got {r_extent!r}")
    if r_min == 0.0:
        return np.linspace(0.0, r_max, n_r + 1)
    if r_max == 0.0:
        return np.linspace(r_min, 0.0, n_r + 1)
    n_neg = int(round(n_r * (-r_min) / (r_max - r_min)))
    n_neg = min(max(n_neg, 1), n_r - 1)
    return np.concatenate([np.linspace(r_min, 0.0, n_neg + 1)[:-1],
                           np.linspace(0.0, r_max, n_r - n_neg + 1)])


def build_surface(curve: SpaceCurve3D, tangent_field: TangentField,
                  r_extent: tuple[float, float] = (-0.5, 0.5),
                  resolution: tuple[int, int] = (200, 16)) -> RampSurface3D:
    """Sweep the ruling ``gamma x N(gamma)`` along the curve.

    The ruling is orthogonal to both the motion direction and the contact
    normal, so the strip contains the trajectory (its ``r = 0`` row) and
    touches the block along it with normal ``N``.
    """
    n_s, n_r = int(resolution[0]), int(resolution[1])
    if n_s < 1 or n_r < 1:
        raise ParameterError(f"resolution must be at least (1, 1), got {resolution!r}")
    s_grid = np.linspace(0.0, curve.s_end, n_s + 1)
    r_grid = _ruling_grid(r_extent, n_r)

    positions = curve.position(s_grid)
    tangents = curve.tangent(s_grid)
    tangents = tangents / np.linalg.norm(tangents, axis=-1, keepdims=True)
    normals = np.array([tangent_field.eval(t) for t in tangents.tolist()])
    ruling = np.cross(tangents, normals)
    ruling = ruling / np.linalg.norm(ruling, axis=-1, keepdims=True)

    vertices = positions[:, None, :] + r_grid[None, :, None] * ruling[:, None, :]
    return RampSurface3D(base=curve, s_grid=s_grid, r_grid=r_grid,
                         vertices=vertices, vertex_normals=normals, ruling=ruling)


def _scale_ramp2d(ramp: Ramp2D, kappa: float) -> Ramp2D:
    inner = ramp.curve

    def position(s):
        return kappa * inner.position(np.asarray(s, dtype=float) / kappa)

    def tangent(s):
        return inner.tangent(np.asarray(s, dtype=float) / kappa)

    def second_derivative(s):
        return inner.second_derivative(np.asarray(s, dtype=float) / kappa) / kappa

    def normal(s):
        return ramp.normal(np.asarray(s, dtype=float) / kappa)

    lo, hi = inner.domain
    curve = PlanarCurve(position=position, tangent=tangent,
                        second_derivative=second_derivative,
                        domain=(kappa * lo, kappa * hi))
    return Ramp2D(curve=curve, normal=normal, branch=ramp.branch,
                  metadata=_scale_notes(ramp.metadata, kappa))


def _scale_notes(metadata: dict, kappa: float) -> dict:
    # the accumulated dilation and the two reinterpretations under which the
    # dilated geometry stays valid
    meta = dict(metadata)
    total = kappa * meta.get("scaled_by", 1.0)
    meta["scaled_by"] = total
    meta["equivalent_specs"] = {"speed_factor": math.sqrt(total),
                                "gravity_factor": 1.0 / total}
    return meta


def scale_ramp(geometry, kappa: float):
    """Dilate a ramp geometry by ``kappa`` about the origin.

    The dilated geometry is again a constant-speed ramp for speed
    ``sqrt(kappa) * v`` at unchanged gravity, or equivalently for unchanged
    speed at gravity ``g / kappa``; both reinterpretations are recorded in
    the metadata.  Accepts :class:`Ramp2D`, :class:`SpaceCurve3D` and
    :class:`RampSurface3D`.
    """
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ParameterError(f"scale factor must be positive, got {kappa!r}")
    if isinstance(geometry, Ramp2D):
        return _scale_ramp2d(geometry, kappa)
    if isinstance(geometry, SpaceCurve3D):
        return replace(geometry, s=kappa * geometry.s, alpha=kappa * geometry.alpha,
                       dgamma=geometry.dgamma / kappa,
                       metadata=_scale_notes(geometry.metadata, kappa))
    if isinstance(geometry, RampSurface3D):
        return RampSurface3D(base=scale_ramp(geometry.base, kappa),
                             s_grid=kappa * geometry.s_grid,
                             r_grid=kappa * geometry.r_grid,
                             vertices=kappa * geometry.vertices,
                             vertex_normals=geometry.vertex_normals,
                             ruling=geometry.ruling,
                             metadata=_scale_notes(geometry.metadata, kappa))
    raise ParameterError(f"cannot scale object of type {type(geometry).__name__}",
                         code="config")
