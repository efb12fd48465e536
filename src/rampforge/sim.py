"""Frame-by-frame force decomposition along a constant-speed trajectory.

The kinematics are exact by construction (position and velocity come from
the geometry evaluated at arc length ``v * t``); what the simulation adds is
the per-frame force split into gravity, contact normal force and Coulomb
friction, plus the Newton residual as a self-check column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .ode import hermite
from .params import FrictionSpec
from .planar import Ramp2D
from .ramp3d import SpaceCurve3D, lambda_3d
from .verify import _force_balance, _planar_balance

_COUNT_EPS = 1e-9  # guards floor() against span*fps landing just under an integer

# vector columns of a frame table, after the scalar time column "t"
FRAME_VECTORS = ("position", "velocity", "gravity_force", "normal_force",
                 "friction_force", "residual")


@dataclass(frozen=True)
class MotionTrace:
    """Uniform-rate frame table for one geometry.

    ``frames`` is a numpy structured array with one row per frame: a ``t``
    column and one ``(dimension,)`` vector column per name in
    ``FRAME_VECTORS``, e.g. ``trace.frames["normal_force"]``.
    """

    frames: np.ndarray
    fps: float
    spec: FrictionSpec
    dimension: int
    truncated: bool = False
    warning: str | None = None
    meta: dict = field(default_factory=dict)


def _frame_times(t_span: tuple[float, float], fps: float) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(fps) and fps > 0.0):
        raise ParameterError(f"fps must be positive, got {fps!r}")
    if not (t1 >= t0 >= 0.0):
        raise ParameterError(f"need 0 <= t0 <= t1, got {t_span!r}")
    if math.isinf(t1):
        raise ParameterError(f"t_span must be finite, got {t_span!r}")
    count = int(math.floor((t1 - t0) * fps + _COUNT_EPS)) + 1
    return t0 + np.arange(count) / fps


def simulate(spec: FrictionSpec, geometry, t_span: tuple[float, float],
             fps: float = 30.0) -> MotionTrace:
    """Sample a block sliding on ``geometry`` at frame rate ``fps``.

    ``geometry`` is a :class:`Ramp2D` or :class:`SpaceCurve3D`.  Frames land
    at ``t0 + k / fps``; the count is ``floor(span * fps) + 1``.  Requests
    running past the end of the geometry (the integrated span of a space
    curve) are truncated and flagged rather than extrapolated.
    """
    t = _frame_times(t_span, fps)
    if isinstance(geometry, Ramp2D):
        dimension, s_end = 2, geometry.curve.domain[1]
        meta = {"branch": geometry.branch.value}
    elif isinstance(geometry, SpaceCurve3D):
        dimension, s_end = 3, geometry.s_end
        meta = {"field": geometry.field.name}
    else:
        raise ParameterError(f"cannot simulate on {type(geometry).__name__}",
                             code="config")

    keep = spec.v * t <= s_end + 1e-12
    truncated = not np.all(keep)
    warning = None
    if truncated:
        warning = (f"trajectory truncated at s={s_end!r}; "
                   f"{int((~keep).sum())} frame(s) dropped")
        t = t[keep]
    elif dimension == 3 and geometry.stopped_early:
        warning = f"curve itself stopped early: {geometry.stop_reason}"

    frames = np.zeros(t.size, dtype=[("t", float)] + [(name, float, (dimension,))
                                                      for name in FRAME_VECTORS])
    if t.size:
        s = spec.v * t
        if dimension == 2:
            tangents, _normals, _lam, forces = _planar_balance(spec, geometry, t)
            position = geometry.curve.position(s)
            velocity = spec.v * tangents
        else:
            position = geometry.position(s)
            gamma, dgamma = hermite(geometry.s, geometry.gamma, geometry.dgamma, s)
            velocity = spec.v * gamma
            lam = lambda_3d(spec, gamma)
            normals = np.array([geometry.field.eval(y) for y in gamma.tolist()])
            forces = _force_balance(
                spec, lam, normals, velocity, spec.m * spec.v * spec.v * dgamma,
                speed=np.linalg.norm(velocity, axis=-1, keepdims=True))
        for name, column in zip(frames.dtype.names, (t, position, velocity, *forces)):
            frames[name] = column
    return MotionTrace(frames=frames, fps=fps, spec=spec, dimension=dimension,
                       truncated=truncated, warning=warning, meta=meta)
