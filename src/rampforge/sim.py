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
from .params import FrictionSpec, _bounded, _require_positive
from .planar import Ramp2D
from .verify import _planar_balance, _spatial_balance

_COUNT_EPS = 1e-9  # guards floor() against span*fps landing just under an integer

# vector columns of a frame table, after the scalar time column "t"
FRAME_VECTORS = ("position", "velocity", "gravity_force", "normal_force",
                 "friction_force", "residual")


@dataclass(eq=False, repr=False)
class MotionTrace:
    """Uniform-rate frame table for one geometry.

    ``frames`` is a numpy structured array with one row per frame: a ``t``
    column and one ``(dimension,)`` vector column per name in
    ``FRAME_VECTORS``, e.g. ``trace.frames["normal_force"]``.
    """

    frames: np.ndarray
    fps: float
    dimension: int
    truncated: bool = False
    warning: str | None = None
    meta: dict = field(default_factory=dict)


def _frame_times(t_span: tuple[float, float], fps: float) -> np.ndarray:
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 >= t0 >= 0.0):
        raise ParameterError(f"need 0 <= t0 <= t1, got {t_span!r}")
    if math.isinf(t1):
        raise ParameterError(f"t_span must be finite, got {t_span!r}")
    frames = _bounded((t1 - t0) * fps + _COUNT_EPS,
                      f"t_span {t_span!r} at {fps!r} fps leaves too many frames")
    count = math.floor(frames) + 1
    return t0 + np.arange(count) / fps


def simulate(spec: FrictionSpec, geometry, t_span: tuple[float, float],
             fps: float = 30.0) -> MotionTrace:
    """Sample a block sliding on ``geometry`` at frame rate ``fps``.

    ``geometry`` is a :class:`Ramp2D` or :class:`SpaceCurve3D`.  Frames land
    at ``t0 + k / fps``; the count is ``floor(span * fps) + 1``, and one
    whose times numpy cannot index raises :class:`ParameterError`.  Requests
    running past the end of the geometry (the integrated span of a space
    curve) are truncated and flagged rather than extrapolated.  A space
    curve's Hermite samples go through :func:`verify.verify_3d`'s kernel.
    """
    fps = _require_positive("fps", fps)
    t = _frame_times(t_span, fps)
    if isinstance(geometry, Ramp2D):
        dimension, s_end = 2, geometry.domain[1]
        meta = {"branch": geometry.branch.value}
    else:
        from .ramp3d import SpaceCurve3D

        if not isinstance(geometry, SpaceCurve3D):
            raise ParameterError(f"cannot simulate on {type(geometry).__name__}",
                                 code="config")
        dimension, s_end = 3, geometry.s_end
        meta = {"field": geometry.field.name}

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
        position = geometry.position(s)
        if dimension == 2:
            tangents, _normals, _lam, forces = _planar_balance(spec, geometry, t)
            velocity = spec.v * tangents
        else:
            from .ode import hermite

            gamma, dgamma = hermite(geometry.s, geometry.gamma, geometry.dgamma, s)
            velocity = spec.v * gamma
            _normals, _lam, forces = _spatial_balance(
                spec, geometry.field, gamma, dgamma, velocity,
                speed=np.linalg.norm(velocity, axis=-1, keepdims=True))
        for name, column in zip(frames.dtype.names, (t, position, velocity, *forces)):
            frames[name] = column
    return MotionTrace(frames=frames, fps=fps, dimension=dimension,
                       truncated=truncated, warning=warning, meta=meta)
