"""Closed-form planar constant-speed curve and the two ramp branches cut from it.

The base curve is

    alpha(s) = (s + ln(1 + exp(-2 a s)) / a,  (2 / a) * arccot(exp(-a s)))

which is arc-length parametrized with tangent ``(tanh(a s), sech(a s))``.  A
block sliding on the suitable side of its clockwise rotation by the friction
angle keeps constant speed: gravity, the contact normal force and Coulomb
friction balance the centripetal acceleration exactly.  The rotated curve has
one apex (highest point); cutting there yields two physical ramps traversed
away from the apex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ParameterError
from .params import FrictionSpec

DEFAULT_SPAN_FACTOR = 8.0  # default export span is [0, 8/a]; the shape is
                           # within ~3e-4 of its straight asymptote there


class Branch(str, Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class PlanarCurve:
    """Twice-differentiable plane curve given by evaluators.

    ``position``, ``tangent`` and ``second_derivative`` map a parameter array
    of shape ``(...,)`` to points of shape ``(..., 2)``.  Curves produced by
    this module are arc-length parametrized (unit tangent); the container
    itself only assumes a regular parametrization.
    """

    position: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]


@dataclass(frozen=True)
class Ramp2D:
    """A planar curve together with the unit contact normal along it.

    The normal points from the ramp material toward the block, so the contact
    force on the block is ``lambda * normal`` with ``lambda >= 0``.
    """

    curve: PlanarCurve
    normal: Callable[[np.ndarray], np.ndarray]
    branch: Branch
    metadata: dict = field(default_factory=dict)


def _sech(t: np.ndarray) -> np.ndarray:
    # 1/cosh without overflow for |t| up to the exp underflow limit
    e = np.exp(-np.abs(t))
    return 2.0 * e / (1.0 + e * e)


def alpha(spec: FrictionSpec, s) -> np.ndarray:
    """Unrotated curve position, shape ``s.shape + (2,)``.

    Both coordinates are evaluated in a form that never feeds a large
    argument to ``exp``: the log term goes through ``logaddexp`` and the
    arccot branch uses ``arctan(exp(-|a s|))`` plus a reflection, so the
    formula stays finite up to ``|a s|`` of a few hundred.
    """
    a = spec.a
    s = np.asarray(s, dtype=float)
    t = a * s
    x = s + np.logaddexp(0.0, -2.0 * t) / a
    u = np.arctan(np.exp(-np.abs(t)))
    y = (2.0 / a) * np.where(t < 0.0, u, np.pi / 2.0 - u)
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def alpha_tangent(spec: FrictionSpec, s) -> np.ndarray:
    """Unit tangent ``(tanh(a s), sech(a s))`` of the unrotated curve."""
    t = spec.a * np.asarray(s, dtype=float)
    return np.stack(np.broadcast_arrays(np.tanh(t), _sech(t)), axis=-1)


def alpha_second_derivative(spec: FrictionSpec, s) -> np.ndarray:
    a = spec.a
    t = a * np.asarray(s, dtype=float)
    sh = _sech(t)
    return np.stack(np.broadcast_arrays(a * sh * sh, -a * sh * np.tanh(t)), axis=-1)


def rotate_clockwise(points: np.ndarray, delta: float) -> np.ndarray:
    """Rotate points of shape ``(..., 2)`` clockwise by ``delta`` radians."""
    c, sd = math.cos(delta), math.sin(delta)
    x = points[..., 0]
    y = points[..., 1]
    return np.stack((c * x + sd * y, -sd * x + c * y), axis=-1)


def alpha_rotated(spec: FrictionSpec, s) -> np.ndarray:
    """The curve rotated clockwise by the friction angle; this is the shape a
    block actually slides on."""
    return rotate_clockwise(alpha(spec, s), spec.delta)


def alpha_rotated_tangent(spec: FrictionSpec, s) -> np.ndarray:
    return rotate_clockwise(alpha_tangent(spec, s), spec.delta)


def alpha_rotated_second_derivative(spec: FrictionSpec, s) -> np.ndarray:
    return rotate_clockwise(alpha_second_derivative(spec, s), spec.delta)


def apex_param(spec: FrictionSpec) -> float:
    """Parameter of the unique highest point of the rotated curve.

    The vertical tangent component ``y'_delta`` vanishes exactly where
    ``sinh(a s) = cot(delta)``.
    """
    return math.asinh(1.0 / spec.mu) / spec.a


def asymptote_gap(spec: FrictionSpec) -> float:
    """Vertical distance between the two horizontal asymptotes of the
    unrotated curve (``y = 0`` and ``y = pi/a``)."""
    return math.pi / spec.a


def default_span(spec: FrictionSpec) -> float:
    return DEFAULT_SPAN_FACTOR / spec.a


def _rot90(vectors: np.ndarray) -> np.ndarray:
    # counterclockwise quarter turn, (x, y) -> (-y, x)
    return np.stack((-vectors[..., 1], vectors[..., 0]), axis=-1)


# sigma: a branch leaves the apex along alpha_rot(s0 + sigma * s)
_SIGN = {Branch.LOWER: -1.0, Branch.UPPER: 1.0}


def make_ramp(spec: FrictionSpec, branch: Branch | str) -> Ramp2D:
    """Branch ``gamma(s) = alpha_rot(s0 + sigma s)`` cut at the apex ``s0``.

    The lower branch (``sigma = -1``) runs backward from the apex.  Near the
    apex its contact normal points downward: the block hangs on the
    underside, held against the ramp by its own speed.  Past the point where
    the tangent turns vertical the normal swings upward and the block rides
    on top of the trailing straight section.

    The upper branch (``sigma = +1``) runs forward.  Its contact normal always
    has a nonnegative vertical component: the block rides on top, and the
    shape flattens into an ordinary inclined plane at the friction angle.

    On both, ``gamma' = sigma alpha_rot'``, ``gamma'' = alpha_rot''`` and the
    contact normal is the quarter turn of ``gamma'``.
    """
    branch = Branch(branch)
    sigma = _SIGN[branch]
    s0 = apex_param(spec)

    def position(s):
        return alpha_rotated(spec, s0 + sigma * np.asarray(s, dtype=float))

    def tangent(s):
        return sigma * alpha_rotated_tangent(spec, s0 + sigma * np.asarray(s, dtype=float))

    def second_derivative(s):
        return alpha_rotated_second_derivative(
            spec, s0 + sigma * np.asarray(s, dtype=float))

    def normal(s):
        return _rot90(tangent(s))

    curve = PlanarCurve(position=position, tangent=tangent,
                        second_derivative=second_derivative,
                        domain=(0.0, math.inf))
    return Ramp2D(curve=curve, normal=normal, branch=branch)


def lower_ramp(spec: FrictionSpec) -> Ramp2D:
    """The branch ``gamma(s) = alpha_rot(s0 - s)``; see :func:`make_ramp`."""
    return make_ramp(spec, Branch.LOWER)


def upper_ramp(spec: FrictionSpec) -> Ramp2D:
    """The branch ``gamma(s) = alpha_rot(s0 + s)``; see :func:`make_ramp`."""
    return make_ramp(spec, Branch.UPPER)


def normal_force_2d(spec: FrictionSpec, branch: Branch | str, t) -> np.ndarray:
    """Magnitude of the contact force at time ``t`` (arc length ``v t``), N.

    Zero at the apex, strictly positive afterwards on both branches, tending
    to the inclined-plane value ``m g cos(delta)``.
    """
    sigma = _SIGN[Branch(branch)]
    t = np.asarray(t, dtype=float)
    scale = -sigma * spec.m * spec.g / spec.mu  # -sigma m g cot(delta)
    return scale * alpha_rotated_tangent(spec, apex_param(spec) + sigma * spec.v * t)[..., 1]


def tangent_angle_orbit_position(spec: FrictionSpec, theta0: float, s) -> np.ndarray:
    """Position along the constant-speed solution whose tangent angle starts
    at ``theta0``, relative to its start point.

    Every solution of the tangent-angle equation has
    ``tan((theta + delta) / 2) = C * exp(-a s)``; positive ``C`` gives a
    horizontal shift of the base curve, negative ``C`` its mirror image
    (vertical flip before the rotation), and ``C = 0`` the straight
    inclined-plane equilibrium.
    """
    s = np.asarray(s, dtype=float)
    c = math.tan(0.5 * (theta0 + spec.delta))
    if abs(c) < 1e-15:
        line = np.array([math.cos(theta0), math.sin(theta0)])
        return s[..., None] * line
    sign = math.copysign(1.0, c)
    shift = math.log(abs(c)) / spec.a
    rel = alpha(spec, s - shift) - alpha(spec, -shift)
    rel = np.stack((rel[..., 0], sign * rel[..., 1]), axis=-1)
    return rotate_clockwise(rel, spec.delta)


def sample_ramp(spec: FrictionSpec, ramp: Ramp2D, s) -> dict:
    """Columnar samples along a ramp, keyed like the CSV export header."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s < ramp.curve.domain[0]) or np.any(s > ramp.curve.domain[1]):
        raise ParameterError("sample parameters fall outside the ramp domain",
                             code="magnitude")
    pos = ramp.curve.position(s)
    tan = ramp.curve.tangent(s)
    nor = ramp.normal(s)
    lam = normal_force_2d(spec, ramp.branch, s / spec.v)
    return {
        "s": s,
        "x": pos[:, 0], "y": pos[:, 1],
        "tx": tan[:, 0], "ty": tan[:, 1],
        "nx": nor[:, 0], "ny": nor[:, 1],
        "lambda": lam,
    }
