"""Force-balance verification for planar and spatial ramps.

Everything here reduces to checking Newton's law for the sliding block,

    F_gravity + lambda * n - mu * lambda * beta' / |beta'| = m * beta''

sampled along a motion, together with the contact sign condition
``lambda >= 0`` (a ramp can push, never pull).  The report keeps the normal
and tangential residual components separately so a cancellation in the norm
cannot mask a bad component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError, ParameterError, SingularFieldError
from .params import FrictionSpec, _length_scale, _require_samples, make_spec
from .planar import (Ramp2D, _scale_ramp2d, default_span, normal_force_2d,
                     tangent_angle_orbit_position)

if TYPE_CHECKING:  # the 3D functions import the hemisphere layer as they run
    from .ramp3d import SpaceCurve3D, TangentField

TOL_RESIDUAL_2D = 1e-8   # N, closed-form geometry
TOL_RESIDUAL_3D = 1e-6   # N, integrated geometry
TOL_LAMBDA = 1e-10       # N, slack on the sign condition
TOL_FEASIBILITY = 1e-9   # N, slack on the sign of a required normal force
TOL_UPSLOPE = 1e-12      # a field this close to the upslope field is that field
_UNIT_TANGENT_TOL = 1e-8


class Verdict(str, Enum):
    VALID = "Valid"
    LAMBDA_NEGATIVE = "LambdaNegative"
    RESIDUAL_EXCEEDED = "ResidualExceeded"


class Feasibility(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"


@dataclass(eq=False, repr=False)
class ForceBalanceReport:
    """Outcome of sampling Newton's law along one geometry.

    ``t`` holds the sample times; ``residual_norm`` and ``lambda_profile``
    are aligned with it.  The verdict is ``Valid`` exactly when the minimum
    normal force clears ``-tol_lambda`` and the largest residual norm stays
    within ``tol_residual``.
    """

    verdict: Verdict
    max_residual: float
    max_normal_residual: float
    max_tangential_residual: float
    lambda_min: float
    tol_residual: float
    tol_lambda: float
    t: np.ndarray
    residual_norm: np.ndarray
    lambda_profile: np.ndarray
    meta: dict = field(default_factory=dict)


def _force_balance(spec: FrictionSpec, lam: np.ndarray, normals: np.ndarray,
                   direction: np.ndarray, inertia: np.ndarray, speed=1.0):
    """Gravity, normal-force, friction and residual columns of Newton's law.

    ``lam`` holds the normal-force magnitudes and ``normals`` the unit contact
    normals; friction opposes ``direction / speed``.  ``inertia`` is
    ``m * beta''``, formed by the caller so each keeps its own rounding.  The
    residual ``gravity + normal + friction - inertia`` is zero exactly when
    the sampled state obeys Newton's law.
    """
    gravity = np.zeros_like(normals)
    gravity[:, -1] = -spec.m * spec.g
    normal = lam[:, None] * normals
    friction = -spec.mu * lam[:, None] * direction / speed
    return gravity, normal, friction, gravity + normal + friction - inertia


def _spatial_balance(spec: FrictionSpec, tangent_field: TangentField, gamma: np.ndarray,
                     dgamma: np.ndarray, direction: np.ndarray, speed=1.0):
    """Normals, normal force and force columns at directions ``gamma`` with
    arc-length slopes ``dgamma``; friction opposes ``direction / speed``."""
    from .ramp3d import _normals, lambda_3d

    normals = _normals(tangent_field, gamma.tolist())
    lam = lambda_3d(spec, gamma)
    return normals, lam, _force_balance(spec, lam, normals, direction,
                                        spec.m * spec.v * spec.v * dgamma, speed)


def _planar_balance(spec: FrictionSpec, ramp: Ramp2D, t: np.ndarray):
    """Tangents, normals, normal force and force columns at times ``t``."""
    s = spec.v * t
    tangents = ramp.tangent(s)
    normals = ramp.normal(s)
    lam = np.asarray(normal_force_2d(spec, ramp.branch, t), dtype=float)
    inertia = spec.m * (spec.v * spec.v * ramp.second_derivative(s))
    return tangents, normals, lam, _force_balance(spec, lam, normals, tangents, inertia)


def _report(t: np.ndarray, lam: np.ndarray, residual: np.ndarray,
            normals: np.ndarray, tangents: np.ndarray, tol_residual: float,
            meta: dict) -> ForceBalanceReport:
    residual_norm = np.linalg.norm(residual, axis=-1)
    lambda_min = float(lam.min())
    max_residual = float(residual_norm.max())
    # phrased so that a NaN fails both tests instead of passing them
    if not (lambda_min >= -TOL_LAMBDA):
        verdict = Verdict.LAMBDA_NEGATIVE
    elif not (max_residual <= tol_residual):
        verdict = Verdict.RESIDUAL_EXCEEDED
    else:
        verdict = Verdict.VALID
    return ForceBalanceReport(
        verdict=verdict,
        max_residual=max_residual,
        max_normal_residual=float(np.abs(np.einsum("ij,ij->i", residual, normals)).max()),
        max_tangential_residual=float(
            np.abs(np.einsum("ij,ij->i", residual, tangents)).max()),
        lambda_min=lambda_min,
        tol_residual=tol_residual, tol_lambda=TOL_LAMBDA,
        t=t, residual_norm=residual_norm, lambda_profile=lam, meta=meta)


def verify_2d(spec: FrictionSpec, ramp: Ramp2D,
              t_span: tuple[float, float] | None = None,
              n_samples: int = 400) -> ForceBalanceReport:
    """Check the force balance along a planar ramp branch.

    The normal force comes from the closed-form profile for ``ramp.branch``
    under ``spec``; the acceleration comes from the curve's own second
    derivative.  A mismatch between the spec and the geometry (wrong ``mu``,
    dilated curve verified at the wrong speed) therefore shows up as a
    residual, not as a silently recomputed balance.

    Raises
    ------
    ContractViolationError
        if the curve is not arc-length parametrized or the normal is not a
        unit vector orthogonal to the tangent.
    """
    if t_span is None:
        t_span = (0.0, default_span(spec) / spec.v)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ParameterError(f"t_span must be finite, got {t_span!r}")
    if not (t1 > t0 >= 0.0):
        raise ParameterError(f"need 0 <= t0 < t1, got {t_span!r}")
    _require_samples(n_samples)

    t = np.linspace(t0, t1, n_samples)
    tangents, normals, lam, forces = _planar_balance(spec, ramp, t)
    if not (np.max(np.abs(np.linalg.norm(tangents, axis=-1) - 1.0)) <= _UNIT_TANGENT_TOL):
        raise ContractViolationError(
            "curve tangent is not unit length; verify_2d needs an arc-length "
            "parametrization")
    if not (np.max(np.abs(np.linalg.norm(normals, axis=-1) - 1.0)) <= _UNIT_TANGENT_TOL
            and np.max(np.abs(np.einsum("ij,ij->i", normals, tangents))) <= _UNIT_TANGENT_TOL):
        raise ContractViolationError("ramp normal is not a unit vector orthogonal "
                                     "to the tangent")
    return _report(t, lam, forces[-1], normals, tangents, TOL_RESIDUAL_2D,
                   meta={"dimension": "2d", "branch": ramp.branch.value})


def verify_3d(spec: FrictionSpec, curve: SpaceCurve3D,
              n_samples: int = 400) -> ForceBalanceReport:
    """Check the force balance along an integrated space curve.

    At the stored nodes, the acceleration term uses the derivative samples
    recorded at integration time, and the force side is rebuilt fresh from
    the stored directions and the curve's own field, in the kernel that
    :func:`sim.simulate` shares.  Corrupting either side (rescaled directions,
    dilated curve verified at the original speed) breaks the match.  Only
    those nodes are read, never ``alpha`` or the curve between nodes, so
    neither a coarse step nor a wrong ``alpha`` changes the verdict.
    """
    if curve.s.shape[0] < 2:
        raise ParameterError("curve holds fewer than 2 samples")
    # a count above the rows is clamped to them, however large, not refused
    count = _require_samples(min(n_samples, curve.s.shape[0]))
    # count <= rows, so the grid's spacing is at least 1 and no two of its
    # points round to the same row: these are the rows np.unique would keep,
    # without the numpy.ma import np.unique makes on first use
    idx = np.round(np.linspace(0, curve.s.shape[0] - 1, count)).astype(int)

    gamma = curve.gamma[idx]
    normals, lam, forces = _spatial_balance(spec, curve.field, gamma,
                                            curve.dgamma[idx], gamma)
    return _report(curve.s[idx] / spec.v, lam, forces[-1], normals, gamma,
                   TOL_RESIDUAL_3D,
                   meta={"dimension": "3d", "field": curve.field.name,
                         "max_gamma3": float(curve.gamma[:, 2].max()),
                         "norm_drift_total": curve.norm_drift_total,
                         "stopped_early": curve.stopped_early})


def _is_upslope(curve: SpaceCurve3D) -> bool:
    # the curve's field equals the built-in upslope field at its first,
    # middle and last samples; that field is singular at the south pole
    from .ramp3d import _normals, builtin_field

    rows = curve.gamma[[0, curve.gamma.shape[0] // 2, -1]].tolist()
    try:
        difference = _normals(curve.field, rows) - _normals(builtin_field("upslope"), rows)
    except SingularFieldError:
        return False
    return bool(np.all(np.abs(difference) <= TOL_UPSLOPE))


def planar_reduction_check(spec: FrictionSpec, curve: SpaceCurve3D) -> dict:
    """Compare an upslope-field space curve against the planar closed form.

    Upslope trajectories never leave the vertical plane through the start
    direction, so the integrated curve must coincide with the closed-form
    planar solution embedded in that plane.  The check applies when the
    curve's field is the upslope field ``e3T/|e3T|`` at the curve's first,
    middle and last samples, to ``TOL_UPSLOPE``, whatever the field's name;
    otherwise it returns ``{"applicable": False}``.  If it applies, it
    reports the largest position deviation.  A field that returns other
    than three real numbers there raises :class:`ContractViolationError`.
    """
    from .ramp3d import E3

    if not _is_upslope(curve):
        return {"applicable": False, "reason": f"field {curve.field.name!r} "
                "has no planar closed form"}
    y0 = curve.gamma[0]
    horizontal = math.hypot(float(y0[0]), float(y0[1]))
    if horizontal < 1e-12:
        return {"applicable": False, "reason": "start direction is vertical"}
    u = np.array([y0[0] / horizontal, y0[1] / horizontal, 0.0])
    theta0 = math.atan2(float(y0[2]), horizontal)
    reference = tangent_angle_orbit_position(spec, theta0, curve.s)
    embedded = reference[:, 0, None] * u + reference[:, 1, None] * E3
    deviation = float(np.linalg.norm(curve.alpha - embedded, axis=-1).max())
    return {"applicable": True, "max_deviation": deviation, "theta0": theta0}


@dataclass(eq=False, repr=False)
class FeasibilityReport:
    """Sign profile of the normal force a prescribed motion would require."""

    verdict: Feasibility
    lambda_min: float
    friction_consistency_max: float
    tol: float
    t: np.ndarray
    lambda_required: np.ndarray


def normal_sign_diagnostic(ramp: Ramp2D, force, mass: float, rate: float,
                           t_span: tuple[float, float], n_samples: int = 200,
                           mu: float = 0.0, start: float = 0.0) -> FeasibilityReport:
    """Recover the normal force a motion on a ramp would require and test its sign.

    Projecting ``m beta'' - F`` on the ramp normal isolates lambda without
    assuming the balance holds; any sample with ``lambda < -TOL_FEASIBILITY``
    makes the configuration infeasible (the ramp would have to pull).  The
    tangential projection is returned separately as a friction consistency
    error; it vanishes only if the motion is dynamically possible at
    friction ``mu``.  ``t_span`` must be finite with ``t0 < t1``.

    The block's curve parameter is ``start + rate * t``: ``rate = 0`` parks
    it at ``start``, and on an arc-length ramp ``rate = v`` is motion at
    speed ``v``.  ``force`` is one constant 2-vector.  The ramp may carry
    any regular parametrization here, not just arc length.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ParameterError(f"t_span must be finite with t0 < t1, got {t_span!r}")
    _require_samples(n_samples)
    t = np.linspace(t0, t1, n_samples)
    u = start + rate * t

    g1 = ramp.tangent(u)
    normals = ramp.normal(u)
    need = mass * ((rate * rate) * ramp.second_derivative(u)) - force
    lam = np.einsum("ij,ij->i", need, normals)

    direction = np.sign(rate) * g1 / np.linalg.norm(g1, axis=-1, keepdims=True)
    consistency = np.abs(np.einsum("ij,ij->i", need, direction) + mu * lam)

    lambda_min = float(lam.min())
    verdict = (Feasibility.FEASIBLE if lambda_min >= -TOL_FEASIBILITY
               else Feasibility.INFEASIBLE)
    return FeasibilityReport(verdict=verdict, lambda_min=lambda_min,
                             friction_consistency_max=float(consistency.max()),
                             tol=TOL_FEASIBILITY, t=t, lambda_required=lam)


@dataclass(eq=False, repr=False)
class ScalingVerification:
    """Both reinterpretations of a dilated geometry, verified independently."""

    kappa: float
    speed_spec: FrictionSpec
    gravity_spec: FrictionSpec
    speed_report: ForceBalanceReport
    gravity_report: ForceBalanceReport

    @property
    def both_valid(self) -> bool:
        return (self.speed_report.verdict is Verdict.VALID
                and self.gravity_report.verdict is Verdict.VALID)


def verify_scaling(spec: FrictionSpec, geometry, kappa: float,
                   n_samples: int = 400) -> ScalingVerification:
    """Dilate ``geometry`` by ``kappa`` and verify both equivalent readings.

    The dilated shape must balance for speed ``sqrt(kappa) * v`` at gravity
    ``g`` and for speed ``v`` at gravity ``g / kappa`` (same friction angle,
    same mass).  Works for planar ramps, space curves and surfaces (their
    base curve).
    """
    if isinstance(geometry, Ramp2D):
        scaled, check = _scale_ramp2d(geometry, kappa), verify_2d
    else:  # the hemisphere layer is loaded only for a 3D geometry
        from .ramp3d import RampSurface3D, scale_ramp

        if isinstance(geometry, RampSurface3D):
            geometry = geometry.base
        # a SpaceCurve3D, or scale_ramp raises
        scaled, check = scale_ramp(geometry, kappa), verify_3d
    # make_spec reads mu back as tan(delta) and a through sin(delta), each of
    # which can miss by an ulp: both readings keep spec's mu, delta and m
    # verbatim, and take the dilated geometry's length scale spec.a / kappa
    a = _length_scale(spec.a / kappa)
    speed_spec, gravity_spec = (
        replace(make_spec(spec.delta, g=g, v=v, m=spec.m), mu=spec.mu, a=a)
        for g, v in ((spec.g, math.sqrt(kappa) * spec.v), (spec.g / kappa, spec.v)))
    return ScalingVerification(
        kappa=float(kappa), speed_spec=speed_spec, gravity_spec=gravity_spec,
        speed_report=check(speed_spec, scaled, n_samples=n_samples),
        gravity_report=check(gravity_spec, scaled, n_samples=n_samples))
