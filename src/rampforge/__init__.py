"""Constant-speed ramps: curves and surfaces on which a block slides at
constant speed under gravity and kinetic friction.

The planar family is closed form (``planar``); the spherical-image flows on
the unit hemisphere are integrated numerically (``ramp3d``); ``verify`` checks
the force balance a posteriori and ``sim`` renders frame-by-frame force
decompositions.  All geometry is parameterized by a :class:`FrictionSpec`.
"""

from .errors import (ContractViolationError, IntegrationError, ParameterError,
                     RampError, SingularFieldError)
from .ode import (DEFAULT_STEP_FACTOR, IntegratorConfig, ThetaTrace,
                  default_config, integrate_adaptive, integrate_fixed,
                  integrate_theta, lambda_from_theta, theta_closed_form,
                  theta_closed_form_derivative, theta_ode_rhs)
from .params import (DELTA_MAX, FrictionSpec, dump_spec, load_spec, make_spec,
                     spec_from_dict, spec_from_mu, spec_to_dict)
from .planar import (Branch, PlanarCurve, Ramp2D, alpha, alpha_rotated,
                     alpha_rotated_second_derivative, alpha_rotated_tangent,
                     alpha_second_derivative, alpha_tangent, apex_param,
                     asymptote_gap, default_span, lower_ramp, make_ramp,
                     normal_force_2d, rotate_clockwise, sample_ramp,
                     tangent_angle_orbit_position, upper_ramp)
from .ramp3d import (RampSurface3D, SpaceCurve3D, TangentField, build_surface,
                     builtin_field, cumulative_simpson, e3_tangential, field_x,
                     hemisphere_point, integrate_ramp3d, lambda_3d, scale_ramp)
from .sim import MotionTrace, simulate
from .verify import (Feasibility, FeasibilityReport, ForceBalanceReport,
                     Motion, ScalingVerification, Verdict,
                     normal_sign_diagnostic, planar_reduction_check, verify_2d,
                     verify_3d, verify_scaling)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ContractViolationError",
    "DELTA_MAX",
    "DEFAULT_STEP_FACTOR",
    "Feasibility",
    "FeasibilityReport",
    "ForceBalanceReport",
    "FrictionSpec",
    "IntegrationError",
    "IntegratorConfig",
    "Motion",
    "MotionTrace",
    "ParameterError",
    "PlanarCurve",
    "Ramp2D",
    "RampError",
    "RampSurface3D",
    "ScalingVerification",
    "SingularFieldError",
    "SpaceCurve3D",
    "TangentField",
    "ThetaTrace",
    "Verdict",
    "alpha",
    "alpha_rotated",
    "alpha_rotated_second_derivative",
    "alpha_rotated_tangent",
    "alpha_second_derivative",
    "alpha_tangent",
    "apex_param",
    "asymptote_gap",
    "build_surface",
    "builtin_field",
    "cumulative_simpson",
    "default_config",
    "default_span",
    "dump_spec",
    "e3_tangential",
    "field_x",
    "hemisphere_point",
    "integrate_adaptive",
    "integrate_fixed",
    "integrate_ramp3d",
    "integrate_theta",
    "lambda_3d",
    "lambda_from_theta",
    "load_spec",
    "lower_ramp",
    "make_ramp",
    "make_spec",
    "normal_force_2d",
    "normal_sign_diagnostic",
    "planar_reduction_check",
    "rotate_clockwise",
    "sample_ramp",
    "scale_ramp",
    "simulate",
    "spec_from_dict",
    "spec_from_mu",
    "spec_to_dict",
    "tangent_angle_orbit_position",
    "theta_closed_form",
    "theta_closed_form_derivative",
    "theta_ode_rhs",
    "upper_ramp",
    "verify_2d",
    "verify_3d",
    "verify_scaling",
]
