"""Constant-speed ramps: curves and surfaces on which a block slides at
constant speed under gravity and kinetic friction.

The planar family is closed form (``planar``); the spherical-image flows on
the unit hemisphere are integrated numerically (``ramp3d``); ``verify`` checks
the force balance a posteriori and ``sim`` renders frame-by-frame force
decompositions.  All geometry is parameterized by a :class:`FrictionSpec`.
"""

import importlib

# each submodule, with the names the package gives from it.  Nothing is
# imported until first read: a command or script that uses only the planar
# layer never loads the hemisphere flow, the simulator or the verifiers.
_SUBMODULES = {
    "cli": (),
    "errors": ("ContractViolationError", "ParameterError", "RampError",
               "SingularFieldError"),
    "exporters": (),
    "ode": ("DEFAULT_STEP_FACTOR", "ThetaTrace", "integrate_fixed", "integrate_theta",
            "theta_closed_form", "theta_closed_form_derivative", "theta_ode_rhs"),
    "params": ("DELTA_MAX", "FrictionSpec", "make_spec", "spec_from_mu", "spec_to_dict"),
    "planar": ("Branch", "Ramp2D", "alpha", "alpha_rotated", "alpha_rotated_second_derivative",
               "alpha_rotated_tangent", "alpha_second_derivative", "alpha_tangent",
               "apex_param", "asymptote_gap", "default_span", "lower_ramp", "make_ramp",
               "normal_force_2d", "rotate_clockwise", "sample_ramp",
               "tangent_angle_orbit_position", "upper_ramp"),
    "ramp3d": ("RampSurface3D", "SpaceCurve3D", "TangentField", "build_surface",
               "builtin_field", "cumulative_simpson", "e3_tangential", "field_x",
               "hemisphere_point", "integrate_ramp3d", "lambda_3d", "scale_ramp"),
    "sim": ("MotionTrace", "simulate"),
    "verify": ("Feasibility", "FeasibilityReport", "ForceBalanceReport",
               "ScalingVerification", "Verdict", "normal_sign_diagnostic",
               "planar_reduction_check", "verify_2d", "verify_3d", "verify_scaling"),
}
# name -> the submodule that defines it
_SOURCE = {name: module for module, names in _SUBMODULES.items() for name in names}


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule sets it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_SOURCE})


__version__ = "0.1.0"

# The supported surface: the README's entry points and what the tests,
# scripts and benchmark import.  The other names in _SUBMODULES (result
# types that callers receive but never build, the error base class and the
# default step factor) stay importable from here without being listed.
__all__ = sorted(_SOURCE.keys() - {
    "DEFAULT_STEP_FACTOR", "FeasibilityReport", "ForceBalanceReport", "MotionTrace",
    "RampError", "RampSurface3D", "ScalingVerification", "ThetaTrace"})
