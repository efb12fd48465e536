"""Every check shown able to fail: the package's verdicts against corrupted inputs.

One table of cells: the check, the corruption of its input, the outcome the
check should give, and, where the package gets a cell wrong, the ROADMAP item
that fixes it.  Such a cell is a strict xfail, so the change that fixes the
check must flip it to a pass.  A cell whose check does not exist yet calls the
function its item names and fails with ``AttributeError`` until it lands.
All cells use mu = 0.5, v = 5, g = 9.81 and, unless a cell says otherwise,
m = 1.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from rampforge import (Verdict, build_surface, builtin_field, default_span,
                       exporters, integrate_ramp3d, spec_from_mu, upper_ramp,
                       verify, verify_2d, verify_3d)

SPEC = spec_from_mu(0.5, v=5.0)
Y0 = (0.8, 0.0, -0.6)


def _spec(mu_factor=1.0, m=1.0):
    return spec_from_mu(SPEC.mu * mu_factor, g=SPEC.g, v=SPEC.v, m=m)


@functools.cache
def _curve(kind="horizontal", step=None):
    # 5 / a of a built-in flow, at the default step or at ``step``
    return integrate_ramp3d(SPEC, builtin_field(kind), Y0, 5.0 / SPEC.a, step=step)


def _valid(report) -> bool:
    return report.verdict is Verdict.VALID


def _rotated_ruling(tmp_path) -> bool:
    # the sheet's ruling turned by 0.3 rad about the motion direction
    surface = build_surface(_curve(), resolution=(50, 4))
    tangents = surface.base.tangent(surface.s_grid)
    tangents /= np.linalg.norm(tangents, axis=-1, keepdims=True)
    ruling = (math.cos(0.3) * surface.ruling
              + math.sin(0.3) * np.cross(tangents, surface.ruling))
    vertices = (surface.base.position(surface.s_grid)[:, None, :]
                + surface.r_grid[None, :, None] * ruling[:, None, :])
    return _valid(verify.verify_surface(SPEC, replace(surface, ruling=ruling,
                                                      vertices=vertices)))


def _release_off_mu(tmp_path) -> bool:
    # the gain of a release error along the upper branch, read with mu off by
    # 10%, against the judged spec's closed form e^{2 mu delta}
    ramp, judged = upper_ramp(SPEC), _spec(1.1)
    s = np.linspace(0.0, default_span(SPEC), 400)
    normals = ramp.normal(s)
    curvature = np.einsum("ij,ij->i", ramp.second_derivative(s), normals)
    gain = verify._speed_gain(judged, normals, curvature, s[1] - s[0])
    return math.isclose(gain[-1], math.exp(2.0 * judged.mu * judged.delta), rel_tol=1e-3)


def _written_alpha_scaled(tmp_path) -> bool:
    # the curve file of a horizontal curve whose positions were scaled by 1.5
    path = tmp_path / "curve.csv"
    curve = _curve()
    exporters.write_curve3d_csv(path, replace(curve, alpha=1.5 * curve.alpha), SPEC)
    return _valid(verify.verify_file(SPEC, curve.field, path))


# (check, corruption, judge -> is the verdict Valid, should it be, item fixing a miss)
CELLS = [
    ("verify_2d", "mu off by 10%",
     lambda _: _valid(verify_2d(_spec(1.1), upper_ramp(SPEC))), False, None),
    ("verify_2d", "v off by 10%",
     lambda _: _valid(verify_2d(spec_from_mu(SPEC.mu, g=SPEC.g, v=1.1 * SPEC.v),
                                upper_ramp(SPEC))), False, None),
    ("verify_2d", "position of the ramp for mu x 1.1",
     lambda _: _valid(verify_2d(SPEC, replace(upper_ramp(SPEC),
                                              position=upper_ramp(_spec(1.1)).position))),
     False, 10),
    ("verify_2d", "position zeroed",
     lambda _: _valid(verify_2d(SPEC, replace(
         upper_ramp(SPEC), position=lambda s: np.zeros(np.shape(s) + (2,))))),
     False, 10),
    ("verify_2d", "mu off by 10% at m=1e-9",
     lambda _: _valid(verify_2d(_spec(1.1, m=1e-9), upper_ramp(SPEC))), False, 1),
    ("verify_2d", "exact ramp at m=1e8",
     lambda _: _valid(verify_2d(_spec(m=1e8), upper_ramp(SPEC))), True, 1),
    ("verify_3d", "horizontal, mu off by 10%",
     lambda _: _valid(verify_3d(_spec(1.1), _curve())), False, None),
    ("verify_3d", "upslope, mu off by 10%",
     lambda _: _valid(verify_3d(_spec(1.1), _curve("upslope"))), False, None),
    ("verify_3d", "upslope field swapped in",
     lambda _: _valid(verify_3d(SPEC, replace(_curve(),
                                              field=builtin_field("upslope")))),
     False, None),
    ("verify_3d", "step=1/a (6 samples)",
     lambda _: _valid(verify_3d(SPEC, _curve(step=1.0 / SPEC.a))), False, 1),
    ("verify_3d", "alpha x 1.5",
     lambda _: _valid(verify_3d(SPEC, replace(_curve(),
                                              alpha=1.5 * _curve().alpha))),
     False, 1),
    ("verify_3d", "horizontal, mu off by 10% at m=1e-9",
     lambda _: _valid(verify_3d(_spec(1.1, m=1e-9), _curve())), False, 1),
    ("surface", "ruling rotated about gamma", _rotated_ruling, False, 7),
    ("release", "upper branch, mu off by 10%", _release_off_mu, False, 14),
    ("written file", "alpha x 1.5, read back", _written_alpha_scaled, False, 21),
]

# the cells whose check is still to be written
NO_CHECK = {"surface", "release", "written file"}


def _param(check, corruption, judge, expect_valid, item):
    if item is None:
        marks = ()
    else:
        marks = pytest.mark.xfail(
            strict=True, raises=AttributeError if check in NO_CHECK else AssertionError,
            reason=f"ROADMAP item {item}")
    return pytest.param(judge, expect_valid, id=f"{check}: {corruption}", marks=marks)


@pytest.mark.parametrize("judge, expect_valid", [_param(*cell) for cell in CELLS])
def test_verdict_matrix(tmp_path, judge, expect_valid):
    assert judge(tmp_path) is expect_valid
