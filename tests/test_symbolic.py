"""The paper's planar claim as symbolic identities, for every s, a, delta, v, m.

The base curve of ``planar``,

    P(s) = R(delta) (s + ln(1 + exp(-2 a s)) / a,  (2 / a) arccot(exp(-a s))),

rotated clockwise by the friction angle, with ``g = a v^2 sin(delta)`` and
``mu = tan(delta)``: it has unit speed, and a block sliding along it either
way (``sigma = +-1``) at speed ``v`` obeys Newton's law exactly, with the
normal force ``lambda = -m g T_y / mu``.  Each identity must simplify to
exactly 0.  Zero-equivalence of elementary functions is undecidable in
general (Richardson 1968), so a result sympy does not simplify fails the
test: it is never skipped and never read as a pass.  The negative controls
show that each identity is evidence: a wrong friction coefficient, a flipped
normal or a curve missing its log term each leaves a residual at a stated
point.
"""

import math

import numpy as np
import pytest
import sympy as sp

from rampforge.params import FrictionSpec
from rampforge.planar import (alpha_rotated, alpha_rotated_second_derivative,
                              alpha_rotated_tangent)

s, a, delta, v, m = sp.symbols("s a delta v m", positive=True)
G = a * v**2 * sp.sin(delta)
MU = sp.tan(delta)
# clockwise rotation by the friction angle
ROTATION = sp.Matrix([[sp.cos(delta), sp.sin(delta)], [-sp.sin(delta), sp.cos(delta)]])


def _curve(log_term: bool = True) -> sp.Matrix:
    x = s + (sp.log(1 + sp.exp(-2 * a * s)) / a if log_term else 0)
    return ROTATION * sp.Matrix([x, 2 / a * sp.acot(sp.exp(-a * s))])


P = _curve()
T = P.diff(s)
A = T.diff(s)

# the controls' point (s, a, delta, v, m), in exact rationals
POINT = {s: sp.Rational(7, 10), a: sp.Rational(13, 10), delta: sp.Rational(2, 5),
         v: 2, m: sp.Rational(3, 2)}


def _residual(sigma: int, mu=MU, flip: int = 1) -> sp.Matrix:
    """``m v^2 A - lambda N - m (0, -g) + mu lambda Tb``, the inertia less the
    forces, for a block moving along ``Tb = sigma T`` with the normal ``N``
    a quarter turn counterclockwise from ``Tb`` (``flip = -1`` turns it the
    other way)."""
    tb = sigma * T
    normal = flip * sp.Matrix([-tb[1], tb[0]])
    lam = -m * G * tb[1] / mu
    return m * v**2 * A - lam * normal - m * sp.Matrix([0, -G]) + mu * lam * tb


def _at_point(expr) -> float:
    return float(sp.N(expr.subs(POINT), 30))


def test_base_curve_has_unit_speed():
    assert sp.simplify((T.dot(T) - 1).rewrite(sp.exp)) == 0


@pytest.mark.parametrize("sigma", [1, -1], ids=["upper", "lower"])
def test_both_branches_balance_exactly(sigma):
    assert [sp.simplify(c.rewrite(sp.exp)) for c in _residual(sigma)] == [0, 0]


def test_tangent_angle_orbit_solves_the_flow():
    # every C: C != 0 shifts or mirrors the base curve, whose C is tan(delta/2)
    c = sp.Symbol("C", real=True)
    theta = 2 * sp.atan(c * sp.exp(-a * s)) - delta
    assert sp.simplify(theta.diff(s) + a * sp.sin(theta + delta)) == 0


def test_apex_has_a_horizontal_tangent():
    # T_y at s0 = asinh(1/mu)/a does not simplify as written: checked at 50
    # digits instead, where it is 0 to the last digit
    apex = T[1].subs(s, sp.asinh(1 / MU) / a)
    assert abs(sp.N(apex.subs(POINT), 50)) < sp.Float(10) ** -45
    assert abs(_at_point(T[1])) > 0.1  # away from the apex it is not


@pytest.mark.parametrize("sigma", [1, -1], ids=["upper", "lower"])
def test_a_wrong_friction_coefficient_leaves_a_residual(sigma):
    residual = _residual(sigma, mu=sp.Rational(11, 10) * MU)
    assert [_at_point(c) for c in residual] == pytest.approx([0.0834, -0.218], abs=5e-4)


@pytest.mark.parametrize("sigma", [1, -1], ids=["upper", "lower"])
def test_a_flipped_normal_leaves_a_residual(sigma):
    residual = _residual(sigma, flip=-1)
    assert [_at_point(c) for c in residual] == pytest.approx([1.834, -4.795], abs=5e-4)


def test_a_curve_without_its_log_term_loses_unit_speed():
    tangent = _curve(log_term=False).diff(s)
    assert _at_point(tangent.dot(tangent) - 1) == pytest.approx(0.480, abs=5e-4)


def test_planar_evaluates_this_curve():
    # the formulas proved above are the ones planar computes in floats
    point = {k: float(value) for k, value in POINT.items()}
    spec = FrictionSpec(delta=point[delta], mu=math.tan(point[delta]), g=float(G.subs(POINT)),
                        v=point[v], m=point[m], a=point[a])
    for symbolic, evaluate in ((P, alpha_rotated), (T, alpha_rotated_tangent),
                               (A, alpha_rotated_second_derivative)):
        assert np.allclose(evaluate(spec, point[s]), [_at_point(c) for c in symbolic],
                           rtol=1e-14, atol=1e-15)
