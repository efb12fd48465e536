"""Friction/speed parameter bundle shared by every geometric construction.

The whole family of constant-speed shapes is controlled by a single friction
angle ``delta`` (kinetic friction coefficient ``mu = tan(delta)``), the block
speed ``v``, gravity ``g`` and the block mass ``m``.  Everything else derives
from the inverse length scale ``a = g / (v**2 * sin(delta))``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .errors import ParameterError

DELTA_MAX = math.pi / 4  # keeps mu = tan(delta) below 1


@dataclass(frozen=True)
class FrictionSpec:
    """Validated parameter set.

    Attributes
    ----------
    delta : float
        Friction angle in radians, ``0 < delta < pi/4``.
    mu : float
        Kinetic friction coefficient, ``mu = tan(delta)``.
    g : float
        Gravitational acceleration, m/s^2.
    v : float
        Constant block speed, m/s.
    m : float
        Block mass, kg.
    a : float
        Derived inverse length scale ``g / (v**2 sin(delta))``, 1/m.
    """

    delta: float
    mu: float
    g: float
    v: float
    m: float
    a: float


def _require_positive(name: str, value: float) -> float:
    """``value`` as a float, if it is positive and finite; else
    :class:`ParameterError`.  The package's one check of a magnitude."""
    value = float(value)
    if not 0.0 < value < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"{name} must be positive and finite, got {value!r}",
                             code="magnitude")
    return value


def _bounded(count: float, message: str) -> float:
    """``count``, if numpy can index in bytes a float64 array of ``count + 1``
    values, rounded either way; else :class:`ParameterError` with ``message``."""
    if not count < sys.maxsize // 8 - 1:
        raise ParameterError(message)
    return count


def _require_samples(n_samples: int) -> int:
    """``n_samples``, if it is at least 2 and numpy can index in bytes a float64
    array of that many values; else :class:`ParameterError`."""
    if n_samples < 2:
        raise ParameterError(f"need at least 2 samples, got {n_samples}")
    _bounded(n_samples - 1, f"too many samples, got {n_samples}")
    return n_samples


def _length_scale(a: float) -> float:
    """``a``, if both ``a`` and ``1/a`` are positive and finite; else
    :class:`ParameterError`."""
    if not (0.0 < a < math.inf and 1.0 / a < math.inf):
        raise ParameterError(f"length scale a = g / (v**2 sin(delta)) must be finite and "
                             f"positive, with a finite 1/a, got {a!r}", code="magnitude")
    return a


def _require_friction_angle(delta: float, name: str, given: float) -> float:
    """``delta``, if it obeys the one friction-angle rule; else :class:`ParameterError`
    naming ``name = given``.  Checked before any ``tan`` or ``sin`` of ``delta``."""
    if not 0.0 < delta < DELTA_MAX:  # NaN fails both comparisons, inf the second
        raise ParameterError("friction angle must lie strictly between 0 and 45 degrees "
                             f"(pi/4), got {name} = {given!r}", code="angle_range")
    return delta


def _spec(delta: float, mu: float, sin_delta: float, g: float, v: float,
          m: float) -> FrictionSpec:
    g, v, m = map(_require_positive, "gvm", (g, v, m))
    scale = v * v * sin_delta
    a = g / scale if scale > 0.0 else math.inf  # v * v * sin_delta can underflow to 0
    return FrictionSpec(delta=delta, mu=mu, g=g, v=v, m=m, a=_length_scale(a))


def make_spec(delta: float, g: float = 9.81, v: float = 1.0, m: float = 1.0) -> FrictionSpec:
    """Build a spec from the friction angle; derived fields are computed here.

    Raises
    ------
    ParameterError
        code ``"angle_range"`` if ``delta`` is outside ``(0, pi/4)``,
        code ``"magnitude"`` if ``g``, ``v`` or ``m`` is not a positive
        finite number, or if ``a`` or ``1/a`` is not.
    """
    delta = float(delta)
    _require_friction_angle(delta, "delta", delta)
    return _spec(delta, math.tan(delta), math.sin(delta), g, v, m)


def spec_from_mu(mu: float, g: float = 9.81, v: float = 1.0, m: float = 1.0) -> FrictionSpec:
    """Build a spec from the friction coefficient, ``mu = tan(delta)``.

    The given ``mu`` is kept verbatim; ``a`` uses the algebraically equal
    ``sin(delta) = mu / sqrt(1 + mu**2)`` so it round-trips without the ulp
    drift of ``tan(atan(mu))``.  Raises as :func:`make_spec` does on ``atan(mu)``.
    """
    mu = float(mu)
    delta = _require_friction_angle(math.atan(mu), "mu", mu)
    return _spec(delta, mu, mu / math.hypot(1.0, mu), g, v, m)


def spec_to_dict(spec: FrictionSpec) -> dict:
    """Flat JSON-ready mapping, derived fields included for readability."""
    return asdict(spec)

