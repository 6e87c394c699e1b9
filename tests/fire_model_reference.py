"""Scalar reference for the ignition model.

These are the bodies `firesat.fire_model` evaluated one region at a time
before the model moved to columns: `max`/`min` clamps, `math.tanh`,
`math.exp` and Python's `**` on floats. Tests check the column form against
them bit for bit; nothing at runtime imports this module.
"""

from __future__ import annotations

import math

from firesat.errors import ValidationError
from firesat.fire_model import FireModelParams


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def p_biomass(b: float, params: FireModelParams) -> float:
    return _clamp01((b - params.b_low) / (params.b_up - params.b_low))


def p_moisture(theta: float, params: FireModelParams) -> float:
    beta_root = _clamp01((theta - params.theta_wilt) / (params.theta_field - params.theta_wilt))
    return 1.0 - math.tanh(1.75 * beta_root / params.beta_e) ** 2


def p_lightning_human(l: float, p_human: float, params: FireModelParams) -> float:
    if not 0.0 <= p_human <= 1.0:
        raise ValidationError("p_human outside [0, 1]")
    beta_l = _clamp01((l - params.l_low) / (params.l_up - params.l_low))
    if beta_l == 0.0:
        return p_human
    ignition = beta_l / (beta_l + math.exp(1.5 - 6.0 * beta_l))
    return ignition + (1.0 - ignition) * p_human


def p_ignition(
    biomass: float, soil_moisture: float, lightning: float, p_human: float, params: FireModelParams
) -> float:
    return (
        p_biomass(biomass, params)
        * p_moisture(soil_moisture, params)
        * p_lightning_human(lightning, p_human, params)
    )
