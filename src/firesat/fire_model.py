"""Fire ignition probability chain, detection probability, and circular growth.

Per-region ignition probability is the product of a biomass factor, a soil
moisture factor, and a lightning/human factor. Detection probability follows
from the chance that at least one of n uniformly placed sensors falls inside
a circular burned area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .grid import RegionGrid


def _clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


@dataclass(frozen=True)
class FireModelParams:
    """Thresholds of the ignition model.

    theta_wilt / theta_field carry no published defaults and must come from
    the input dataset.
    """

    theta_wilt: float
    theta_field: float
    b_low: float = 0.2
    b_up: float = 1.0
    beta_e: float = 0.35
    l_low: float = 0.02
    l_up: float = 0.85

    def __post_init__(self):
        if not self.b_low < self.b_up:
            raise ValidationError("require b_low < b_up")
        if not self.theta_wilt < self.theta_field:
            raise ValidationError("require theta_wilt < theta_field")
        if not self.l_low < self.l_up:
            raise ValidationError("require l_low < l_up")
        if not self.beta_e > 0:
            raise ValidationError("require beta_e > 0")


def p_biomass(b: float, params: FireModelParams) -> float:
    """Biomass factor: linear ramp between the lower and upper thresholds."""
    return _clamp01((b - params.b_low) / (params.b_up - params.b_low))


def p_moisture(theta: float, params: FireModelParams) -> float:
    """Soil moisture factor: collapses as root-zone wetness approaches field capacity."""
    beta_root = _clamp01((theta - params.theta_wilt) / (params.theta_field - params.theta_wilt))
    return 1.0 - math.tanh(1.75 * beta_root / params.beta_e) ** 2


def p_lightning_human(l: float, p_human: float, params: FireModelParams) -> float:
    """Lightning/human factor; reduces to p_human when there is no lightning."""
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
    """Product of the biomass, moisture, and lightning/human factors of one region."""
    return (
        p_biomass(biomass, params)
        * p_moisture(soil_moisture, params)
        * p_lightning_human(lightning, p_human, params)
    )


def ignition_probabilities(grid: RegionGrid, params: FireModelParams) -> list[float]:
    """p_ignition of every region, in region order."""
    return [
        p_ignition(b, theta, l, ph, params)
        for b, theta, l, ph in zip(
            grid.biomass.tolist(),
            grid.soil_moisture.tolist(),
            grid.lightning.tolist(),
            grid.p_human.tolist(),
        )
    ]


def burned_area_km2(spread_rate: float, t: float) -> float:
    """Area of a circular fire after t hours at the given spread rate."""
    if spread_rate < 0 or t < 0:
        raise ValidationError("spread_rate and t must be >= 0")
    return math.pi * (spread_rate * t) ** 2


def p_detection(n_sensors: int, area_km2: float, burned: float) -> float:
    """Probability that at least one of n uniform sensors lies in the burned area.

    With zero sensors the detection probability is zero (x**0 == 1,
    including 0**0 == 1).
    """
    if n_sensors < 0:
        raise ValidationError("n_sensors must be >= 0")
    if area_km2 <= 0:
        raise ValidationError("area_km2 must be > 0")
    if burned < 0:
        raise ValidationError("burned must be >= 0")
    miss = max(0.0, area_km2 - burned) / area_km2
    return 1.0 - miss**n_sensors


def system_utility(
    grid: RegionGrid,
    counts: Sequence[int],
    t: float,
    params: FireModelParams,
) -> float:
    """Ignition-weighted sum of detection probabilities at time t.

    counts may be a Placement's counts or any equal-length integer sequence.
    Each term is p_ignition * p_detection(n), accumulated in region order.
    """
    if len(counts) != len(grid):
        raise ValidationError(
            f"placement length {len(counts)} != grid size {len(grid)}"
        )
    p, q = ignition_and_miss(grid, t, params)
    total = 0.0
    for p_i, q_i, n in zip(p, q, counts):
        if n < 0:
            raise ValidationError("n_sensors must be >= 0")
        total += p_i * (1.0 - q_i**n)
    return total


def ignition_and_miss(
    grid: RegionGrid, t: float, params: FireModelParams
) -> tuple[list[float], list[float]]:
    """Per-region (ignition probability, single-sensor miss probability) at time t.

    The miss probability q satisfies p_detection(n) == 1 - q**n; it drives the
    placement optimizers.
    """
    area = grid.cell_area_km2
    q = [
        max(0.0, area - burned_area_km2(u, t)) / area
        for u in grid.spread_rate.tolist()
    ]
    return ignition_probabilities(grid, params), q
