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

import numpy as np

from .errors import NumericError, ValidationError
from .grid import RegionGrid


def _clamp01(x: np.ndarray) -> np.ndarray:
    """max(0.0, min(1.0, x)) elementwise as Python evaluates it: -0.0 gives
    0.0 and NaN gives 1.0, where np.clip would keep both."""
    x = np.where(x < 1.0, x, 1.0)
    return np.where(x > 0.0, x, 0.0)


def _ramp(x: np.ndarray, low: float, up: float) -> np.ndarray:
    """(x - low) / (up - low) clamped to [0, 1]. A tiny span overflows the
    ratio to inf, as Python floats do, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _clamp01((x - low) / (up - low))


@dataclass(frozen=True)
class FireModelParams:
    """Thresholds of the ignition model, from the config's `fire.*` keys. The input
    dataset supplies theta_wilt / theta_field, which have no published values."""

    theta_wilt: float
    theta_field: float
    b_low: float
    b_up: float
    beta_e: float
    l_low: float
    l_up: float

    def __post_init__(self):
        if not self.b_low < self.b_up:
            raise ValidationError("require b_low < b_up")
        if not self.theta_wilt < self.theta_field:
            raise ValidationError("require theta_wilt < theta_field")
        if not self.l_low < self.l_up:
            raise ValidationError("require l_low < l_up")
        if not self.beta_e > 0:
            raise ValidationError("require beta_e > 0")


def biomass_factor(b: np.ndarray, params: FireModelParams) -> np.ndarray:
    """Biomass factor: linear ramp between the lower and upper thresholds."""
    return _ramp(b, params.b_low, params.b_up)


def moisture_factor(theta: np.ndarray, params: FireModelParams) -> np.ndarray:
    """Soil moisture factor: collapses as root-zone wetness approaches field capacity."""
    beta_root = _ramp(theta, params.theta_wilt, params.theta_field)
    with np.errstate(over="ignore"):  # a tiny beta_e: tanh(inf) is 1.0
        x = 1.75 * beta_root / params.beta_e
    # math.tanh and Python's ** differ from numpy's in the last bit.
    tanh_sq = [math.tanh(v) ** 2 for v in x.tolist()]
    return 1.0 - np.array(tanh_sq, dtype=np.float64)


def lightning_human_factor(
    l: np.ndarray, p_human: np.ndarray, params: FireModelParams
) -> np.ndarray:
    """Lightning/human factor; reduces to p_human where there is no lightning."""
    if not np.all((0.0 <= p_human) & (p_human <= 1.0)):
        raise ValidationError("p_human outside [0, 1]")
    beta_l = _ramp(l, params.l_low, params.l_up)
    # math.exp differs from numpy's in the last bit.
    e = np.array([math.exp(x) for x in (1.5 - 6.0 * beta_l).tolist()], dtype=np.float64)
    ignition = beta_l / (beta_l + e)
    return np.where(beta_l == 0.0, p_human, ignition + (1.0 - ignition) * p_human)


def ignition_columns(
    biomass: np.ndarray,
    soil_moisture: np.ndarray,
    lightning: np.ndarray,
    p_human: np.ndarray,
    params: FireModelParams,
) -> np.ndarray:
    """Product of the biomass, moisture, and lightning/human factors, elementwise."""
    return (
        biomass_factor(biomass, params)
        * moisture_factor(soil_moisture, params)
        * lightning_human_factor(lightning, p_human, params)
    )


def ignition_probabilities(grid: RegionGrid, params: FireModelParams) -> np.ndarray:
    """`ignition_columns` of every region's columns, in region order."""
    return ignition_columns(grid.biomass, grid.soil_moisture, grid.lightning, grid.p_human, params)


def _require_growth(spread_rate: float, t: float) -> None:
    if not (spread_rate >= 0 and t >= 0):  # NaN fails too
        raise ValidationError("spread_rate and t must be >= 0")


def burned_area_km2(spread_rate: float, t: float) -> float:
    """Area of a circular fire after t hours at the given spread rate."""
    _require_growth(spread_rate, t)
    try:
        area = math.pi * (spread_rate * t) ** 2
    except OverflowError:
        area = math.inf
    # An infinite rate or deadline times a zero one gives NaN, not an area.
    if not math.isfinite(area):
        raise NumericError(f"burned area overflows at spread rate {spread_rate} km/h over {t} h")
    return area


def system_utility(
    grid: RegionGrid,
    counts: Sequence[int],
    t: float,
    params: FireModelParams,
) -> float:
    """Ignition-weighted sum of detection probabilities at time t.

    counts may be a Placement's counts or any equal-length integer sequence.
    Each region adds p * (1 - q**n), in region order: its ignition probability
    times the chance that at least one of its n uniform sensors lies in the
    burned area. With n == 0 that chance is 0, even where q == 0 (0**0 == 1).
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
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-region (ignition probability, single-sensor miss probability) at time t.

    q = max(0, A - burned) / A is the chance that a uniform sensor in a cell
    of area A misses the burned area, so n sensors all miss with q**n; it
    drives the placement optimizers. The returned tuples are computed once per
    (t, params) and kept in grid.memo: the grid's columns are read-only and
    params is frozen, so a later call returns the same floats.
    """
    key = ("ignition_and_miss", type(t), t, params)
    pq = grid.memo.get(key)
    if pq is None:
        _require_growth(0.0, t)  # RegionGrid checks every spread rate
        rates = grid.spread_rate.tolist()
        # burned_area_km2 of each region, inf where that is not finite. From
        # u * t = 1e154 up, pi * (u * t)**2 exceeds the float range (or ** raises
        # first), and a NaN u * t fails the test too.
        burned = np.array([math.pi * (u * t) ** 2 if u * t < 1e154 else math.inf for u in rates])
        overflow = np.flatnonzero(burned == math.inf)
        if len(overflow):
            burned_area_km2(rates[overflow[0]], t)  # raises that region's NumericError
        area = grid.cell_area_km2
        q = np.maximum(area - burned, 0.0) / area
        pq = grid.memo[key] = (tuple(ignition_probabilities(grid, params).tolist()), tuple(q.tolist()))
    return pq
