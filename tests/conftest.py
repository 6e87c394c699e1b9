"""Shared fixtures: published reference link parameters, packaged dataset paths,
and grid builders that realize requested (ignition, miss) probabilities."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

import firesat
from firesat.fire_model import FireModelParams
from firesat.geo import GeoPoint, SatelliteConfig
from firesat.grid import COLUMNS, RegionGrid
from firesat.link_budget import DeviceConfig

DATA_DIR = Path(firesat.__file__).parent / "data"

# Soil constants used by synthetic test grids (arbitrary valid values).
TEST_PARAMS = FireModelParams(theta_wilt=0.1, theta_field=0.4)


@pytest.fixture(scope="session")
def params() -> FireModelParams:
    return TEST_PARAMS


@pytest.fixture(scope="session")
def satellite() -> SatelliteConfig:
    return SatelliteConfig(
        sub_satellite_lon=-125.0,
        beam_center=GeoPoint(37.0, -122.0),
        beam_radius_km=1000.0,
        g_s_max_dbi=25.0,
    )


@pytest.fixture(scope="session")
def device() -> DeviceConfig:
    return DeviceConfig(
        tx_power_dbm=23.0,
        g_t_max_dbi=7.38,
        off_boresight_deg=50.0,
        carrier_hz=2e9,
        noise_power_dbm=-167.42,
        other_losses_db=-10.0,
    )


def region_for(
    idx: int,
    p_ign: float,
    miss_q: float,
    t_hours: float = 4.0,
    cell_area: float = 100.0,
    params: FireModelParams = TEST_PARAMS,
) -> dict[str, float]:
    """Column values of a region whose ignition probability is p_ign and
    whose single-sensor miss probability at t_hours is miss_q.

    Uses biomass for the ignition factor (moisture at the wilting point and
    full human ignition keep the other factors at 1) and inverts the circular
    growth law for the spread rate.
    """
    assert 0.0 <= p_ign <= 1.0 and 0.0 <= miss_q <= 1.0
    biomass = params.b_low + p_ign * (params.b_up - params.b_low)
    if p_ign == 0.0:
        biomass = 0.0
    # miss_q == 0 must survive the float round trip through the growth law,
    # so overshoot the burned area instead of landing on the boundary.
    burned = cell_area * (1.0 - miss_q) if miss_q > 0.0 else 2.0 * cell_area
    spread = math.sqrt(burned / math.pi) / t_hours
    return dict(
        lat=36.0 + 0.09 * (idx // 100),
        lon=-120.0 + 0.11 * (idx % 100),
        biomass=biomass,
        soil_moisture=params.theta_wilt,
        lightning=0.0,
        p_human=1.0,
        spread_rate=spread,
    )


def grid_of(regions, cell_area: float) -> RegionGrid:
    """RegionGrid whose region i has the column values of regions[i]."""
    return RegionGrid(**{name: [r[name] for r in regions] for name in COLUMNS}, cell_area_km2=cell_area)


def grid_from(p_list, q_list, t_hours: float = 4.0, cell_area: float = 100.0) -> RegionGrid:
    regions = [
        region_for(i, p, q, t_hours, cell_area) for i, (p, q) in enumerate(zip(p_list, q_list))
    ]
    return grid_of(regions, cell_area)
