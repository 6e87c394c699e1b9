"""Shared fixtures: the shipped sample config and the model configs built
from it, packaged dataset paths, and grid builders that realize requested
(ignition, miss) probabilities."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import pytest

import firesat
from firesat.campaign import EconomicsParams
from firesat.cli import default_config_path
from firesat.config import RunConfig, load_config
from firesat.fire_model import FireModelParams
from firesat.geo import SatelliteConfig
from firesat.grid import COLUMNS, RegionGrid
from firesat.link_budget import DeviceConfig

DATA_DIR = Path(firesat.__file__).parent / "data"

# The shipped sample config: the one source of every model value the tests use.
CFG = load_config(default_config_path())

# The sample config's fire model with the soil constants of the synthetic
# test grids (arbitrary valid values).
TEST_PARAMS = replace(CFG.fire_params(), theta_wilt=0.1, theta_field=0.4)

# The config's carbon price and device cost (case A), with no bandwidth cost.
ECON = EconomicsParams(CFG.carbon_price_usd_per_ton, CFG.device_cost_case_a_usd, 0.0)


@pytest.fixture(scope="session")
def cfg() -> RunConfig:
    return CFG


@pytest.fixture(scope="session")
def params() -> FireModelParams:
    return TEST_PARAMS


@pytest.fixture(scope="session")
def satellite() -> SatelliteConfig:
    return CFG.satellite()


@pytest.fixture(scope="session")
def device() -> DeviceConfig:
    return CFG.device()


def sample_config_text() -> str:
    """The sample config, reading the packaged MCS table and the regions.csv
    and fires.csv beside the file it is written to."""
    text = (DATA_DIR / "sample_config.cfg").read_text()
    return text.replace("= mcs_table.csv", f"= {DATA_DIR / 'mcs_table.csv'}")


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
