"""Deterministic synthetic California-like sample dataset.

The shipped regions.csv / fires.csv are NOT real data. They are generated
here, from a fixed seed, to resemble the shape of the problem: a 110 x 100
grid of 10 km cells covering a 1100 x 1000 km area, a coarse state-border
polygon outside of which biomass is zero, smooth environmental fields built
from seeded Gaussian bumps, and 255 ignition points sampled over vegetated
cells with weights tied to the ignition-probability surface under the
sample config's `fire.*` parameters. Its soil constants (`fire.theta_wilt`,
`fire.theta_field`) are synthetic choices: the model has no published values.

Regenerate with `python -m firesat.sample_data OUTDIR`; byte-identical
output is part of the test suite.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .config import default_config_path, load_config
from .fire_model import FireModelParams, ignition_probabilities
from .geo import GeoPoint
from .grid import KM_PER_DEG_LAT, FireEvent, RegionGrid
from .ingest import write_fires_catalog_csv, write_regions_csv

DEFAULT_SEED = 20200815
N_ROWS = 110
N_COLS = 100
CELL_KM = 10.0
LAT0 = 32.4  # southern grid edge
LON0 = -124.75  # western grid edge
N_FIRES = 255

# Coarse California-like border in grid km, (x east, y north), y=0 at LAT0.
BORDER_XY = [
    (20.0, 1095.0),
    (420.0, 1095.0),
    (420.0, 734.0),
    (940.0, 211.0),
    (905.0, 33.0),
    (676.0, 17.0),
    (631.0, 111.0),
    (552.0, 178.0),
    (378.0, 228.0),
    (331.0, 334.0),
    (252.0, 434.0),
    (199.0, 600.0),
    (84.0, 734.0),
    (31.0, 890.0),
]


def _inside_border(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ray-casting point-in-polygon test, vectorized over points."""
    inside = np.zeros(x.shape, dtype=bool)
    n = len(BORDER_XY)
    for i in range(n):
        x1, y1 = BORDER_XY[i]
        x2, y2 = BORDER_XY[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_at)
    return inside


def _bump_field(
    rng: np.random.Generator,
    x: np.ndarray,
    y: np.ndarray,
    n_bumps: int,
    amp: float,
    sigma_range: tuple[float, float],
) -> np.ndarray:
    """Smooth random field as a sum of Gaussian bumps over the grid box."""
    field = np.zeros(x.shape)
    cx = rng.uniform(0.0, N_COLS * CELL_KM, n_bumps)
    cy = rng.uniform(0.0, N_ROWS * CELL_KM, n_bumps)
    sig = rng.uniform(*sigma_range, n_bumps)
    amps = rng.uniform(0.2, 1.0, n_bumps) * amp
    for k in range(n_bumps):
        d2 = (x - cx[k]) ** 2 + (y - cy[k]) ** 2
        field += amps[k] * np.exp(-d2 / (2.0 * sig[k] ** 2))
    return field


def build_sample_grid(seed: int = DEFAULT_SEED) -> RegionGrid:
    rng = np.random.default_rng(seed)
    cols, rows = np.meshgrid(np.arange(N_COLS), np.arange(N_ROWS))
    rows = rows.ravel()
    cols = cols.ravel()
    x = (cols + 0.5) * CELL_KM
    y = (rows + 0.5) * CELL_KM

    # Geographic centers; the reference latitude of the planar frame is the
    # midpoint of the cell-center latitudes, matching GridFrame.
    lat = LAT0 + y / KM_PER_DEG_LAT
    ref_lat = 0.5 * (lat.min() + lat.max())
    km_per_deg_lon = KM_PER_DEG_LAT * math.cos(math.radians(ref_lat))
    lon = LON0 + x / km_per_deg_lon

    land = _inside_border(x, y)
    northness = y / (N_ROWS * CELL_KM)

    # Fire-prone pockets: a sharpened smooth field concentrating high
    # ignition probability (dry, lightning-heavy, slow-burning brush) in a
    # few hundred cells, over a wetter fast-curing grass background.
    hot = _bump_field(rng, x, y, 35, 1.0, (25.0, 70.0))
    hot = (hot / hot.max()) ** 3.0

    biomass = (
        0.50
        + 0.75 * northness
        + _bump_field(rng, x, y, 40, 1.2, (50.0, 150.0))
        - _bump_field(rng, x, y, 10, 1.0, (80.0, 160.0))
    )
    # Southeastern desert: suppress vegetation toward the SE corner.
    desert = np.exp(-(((x - 860.0) ** 2) / (2 * 180.0**2) + ((y - 170.0) ** 2) / (2 * 160.0**2)))
    biomass -= 1.6 * desert
    biomass = np.where(land, np.clip(biomass, 0.0, 2.6), 0.0)
    biomass[biomass < 0.14] = 0.0

    moisture = (
        0.33
        - 0.26 * hot
        + 0.07 * northness
        + _bump_field(rng, x, y, 30, 0.10, (60.0, 140.0))
        - _bump_field(rng, x, y, 15, 0.07, (50.0, 120.0))
    )
    moisture = np.clip(moisture, 0.055, 0.48)

    lightning = (
        0.02
        + 1.15 * hot
        + _bump_field(rng, x, y, 20, 0.22, (40.0, 100.0))
    )
    lightning = np.clip(lightning, 0.0, 1.5)

    spread = (
        1.02
        - 0.70 * hot
        + _bump_field(rng, x, y, 25, 0.18, (40.0, 120.0))
    )
    spread = np.clip(spread, 0.30, 1.32)

    def rounded(values: np.ndarray) -> list[float]:
        return [round(float(v), 6) for v in values]

    return RegionGrid(
        lat=rounded(lat),
        lon=rounded(lon),
        biomass=rounded(biomass),
        soil_moisture=rounded(moisture),
        lightning=rounded(lightning),
        p_human=np.full(N_ROWS * N_COLS, 0.5),
        spread_rate=rounded(spread),
        cell_area_km2=CELL_KM * CELL_KM,
    )


def build_sample_fires(
    grid: RegionGrid, params: FireModelParams, seed: int = DEFAULT_SEED
) -> list[FireEvent]:
    """255 ignitions over vegetated cells, weighted by ignition probability."""
    rng = np.random.default_rng([seed, 7])
    p_ign = np.array(ignition_probabilities(grid, params))
    vegetated = grid.biomass > 0.0
    weights = np.where(vegetated, p_ign + 0.002 * p_ign.max(), 0.0)
    weights /= weights.sum()
    cells = rng.choice(len(grid), size=N_FIRES, p=weights)

    # Keep ignition points off cell edges so CSV rounding cannot move a fire
    # across a cell boundary.
    offsets = rng.uniform(0.08, 0.92, size=(N_FIRES, 2))

    areas = rng.lognormal(mean=2.2, sigma=1.6, size=N_FIRES)
    areas = np.clip(areas * (10200.0 / areas.sum()), 0.02, 2600.0)

    lats = grid.lat.tolist()
    lons = grid.lon.tolist()
    km_per_deg_lon = grid.frame.km_per_deg_lon

    events = []
    for k in range(N_FIRES):
        cell = int(cells[k])
        dx = float(offsets[k, 0] - 0.5) * CELL_KM
        dy = float(offsets[k, 1] - 0.5) * CELL_KM
        point = GeoPoint(
            round(lats[cell] + dy / KM_PER_DEG_LAT, 6),
            round(lons[cell] + dx / km_per_deg_lon, 6),
        )
        events.append(FireEvent(k, point, cell, round(float(areas[k]), 6)))
    return events


def generate_sample_dataset(
    out_dir, params: FireModelParams, seed: int = DEFAULT_SEED
) -> dict[str, Path]:
    """Write regions.csv and fires.csv into out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = build_sample_grid(seed)
    fires = build_sample_fires(grid, params, seed)
    regions_path = out / "regions.csv"
    fires_path = out / "fires.csv"
    write_regions_csv(grid, regions_path)
    write_fires_catalog_csv(fires, fires_path)
    return {"regions": regions_path, "fires": fires_path}


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "."
    paths = generate_sample_dataset(target, load_config(default_config_path()).fire_params())
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
