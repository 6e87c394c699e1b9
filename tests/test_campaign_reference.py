"""The cell-local campaign and the argmin cell lookup against their KD-tree
references, on random grids, placements and fire catalogs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import firesat
from firesat.campaign import EconomicsParams, run_campaign
from firesat.errors import ValidationError
from firesat.geo import GeoPoint
from firesat.grid import KM_PER_DEG_LAT, FireEvent, GridFrame
from firesat.placement import Placement

from conftest import grid_of

from campaign_reference import locate_kdtree, run_campaign_kdtree

BASE_LAT, BASE_LON = 36.0, -120.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))

PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids(draw):
    """Cells laid out square, jittered, or at irregular row/column spacing."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    area = draw(st.floats(1.0, 400.0))
    side = math.sqrt(area)
    layout = draw(st.sampled_from(["square", "jittered", "irregular"]))
    if layout == "irregular":
        gaps = st.floats(0.3, 2.0)
        ys = np.cumsum([0.0] + [draw(gaps) * side for _ in range(n_rows - 1)])
        xs = np.cumsum([0.0] + [draw(gaps) * side for _ in range(n_cols - 1)])
    else:
        ys = np.arange(n_rows) * side
        xs = np.arange(n_cols) * side
    jitter = st.floats(-0.45, 0.45) if layout == "jittered" else st.just(0.0)
    spread = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
    # Generic biomass values, so that summing them in another order shows.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    biomass = rng.uniform(0.0, 2.0, n_rows * n_cols) * (rng.random(n_rows * n_cols) > 0.1)
    regions = []
    for r in range(n_rows):
        for c in range(n_cols):
            x = xs[c] + draw(jitter) * side
            y = ys[r] + draw(jitter) * side
            regions.append(
                dict(
                    lat=BASE_LAT + y / KM_PER_DEG_LAT,
                    lon=BASE_LON + x / KM_PER_DEG_LON,
                    biomass=float(biomass[len(regions)]),
                    soil_moisture=0.2,
                    lightning=0.0,
                    p_human=0.5,
                    spread_rate=draw(spread),
                )
            )
    return grid_of(regions, area)


def frame_point(frame: GridFrame, x: float, y: float) -> GeoPoint:
    """GeoPoint whose projection in `frame` is (x, y) km."""
    lat = frame.ref_lat + y / KM_PER_DEG_LAT
    lon = frame.ref_lon + x / (KM_PER_DEG_LAT * math.cos(math.radians(frame.ref_lat)))
    return GeoPoint(lat, lon)


@st.composite
def points(draw, frame: GridFrame):
    """(x, y) inside a cell, on one of its edges or corners, anywhere around
    the grid, or outside it."""
    n = len(frame.centers_xy)
    half = frame.side_km / 2.0
    cx, cy = frame.centers_xy[draw(st.integers(0, n - 1))]
    lo = frame.centers_xy.min(axis=0) - half
    hi = frame.centers_xy.max(axis=0) + half
    kind = draw(st.sampled_from(["inside", "edge", "corner", "around", "outside"]))
    if kind == "around":
        return draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))
    if kind == "inside":
        dx, dy = draw(st.floats(-0.5, 0.5)) * frame.side_km, draw(st.floats(-0.5, 0.5)) * frame.side_km
    elif kind == "edge":
        dx, dy = draw(st.sampled_from([-half, half])), draw(st.floats(-half, half))
        if draw(st.booleans()):
            dx, dy = dy, dx
    elif kind == "corner":
        dx, dy = draw(st.sampled_from([-half, half])), draw(st.sampled_from([-half, half]))
    else:
        # One to three cell sides beyond the grid's bounding box.
        x, y = draw(st.floats(lo[0], hi[0])), draw(st.floats(lo[1], hi[1]))
        gap = draw(st.floats(1.0, 3.0)) * frame.side_km
        beyond = draw(st.sampled_from(["west", "east", "south", "north"]))
        x = {"west": lo[0] - gap, "east": hi[0] + gap}.get(beyond, x)
        y = {"south": lo[1] - gap, "north": hi[1] + gap}.get(beyond, y)
        return float(x), float(y)
    return float(cx + dx), float(cy + dy)


@st.composite
def campaigns(draw):
    grid = draw(grids())
    frame = grid.frame
    n = len(grid)
    if draw(st.booleans()):
        counts = tuple(draw(st.lists(st.integers(0, draw(st.sampled_from([1, 6, 40]))), min_size=n, max_size=n)))
    else:
        counts = (0,) * n
    placement = Placement(counts, budget=sum(counts) + draw(st.integers(0, 3)))
    catalog = []
    for fid in range(draw(st.integers(0, 8))):
        x, y = draw(points(frame))
        catalog.append(
            FireEvent(
                fid,
                frame_point(frame, x, y),
                draw(st.integers(0, n - 1)),
                recorded_area_km2=draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0))),
            )
        )
    econ = EconomicsParams(
        draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 1e6))
    )
    return grid, placement, catalog, econ


@pytest.mark.filterwarnings("ignore:empty fire catalog")
@PROPERTY
@given(campaigns(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_run_campaign_equals_kdtree_reference(case, trials, seed):
    grid, placement, catalog, econ = case
    fast = run_campaign(grid, placement, catalog, econ, trials=trials, seed=seed, scheme="s")
    slow = run_campaign_kdtree(grid, placement, catalog, econ, trials=trials, seed=seed, scheme="s")
    assert fast == slow


def test_detecting_sensor_in_a_neighbour_cell():
    """The fire's own cell is empty; the neighbour's square lies 0.54 sides
    away, inside r_max = 0.564 sides, so only its sensors can detect."""
    side = 10.0
    regions = [
        dict(lat=BASE_LAT, lon=BASE_LON + i * side / KM_PER_DEG_LON, biomass=1.0 + i,
             soil_moisture=0.2, lightning=0.0, p_human=0.5, spread_rate=1.0)
        for i in range(2)
    ]
    grid = grid_of(regions, side * side)
    frame = grid.frame
    cx, cy = frame.centers_xy[0]
    catalog = [FireEvent(0, frame_point(frame, cx - 0.04 * side, cy), 0, 60.0)]
    placement = Placement((0, 400), budget=400)
    fast = run_campaign(grid, placement, catalog, EconomicsParams(), trials=3, seed=5)
    assert fast == run_campaign_kdtree(grid, placement, catalog, EconomicsParams(), trials=3, seed=5)
    assert fast.fires[0].detection_rate > 0.0


@PROPERTY
@given(st.data())
def test_locate_equals_kdtree_reference(data):
    grid = data.draw(grids())
    frame = grid.frame
    p = frame_point(frame, *data.draw(points(frame)))
    x, y = frame.project(p)
    d2 = (frame.centers_xy[:, 0] - x) ** 2 + (frame.centers_xy[:, 1] - y) ** 2
    tied = np.flatnonzero(d2 == d2.min())
    try:
        got = frame.locate(p)
    except ValidationError:
        got = None
    if len(tied) > 1:
        # At an exact tie either nearest cell may be returned, if it holds p.
        if got is not None:
            assert got in tied
            cx, cy = frame.centers_xy[got]
            half = frame.side_km / 2.0 + 1e-9
            assert abs(x - cx) <= half and abs(y - cy) <= half
        return
    try:
        want = locate_kdtree(frame, p)
    except ValidationError:
        want = None
    assert got == want


def test_cli_import_leaves_out_scipy_spatial():
    src = str(Path(firesat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, firesat.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    for package in ("scipy.spatial", "scipy"):
        assert [m for m in loaded if m == package or m.startswith(package + ".")] == []
