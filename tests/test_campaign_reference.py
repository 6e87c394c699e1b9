"""The cell-local campaign and the banded cell lookups against their KD-tree
and full-scan references, on random grids, placements and fire catalogs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import firesat
from firesat import campaign
from firesat.campaign import EconomicsParams, baseline_outcomes, run_campaign, scatter_sensors
from firesat.errors import ValidationError
from firesat.geo import GeoPoint
from firesat.grid import KM_PER_DEG_LAT, FireEvent, GridFrame
from firesat.placement import Placement

from conftest import ECON, grid_of

from campaign_reference import (
    biomass_avg_full,
    gap_sq,
    intersecting_mask,
    locate_full,
    locate_kdtree,
    run_campaign_kdtree,
)

BASE_LAT, BASE_LON = 36.0, -120.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))

PROPERTY = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def grids(draw):
    """Cells laid out square, jittered, at irregular row/column spacing, or
    overlapping (centres closer than a side)."""
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    area = draw(st.floats(1.0, 400.0))
    side = math.sqrt(area)
    layout = draw(st.sampled_from(["square", "jittered", "irregular", "overlapping"]))
    if layout in ("irregular", "overlapping"):
        gaps = st.floats(0.3, 2.0) if layout == "irregular" else st.floats(0.2, 0.9)
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
    fast = run_campaign(grid, placement, catalog, ECON, trials=3, seed=5)
    assert fast == run_campaign_kdtree(grid, placement, catalog, ECON, trials=3, seed=5)
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


def outcome(fn, *args):
    """fn(*args), or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as err:
        return f"ValidationError: {err}"


@PROPERTY
@given(st.data())
def test_banded_lookups_equal_full_scan(data):
    """cells_within, biomass_avg and locate scan an x-band of cells; they
    return what a scan over all cells returns, bit for bit, at points on
    cell edges and corners and outside the grid, for reaches of 0 to 3 sides
    and reaches at a cell's own gap."""
    grid = data.draw(grids())
    frame = grid.frame
    x, y = data.draw(points(frame))
    full = gap_sq(frame, x, y)
    if data.draw(st.booleans()):
        reach = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) * frame.side_km
    else:
        reach = math.sqrt(float(full[data.draw(st.integers(0, len(full) - 1))]))
    cells, gaps = frame.cells_within(x, y, reach)
    want = np.flatnonzero(full <= reach * reach)
    assert cells.tolist() == want.tolist()
    assert gaps.view(np.int64).tolist() == full[want].view(np.int64).tolist()
    assert frame.biomass_avg(x, y, reach) == biomass_avg_full(frame, x, y, reach)
    p = frame_point(frame, x, y)
    assert outcome(frame.locate, p) == outcome(locate_full, frame, p)


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_batched_disk_biomass_equals_full_scan(data):
    """One disk_biomass call over rows of mixed widths gives each row's
    full-scan mean bit for bit. Drawn rows sit inside, on and outside the
    grid; three more select no cell, one cell at radius 0, and every cell,
    which is 8 or more on grids of 8 or more cells."""
    grid = data.draw(grids())
    frame = grid.frame
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        x, y = data.draw(points(frame))
        if data.draw(st.booleans()):
            radius = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) * frame.side_km
        else:
            radius = math.sqrt(float(data.draw(st.sampled_from(gap_sq(frame, x, y).tolist()))))
        rows.append((x, y, radius))
    cx, cy = frame.centers_xy[data.draw(st.integers(0, len(grid) - 1))].tolist()
    lo, hi = frame.centers_xy.min(axis=0), frame.centers_xy.max(axis=0)
    span = float(np.hypot(*(hi - lo))) + frame.side_km
    rows += [(float(lo[0]) - span, cy, 0.0), (cx, cy, 0.0), (cx, cy, span)]
    xy = [(x, y) for x, y, _ in rows]
    radius = np.array([r for _, _, r in rows])
    means = frame.disk_biomass(*frame.disks(xy, radius), radius)
    assert means.view(np.int64).tolist() == [
        np.float64(biomass_avg_full(frame, x, y, r)).view(np.int64) for x, y, r in rows
    ]
    selected = [int(intersecting_mask(frame, x, y, r).sum()) for x, y, r in rows[-3:]]
    assert selected[0] == 0 and selected[1] >= 1 and selected[2] == len(grid)


def test_cli_import_leaves_out_scipy_spatial():
    src = str(Path(firesat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, firesat.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    for package in ("scipy.spatial", "scipy"):
        assert [m for m in loaded if m == package or m.startswith(package + ".")] == []


def cell_grid(xy_sides, side, seed=0):
    """Cells centred at the given (x, y) multiples of `side`, with generic biomass."""
    biomass = np.random.default_rng(seed).uniform(0.0, 2.0, len(xy_sides))
    regions = [
        dict(lat=BASE_LAT + y * side / KM_PER_DEG_LAT, lon=BASE_LON + x * side / KM_PER_DEG_LON,
             biomass=float(b), soil_moisture=0.2, lightning=0.0, p_human=0.5, spread_rate=1.0)
        for (x, y), b in zip(xy_sides, biomass)
    ]
    return grid_of(regions, side * side)


def test_overlapping_cells_average_biomass_pairwise():
    """Cells 0.3 sides apart overlap, so a detection disk can touch 8 or more
    of them, where numpy's mean sums pairwise; the fires select 16, 9 to 16,
    8 and 4 cells, on both sides of that threshold."""
    side = 10.0
    grid = cell_grid([(0.3 * c, 0.3 * r) for r in range(4) for c in range(4)], side, seed=5)
    frame = grid.frame
    # On this grid a left fold over all 16 cells rounds differently from .mean().
    fold = 0.0
    for b in grid.biomass.tolist():
        fold += b
    assert fold / 16 != grid.biomass.mean()
    # Offsets from the middle, in sides: every square holds a point within
    # 0.05 of it; at 0.42 along one axis 8 squares do, at 0.42 along both 4
    # do, and all 16 cells remain candidates.
    rng = np.random.default_rng(11)
    offsets = [rng.uniform(-0.05, 0.05, 2) for _ in range(4)]
    offsets += [rng.uniform(-0.25, 0.25, 2) for _ in range(4)]
    offsets += [(0.42 * sx, 0.02) for sx in (-1, 1)] + [(0.02, 0.42 * sy) for sy in (-1, 1)]
    offsets += [(0.42 * sx, 0.42 * sy) for sx in (-1, 1) for sy in (-1, 1)]
    catalog = []
    for fid, offset in enumerate(offsets):
        x, y = frame.centers_xy.mean(axis=0) + np.asarray(offset) * side
        catalog.append(FireEvent(fid, frame_point(frame, x, y), 5, 50.0))
    placement = Placement((30,) * len(grid), budget=30 * len(grid))
    fast = run_campaign(grid, placement, catalog, ECON, trials=4, seed=2)
    assert fast == run_campaign_kdtree(grid, placement, catalog, ECON, trials=4, seed=2)
    assert all(o.detection_rate == 1.0 for o in fast.fires)


def exact_preimage(scale: float, target: float) -> float | None:
    """A float v near target / scale with v * scale == target exactly, if any."""
    v = target / scale
    for _ in range(200):
        v = np.nextafter(v, -math.inf)
    for _ in range(400):
        if v * scale == target:
            return float(v)
        v = np.nextafter(v, math.inf)
    return None


def test_stalled_fire_detected_only_by_a_sensor_on_its_ignition_point():
    """u_p == 0: a fire is detected at time 0 in the trial whose sensor sits
    exactly on its ignition point, and is degenerate in every other trial."""
    side, seed, trials = 8.0, 3, 3
    regions = [dict(lat=0.0, lon=0.0, biomass=1.5, soil_moisture=0.2, lightning=0.0,
                    p_human=0.5, spread_rate=0.0)]
    grid = grid_of(regions, side * side)
    frame = grid.frame
    assert frame.centers_xy.tolist() == [[0.0, 0.0]] and frame.km_per_deg_lon == KM_PER_DEG_LAT
    placement = Placement((40,), budget=40)
    # Trial 0's sensors, computed as the campaign computes them.
    d = np.random.default_rng([seed, 0]).random((40, 2)) - 0.5
    d *= side
    d += frame.centers_xy[0]
    for x, y in d.tolist():
        lon, lat = exact_preimage(KM_PER_DEG_LAT, x), exact_preimage(KM_PER_DEG_LAT, y)
        if lon is not None and lat is not None:
            break
    else:
        pytest.fail("no sensor of trial 0 has an exactly projectable ignition point")
    on_sensor = FireEvent(0, GeoPoint(lat, lon), 0, 20.0)
    assert frame.project(on_sensor.ignition) == (x, y)
    elsewhere = FireEvent(1, GeoPoint(0.001, -0.002), 0, 20.0)
    catalog = [on_sensor, elsewhere]
    fast = run_campaign(grid, placement, catalog, ECON, trials=trials, seed=seed)
    assert fast == run_campaign_kdtree(grid, placement, catalog, ECON, trials=trials, seed=seed)
    hit, miss = fast.fires
    assert (hit.detection_rate, hit.detection_time_h, hit.burned_km2, hit.degenerate) == (
        1 / trials, 0.0, 0.0, True
    )
    assert (miss.detection_rate, miss.detection_time_h, miss.burned_km2, miss.degenerate) == (
        0.0, None, 0.0, True
    )


def test_many_blocks_and_a_fire_with_only_empty_candidates():
    """Corner cells hold enough sensors that the fires' candidate rows fill
    several blocks; the middle cell and its edge neighbours are empty, so the
    fire at the middle cell's centre has no sensor to scan and escapes."""
    side = 10.0
    grid = cell_grid([(c, r) for r in range(3) for c in range(3)], side)
    frame = grid.frame
    counts = tuple(7000 if i in (0, 2, 6, 8) else 0 for i in range(9))
    placement = Placement(counts, budget=sum(counts))
    rng = np.random.default_rng(5)
    catalog = [FireEvent(0, frame_point(frame, *frame.centers_xy[4]), 4, 80.0)]
    for corner in (0, 2, 6, 8):
        for _ in range(3):
            x, y = frame.centers_xy[corner] + rng.uniform(-0.45, 0.45, 2) * side
            catalog.append(FireEvent(len(catalog), frame_point(frame, x, y), corner, 30.0))
    r_max = math.sqrt(grid.cell_area_km2 / math.pi)
    candidates = [intersecting_mask(frame, *frame.project(e.ignition), r_max) for e in catalog]
    assert not np.asarray(counts)[candidates[0]].any()
    assert sum(np.asarray(counts)[c].sum() for c in candidates) > 3 * campaign._BLOCK_ROWS
    fast = run_campaign(grid, placement, catalog, ECON, trials=2, seed=9)
    assert fast == run_campaign_kdtree(grid, placement, catalog, ECON, trials=2, seed=9)
    middle = fast.fires[0]
    assert (middle.detection_rate, middle.burned_km2, middle.degenerate) == (0.0, 80.0, False)
    assert all(o.detection_rate == 1.0 for o in fast.fires[1:])


@pytest.mark.filterwarnings("ignore:empty fire catalog")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_zero_sensor_campaign_equals_baseline(data):
    grid = data.draw(grids())
    frame = grid.frame
    catalog = [
        FireEvent(
            fid,
            frame_point(frame, *data.draw(points(frame))),
            data.draw(st.integers(0, len(grid) - 1)),
            data.draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0))),
        )
        for fid in range(data.draw(st.integers(0, 8)))
    ]
    # One or two trials average a repeated value exactly.
    trials = data.draw(st.integers(1, 2))
    placement = Placement((0,) * len(grid), budget=data.draw(st.integers(0, 3)))
    result = run_campaign(grid, placement, catalog, ECON, trials=trials,
                          seed=data.draw(st.integers(0, 2**32 - 1)))
    assert len(result.fires) == len(catalog)
    burned, carbon = baseline_outcomes(catalog, grid)
    for outcome, base_burned, base_carbon, event in zip(result.fires, burned.tolist(), carbon.tolist(), catalog):
        stalled = bool(grid.spread_rate[event.region_id] == 0.0)
        assert (outcome.fire_id, outcome.detection_rate, outcome.detection_time_h) == (event.id, 0.0, None)
        assert outcome.degenerate == stalled
        assert outcome.burned_km2 == (0.0 if stalled else base_burned)
        assert outcome.carbon_ton == (0.0 if stalled else base_carbon)


def nearest_cells(grid, placement, fire, seed, trials):
    """Per trial, the cell of the sensor nearest to `fire`, from the same
    positions as scatter_sensors."""
    owner = np.repeat(np.arange(len(grid)), placement.counts)
    fx, fy = grid.frame.project(fire.ignition)
    found = []
    for trial in range(trials):
        xy = scatter_sensors(placement, grid, [seed, trial])
        found.append(int(owner[np.argmin(np.hypot(xy[:, 0] - fx, xy[:, 1] - fy))]))
    return found


def test_neighbour_sensor_nearer_than_the_own_cells():
    """The fire's own cell holds two sensors, but it lies 0.02 sides from a
    neighbour with 400, so its nearest sensor is the neighbour's in every
    trial; only the second phase gathers that cell."""
    side, seed, trials = 10.0, 5, 4
    grid = cell_grid([(0, 0), (1, 0)], side)
    frame = grid.frame
    west_edge = frame.centers_xy[1, 0] - side / 2.0
    fire = FireEvent(0, frame_point(frame, west_edge - 0.02 * side, frame.centers_xy[0, 1]), 0, 60.0)
    assert frame.locate(fire.ignition) == 0
    placement = Placement((2, 400), budget=402)
    assert nearest_cells(grid, placement, fire, seed, trials) == [1] * trials
    fast = run_campaign(grid, placement, [fire], ECON, trials=trials, seed=seed)
    assert fast == run_campaign_kdtree(grid, placement, [fire], ECON, trials=trials, seed=seed)
    assert fast.fires[0].detection_rate == 1.0


def test_empty_own_cell_nearest_sensor_in_the_farther_neighbour():
    """The fire's own cell is empty. Its west neighbour, 0.04 sides away, is
    the nearest occupied cell but holds one sensor; its north neighbour,
    0.06 sides away, holds 400 and the nearest sensor in every trial."""
    side, seed, trials = 10.0, 6, 4
    grid = cell_grid([(0, 0), (1, 0), (1, 1)], side)
    frame = grid.frame
    (wx, _), (ox, oy), (_, ny) = frame.centers_xy
    fire = FireEvent(0, frame_point(frame, wx + side / 2 + 0.04 * side, ny - side / 2 - 0.06 * side), 1, 60.0)
    assert frame.locate(fire.ignition) == 1
    cells, gaps = frame.cells_within(*frame.project(fire.ignition), 0.1 * side)
    assert cells.tolist() == [0, 1, 2] and gaps[0] < gaps[2]
    placement = Placement((1, 0, 400), budget=401)
    assert nearest_cells(grid, placement, fire, seed, trials) == [2] * trials
    fast = run_campaign(grid, placement, [fire], ECON, trials=trials, seed=seed)
    assert fast == run_campaign_kdtree(grid, placement, [fire], ECON, trials=trials, seed=seed)
    assert fast.fires[0].detection_rate == 1.0


def test_fire_on_a_corner_of_four_occupied_cells():
    """A fire on the corner the four cells share lies in every square, so all
    four are scanned in the first phase."""
    side, seed, trials = 10.0, 8, 6
    grid = cell_grid([(0, 0), (1, 0), (0, 1), (1, 1)], side)
    frame = grid.frame
    corner = FireEvent(0, frame_point(frame, *frame.centers_xy.mean(axis=0)), 0, 40.0)
    assert frame.cells_within(*frame.project(corner.ignition), 0.0)[0].tolist() == [0, 1, 2, 3]
    placement = Placement((3, 5, 2, 4), budget=14)
    assert len(set(nearest_cells(grid, placement, corner, seed, trials))) > 1
    fast = run_campaign(grid, placement, [corner], ECON, trials=trials, seed=seed)
    assert fast == run_campaign_kdtree(grid, placement, [corner], ECON, trials=trials, seed=seed)


def test_chunks_span_several_blocks_in_both_phases(monkeypatch):
    """Two fires per cell sit 0.001 sides inside the edge they share with the
    cell to the north or south, nearer that square than to most of their own
    cell's 7000 sensors. So both phases gather more than two chunks' rows."""
    side, seed, trials = 10.0, 12, 2
    grid = cell_grid([(0, 0), (1, 0), (0, 1), (1, 1)], side)
    frame = grid.frame
    catalog = []
    for cell, (cx, cy) in enumerate(frame.centers_xy):
        inward = -1.0 if cell >= 2 else 1.0
        for dx in (-0.2, 0.3):
            y = cy + inward * (side / 2 - 0.001 * side)
            catalog.append(FireEvent(len(catalog), frame_point(frame, cx + dx * side, y), cell, 30.0))
    placement = Placement((7000,) * 4, budget=28000)
    gathered = []
    lower = campaign._lower_nearest

    def counting(nearest_sq, unit, side_km, pairs):
        gathered.append(int(pairs.rows.sum()))
        lower(nearest_sq, unit, side_km, pairs)

    monkeypatch.setattr(campaign, "_lower_nearest", counting)
    fast = run_campaign(grid, placement, catalog, ECON, trials=trials, seed=seed)
    monkeypatch.undo()
    assert len(gathered) == 2 * trials
    assert min(gathered) > 2 * campaign._BLOCK_ROWS
    assert fast == run_campaign_kdtree(grid, placement, catalog, ECON, trials=trials, seed=seed)
